"""Baseline relay-selection methods (paper Section 7.1).

- **DEDI** — RON-like: a fixed fleet of dedicated relay nodes placed in
  the clusters with the largest AS connection degrees (80 by default).
- **RAND** — SOSR-like: probe random peer nodes per session (200).
- **MIX** — both: 40 dedicated + 120 random probes.
- **OPT** — offline optimum: exhaustively iterate one-hop and two-hop
  relay paths over all measured data (no message cost; upper bound).

All methods score relay paths against the same delegate matrices ASAP
uses, so differences come purely from *which* relays each one considers.
"""

from repro.baselines.base import MethodResult, RelayMethod, RelayPolicy
from repro.baselines.dedi import DEDIMethod
from repro.baselines.rand import RANDMethod
from repro.baselines.mix import MIXMethod
from repro.baselines.opt import OPTMethod

__all__ = [
    "DEDIMethod",
    "MIXMethod",
    "MethodResult",
    "OPTMethod",
    "RANDMethod",
    "RelayMethod",
    "RelayPolicy",
]
