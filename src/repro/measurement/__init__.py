"""Measurement substrate: latency/loss ground truth and measurement tools.

The paper measures pairwise delegate RTTs with King and per-path loss.
Here the same roles are played by:

- :mod:`repro.measurement.conditions` — which ASes are congested/failed
  and each AS's loss rate (the injected "weather" of a scenario);
- :mod:`repro.measurement.latency` — ground-truth path latency/loss over
  policy-routed AS paths (geography + per-link jitter + congestion);
- :mod:`repro.measurement.tools` — simulated ``King`` (noise +
  non-response, like real recursive-DNS probing);
- :mod:`repro.measurement.matrix` — the all-pairs cluster-delegate RTT /
  loss / AS-hop matrices that drive every experiment.
"""

from repro.measurement.conditions import ConditionsConfig, NetworkConditions, generate_conditions
from repro.measurement.latency import LatencyModel, RELAY_DELAY_ONE_WAY_MS, RELAY_DELAY_RTT_MS
from repro.measurement.matrix import (
    DelegateMatrices,
    apply_king_noise,
    compute_delegate_matrices,
)
from repro.measurement.tools import KingEstimator

__all__ = [
    "ConditionsConfig",
    "DelegateMatrices",
    "KingEstimator",
    "LatencyModel",
    "NetworkConditions",
    "RELAY_DELAY_ONE_WAY_MS",
    "RELAY_DELAY_RTT_MS",
    "apply_king_noise",
    "compute_delegate_matrices",
    "generate_conditions",
]
