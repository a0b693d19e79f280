"""Simulated King measurement.

:class:`KingEstimator` samples the hidden
:class:`~repro.measurement.latency.LatencyModel` with its own error
process, mirroring how the paper's pipeline never sees ground truth
directly: DNS-based RTT estimation between *arbitrary* hosts, with a
multiplicative error plus a non-response fraction (the paper got answers
for only 1,498,749 of 2,130,140 delegate pairs).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import MeasurementError
from repro.measurement.latency import LatencyModel
from repro.topology.population import Host


class KingEstimator:
    """King-style RTT estimation between arbitrary end hosts.

    King measures the RTT between the DNS servers nearest to the two
    hosts; we model that as the true host RTT with (i) a multiplicative
    error (the DNS servers are near but not at the hosts) and (ii) a
    non-response probability per pair (firewalled / non-recursive DNS).
    Non-responses are deterministic per pair — retrying King on a
    non-cooperating pair keeps failing, as in the real measurement.
    """

    def __init__(
        self,
        model: LatencyModel,
        seed: int = 0,
        error_sigma: float = 0.06,
        non_response_rate: float = 0.10,
    ) -> None:
        if not 0.0 <= non_response_rate < 1.0:
            raise MeasurementError("non_response_rate must be in [0, 1)")
        if error_sigma < 0:
            raise MeasurementError("error_sigma must be non-negative")
        self._model = model
        self._seed = seed
        self._error_sigma = error_sigma
        self._non_response_rate = non_response_rate

    def estimate(self, a: Host, b: Host) -> Optional[float]:
        """Estimated RTT in ms, or None when the pair does not respond."""
        pair_rng = self._pair_rng(a, b)
        if pair_rng.random() < self._non_response_rate:
            return None
        truth = self._model.host_rtt_ms(a, b)
        if truth is None:
            return None
        factor = float(pair_rng.lognormal(mean=0.0, sigma=self._error_sigma))
        return truth * factor

    def _pair_rng(self, a: Host, b: Host) -> np.random.Generator:
        lo, hi = sorted((a.ip.value, b.ip.value))
        mix = (lo * 2_654_435_761 + hi * 40_503 + self._seed) % (2**32)
        return np.random.default_rng(mix)
