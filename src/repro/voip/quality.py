"""VoIP quality thresholds and path predicates used across the evaluation.

"VoIP user satisfaction demands RTT latency be below 300 ms and MOS be
above 3.6" (paper Section 7.1); a path meeting the RTT requirement is a
*quality path*.
"""

from __future__ import annotations

from typing import Optional

from repro.voip.emodel import EModel

#: RTT threshold for a quality path (= 2 × ITU G.114's 150 ms one-way cap).
RTT_THRESHOLD_MS = 300.0
#: MOS below this "likely causes listeners' dissatisfaction" (ITU P.800).
MOS_THRESHOLD = 3.6
#: The evaluation's fixed average path loss rate (paper §7.2, from [20]).
DEFAULT_EVAL_LOSS_RATE = 0.005


def mos_of_path(
    rtt_ms: float,
    loss_rate: float = DEFAULT_EVAL_LOSS_RATE,
    emodel: Optional[EModel] = None,
) -> float:
    """Score one path exactly as the paper's evaluation does:
    G.729A+VAD E-model on (RTT/2, loss)."""
    scorer = emodel if emodel is not None else EModel()
    return scorer.mos_from_rtt(rtt_ms, loss_rate)
