"""VoIP quality modelling: codecs, the ITU-T E-model, and MOS.

The paper scores relay paths with the ITU E-model: fix the codec
(G.729A+VAD), feed in the path's one-way delay and packet loss rate, and
read off MOS.  Quality requirements: RTT below 300 ms (one-way 150 ms,
ITU G.114) and MOS above 3.6.
"""

from repro.voip.codecs import Codec, G711, G723_1, G729, G729A_VAD, ILBC
from repro.voip.emodel import EModel, EModelConfig
from repro.voip.outage import (
    OUTAGE_FLOOR_MOS,
    OutageImpact,
    OutageWindow,
    account_outages,
    merge_windows,
)
from repro.voip.quality import (
    MOS_THRESHOLD,
    RTT_THRESHOLD_MS,
    mos_of_path,
)

__all__ = [
    "Codec",
    "EModel",
    "EModelConfig",
    "G711",
    "G723_1",
    "G729",
    "G729A_VAD",
    "ILBC",
    "MOS_THRESHOLD",
    "OUTAGE_FLOOR_MOS",
    "OutageImpact",
    "OutageWindow",
    "RTT_THRESHOLD_MS",
    "account_outages",
    "merge_windows",
    "mos_of_path",
]
