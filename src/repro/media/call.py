"""Voice-call runtime: path switching and path diversity over ASAP relays.

Section 6.2 of the paper: "Techniques such as path diversity ([15, 19])
and path switching [20] can be used in combination with ASAP to
transmit voice packets."  This module implements both on top of the
relay candidates select-close-relay returns, with the media session
(:mod:`repro.media.session`) as the packet pipeline underneath:

- **path switching** [Tao et al.]: monitor the active path's quality in
  windows; when its windowed MOS falls below a threshold, switch to the
  best alternate candidate;
- **path diversity** [Liang et al.]: transmit every packet over the two
  best candidate paths and keep the earlier surviving copy — or, as FEC
  [Nguyen & Zakhor], only a parity packet per group on the second path.

Paths degrade over time through an on/off congestion process
(:class:`PathQualityProcess`), so a call that starts on a good relay
can sour mid-call — the scenario switching exists for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.media.frames import CODEC_WIRE_IDS, ReceivedTrace, trace_from_wire
from repro.media.jitterbuf import JitterBufferConfig
from repro.media.score import MeasuredScore, score_trace
from repro.media.session import MediaPlaneConfig, MediaResult, PathWindow, run_media_session
from repro.util.rng import derive_rng
from repro.voip.codecs import G729A_VAD

#: One call window: the unit of path state, switching and scoring.
CALL_WINDOW_MS = 2_000.0
#: Fixed playout depth of a call's jitter buffer.
PLAYOUT_DEPTH_MS = 40.0
#: Path switching: switch when the active window's MOS dips below.
SWITCH_MOS_THRESHOLD = 3.2
#: FEC over the secondary path [Nguyen & Zakhor]: one XOR parity per
#: this many voice packets.
FEC_GROUP_SIZE = 4


@dataclass(frozen=True)
class PathState:
    """Quality of one candidate path during one time window."""

    one_way_delay_ms: float
    loss_rate: float


class PathQualityProcess:
    """Two-state (clear/congested) Markov process per path, per window.

    In the congested state the path gains extra one-way delay and loss.
    Transitions are sampled independently per window with the given
    probabilities, seeded deterministically per path.
    """

    def __init__(
        self,
        base_one_way_ms: float,
        base_loss: float,
        congest_probability: float = 0.05,
        recover_probability: float = 0.5,
        congestion_delay_ms: float = 120.0,
        congestion_loss: float = 0.05,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= congest_probability <= 1.0 or not 0.0 <= recover_probability <= 1.0:
            raise ConfigurationError("transition probabilities must be in [0, 1]")
        if base_one_way_ms < 0 or congestion_delay_ms < 0:
            raise ConfigurationError("delays must be non-negative")
        self._base_delay = base_one_way_ms
        self._base_loss = min(max(base_loss, 0.0), 1.0)
        self._p_congest = congest_probability
        self._p_recover = recover_probability
        self._extra_delay = congestion_delay_ms
        self._extra_loss = congestion_loss
        self._rng = derive_rng(seed, "path-quality")
        self._congested = False

    def step(self) -> PathState:
        """Advance one window and return the path's state for it."""
        if self._congested:
            if self._rng.random() < self._p_recover:
                self._congested = False
        else:
            if self._rng.random() < self._p_congest:
                self._congested = True
        if self._congested:
            return PathState(
                one_way_delay_ms=self._base_delay + self._extra_delay,
                loss_rate=min(self._base_loss + self._extra_loss, 1.0),
            )
        return PathState(one_way_delay_ms=self._base_delay, loss_rate=self._base_loss)


@dataclass(frozen=True)
class CallConfig:
    """Knobs of the call runtime."""

    windows: int = 30
    use_switching: bool = True
    use_diversity: bool = False
    # FEC parity over the secondary path; mutually exclusive with full
    # duplication (use_diversity).
    use_fec: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.windows < 1:
            raise ConfigurationError("windows must be positive")
        if self.use_fec and self.use_diversity:
            raise ConfigurationError("use_fec and use_diversity are exclusive")


@dataclass
class WindowOutcome:
    """Per-window record of a running call."""

    window: int
    active_path: int
    mos: float
    switched: bool
    effective_loss: float
    mouth_to_ear_ms: float


@dataclass
class CallOutcome:
    """Full result of one simulated call."""

    windows: List[WindowOutcome] = field(default_factory=list)

    @property
    def mean_mos(self) -> float:
        return float(np.mean([w.mos for w in self.windows])) if self.windows else 1.0

    @property
    def min_mos(self) -> float:
        return float(min((w.mos for w in self.windows), default=1.0))

    @property
    def switches(self) -> int:
        return sum(1 for w in self.windows if w.switched)

    @property
    def satisfied_fraction(self) -> float:
        """Fraction of call time above the 3.6 MOS satisfaction bound."""
        if not self.windows:
            return 0.0
        return float(np.mean([w.mos > 3.6 for w in self.windows]))


class VoiceCall:
    """One call over a ranked list of candidate paths.

    ``paths`` supplies (one-way delay ms, loss rate) per candidate, best
    first — in practice the relay paths select-close-relay returned,
    each wrapped in a :class:`PathQualityProcess` for dynamics.  Every
    window is one :func:`repro.media.run_media_session` over the active
    path's state, so frames, channel, playout, concealment and scoring
    are the media plane's.
    """

    def __init__(
        self,
        paths: Sequence[PathQualityProcess],
        config: CallConfig = CallConfig(),
    ) -> None:
        if not paths:
            raise ConfigurationError("a call needs at least one candidate path")
        self._paths = list(paths)
        self._config = config
        # Fixed codec: both legs of a diverse send carry the same frames.
        self._media = MediaPlaneConfig(
            jitterbuf=JitterBufferConfig(
                min_depth_ms=PLAYOUT_DEPTH_MS, max_depth_ms=PLAYOUT_DEPTH_MS
            ),
            adaptation=None,
            window_ms=CALL_WINDOW_MS,
        )

    def run(self) -> CallOutcome:
        """Simulate the whole call window by window."""
        config = self._config
        outcome = CallOutcome()
        active = 0
        for window in range(config.windows):
            states = [p.step() for p in self._paths]
            score = self._window_score(window, states, active)
            heard = score.windows[0]  # one call window = one scoring window
            mouth_to_ear = heard.mean_delay_ms + G729A_VAD.codec_delay_ms()
            switched = False
            if (
                config.use_switching
                and score.mos < SWITCH_MOS_THRESHOLD
                and len(self._paths) > 1
            ):
                active = self._best_alternate(states, active)
                switched = True
            outcome.windows.append(
                WindowOutcome(
                    window=window,
                    active_path=active,
                    mos=score.mos,
                    switched=switched,
                    effective_loss=score.effective_loss,
                    mouth_to_ear_ms=mouth_to_ear if heard.played else float("inf"),
                )
            )
        return outcome

    def _send(self, window: int, role: int, state: PathState) -> MediaResult:
        """One window's frames over one path (role 0 active, 1 secondary)."""
        return run_media_session(
            call_id=2 * window + role,
            duration_ms=CALL_WINDOW_MS,
            path=[PathWindow(0.0, 2.0 * state.one_way_delay_ms, state.loss_rate)],
            config=self._media,
            seed=self._config.seed,
        )

    def _window_score(
        self, window: int, states: Sequence[PathState], active: int
    ) -> MeasuredScore:
        config = self._config
        primary = self._send(window, 0, states[active])
        if not (config.use_diversity or config.use_fec) or len(states) < 2:
            return primary.score
        secondary = self._send(window, 1, states[self._best_alternate(states, active)])
        if config.use_diversity:
            trace = merge_diverse_traces(primary.trace, secondary.trace)
        else:
            trace = recover_with_parity(primary.trace, secondary.trace)
        media = self._media
        return score_trace(trace, media.jitterbuf, media.window_ms)

    def _best_alternate(self, states: Sequence[PathState], active: int) -> int:
        """The non-active path with the best instantaneous quality."""
        best_index = active
        best_score = float("inf")
        for index, state in enumerate(states):
            if index == active:
                continue
            score = state.one_way_delay_ms + 2_000.0 * state.loss_rate
            if score < best_score:
                best_score = score
                best_index = index
        return best_index


def _require_same_frames(a: ReceivedTrace, b: ReceivedTrace) -> None:
    sent_a, sent_b = ([(f.sent_ms, f.codec) for f in t.frames] for t in (a, b))
    if sent_a != sent_b:
        raise ConfigurationError("both paths must carry the same frames")


def merge_diverse_traces(primary: ReceivedTrace, secondary: ReceivedTrace) -> ReceivedTrace:
    """Path diversity [Liang/Steinbach/Girod]: every frame is sent on two
    paths and the receiver keeps the earlier surviving copy — the wire
    receiver's duplicate rule, so :func:`trace_from_wire` does the merge."""
    _require_same_frames(primary, secondary)
    receipts = [
        (f.sequence, f.sent_ms, f.arrival_ms, CODEC_WIRE_IDS[f.codec])
        for f in primary.frames + secondary.frames
        if not f.lost
    ]
    return trace_from_wire(primary.call_id, receipts, len(primary.frames))


def recover_with_parity(
    voice: ReceivedTrace, secondary: ReceivedTrace, group_size: int = FEC_GROUP_SIZE
) -> ReceivedTrace:
    """FEC over a diverse path [Nguyen & Zakhor]: one XOR parity packet
    per ``group_size`` voice frames travels the secondary path in the
    group's last send slot, so its fate is ``secondary``'s frame there.
    A group missing exactly one voice frame recovers it when the parity
    arrived, at the latest arrival among the parity and the survivors —
    reconstruction needs every piece."""
    if group_size < 2:
        raise ConfigurationError("group_size must be >= 2")
    _require_same_frames(voice, secondary)
    frames = list(voice.frames)
    for lo in range(0, len(frames), group_size):
        group = voice.frames[lo : lo + group_size]
        missing = [f for f in group if f.lost]
        parity = secondary.frames[lo + len(group) - 1]
        if len(missing) != 1 or parity.lost:
            continue
        pieces = [parity.arrival_ms] + [f.arrival_ms for f in group if not f.lost]
        frames[missing[0].sequence] = missing[0]._replace(arrival_ms=max(pieces))
    return ReceivedTrace(voice.call_id, tuple(frames))


def call_paths_from_selection(
    selection,
    matrices,
    caller_cluster: int,
    callee_cluster: int,
    max_paths: int = 4,
    seed: int = 0,
) -> List[PathQualityProcess]:
    """Wrap a RelaySelection's best one-hop candidates (plus the direct
    path) into quality processes for a :class:`VoiceCall`."""
    candidates: List[Tuple[float, float]] = []
    direct_rtt = float(matrices.rtt_ms[caller_cluster, callee_cluster])
    if np.isfinite(direct_rtt):
        candidates.append(
            (direct_rtt / 2.0, float(matrices.loss[caller_cluster, callee_cluster]))
        )
    for rtt, cluster in selection.one_hop_ranked()[:max_paths]:
        loss = matrices.one_hop_path_loss(caller_cluster, cluster, callee_cluster)
        candidates.append((rtt / 2.0, loss))
    candidates.sort(key=lambda c: c[0] + 2_000.0 * c[1])
    return [
        PathQualityProcess(
            base_one_way_ms=delay,
            base_loss=loss,
            seed=seed + index,
        )
        for index, (delay, loss) in enumerate(candidates[:max_paths])
    ]
