"""Synthetic two-party dialogues with exact labels, plus end-to-end latency sessions.

Speech is rendered as spectrally tilted noise bursts (distinct tilt per
speaker) on a 10 ms grid so the activity labels are exact by construction.
Half the user turns close with a learnable turn-final cue (spectral darkening
plus level decay); the rest end flat, and some turns continue across a long
mid-turn pause, which keeps the end-of-turn race genuinely ambiguous. Sessions
replay a scripted dialogue through the streaming engine's batched replay and
measure when each endpointing policy would have let the robot respond.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property, partial

import numpy as np

from .audio import (
    LABEL_FRAME_RATE,
    SAMPLE_RATE,
    AudioError,
    VadTrack,
    Waveform,
    label_frame_count,
)
from .endpointing import (
    SOURCE_VAP,
    SttSimConfig,
    VapEndpointerConfig,
    arbitrate,
    stt_decide,
    vap_decide,
)
from .features import HOP_SAMPLES
from .model import ModelConfig
from .noise import apply_condition, shape_noise, shape_noises  # noqa: F401
from .stats import SampleDist, describe, histogram_fixed, rank_sum_test

# run_stream and apply_condition are not called here; they stay importable as
# vapturn.simulate.run_stream and .apply_condition, names perfbench's traced
# run wraps
from .streaming import TICK_PERIOD_S, replay, run_stream  # noqa: F401

# stt: the cloud endpointer alone; hybrid: the local detector raced against
# it; vap: the hybrid turns the local detector decided
POLICIES = ("stt", "hybrid", "vap")

USER_TILT_DB_PER_OCTAVE = -4.0
ROBOT_TILT_DB_PER_OCTAVE = 2.0
UTTERANCE_RMS = 0.15
EDGE_RAMP_S = 0.01
FINAL_CUE_S = 0.4
FINAL_CUE_FLOOR = 0.12
# turn-final cue: the spectrum darkens while the level decays; the spectral
# part matters because per-frame feature normalization cancels flat level drops
FINAL_CUE_TILT_DB = -9.0
# floor-holding cue on non-final groups: the spectrum brightens instead
HOLD_CUE_S = 0.25
HOLD_CUE_TILT_DB = 8.0
AM_RATE_HZ = 4.0
AM_DEPTH = 0.35


def _grid(t: float) -> float:
    """Snap a time to the 10 ms label grid."""
    return round(t * LABEL_FRAME_RATE) / LABEL_FRAME_RATE


@dataclass(frozen=True)
class DialogueScript:
    """Generative recipe for one synthetic dialogue."""

    n_turns: int = 6
    user_utterance_s: tuple = (1.2, 3.5)
    robot_utterance_s: tuple = (1.0, 2.5)
    user_reaction_s: SampleDist = field(default_factory=lambda: SampleDist("normal", 2.35, 0.8))
    robot_reaction_s: SampleDist = field(default_factory=lambda: SampleDist("normal", 1.0, 0.35))
    pause_before_end_s: SampleDist = field(default_factory=lambda: SampleDist("uniform", 0.4, 0.2))
    pause_prob: float = 0.35
    # a continued turn holds the floor through a long mid-turn silence whose
    # length overlaps the robot reaction gap, so silence alone never settles
    # whether the turn is over
    continuation_prob: float = 0.4
    continuation_pause_s: SampleDist = field(default_factory=lambda: SampleDist("uniform", 1.0, 0.3))
    final_cue_prob: float = 0.5
    # optional floor-holding prosody on non-final groups; strong values make
    # the detector globally conservative, so default off
    hold_cue_prob: float = 0.0
    lead_in_s: tuple = (0.4, 0.9)
    tail_s: float = 2.5
    seed: int = 0

    def __post_init__(self):
        if self.n_turns < 0:
            raise ValueError("n_turns must be >= 0")
        for name in ("user_utterance_s", "robot_utterance_s", "lead_in_s"):
            lo, hi = getattr(self, name)
            if not (lo > 0 and math.inf > hi >= lo):
                raise ValueError(f"{name} must be a positive, finite (min, max) range")
        for name in ("pause_prob", "continuation_prob", "final_cue_prob", "hold_cue_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0 <= self.tail_s < math.inf:
            raise ValueError("tail_s must be finite and >= 0")

    def to_json_dict(self) -> dict:
        """The fields as plain JSON: tuples as lists, SampleDists as objects."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "DialogueScript":
        """Inverse of to_json_dict: a key whose field defaults to a tuple
        takes its list as a tuple, one that defaults to a SampleDist takes
        its object as one. An unknown key raises TypeError."""
        default = cls()
        kinds = {f.name: type(getattr(default, f.name)) for f in fields(default)}
        return cls(**{k: _from_json(kinds.get(k), v) for k, v in d.items()})


def _from_json(kind, value):
    if kind is tuple:
        return tuple(value)
    if kind is SampleDist and isinstance(value, dict):
        return SampleDist.from_json_dict(value)
    return value


@dataclass(frozen=True)
class ScriptedTurn:
    """Ground-truth timing of one user turn and the scripted robot reply."""

    user_start_s: float
    user_end_s: float
    robot_start_s: float
    robot_end_s: float
    has_final_cue: bool
    has_pause: bool
    has_continuation: bool = False


@dataclass(frozen=True, eq=False)
class ScriptedDialogue:
    """A dialogue's exact turn timeline and label tracks, with its two
    aligned channels rendered on first read.

    ``channels`` holds the user's and the robot's channel, each a Waveform
    or a function of no arguments that renders it. ``channel_a`` is the
    user channel, ``channel_b`` the robot's; each is made once, on first
    read, and ``channel_b`` reads ``channel_a`` first
    (generate_scripted_dialogue's functions draw from one generator in that
    order). The turns, the label tracks, ``n_samples`` and ``duration_s``
    render nothing. AudioError when a label track or a given Waveform does
    not match ``n_samples``.
    """

    turns: tuple
    n_samples: int
    vad_a: VadTrack
    vad_b: VadTrack
    channels: tuple = field(repr=False)

    def __post_init__(self):
        expect = label_frame_count(self.n_samples)
        for name, track in (("vad_a", self.vad_a), ("vad_b", self.vad_b)):
            if len(track) != expect:
                raise AudioError(f"{name} has {len(track)} frames, expected {expect}")
        for channel in self.channels:
            if isinstance(channel, Waveform) and len(channel) != self.n_samples:
                raise AudioError(f"channel has {len(channel)} samples, expected {self.n_samples}")

    @property
    def duration_s(self) -> float:
        return self.n_samples / SAMPLE_RATE

    @cached_property
    def channel_a(self) -> Waveform:
        return _realized(self.channels[0])

    @cached_property
    def channel_b(self) -> Waveform:
        self.channel_a  # first: the robot channel's draws follow the user's
        return _realized(self.channels[1])

    @property
    def stereo(self) -> "ScriptedDialogue":
        """The dialogue itself, kept only for ``perfbench/``, which reads
        ``channel_a`` through this name."""
        return self


def _realized(channel) -> Waveform:
    return channel if isinstance(channel, Waveform) else channel()


def render_burst(
    duration_s: float,
    rng: np.random.Generator,
    tilt_db_per_octave: float,
    cue: str = "none",
) -> np.ndarray:
    """One speech-like noise burst: tilted spectrum, syllabic amplitude
    modulation, 10 ms edge ramps.

    cue selects the closing prosody: 'final' darkens the spectrum and decays
    the level (turn yielded), 'hold' brightens it (floor kept), 'none' ends
    flat.
    """
    if cue not in ("none", "final", "hold"):
        raise ValueError(f"unknown cue {cue!r}")
    n = int(round(duration_s * SAMPLE_RATE))
    if n == 0:
        return np.zeros(0)
    white = rng.standard_normal(max(n, 32))
    if cue == "none":
        x = shape_noise(white, tilt_db_per_octave)[:n]
    else:
        cue_s, cue_tilt = (
            (FINAL_CUE_S, FINAL_CUE_TILT_DB) if cue == "final" else (HOLD_CUE_S, HOLD_CUE_TILT_DB)
        )
        span = min(int(cue_s * SAMPLE_RATE), n)
        tilts = (tilt_db_per_octave, tilt_db_per_octave + cue_tilt)
        x, shifted = (y[:n] for y in shape_noises(white, tilts))
        blend = np.linspace(0.0, 1.0, span)
        x[-span:] = (1.0 - blend) * x[-span:] + blend * shifted[-span:]
    t = np.arange(n) / SAMPLE_RATE
    phase = rng.uniform(0.0, 2.0 * math.pi)
    x = x * (1.0 + AM_DEPTH * np.sin(2.0 * math.pi * AM_RATE_HZ * t + phase)) / (1.0 + AM_DEPTH)
    ramp = min(int(EDGE_RAMP_S * SAMPLE_RATE), n // 2)
    if ramp > 0:
        edge = 0.5 - 0.5 * np.cos(np.linspace(0.0, math.pi, ramp))
        x[:ramp] *= edge
        x[-ramp:] *= edge[::-1]
    if cue == "final":
        span = min(int(FINAL_CUE_S * SAMPLE_RATE), n)
        x[-span:] *= np.linspace(1.0, FINAL_CUE_FLOOR, span)
    rms = math.sqrt(float(np.mean(x**2)))
    if rms > 0:
        x *= UTTERANCE_RMS / rms
    peak = float(np.abs(x).max())
    if peak > 0.95:
        x *= 0.95 / peak
    return x


def generate_scripted_dialogue(script: DialogueScript) -> ScriptedDialogue:
    """Alternating user/robot turns with exact 10 ms-grid labels.

    Draws the timeline (turns, speech segments, both label tracks and the
    length) and returns it with the channels unrendered: the user channel
    is rendered from the generator state the timeline leaves when
    ``channel_a`` or ``channel_b`` is first read, the robot channel from
    the state after it when ``channel_b`` is. The samples do not depend on
    which is read first."""
    rng = np.random.default_rng(script.seed)
    user_segments = []  # (start_s, dur_s, closing cue)
    robot_segments = []
    turns = []

    def add_group(start_s, end_cue):
        """One utterance group, possibly split by a short hesitation pause."""
        speech_s = _grid(rng.uniform(*script.user_utterance_s))
        split = bool(rng.random() < script.pause_prob and speech_s >= 1.0)
        if split:
            part1 = _grid(speech_s * rng.uniform(0.3, 0.6))
            pause = _grid(max(0.1, script.pause_before_end_s.sample(rng)))
            part2 = _grid(speech_s - part1)
            user_segments.append((start_s, part1, "none"))
            user_segments.append((_grid(start_s + part1 + pause), part2, end_cue))
            return _grid(start_s + part1 + pause + part2), split
        user_segments.append((start_s, speech_s, end_cue))
        return _grid(start_s + speech_s), split

    t = _grid(rng.uniform(*script.lead_in_s))
    for _ in range(script.n_turns):
        has_cue = bool(rng.random() < script.final_cue_prob)
        has_continuation = bool(rng.random() < script.continuation_prob)
        user_start = t
        end_cue = "final" if has_cue else "none"
        if has_continuation:
            # the first group holds the floor across a long pause, usually
            # signalling so prosodically
            hold_cue = "hold" if rng.random() < script.hold_cue_prob else "none"
            group_end, pause_a = add_group(t, end_cue=hold_cue)
            hold = _grid(max(0.2, script.continuation_pause_s.sample(rng)))
            user_end, pause_b = add_group(_grid(group_end + hold), end_cue=end_cue)
            has_pause = pause_a or pause_b
        else:
            user_end, has_pause = add_group(t, end_cue=end_cue)
        robot_start = _grid(user_end + max(0.1, script.robot_reaction_s.sample(rng)))
        robot_dur = _grid(rng.uniform(*script.robot_utterance_s))
        robot_end = _grid(robot_start + robot_dur)
        robot_segments.append((robot_start, robot_dur, "none"))
        turns.append(
            ScriptedTurn(
                user_start_s=user_start,
                user_end_s=user_end,
                robot_start_s=robot_start,
                robot_end_s=robot_end,
                has_final_cue=has_cue,
                has_pause=has_pause,
                has_continuation=has_continuation,
            )
        )
        t = _grid(robot_end + max(0.1, script.user_reaction_s.sample(rng)))
    total_s = _grid((turns[-1].robot_end_s if turns else 0.0) + script.tail_s)
    n = int(round(total_s * SAMPLE_RATE))
    return ScriptedDialogue(
        turns=tuple(turns),
        n_samples=n,
        vad_a=_label_track(user_segments, n),
        vad_b=_label_track(robot_segments, n),
        channels=(
            partial(_render_channel, user_segments, n, rng, USER_TILT_DB_PER_OCTAVE),
            partial(_render_channel, robot_segments, n, rng, ROBOT_TILT_DB_PER_OCTAVE),
        ),
    )


def _label_track(segments, n: int) -> VadTrack:
    lab = np.zeros(label_frame_count(n), dtype=bool)
    for start_s, dur_s, _ in segments:
        f0 = int(round(start_s * LABEL_FRAME_RATE))
        f1 = int(round((start_s + dur_s) * LABEL_FRAME_RATE))
        lab[f0:f1] = True
    return VadTrack(lab)


def _render_channel(segments, n: int, rng: np.random.Generator, tilt: float) -> Waveform:
    """n samples holding one burst per (start, duration, cue) segment."""
    chan = np.zeros(n)
    for start_s, dur_s, cue in segments:
        burst = render_burst(dur_s, rng, tilt, cue=cue)
        i0 = int(round(start_s * SAMPLE_RATE))
        chan[i0 : i0 + burst.size] = burst[: max(0, n - i0)]
    return Waveform.adopt(chan)


@dataclass(frozen=True)
class ResponseTimeRecord:
    """Decision time, deciding source and robot response gap for one user
    turn of a simulated session."""

    turn: int
    robot_response_s: float
    source: str
    decision_time_s: float
    true_end_time_s: float
    premature: bool

    def to_json_dict(self) -> dict:
        """The fields, plus latency_s: decision time minus true end."""
        return {**asdict(self), "latency_s": self.decision_time_s - self.true_end_time_s}


@dataclass(frozen=True)
class SessionStats:
    """Descriptive statistics over a set of response-time records."""

    robot: dict
    histogram: list
    vap_source_fraction: float
    n_turns: int
    n_premature: int

    def to_json_dict(self) -> dict:
        return {
            "robot_response": self.robot,
            "robot_histogram": [[b, c] for b, c in self.histogram],
            "vap_source_fraction": self.vap_source_fraction,
            "n_turns": self.n_turns,
            "n_premature": self.n_premature,
        }


def _slice_vad(vad: VadTrack, start_s: float, end_s: float) -> VadTrack:
    f0 = int(round(start_s * LABEL_FRAME_RATE))
    f1 = int(round(end_s * LABEL_FRAME_RATE))
    return VadTrack(vad.frames[f0:f1])


def _turn_window(dialogue, k: int) -> tuple[float, float]:
    """(start, end] of the span in which turn k is decided: from the turn's
    start to the next turn's start, or to the end of the dialogue."""
    turns = dialogue.turns
    end = turns[k + 1].user_start_s if k + 1 < len(turns) else dialogue.duration_s
    return turns[k].user_start_s, end


def _race(dialogue, frames, vap_cfg, stt_cfg, response_delay_s, seed) -> list:
    """One record per user turn: the cloud decision raced against the local
    detector's decision on the replayed ``frames`` (None: the cloud decision
    alone). Each turn's cloud decision is drawn from its own seeded stream,
    so every race at one seed draws the same one."""
    records = []
    for k, turn in enumerate(dialogue.turns):
        window_start, window_end = _turn_window(dialogue, k)
        turn_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        stt_slice = _slice_vad(dialogue.vad_a, window_start, window_end)
        stt_t = window_start + stt_decide(stt_slice, stt_cfg, turn_rng)
        vap_t = None
        if frames is not None:
            turn_frames = [fr for fr in frames if window_start < fr.timestamp_s <= window_end]
            vap_t = vap_decide(turn_frames, vap_cfg)
        decision, source = arbitrate(vap_t, stt_t)
        records.append(
            ResponseTimeRecord(
                turn=k,
                robot_response_s=max(0.0, decision + response_delay_s - turn.user_end_s),
                source=source,
                decision_time_s=decision,
                true_end_time_s=turn.user_end_s,
                premature=decision < turn.user_end_s,
            )
        )
    return records


def _race_ticks(dialogue, stt_records) -> np.ndarray:
    """The 1-based ticks the hybrid race can use: those of each turn's window
    up to its cloud decision in stt_records (inclusive, as ties go to the
    detector), which the hybrid race at the same seed draws again. The
    detector is causal and a later firing loses to the cloud, so the race
    decides every turn as it would on every tick."""
    t = np.arange(1, dialogue.n_samples // HOP_SAMPLES + 1) * TICK_PERIOD_S
    used = np.zeros(t.size, dtype=bool)
    for k, record in enumerate(stt_records):
        start, end = _turn_window(dialogue, k)
        used |= (start < t) & (t <= min(end, record.decision_time_s))
    return np.flatnonzero(used) + 1


def run_session(
    dialogue: ScriptedDialogue,
    *,
    params: dict | None = None,
    model_cfg: ModelConfig | None = None,
    vap_cfg: VapEndpointerConfig = VapEndpointerConfig(),
    stt_cfg: SttSimConfig = SttSimConfig(),
    response_delay_s: float = 0.3,
    seed: int = 0,
) -> dict[str, list[ResponseTimeRecord]]:
    """Measure the response gaps of every policy on one dialogue, as
    {policy: records}.

    The 'stt' records take each turn's cloud decision alone. With params,
    the engine replays the user channel with the robot channel zeroed, as
    deployed, on only the ticks of each turn up to its cloud decision; the
    'hybrid' records race the local detector against the same cloud
    decision (drawn from the same seeded stream), and the 'vap' records are
    the hybrid turns the local detector decided. Without params
    only 'stt' is returned and nothing is replayed. The dialogue's turns,
    user labels and sample count are read; its user channel only to
    replay, and its robot channel never, so a generated dialogue renders
    no audio without params and no robot audio with them. The robot onset is
    decision + response_delay_s, and the response gap is measured from the
    labeled true end of the turn (floored at zero; decisions before the true
    end are flagged premature).
    """
    if (params is None) != (model_cfg is None):
        raise ValueError("params and model_cfg must be given together")
    if not response_delay_s >= 0:
        raise ValueError(f"response_delay_s must be >= 0, got {response_delay_s}")
    stt = _race(dialogue, None, vap_cfg, stt_cfg, response_delay_s, seed)
    if params is None:
        return {"stt": stt}
    ticks = _race_ticks(dialogue, stt)
    frames = replay(params, model_cfg, dialogue.channel_a, ticks=ticks)
    hybrid = _race(dialogue, frames, vap_cfg, stt_cfg, response_delay_s, seed)
    return {"stt": stt, "hybrid": hybrid, "vap": [r for r in hybrid if r.source == SOURCE_VAP]}


def summarize(records) -> SessionStats:
    """Descriptive statistics, fixed 0.25 s histogram, and source accounting."""
    records = list(records)
    if not records:
        raise ValueError("no records to summarize")
    robot_vals = [r.robot_response_s for r in records]
    vap_fraction = sum(1 for r in records if r.source == SOURCE_VAP) / len(records)
    return SessionStats(
        robot=describe(robot_vals),
        histogram=histogram_fixed(robot_vals),
        vap_source_fraction=vap_fraction,
        n_turns=len(records),
        n_premature=sum(1 for r in records if r.premature),
    )


def compare_robot_response(records_a, records_b):
    """Rank-sum test between the robot response times of two record sets."""
    return rank_sum_test(
        [r.robot_response_s for r in records_a],
        [r.robot_response_s for r in records_b],
    )


def session_scripts(n_dialogues: int, base: DialogueScript, seed: int) -> list:
    """Derive one deterministic script per dialogue from a base recipe."""
    out = []
    for i in range(n_dialogues):
        item_seed = int(np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(1)[0])
        out.append(replace(base, seed=item_seed))
    return out
