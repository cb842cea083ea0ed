"""End-of-turn decision layer: local projection-threshold detector, simulated
cloud speech-recognition endpointer with a network delay model, and the arbiter
that races them (earlier decision wins, local detector wins ties)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio import AudioError, VadTrack
from .stats import SampleDist

SOURCE_VAP = "vap"
SOURCE_STT = "stt"
VAD_SPEECH_THRESHOLD = 0.5
FRAME_MS = 100.0


class NoSpeechError(AudioError):
    pass


@dataclass(frozen=True)
class VapEndpointerConfig:
    """Threshold detector over the near-future turn probability of the robot."""

    theta: float = 0.6
    consecutive_k: int = 3
    min_user_speech_ms: float = 300.0

    def __post_init__(self):
        if not 0.5 < self.theta < 1.0:
            raise ValueError(f"theta must be in (0.5, 1), got {self.theta}")
        if self.consecutive_k < 1:
            raise ValueError("consecutive_k must be >= 1")
        if not self.min_user_speech_ms >= 0:
            raise ValueError("min_user_speech_ms must be >= 0")


@dataclass(frozen=True)
class SttSimConfig:
    """Cloud endpointer stand-in: trailing-silence finalization plus network delay."""

    silence_threshold_ms: float = 800.0
    latency: SampleDist = field(default_factory=SampleDist)

    def __post_init__(self):
        if not self.silence_threshold_ms > 0:
            raise ValueError("silence_threshold_ms must be > 0")


@dataclass(frozen=True)
class TurnEvent:
    """One end-of-user-turn decision with its deciding source."""

    decision_time_s: float
    true_end_time_s: float
    source: str
    latency_s: float

    def to_json_dict(self) -> dict:
        return {
            "decision_time_s": self.decision_time_s,
            "true_end_time_s": self.true_end_time_s,
            "source": self.source,
            "latency_s": self.latency_s,
        }


class OnlineVapEndpointer:
    """Frame-by-frame variant of vap_decide; holds per-turn state."""

    def __init__(self, cfg: VapEndpointerConfig):
        self.cfg = cfg
        self.reset()

    def reset(self) -> None:
        self._consecutive = 0
        self._speech_ms = 0.0
        self.decision_s: float | None = None

    def observe(self, frame) -> float | None:
        """Feed one FrameResult; returns the decision time the first time the
        detector fires, else None."""
        if self.decision_s is not None:
            return None
        if frame.vad_user >= VAD_SPEECH_THRESHOLD:
            self._speech_ms += FRAME_MS
        if frame.p_now_robot > self.cfg.theta:
            self._consecutive += 1
        else:
            self._consecutive = 0
        if (
            self._consecutive >= self.cfg.consecutive_k
            and self._speech_ms >= self.cfg.min_user_speech_ms
        ):
            self.decision_s = frame.timestamp_s
            return self.decision_s
        return None


def vap_decide(frames, cfg: VapEndpointerConfig = VapEndpointerConfig()) -> float | None:
    """Earliest time where p_now_robot exceeds theta for k consecutive frames,
    after enough detected user speech; None if the detector never fires."""
    detector = OnlineVapEndpointer(cfg)
    for frame in frames:
        decision = detector.observe(frame)
        if decision is not None:
            return decision
    return None


def stt_decide(vad: VadTrack, cfg: SttSimConfig, rng: np.random.Generator) -> float:
    """Simulated cloud decision: end of the last speech region, plus the
    finalization silence window, plus one sampled network delay."""
    frames = vad.frames
    active = np.nonzero(frames)[0]
    if active.size == 0:
        raise NoSpeechError("no speech in track; nothing to finalize")
    speech_end = (int(active[-1]) + 1) / vad.frame_rate
    return speech_end + cfg.silence_threshold_ms / 1000.0 + cfg.latency.sample(rng)


def arbitrate(vap_decision: float | None, stt_decision: float, true_end_time_s: float) -> TurnEvent:
    """Race the two endpointers; the earlier decision wins and ties go to the
    local detector. The cloud path always exists, so a turn can never stall."""
    if vap_decision is not None and vap_decision <= stt_decision:
        decision, source = vap_decision, SOURCE_VAP
    else:
        decision, source = stt_decision, SOURCE_STT
    return TurnEvent(
        decision_time_s=decision,
        true_end_time_s=true_end_time_s,
        source=source,
        latency_s=decision - true_end_time_s,
    )
