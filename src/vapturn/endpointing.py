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


def vap_decide(frames, cfg: VapEndpointerConfig = VapEndpointerConfig()) -> float | None:
    """Earliest time where p_now_robot exceeds theta for k consecutive frames,
    after enough detected user speech; None if the detector never fires."""
    run = speech = 0
    for frame in frames:
        if frame.vad_user >= VAD_SPEECH_THRESHOLD:
            speech += 1
        run = run + 1 if frame.p_now_robot > cfg.theta else 0
        if run >= cfg.consecutive_k and speech * FRAME_MS >= cfg.min_user_speech_ms:
            return frame.timestamp_s
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


def arbitrate(vap_decision: float | None, stt_decision: float) -> tuple[float, str]:
    """Race the two endpointers: (decision time, source). The earlier decision
    wins and ties go to the local detector. The cloud path always exists, so a
    turn can never stall."""
    if vap_decision is not None and vap_decision <= stt_decision:
        return vap_decision, SOURCE_VAP
    return stt_decision, SOURCE_STT
