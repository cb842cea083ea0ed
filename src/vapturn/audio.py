"""Mono 16 kHz audio values, PCM-16 WAV I/O, power utilities, and 10 ms activity label tracks."""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
LABEL_FRAME_RATE = 100
SAMPLES_PER_LABEL_FRAME = SAMPLE_RATE // LABEL_FRAME_RATE
PCM_SCALE = 32768.0


class AudioError(ValueError):
    """Base class for audio value and format errors."""


class UnsupportedEncodingError(AudioError):
    pass


class UnsupportedSampleRateError(AudioError):
    pass


class UnsupportedChannelCountError(AudioError):
    pass


class EmptyWaveformError(AudioError):
    pass


@dataclass(frozen=True, eq=False)
class Waveform:
    """Immutable mono waveform with amplitudes in [-1, 1], sampled at SAMPLE_RATE."""

    samples: np.ndarray

    def __post_init__(self):
        """Keeps its own read-only copy of the samples, clipped to [-1, 1].
        AudioError for NaN or inf, or a peak above 1 + 1e-9."""
        object.__setattr__(self, "samples", _own(np.array(self.samples, dtype=np.float64)))

    @classmethod
    def adopt(cls, samples: np.ndarray) -> "Waveform":
        """A Waveform that keeps ``samples`` itself, with no copy: for a
        fresh, writable float64 array that its builder hands over and no
        longer writes. The same checks as the constructor; the array is
        clipped in place and made read-only."""
        w = object.__new__(cls)
        object.__setattr__(w, "samples", _own(np.asarray(samples, dtype=np.float64)))
        return w

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / SAMPLE_RATE


def _own(arr: np.ndarray) -> np.ndarray:
    """Check a float64 array as Waveform samples, clip it in place and make
    it read-only."""
    if arr.ndim != 1:
        raise AudioError(f"samples must be 1-D, got shape {arr.shape}")
    if arr.size:
        # min or max is NaN or infinite when any sample is
        lo, hi = float(arr.min()), float(arr.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise AudioError("samples contain non-finite values")
        peak = max(-lo, hi)
        if peak > 1.0 + 1e-9:
            raise AudioError(f"sample amplitude {peak} outside [-1, 1]")
        if peak > 1.0:
            np.clip(arr, -1.0, 1.0, out=arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class VadTrack:
    """Boolean voice-activity labels at LABEL_FRAME_RATE (10 ms frames)."""

    frames: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.frames, dtype=bool)
        if arr.ndim != 1:
            raise AudioError(f"frames must be 1-D, got shape {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "frames", arr)

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def duration_s(self) -> float:
        return len(self.frames) / LABEL_FRAME_RATE


def label_frame_count(n_samples: int) -> int:
    """Number of 10 ms label frames covering n_samples (ceil)."""
    return -(-n_samples // SAMPLES_PER_LABEL_FRAME)


def load_wav(path) -> Waveform:
    """Read a PCM 16-bit mono 16 kHz WAV file, normalizing samples by 1/32768."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such file: {p}")
    try:
        reader = wave.open(str(p), "rb")
    except (wave.Error, EOFError) as exc:
        raise UnsupportedEncodingError(f"{p}: not a readable PCM WAV ({exc})") from exc
    with reader:
        if reader.getcomptype() != "NONE" or reader.getsampwidth() != 2:
            raise UnsupportedEncodingError(
                f"{p}: expected uncompressed 16-bit PCM, got "
                f"comptype={reader.getcomptype()} sampwidth={reader.getsampwidth()}"
            )
        if reader.getnchannels() != 1:
            raise UnsupportedChannelCountError(
                f"{p}: expected mono, got {reader.getnchannels()} channels"
            )
        if reader.getframerate() != SAMPLE_RATE:
            raise UnsupportedSampleRateError(
                f"{p}: expected {SAMPLE_RATE} Hz, got {reader.getframerate()}"
            )
        raw = reader.readframes(reader.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    samples /= PCM_SCALE
    return Waveform.adopt(samples)


def save_wav(w: Waveform, path) -> None:
    """Write a Waveform as PCM 16-bit mono 16 kHz, saturating at +/- full scale."""
    q = np.clip(np.rint(w.samples * PCM_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as writer:
        writer.setnchannels(1)
        writer.setsampwidth(2)
        writer.setframerate(SAMPLE_RATE)
        writer.writeframes(q.tobytes())


def mean_power(w: Waveform) -> float:
    """Mean of squared samples (dimensionless signal power)."""
    if len(w) == 0:
        raise EmptyWaveformError("cannot compute power of an empty waveform")
    return mean_square(w.samples)


# squared at most this many samples at a time by mean_square
_SQUARE_BLOCK = 1 << 16


def mean_square(x: np.ndarray) -> float:
    """np.mean(x**2) of a contiguous float64 array, bit for bit, with no
    temporary of x's size. numpy sums such an array pairwise, splitting
    one of more than 128 elements at half its length rounded down to a
    multiple of 8; the halves are summed here by the same rule, and a part
    of at most _SQUARE_BLOCK elements is squared and summed whole."""
    return float(_sum_of_squares(x) / x.size)


def _sum_of_squares(x: np.ndarray) -> np.float64:
    # a module function, not a closure: a recursive closure is a reference
    # cycle that would keep x alive until the garbage collector runs
    n = x.size
    if n <= _SQUARE_BLOCK:
        return np.add.reduce(np.square(x))
    half = n // 2 - n // 2 % 8
    return _sum_of_squares(x[:half]) + _sum_of_squares(x[half:])
