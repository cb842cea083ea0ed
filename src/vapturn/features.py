"""Deterministic spectral frontend: 40-band log-mel vectors at a 10 Hz hop.

Each feature frame summarizes the 400 ms of audio ending at its hop boundary,
so frame t depends only on samples up to (t+1) * 100 ms. The start is
zero-padded; there are no learnable parameters here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .audio import SAMPLE_RATE, Waveform

HOP_SAMPLES = SAMPLE_RATE // 10
WINDOW_SAMPLES = 4 * HOP_SAMPLES
N_MELS = 40
LOG_FLOOR = 1e-10
FRAME_RATE_HZ = 10.0


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_band_edges_hz(n_mels: int = N_MELS, fmin: float = 0.0, fmax: float = SAMPLE_RATE / 2):
    """n_mels + 2 triangle edge frequencies, equally spaced on the mel scale."""
    return mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))


@lru_cache(maxsize=4)
def mel_filterbank(n_mels: int = N_MELS) -> np.ndarray:
    """(n_mels, n_fft_bins) triangular weights over the rfft bins of one window."""
    n_bins = WINDOW_SAMPLES // 2 + 1
    freqs = np.fft.rfftfreq(WINDOW_SAMPLES, d=1.0 / SAMPLE_RATE)
    edges = mel_band_edges_hz(n_mels)
    bank = np.zeros((n_mels, n_bins))
    for k in range(n_mels):
        lo, mid, hi = edges[k], edges[k + 1], edges[k + 2]
        rising = (freqs - lo) / (mid - lo)
        falling = (hi - freqs) / (hi - mid)
        bank[k] = np.clip(np.minimum(rising, falling), 0.0, None)
    bank.setflags(write=False)
    return bank


@lru_cache(maxsize=1)
def _window_fn() -> np.ndarray:
    w = np.hanning(WINDOW_SAMPLES)
    w.setflags(write=False)
    return w


def feature_frame_count(n_samples: int) -> int:
    return n_samples // HOP_SAMPLES


def extract_features(w, n_mels: int = N_MELS) -> np.ndarray:
    """Log-mel features, one (n_mels,) row per 100 ms of audio.

    Accepts a Waveform or a raw sample array. Returns shape (T, n_mels) with
    T = floor(n_samples / 1600); silence maps to log(1e-10) in every band.
    """
    samples = w.samples if isinstance(w, Waveform) else np.asarray(w, dtype=np.float64)
    n_frames = feature_frame_count(samples.size)
    if n_frames == 0:
        return np.zeros((0, n_mels))
    padded = np.concatenate(
        [np.zeros(WINDOW_SAMPLES - HOP_SAMPLES), samples[: n_frames * HOP_SAMPLES]]
    )
    stride = padded.strides[0]
    frames = np.lib.stride_tricks.as_strided(
        padded,
        shape=(n_frames, WINDOW_SAMPLES),
        strides=(HOP_SAMPLES * stride, stride),
    )
    return _frame_features(frames, n_mels)


def _frame_features(frames: np.ndarray, n_mels: int = N_MELS) -> np.ndarray:
    """Log-mel rows of (n, WINDOW_SAMPLES) audio frames, one row per frame."""
    spectrum = np.fft.rfft(frames * _window_fn(), axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    mel_power = power @ mel_filterbank(n_mels).T
    return np.log(np.maximum(mel_power, LOG_FLOOR))
