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
FRONTEND_BLOCK = 32  # frames per frontend product
MIN_GEMM_ROWS = 8  # below this OpenBLAS rounds a product differently


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_band_edges_hz():
    """N_MELS + 2 triangle edge frequencies from 0 Hz to Nyquist, equally
    spaced on the mel scale."""
    return mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(SAMPLE_RATE / 2), N_MELS + 2))


@lru_cache(maxsize=1)
def mel_filterbank() -> np.ndarray:
    """(N_MELS, n_fft_bins) triangular weights over the rfft bins of one window."""
    n_bins = WINDOW_SAMPLES // 2 + 1
    freqs = np.fft.rfftfreq(WINDOW_SAMPLES, d=1.0 / SAMPLE_RATE)
    edges = mel_band_edges_hz()
    bank = np.zeros((N_MELS, n_bins))
    for k in range(N_MELS):
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


def hop_frames(samples: np.ndarray) -> np.ndarray:
    """Read-only (T, WINDOW_SAMPLES) view of 1-D samples: row t is the 400 ms
    frame ending at hop t + 1, zero-padded before the start, with
    T = floor(n_samples / 1600)."""
    n_frames = feature_frame_count(samples.size)
    padded = np.concatenate(
        [np.zeros(WINDOW_SAMPLES - HOP_SAMPLES), samples[: n_frames * HOP_SAMPLES]]
    )
    stride = padded.strides[0]
    return np.lib.stride_tricks.as_strided(
        padded,
        shape=(n_frames, WINDOW_SAMPLES),
        strides=(HOP_SAMPLES * stride, stride),
        writeable=False,
    )


def extract_features(w) -> np.ndarray:
    """Log-mel features, one (N_MELS,) row per 100 ms of audio.

    Accepts a Waveform or a raw sample array. Returns shape (T, N_MELS) with
    T = floor(n_samples / 1600), row t from hop_frames row t; silence maps to
    log(LOG_FLOOR) in every band.
    """
    samples = w.samples if isinstance(w, Waveform) else np.asarray(w, dtype=np.float64)
    return _frame_features(hop_frames(samples))


def silent_features(n_frames: int) -> np.ndarray:
    """Features of n_frames hops of digital zeros: log(LOG_FLOOR) in every
    band, exactly what extract_features returns for them. A read-only
    broadcast, so every caller shares one value whatever the length."""
    return np.broadcast_to(np.log(LOG_FLOOR), (n_frames, N_MELS))


def _frame_features(frames: np.ndarray) -> np.ndarray:
    """Log-mel rows of (n, WINDOW_SAMPLES) audio frames, one row per frame.

    Works FRONTEND_BLOCK frames at a time, so its memory does not grow with
    n. A last block of fewer than MIN_GEMM_ROWS frames joins the one before
    it: OpenBLAS rounds a product of fewer rows differently, and this way
    every row has the bits of one product over all n frames.
    """
    n = len(frames)
    out = np.empty((n, N_MELS))
    start = 0
    while start < n:
        end = start + FRONTEND_BLOCK
        if n - end < MIN_GEMM_ROWS:
            end = n
        out[start:end] = _log_mel(frames[start:end])
        start = end
    return out


def _log_mel(frames: np.ndarray) -> np.ndarray:
    """_frame_features of one block, as one product."""
    spectrum = np.fft.rfft(frames * _window_fn(), axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    mel_power = power @ mel_filterbank().T
    return np.log(np.maximum(mel_power, LOG_FLOOR))
