"""Deterministic spectral frontend: 40-band log-mel vectors at a 10 Hz hop.

Each feature frame summarizes the 400 ms of audio ending at its hop boundary,
so frame t depends only on samples up to (t+1) * 100 ms. The start is
zero-padded; there are no learnable parameters here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .audio import SAMPLE_RATE, AudioError, Waveform

HOP_SAMPLES = SAMPLE_RATE // 10
WINDOW_SAMPLES = 4 * HOP_SAMPLES
N_MELS = 40
LOG_FLOOR = 1e-10
FRONTEND_BLOCK = 32  # frames per frontend call
PRODUCT_ROWS = 4  # rows per filterbank product: the tick's 4 frames of one hop
LEAD_FRAMES = WINDOW_SAMPLES // HOP_SAMPLES - 1  # frames that reach before the start


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


class NonFiniteAudioError(ValueError):
    pass


def _samples(w) -> np.ndarray:
    x = w.samples if isinstance(w, Waveform) else np.asarray(w, dtype=np.float64)
    if x.ndim != 1:
        raise AudioError(f"audio must be 1-D mono samples, got an array of shape {x.shape}")
    return x


def _check_finite(*channels: np.ndarray | None) -> None:
    """NonFiniteAudioError for the first channel with a NaN or infinite
    sample; a None channel (a missing one) passes."""
    for x in channels:
        if x is None:
            continue
        bad = x.size - int(np.count_nonzero(np.isfinite(x)))
        if bad:
            raise NonFiniteAudioError(f"audio holds {bad} NaN or infinite samples")


def hop_frames(samples: np.ndarray, rows) -> np.ndarray:
    """(len(rows), WINDOW_SAMPLES) frames of 1-D samples: row i is the 400 ms
    frame ending at hop rows[i] + 1, zero-padded before the start, where
    rows index the floor(n_samples / 1600) frames of the recording.

    No padded copy of the recording is made. Consecutive rows from
    LEAD_FRAMES on are a read-only strided view of the samples themselves;
    any other rows are copied out of that view, and the first LEAD_FRAMES
    frames, which reach before the start, are built apart.
    """
    rows = np.asarray(rows, dtype=np.intp)
    n_late = max(feature_frame_count(samples.size) - LEAD_FRAMES, 0)
    stride = samples.strides[0]
    # row r of late is frame r + LEAD_FRAMES, which starts at sample r * HOP_SAMPLES
    late = np.lib.stride_tricks.as_strided(
        samples,
        shape=(n_late, WINDOW_SAMPLES),
        strides=(HOP_SAMPLES * stride, stride),
        writeable=False,
    )
    if rows.size and rows[0] >= LEAD_FRAMES and (np.diff(rows) == 1).all():
        return late[rows[0] - LEAD_FRAMES : rows[-1] + 1 - LEAD_FRAMES]
    frames = np.empty((rows.size, WINDOW_SAMPLES))
    # row by row: over this overlapping view a fancy-index gather of 300
    # frames took 11 ms, row copies 0.6 ms (2-vCPU VM, numpy 2.4)
    for i, t in enumerate(rows.tolist()):
        if t >= LEAD_FRAMES:
            frames[i] = late[t - LEAD_FRAMES]
        else:
            n = (t + 1) * HOP_SAMPLES
            frames[i, :-n] = 0.0
            frames[i, -n:] = samples[:n]
    return frames


def extract_features(w) -> np.ndarray:
    """Log-mel features, one (N_MELS,) row per 100 ms of audio.

    Accepts a Waveform or a raw sample array; a raw array that is not 1-D
    raises AudioError, one with NaN or infinite samples NonFiniteAudioError.
    Returns shape (T, N_MELS) with T = floor(n_samples / 1600), row t from
    hop_frames row t. A frame with no nonzero sample gets the silent row,
    log(LOG_FLOOR) in every band, without the frontend.
    """
    samples = _samples(w)
    if not isinstance(w, Waveform):  # a Waveform is checked when it is built
        _check_finite(samples)
    n = feature_frame_count(samples.size)
    # frame t holds hops t - LEAD_FRAMES .. t, so sound is tested once per hop
    hop_sound = samples[: n * HOP_SAMPLES].reshape(n, HOP_SAMPLES).any(axis=1)
    sound = hop_sound.copy()
    for lag in range(1, LEAD_FRAMES + 1):
        sound[lag:] |= hop_sound[:-lag]
    rows = np.flatnonzero(sound)
    out = silent_features(n).copy()
    for start in range(0, rows.size, FRONTEND_BLOCK):
        index = rows[start : start + FRONTEND_BLOCK]
        out[index] = _log_mel(hop_frames(samples, index))
    return out


def silent_features(n_frames: int) -> np.ndarray:
    """Features of n_frames hops of digital zeros: log(LOG_FLOOR) in every
    band, exactly what extract_features returns for them. A read-only
    broadcast, so every caller shares one value whatever the length."""
    return np.broadcast_to(np.log(LOG_FLOOR), (n_frames, N_MELS))


def _log_mel(frames: np.ndarray) -> np.ndarray:
    """Log-mel rows of (n, WINDOW_SAMPLES) audio frames, one row per frame.

    The filterbank product is a stack of PRODUCT_ROWS-row products, zero rows
    filling the last one. OpenBLAS rounds a product by its row count (1, 2-7
    and 8 or more rows take different kernels), so with one row count for
    every product a row has the bits of its frame computed alone, whatever
    the batch or caller.
    """
    n = len(frames)
    spectrum = np.fft.rfft(frames * _window_fn(), axis=1)
    n_bins = spectrum.shape[1]
    power = np.empty((-(-n // PRODUCT_ROWS) * PRODUCT_ROWS, n_bins))
    power[n:] = 0.0
    np.square(spectrum.real, out=power[:n])
    power[:n] += np.square(spectrum.imag)
    mel_power = power.reshape(-1, PRODUCT_ROWS, n_bins) @ mel_filterbank().T
    return np.log(np.maximum(mel_power.reshape(-1, N_MELS)[:n], LOG_FLOOR))
