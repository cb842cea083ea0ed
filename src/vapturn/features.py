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
# kind m of a frame keeps its last m + 1 hops; kind LEAD_FRAMES is the whole frame
KINDS = np.arange(LEAD_FRAMES + 1)


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


# kind m's analysis window: the Hann window with its leading LEAD_FRAMES - m hops zero
_KIND_WINDOWS = np.hanning(WINDOW_SAMPLES) * (
    np.arange(WINDOW_SAMPLES) >= (LEAD_FRAMES - KINDS)[:, None] * HOP_SAMPLES
)
_KIND_WINDOWS.setflags(write=False)


def _band_groups(bands_per_group: int) -> tuple:
    """(bands, bins, weights) of each run of bands_per_group consecutive
    filterbank bands: the bins where any of their triangles is nonzero, and
    the (bands, bins) weights there, which hold every nonzero weight of
    those bands."""
    bank = mel_filterbank()
    groups = []
    for first in range(0, N_MELS, bands_per_group):
        bands = slice(first, min(first + bands_per_group, N_MELS))
        covered = np.flatnonzero(bank[bands].any(axis=0))
        bins = slice(int(covered[0]), int(covered[-1]) + 1)
        weights = np.ascontiguousarray(bank[bands, bins])
        weights.setflags(write=False)
        groups.append((bands, bins, weights))
    return tuple(groups)


# 5 groups of 8 bands read 27848 of the filterbank's 128040 weights. Filterbank
# product per row (2-vCPU VM, OpenBLAS 0.3.31 with 1 thread), for 1 / 2 / 4 /
# 5 / 8 / 10 groups: a 32-row block 8.2 / 4.4 / 2.7 / 2.2 / 1.9 / 1.7 µs, the
# tick's one 4-row product 9.0 / 5.0 / 4.4 / 4.4 / 5.4 / 5.9 µs per row;
# dense, 7.9 µs for both. 5 groups are the fastest for the tick and within
# 0.5 µs of the fastest for blocks
_BAND_GROUPS = _band_groups(8)


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
    rows index the floor(n_samples / 1600) frames of the recording;
    IndexError for a row outside them.

    No padded copy of the recording is made. Two or more consecutive rows
    from LEAD_FRAMES on are a read-only strided view of the samples
    themselves; any other rows are copied out of the samples, after zeros
    for the first LEAD_FRAMES frames, which reach before the start.
    """
    rows = np.asarray(rows, dtype=np.intp)
    n_frames = feature_frame_count(samples.size)
    starts = (rows - LEAD_FRAMES) * HOP_SAMPLES  # negative before the start
    if rows.size > 1 and starts[0] >= 0 and rows[-1] < n_frames and (np.diff(rows) == 1).all():
        stride = samples.strides[0]
        return np.lib.stride_tricks.as_strided(
            samples[starts[0] :],
            shape=(rows.size, WINDOW_SAMPLES),
            strides=(HOP_SAMPLES * stride, stride),
            writeable=False,
        )
    frames = np.empty((rows.size, WINDOW_SAMPLES))
    # row by row: a fancy-index gather of 300 frames over an overlapping
    # view took 11 ms, row copies 0.6 ms (2-vCPU VM, numpy 2.4)
    for i, start in enumerate(starts.tolist()):
        if not -LEAD_FRAMES * HOP_SAMPLES <= start <= samples.size - WINDOW_SAMPLES:
            raise IndexError(f"row {rows[i]} is not one of the {n_frames} frames")
        lead = max(-start, 0)
        frames[i, :lead] = 0.0
        frames[i, lead:] = samples[start + lead : start + WINDOW_SAMPLES]
    return frames


def extract_features(w) -> np.ndarray:
    """Log-mel features, one (N_MELS,) row per 100 ms of audio.

    Accepts a Waveform or a raw sample array; a raw array that is not 1-D
    raises AudioError, one with NaN or infinite samples NonFiniteAudioError.
    Returns shape (T, N_MELS) with T = floor(n_samples / 1600): row t is
    kind_rows' row of hop_frames row t, the whole frame.
    """
    samples = _samples(w)
    if not isinstance(w, Waveform):  # a Waveform is checked when it is built
        _check_finite(samples)
    return kind_rows(samples, np.arange(feature_frame_count(samples.size)), LEAD_FRAMES)


def kind_rows(samples: np.ndarray, hops, kinds) -> np.ndarray:
    """(n, N_MELS) log-mel rows of 1-D samples, one per (hop, kind) pair of
    hops and kinds broadcast to length n (a scalar is shared by all pairs):
    the row of frame hops[i] (a hop_frames row) with all but its last
    kinds[i] + 1 hops zeroed, with the bits of that pair computed alone.
    Sound is tested once per hop: a pair whose 400 ms frame holds no nonzero
    sample gets the silent row without the frontend, the others reach
    _log_mel FRONTEND_BLOCK at a time."""
    hops, kinds = np.asarray(hops, dtype=np.intp), np.asarray(kinds, dtype=np.intp)
    pairs = np.broadcast(hops, kinds)
    rows = np.full((pairs.size, N_MELS), np.log(LOG_FLOOR))  # the silent row
    n = feature_frame_count(samples.size)
    hop_sound = samples[: n * HOP_SAMPLES].reshape(n, HOP_SAMPLES).any(axis=1)
    if not hop_sound.any():
        return rows
    # sounding[t] counts the hops with sound before hop t, so frame t, of hops
    # t - LEAD_FRAMES .. t, has sound if the count grows over them
    sounding = np.concatenate(([0], np.cumsum(hop_sound)))
    sound = np.empty(pairs.shape, dtype=bool)  # one flag per pair
    np.greater(sounding[hops + 1], sounding[np.maximum(hops - LEAD_FRAMES, 0)], out=sound)
    index = np.flatnonzero(sound)
    for start in range(0, index.size, FRONTEND_BLOCK):
        i = index[start : start + FRONTEND_BLOCK]
        frames = hop_frames(samples, hops[i] if hops.ndim else [hops])
        rows[i] = _log_mel(frames, kinds[i] if kinds.ndim else kinds)
    return rows


def silent_features(n_frames: int) -> np.ndarray:
    """Features of n_frames hops of digital zeros: log(LOG_FLOOR) in every
    band, exactly what extract_features returns for them. A read-only
    broadcast, so every caller shares one value whatever the length."""
    return np.broadcast_to(np.log(LOG_FLOOR), (n_frames, N_MELS))


def _log_mel(frames: np.ndarray, kinds=LEAD_FRAMES) -> np.ndarray:
    """Log-mel rows of (n, WINDOW_SAMPLES) audio frames, one row per frame:
    row i is frame i times the analysis window of kind kinds[i], which
    zeroes its leading LEAD_FRAMES - kinds[i] hops. frames and kinds
    broadcast, so one frame can take several kinds, and a kind several
    frames.

    The power of a bin is re² + im², squared in place in the spectrum. The
    filterbank product runs per band group (_BAND_GROUPS): each group of 8
    consecutive bands reads only the bins where its triangles are nonzero,
    so it skips no nonzero weight. Each group's product is a stack of
    PRODUCT_ROWS-row products, zero rows filling the last one. OpenBLAS
    rounds a product by its row count (1, 2-7 and 8 or more rows take
    different kernels), so with one row count for every product a row has
    the bits of its frame computed alone, whatever the batch or caller.
    """
    spectrum = np.fft.rfft(frames * _KIND_WINDOWS[kinds], axis=1)
    n, n_bins = spectrum.shape
    squares = spectrum.view(np.float64)  # re, im of each bin side by side
    np.square(squares, out=squares)
    power = np.empty((-(-n // PRODUCT_ROWS), PRODUCT_ROWS, n_bins))
    rows = power.reshape(-1, n_bins)
    rows[n:] = 0.0
    np.add(squares[:, 0::2], squares[:, 1::2], out=rows[:n])
    mel_power = np.empty((len(power), PRODUCT_ROWS, N_MELS))
    for bands, bins, weights in _BAND_GROUPS:
        np.matmul(power[:, :, bins], weights.T, out=mel_power[:, :, bands])
    return np.log(np.maximum(mel_power.reshape(-1, N_MELS)[:n], LOG_FLOOR))
