"""Discrete projection-state space: 2 speakers x 4 future bins = 256 classes.

Encoding layout: state = sum over speakers s and bins i of bit(s, i) * 2^(4s + i).
The user (speaker 0) occupies the low 4 bits and bin 0 is the least significant
bit. This ordering is the canonical serialization order for model outputs;
`state_bit` is its one definition.
"""

from __future__ import annotations

import numpy as np

from .audio import SAMPLES_PER_LABEL_FRAME
from .features import HOP_SAMPLES

N_SPEAKERS = 2
N_BINS = 4
N_STATES = 2 ** (N_SPEAKERS * N_BINS)

# Bin edges in 10 ms label frames after the prediction point: 0-0.2, 0.2-0.6,
# 0.6-1.2 and 1.2-2.0 s. The first two bins span exactly 0-600 ms, the
# near-term window that p_now reads. A bin is active when at least
# ACTIVITY_RATIO of its frames are.
BIN_EDGES_FRAMES = (0, 20, 60, 120, 200)
HORIZON_FRAMES = BIN_EDGES_FRAMES[-1]
ACTIVITY_RATIO = 0.5
NOW_BINS = (0, 1)
LABELS_PER_FEATURE_FRAME = HOP_SAMPLES // SAMPLES_PER_LABEL_FRAME


def state_bit(speaker: int, bin_idx: int) -> int:
    """Bit position of (speaker, bin) in a state index."""
    return N_BINS * speaker + bin_idx


def frame_targets(labels_a, labels_b, n_frames: int):
    """Per-frame projection-state and activity targets for a whole dialogue.

    Feature frame g predicts from label frame (g+1)*10 onward; frames whose 2 s
    horizon overruns the labels get target_state -1 and are excluded from the
    loss.
    """
    labels_a = np.asarray(labels_a, dtype=bool)
    labels_b = np.asarray(labels_b, dtype=bool)
    n_labels = labels_a.size
    starts = (np.arange(n_frames) + 1) * LABELS_PER_FEATURE_FRAME
    valid = starts + HORIZON_FRAMES <= n_labels
    state = np.zeros(n_frames, dtype=np.int64)
    for s_idx, labels in enumerate((labels_a, labels_b)):
        cum = np.concatenate([[0], np.cumsum(labels)])
        for i in range(N_BINS):
            lo, hi = BIN_EDGES_FRAMES[i], BIN_EDGES_FRAMES[i + 1]
            width = hi - lo
            pos_lo = np.minimum(starts + lo, n_labels)
            pos_hi = np.minimum(starts + hi, n_labels)
            frac = (cum[pos_hi] - cum[pos_lo]) / width
            bit = (frac >= ACTIVITY_RATIO) & valid
            state |= bit.astype(np.int64) << state_bit(s_idx, i)
    state[~valid] = -1
    prev = np.minimum(starts - 1, n_labels - 1)
    target_vad = np.stack([labels_a[prev], labels_b[prev]], axis=-1).astype(np.float64)
    return state, target_vad


# (256, 2): the share of each speaker's near-term bins that a state has active.
_NOW_WEIGHTS = np.stack(
    [
        sum((np.arange(N_STATES) >> state_bit(s, i)) & 1 for i in NOW_BINS) / len(NOW_BINS)
        for s in range(N_SPEAKERS)
    ],
    axis=-1,
)


def _check_distribution(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (N_STATES,):
        raise ValueError(f"expected a ({N_STATES},) distribution, got shape {probs.shape}")
    if (probs < 0).any():
        raise ValueError("distribution has negative entries")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"distribution sums to {total}, expected 1 within 1e-6")
    return probs


def p_now(probs: np.ndarray, speaker: int) -> float:
    """Probability that the given speaker holds the near-future (0-600 ms) turn.

    Accumulates each state's probability weighted by that speaker's active
    share of the two near-term bins, normalized across the two speakers.
    Returns 0.5 when neither speaker has any near-term mass.
    """
    if speaker not in (0, 1):
        raise ValueError(f"speaker must be 0 or 1, got {speaker}")
    probs = _check_distribution(probs)
    acc = probs @ _NOW_WEIGHTS
    denom = float(acc.sum())
    if denom < 1e-9:
        return 0.5
    return float(acc[speaker]) / denom


def p_now_pair(probs: np.ndarray) -> tuple[float, float]:
    """(p_now user, p_now robot); the two always sum to 1."""
    u = p_now(probs, 0)
    return u, 1.0 - u


def entropy_nats(probs: np.ndarray) -> float:
    """Shannon entropy of a 256-way distribution in nats."""
    probs = np.asarray(probs, dtype=np.float64)
    nz = probs[probs > 0]
    return float(-(nz * np.log(nz)).sum())
