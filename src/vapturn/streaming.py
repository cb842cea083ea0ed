"""Real-time inference: 5 s rolling context, one prediction tick per 100 ms of audio.

Each tick runs the forward pass over the buffered window, which makes
streaming output equal an offline pass over the same window by construction
and keeps results invariant to how the audio was chunked. Only the newest
row's prediction is used, so the last cross layer and the heads run on that
row alone. replay computes the same ticks for a whole recording in batches.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import Waveform
from .codebook import entropy_nats, p_now_pair
from .features import HOP_SAMPLES, WINDOW_SAMPLES, _frame_features, extract_features

# forward is not called here; it stays importable as vapturn.streaming.forward,
# a name perfbench's traced run wraps
from .model import ModelConfig, forward, forward_last  # noqa: F401

TICK_PERIOD_S = 0.1
_PAD_FRAMES = WINDOW_SAMPLES // HOP_SAMPLES - 1
# windows per replay forward call. On a 54 s recording (2-vCPU VM, 1 BLAS
# thread) 16, 32 and 64 ran equally fast, 128 about 5 % slower, while the
# block's transient memory grows with its size (replay's peak 43 MB at 32,
# 65 MB at 64)
REPLAY_BLOCK = 32


class ModelNotAttachedError(RuntimeError):
    pass


class MismatchedChunkError(ValueError):
    pass


class NonFiniteAudioError(ValueError):
    pass


def _samples(w) -> np.ndarray:
    return w.samples if isinstance(w, Waveform) else np.asarray(w, dtype=np.float64).ravel()


def _check_finite(*channels: np.ndarray) -> None:
    for x in channels:
        bad = x.size - int(np.count_nonzero(np.isfinite(x)))
        if bad:
            raise NonFiniteAudioError(f"audio holds {bad} NaN or infinite samples")


@dataclass(frozen=True)
class FrameResult:
    """One 10 Hz prediction tick."""

    frame_index: int
    timestamp_s: float
    p_now_user: float
    p_now_robot: float
    vad_user: float
    vad_robot: float
    vap_entropy: float
    compute_ms: float

    @property
    def vad(self) -> tuple[float, float]:
        return (self.vad_user, self.vad_robot)

    def to_json_dict(self) -> dict:
        return {
            "frame_index": self.frame_index,
            "timestamp_s": round(self.timestamp_s, 6),
            "p_now_user": self.p_now_user,
            "p_now_robot": self.p_now_robot,
            "vad": [self.vad_user, self.vad_robot],
            "vap_entropy": self.vap_entropy,
            "compute_ms": self.compute_ms,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _frame_result(clock, p_user, p_robot, vad_row, entropy, compute_ms) -> FrameResult:
    return FrameResult(
        frame_index=clock,
        timestamp_s=clock * TICK_PERIOD_S,
        p_now_user=p_user,
        p_now_robot=p_robot,
        vad_user=float(vad_row[0]),
        vad_robot=float(vad_row[1]),
        vap_entropy=entropy,
        compute_ms=compute_ms,
    )


class StreamContext:
    """Single-dialogue streaming state: rolling audio window plus a tick clock.

    Not safe for concurrent mutation; producer and ticker must be externally
    serialized. Emitted FrameResults are immutable and freely shareable.
    """

    def __init__(self, params: dict | None, cfg: ModelConfig):
        self.params = params
        self.cfg = cfg
        self.capacity = cfg.context_frames * HOP_SAMPLES
        # the window starts as silence, so its cached features start as the
        # features of silence and the first tick reuses them like any other
        self._silent_feats = extract_features(np.zeros(self.capacity))
        self.reset()

    @property
    def samples_pending(self) -> int:
        return self._end - self._start

    def push_audio(self, chunk_a, chunk_b=None) -> None:
        """Queue new audio; the robot channel defaults to silence when omitted.

        A chunk with NaN or infinite samples raises NonFiniteAudioError and
        leaves the queue and the clock unchanged.
        """
        a = _samples(chunk_a)
        b = np.zeros_like(a) if chunk_b is None else _samples(chunk_b)
        if a.size != b.size:
            raise MismatchedChunkError(f"chunk lengths differ: {a.size} vs {b.size}")
        _check_finite(a, b)
        n = a.size
        if self._end + n > self._pending.shape[1]:
            self._make_room(n)
        self._pending[0, self._end : self._end + n] = a
        self._pending[1, self._end : self._end + n] = b
        self._end += n

    def _make_room(self, n: int) -> None:
        """Move the queued audio to the front, doubling the buffer until n more
        samples fit behind it."""
        queued = self.samples_pending
        size = self._pending.shape[1]
        while queued + n > size:
            size *= 2
        target = self._pending if size == self._pending.shape[1] else np.empty((2, size))
        target[:, :queued] = self._pending[:, self._start : self._end]
        self._pending = target
        self._start, self._end = 0, queued

    def _take_hop(self) -> np.ndarray:
        """The oldest hop of queued audio, (2, HOP_SAMPLES), as a view that
        stays valid until the next push."""
        hop = self._pending[:, self._start : self._start + HOP_SAMPLES]
        self._start += HOP_SAMPLES
        return hop

    @property
    def tick_due(self) -> bool:
        return self.samples_pending >= HOP_SAMPLES

    def _window_features(self, window: np.ndarray, cached: np.ndarray) -> np.ndarray:
        """Features of the current window, reusing rows from the previous tick.

        After a one-hop shift, window rows 3..48 equal the previous rows 4..49
        sample-for-sample; only the zero-pad-affected head rows and the newest
        row see new audio, so those are the only ones recomputed. The newest
        row is the features of the window's last 400 ms frame.
        """
        if self.capacity < WINDOW_SAMPLES + HOP_SAMPLES:
            return extract_features(window)
        head = extract_features(window[: _PAD_FRAMES * HOP_SAMPLES])
        tail = _frame_features(window[None, -WINDOW_SAMPLES:])
        return np.concatenate([head, cached[_PAD_FRAMES + 1 :], tail])

    def tick(self) -> FrameResult | None:
        """Consume 100 ms of queued audio and emit one prediction, or None if
        less than a hop of audio is pending."""
        if self.params is None:
            raise ModelNotAttachedError("no model parameters attached to this stream")
        if not self.tick_due:
            return None
        t0 = time.perf_counter()
        hop = self._take_hop()
        self._window_a = np.concatenate([self._window_a[HOP_SAMPLES:], hop[0]])
        self._window_b = np.concatenate([self._window_b[HOP_SAMPLES:], hop[1]])
        self.clock += 1
        feats_a = self._window_features(self._window_a, self._feat_a)
        feats_b = self._window_features(self._window_b, self._feat_b)
        self._feat_a = feats_a
        self._feat_b = feats_b
        out = forward_last(self.params, feats_a[None], feats_b[None], self.cfg)
        p_user, p_robot = p_now_pair(out.vap[0])
        entropy = entropy_nats(out.vap[0])
        compute_ms = (time.perf_counter() - t0) * 1000.0
        return _frame_result(self.clock, p_user, p_robot, out.vad[0], entropy, compute_ms)

    def tick_all(self) -> list[FrameResult]:
        out = []
        while self.tick_due:
            out.append(self.tick())
        return out

    def reset(self) -> None:
        """Back to a fresh context: zeroed window, empty queue, clock at 0."""
        self._window_a = np.zeros(self.capacity)
        self._window_b = np.zeros(self.capacity)
        self._feat_a = self._silent_feats
        self._feat_b = self._silent_feats
        # queued audio of both channels is _pending[:, _start:_end]
        self._pending = np.empty((2, 2 * HOP_SAMPLES))
        self._start = 0
        self._end = 0
        self.clock = 0


def run_stream(
    params: dict,
    cfg: ModelConfig,
    wav_a,
    wav_b=None,
    chunk_samples: int = HOP_SAMPLES,
) -> list[FrameResult]:
    """Replay waveforms through a fresh StreamContext in fixed-size chunks."""
    a = _samples(wav_a)
    b = None
    if wav_b is not None:
        b = _samples(wav_b)
        if b.size != a.size:
            raise MismatchedChunkError("channel lengths differ")
    ctx = StreamContext(params, cfg)
    results = []
    for start in range(0, a.size, chunk_samples):
        stop = start + chunk_samples
        ctx.push_audio(a[start:stop], None if b is None else b[start:stop])
        results.extend(ctx.tick_all())
    return results


def replay(params: dict, cfg: ModelConfig, wav_a, wav_b=None) -> list[FrameResult]:
    """The ticks run_stream emits for the same audio, computed in batches.

    Results match run_stream within float rounding (tested to 1e-9). The
    log-mel rows that no window's zero padding touches are computed once for
    the whole recording; each window's padded head rows are recomputed as the
    tick does, and the windows run through the newest-row forward in blocks of
    REPLAY_BLOCK. compute_ms of every result in a block is the block's wall
    time divided by the windows in it; the one shared feature pass over the
    recording is not in it.
    """
    if params is None:
        raise ModelNotAttachedError("no model parameters attached to replay")
    a = _samples(wav_a)
    b = np.zeros_like(a) if wav_b is None else _samples(wav_b)
    if a.size != b.size:
        raise MismatchedChunkError("channel lengths differ")
    _check_finite(a, b)
    n_ticks = a.size // HOP_SAMPLES
    if n_ticks == 0:
        return []
    ctx = cfg.context_frames
    # window k (1-based tick) is padded[:, k * HOP : (k + ctx) * HOP]: the
    # stream's zero-filled context, then the audio up to the tick
    padded = np.zeros((2, (ctx + n_ticks) * HOP_SAMPLES))
    padded[0, ctx * HOP_SAMPLES :] = a[: n_ticks * HOP_SAMPLES]
    padded[1, ctx * HOP_SAMPLES :] = b[: n_ticks * HOP_SAMPLES]
    body = [_body_features(channel) for channel in padded] if ctx > _PAD_FRAMES else [None, None]
    results = []
    for first in range(1, n_ticks + 1, REPLAY_BLOCK):
        t0 = time.perf_counter()
        n = min(REPLAY_BLOCK, n_ticks + 1 - first)
        feats_a, feats_b = (
            _block_features(padded[c], body[c], first, n, ctx) for c in range(2)
        )
        out = forward_last(params, feats_a, feats_b, cfg)
        rows = [(*p_now_pair(vap), entropy_nats(vap)) for vap in out.vap]
        compute_ms = (time.perf_counter() - t0) * 1000.0 / n
        for i, (p_user, p_robot, entropy) in enumerate(rows):
            results.append(
                _frame_result(first + i, p_user, p_robot, out.vad[i], entropy, compute_ms)
            )
    return results


def _body_features(padded: np.ndarray) -> np.ndarray:
    """Log-mel rows of the frames padded[r * HOP : r * HOP + WINDOW_SAMPLES]
    of one padded channel; row r is row j of window r + _PAD_FRAMES - j.
    Computed REPLAY_BLOCK frames at a time to bound the FFT buffers."""
    frames = sliding_window_view(padded, WINDOW_SAMPLES)[::HOP_SAMPLES]
    return np.concatenate(
        [_frame_features(frames[i : i + REPLAY_BLOCK]) for i in range(0, len(frames), REPLAY_BLOCK)]
    )


def _block_features(padded, body, first: int, n: int, ctx: int) -> np.ndarray:
    """(n, ctx, bands) features of windows first .. first + n - 1 of one channel."""
    n_head = min(_PAD_FRAMES, ctx)
    # head row j of window k: the frame whose first _PAD_FRAMES - j hops fall
    # before the window and read as zeros, as in the tick's window (spans only
    # grow with j, so the zeros left of each span stay zero)
    rows = []
    frames = np.zeros((n, WINDOW_SAMPLES))
    for j in range(n_head):
        span = (j + 1) * HOP_SAMPLES
        seg = padded[first * HOP_SAMPLES : (first + n + j) * HOP_SAMPLES]
        frames[:, WINDOW_SAMPLES - span :] = sliding_window_view(seg, span)[::HOP_SAMPLES]
        rows.append(_frame_features(frames)[:, None])
    if ctx > n_head:
        shared = body[first : first + n + ctx - _PAD_FRAMES - 1]
        rows.append(sliding_window_view(shared, ctx - _PAD_FRAMES, axis=0).transpose(0, 2, 1))
    return np.concatenate(rows, axis=1)
