"""Real-time inference: 5 s rolling context, one prediction tick per 100 ms of audio.

Each tick runs the forward pass over the features of the zero-padded trailing
5 s window, so streaming output equals an offline pass over that window and
does not depend on how the audio was chunked. Row j of the window ending at
hop k is the 400 ms frame ending at hop k - context_frames + 1 + j, keeping
the min(j + 1, 4) hops of it inside the window and zeros before them: kind
min(j, 3) of that hop. One function, _kind_rows, builds such rows. The tick
builds all 4 kinds of each new hop from its frame, read in place from the
queued audio, and keeps them in a ring; a window is one fixed gather over the
ring. replay builds only the (hop, kind) pairs its requested windows read, a
block at a time. Both then take one prediction step, _predict. Only the
newest row's prediction is used, so the last cross layer and the heads run
on that row alone.

Silence is read from the data. A frame with no nonzero sample has the silent
rows, which _kind_rows writes without the frontend. The deployed engine hears
the user with the robot channel zeroed. When every robot feature a prediction
step reads is silent, whatever the audio under it, the step reuses one stored
encoding of the silent window. This is exact: the tick is bit-identical to
computing the robot side in full, and replay stays within float rounding of
run_stream.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

import numpy as np

from .audio import SAMPLE_RATE, Waveform
from .codebook import entropy_nats, p_now_pair
from .features import (
    HOP_SAMPLES,
    N_MELS,
    WINDOW_SAMPLES,
    _frame_features,
    hop_frames,
    silent_features,
)

# forward and extract_features are not called here; they stay importable as
# vapturn.streaming.forward and .extract_features, names perfbench's traced run wraps
from .features import extract_features  # noqa: F401
from .model import ModelConfig, encode_channel, forward, forward_last  # noqa: F401

TICK_PERIOD_S = HOP_SAMPLES / SAMPLE_RATE
# kind m of a hop's 400 ms frame keeps the samples _KEEP[m] marks, its last m + 1 hops
_KINDS = WINDOW_SAMPLES // HOP_SAMPLES
_ALL_KINDS = np.arange(_KINDS)
_KEEP = np.arange(WINDOW_SAMPLES) >= (_KINDS - 1 - _ALL_KINDS)[:, None] * HOP_SAMPLES
# samples the pending queue keeps before its oldest hop, so that a hop's frame is a view
_HISTORY = WINDOW_SAMPLES - HOP_SAMPLES
# windows per replay forward call, and rows per replay frontend call. On a
# 54 s recording (2-vCPU VM, 1 BLAS thread) 16 and 32 ran equally fast, 64 and
# 128 5-10 % slower. At 32, replay's traced peak on a 54 s dialogue is 23 MB:
# one block's prediction step or frontend work, plus a padded copy of the recording
REPLAY_BLOCK = 32


class ModelNotAttachedError(RuntimeError):
    pass


class MismatchedChunkError(ValueError):
    pass


class NonFiniteAudioError(ValueError):
    pass


def _samples(w) -> np.ndarray:
    x = w.samples if isinstance(w, Waveform) else np.asarray(w, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"audio must be 1-D mono samples, got an array of shape {x.shape}")
    return x


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


def _kind_rows(frames: np.ndarray, kinds: np.ndarray) -> np.ndarray:
    """(n, N_MELS) rows of n = len(kinds) frames, given as (n, WINDOW_SAMPLES)
    or as one (1, WINDOW_SAMPLES) frame for all of them: row i is the log-mel
    of frame i with all but its last kinds[i] + 1 hops zeroed, or the silent
    row, without the frontend, when frame i holds no nonzero sample."""
    sound = frames.any(axis=1)
    if sound.all():
        return _frame_features(np.where(_KEEP[kinds], frames, 0.0))
    rows = silent_features(len(kinds)).copy()
    if sound.any():
        rows[sound] = _frame_features(np.where(_KEEP[kinds[sound]], frames[sound], 0.0))
    return rows


def _windows(rows: np.ndarray, oldest, ctx: int) -> np.ndarray:
    """(len(oldest), ctx, N_MELS) windows from (hops, _KINDS, N_MELS) per-hop
    rows: row j of a window is kind min(j, _KINDS - 1) of hop oldest + j.
    Hops are taken modulo len(rows), so rows may be a ring."""
    hops = (np.asarray(oldest)[:, None] + np.arange(ctx)) % len(rows)
    return rows[hops, np.minimum(np.arange(ctx), _KINDS - 1)]


def _silent_robot_encoding(params: dict, cfg: ModelConfig) -> np.ndarray:
    """Robot encoding (1, context_frames, model_dim) of a context window of
    digital zeros: what every robot window of silent features encodes to."""
    return encode_channel(params, silent_features(cfg.context_frames)[None], cfg, "b")


def _all_silent(feats: np.ndarray) -> bool:
    """Whether every feature in feats is the silent value."""
    return bool((feats == silent_features(1)).all())


def _predict(params: dict, cfg: ModelConfig, rows, oldest, silent_encoding) -> list[tuple]:
    """(p_now_user, p_now_robot, vad row, entropy) of the windows with oldest
    hops oldest in the user's rows[0] and the robot's rows[1] (see _windows).
    Robot windows that are all silent take silent_encoding() as their encoding."""
    feats_a, feats_b = (_windows(r, oldest, cfg.context_frames) for r in rows)
    silent = _all_silent(feats_b)
    enc_b = silent_encoding() if silent else encode_channel(params, feats_b, cfg, "b")
    out = forward_last(params, feats_a, enc_b, cfg)
    return [(*p_now_pair(vap), vad, entropy_nats(vap)) for vap, vad in zip(out.vap, out.vad)]


class StreamContext:
    """Single-dialogue streaming state: rolling context rows plus a tick clock.

    Not safe for concurrent mutation; producer and ticker must be externally
    serialized. Emitted FrameResults are immutable and freely shareable.
    """

    def __init__(self, params: dict | None, cfg: ModelConfig):
        self.cfg = cfg
        self.params = params
        self.reset()

    @property
    def params(self) -> dict | None:
        return self._params

    @params.setter
    def params(self, params: dict | None) -> None:
        """Attach params; the robot encoding of the silent window is made for
        them on first use (not again when their arrays change in place)."""
        cfg = self.cfg
        self._params = params
        self._silent_encoding = functools.cache(lambda: _silent_robot_encoding(params, cfg))

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
        """Move the queued audio and the _HISTORY samples before it to the
        front, doubling the buffer until n more samples fit behind them."""
        kept = _HISTORY + self.samples_pending
        size = self._pending.shape[1]
        while kept + n > size:
            size *= 2
        target = self._pending if size == self._pending.shape[1] else np.empty((2, size))
        target[:, :kept] = self._pending[:, self._start - _HISTORY : self._end]
        self._pending = target
        self._start, self._end = _HISTORY, kept

    @property
    def tick_due(self) -> bool:
        return self.samples_pending >= HOP_SAMPLES

    def tick(self) -> FrameResult | None:
        """Consume 100 ms of queued audio and emit one prediction, or None if
        less than a hop of audio is pending."""
        if self.params is None:
            raise ModelNotAttachedError("no model parameters attached to this stream")
        if not self.tick_due:
            return None
        t0 = time.perf_counter()
        self._start += HOP_SAMPLES
        self.clock += 1
        # the 400 ms frame of each channel ending at the hop just taken
        frames = self._pending[:, self._start - WINDOW_SAMPLES : self._start]
        for c in (0, 1):
            rows = _kind_rows(frames[c, None], _ALL_KINDS)
            self._rows[c, self.clock % self.cfg.context_frames] = rows
        # the ring slot of hop h is h % ctx, so the window's oldest hop is in slot clock + 1
        oldest = [self.clock + 1]
        [pred] = _predict(self.params, self.cfg, self._rows, oldest, self._silent_encoding)
        compute_ms = (time.perf_counter() - t0) * 1000.0
        return _frame_result(self.clock, *pred, compute_ms)

    def tick_all(self) -> list[FrameResult]:
        out = []
        while self.tick_due:
            out.append(self.tick())
        return out

    def reset(self) -> None:
        """Back to a fresh context: silent window, empty queue, clock at 0."""
        ctx = self.cfg.context_frames
        # the rows of each channel's last ctx hops
        self._rows = np.broadcast_to(silent_features(1), (2, ctx, _KINDS, N_MELS)).copy()
        # queued audio of both channels is _pending[:, _start:_end], after
        # _HISTORY samples of the audio before it, zeros at the start
        self._pending = np.zeros((2, _HISTORY + 2 * HOP_SAMPLES))
        self._start = _HISTORY
        self._end = _HISTORY
        self.clock = 0


def run_stream(
    params: dict,
    cfg: ModelConfig,
    wav_a,
    wav_b=None,
    chunk_samples: int = HOP_SAMPLES,
) -> list[FrameResult]:
    """Replay waveforms through a fresh StreamContext in chunks of chunk_samples >= 1."""
    if chunk_samples < 1:
        raise ValueError(f"chunk_samples must be >= 1, got {chunk_samples}")
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


def _checked_ticks(ticks, n_ticks: int) -> np.ndarray:
    """ticks as an int array of 1-based tick indices, every tick when None;
    ValueError unless they increase strictly within 1..n_ticks."""
    if ticks is None:
        return np.arange(1, n_ticks + 1)
    sel = np.asarray(ticks)
    if sel.ndim != 1 or (sel.size and sel.dtype.kind not in "iu"):
        raise ValueError("ticks must be a sequence of integers")
    sel = sel.astype(np.int64)
    if sel.size and (sel[0] < 1 or sel[-1] > n_ticks or np.any(np.diff(sel) <= 0)):
        raise ValueError(f"ticks must increase strictly within 1..{n_ticks}")
    return sel


def _replay_rows(x: np.ndarray, ticks: np.ndarray, ctx: int) -> np.ndarray:
    """The rows the windows of ticks read from channel x: an array of shape
    (ctx - 1 + n_ticks, _KINDS, N_MELS) holding hop i + 2 - ctx at index i,
    so the window of tick k starts at index k - 1. Only the (hop, kind) pairs
    those windows read, with hop >= 1, are computed, REPLAY_BLOCK to a
    _kind_rows call; the rest are silent, all of them, as a read-only
    broadcast, for zeros x."""
    n_ticks = x.size // HOP_SAMPLES
    lead = ctx - 1
    audio = x[: n_ticks * HOP_SAMPLES]
    rows = np.broadcast_to(silent_features(1), (lead + n_ticks, _KINDS, N_MELS))
    if not audio.any():
        return rows
    rows = rows.copy()
    read = np.zeros((lead + n_ticks, _KINDS), dtype=bool)
    j = np.arange(ctx)
    read[ticks[:, None] - 1 + j, np.minimum(j, _KINDS - 1)] = True
    index, kinds = np.nonzero(read[lead:])
    # index i holds hop i + 1, whose frame is hop_frames row i
    frames = hop_frames(audio)
    for i in range(0, len(index), REPLAY_BLOCK):
        h, m = index[i : i + REPLAY_BLOCK], kinds[i : i + REPLAY_BLOCK]
        rows[lead + h, m] = _kind_rows(frames[h], m)
    return rows


def replay(params: dict, cfg: ModelConfig, wav_a, wav_b=None, ticks=None) -> list[FrameResult]:
    """The ticks run_stream emits for the same audio, computed in batches.

    ticks, an increasing sequence of 1-based tick indices, selects the ticks
    to compute; None means every one. ValueError, before any work, for a
    tick outside 1..len(wav_a) // HOP_SAMPLES or ticks not strictly
    increasing. Results match run_stream within float rounding (tested to
    1e-9), whatever ticks selects. Each block of REPLAY_BLOCK requested
    windows takes the tick's prediction step (_predict) over rows built by
    the tick's _kind_rows (see _replay_rows). A block whose robot windows are
    all silent, as every block is when wav_b is None, shares one encoding of
    the silent window, made at most once per call. compute_ms of every result
    in a block is the block's wall time divided by the windows in it; the row
    computation before the blocks is not in it.
    """
    if params is None:
        raise ModelNotAttachedError("no model parameters attached to replay")
    a = _samples(wav_a)
    b = np.zeros_like(a) if wav_b is None else _samples(wav_b)
    if a.size != b.size:
        raise MismatchedChunkError("channel lengths differ")
    ticks = _checked_ticks(ticks, a.size // HOP_SAMPLES)
    _check_finite(a, b)
    if not ticks.size:
        return []
    rows = [_replay_rows(c, ticks, cfg.context_frames) for c in (a, b)]
    silent_encoding = functools.cache(lambda: _silent_robot_encoding(params, cfg))
    results = []
    for i in range(0, len(ticks), REPLAY_BLOCK):
        t0 = time.perf_counter()
        block = ticks[i : i + REPLAY_BLOCK]
        preds = _predict(params, cfg, rows, block - 1, silent_encoding)
        compute_ms = (time.perf_counter() - t0) * 1000.0 / len(block)
        results += [_frame_result(int(t), *pred, compute_ms) for t, pred in zip(block, preds)]
    return results
