"""Real-time inference: 5 s rolling context, one prediction tick per 100 ms of audio.

Each tick runs the forward pass over the features of the zero-padded trailing
5 s window, so streaming output equals an offline pass over that window and
does not depend on how the audio was chunked. Row j of the window ending at
hop k is the 400 ms frame ending at hop k - context_frames + 1 + j, keeping
the min(j + 1, 4) hops of it inside the window and zeros before them. So each
hop has 4 rows, and a window is one fixed gather over its hops' rows. The
tick computes all 4 rows of each new hop once and keeps them in a ring.
replay computes, for the ticks asked of it, the full-frame row of every hop
in one frontend pass over the recording, and each shorter row only where a
requested window's first rows read it. Both then take one prediction step,
_predict. Only the newest row's prediction is used, so the last cross layer
and the heads run on that row alone.

Silence is read from the data. A frame with no nonzero sample has the silent
rows, so the tick writes them without the frontend, and replay's rows of an
all-zero channel are silent throughout. The deployed engine hears the user
with the robot channel zeroed. When every robot feature a prediction step
reads is silent, whatever the audio under it, the step reuses one stored
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
    extract_features,
    hop_frames,
    silent_features,
)

# forward is not called here; it stays importable as vapturn.streaming.forward,
# a name perfbench's traced run wraps
from .model import ModelConfig, encode_channel, forward, forward_last  # noqa: F401

TICK_PERIOD_S = HOP_SAMPLES / SAMPLE_RATE
# a hop's rows: its 400 ms frame keeping the samples _KEEP[kind] marks, its last kind + 1 hops
_KINDS = WINDOW_SAMPLES // HOP_SAMPLES
_KEEP = np.arange(WINDOW_SAMPLES) >= (_KINDS - 1 - np.arange(_KINDS))[:, None] * HOP_SAMPLES
# windows per replay forward call, and short rows per frontend call. On a
# 54 s recording (2-vCPU VM, 1 BLAS thread) 16 and 32 ran equally fast, 64 and
# 128 5-10 % slower. replay's traced peak, 70 MB at every one of these sizes,
# is the one frontend pass over the recording, which grows with its length
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


def _frame_rows(frames: np.ndarray) -> np.ndarray:
    """(n, _KINDS, N_MELS) rows of (n, WINDOW_SAMPLES) frames: kind m is the
    log-mel of the frame with all but its last m + 1 hops zeroed."""
    kept = np.where(_KEEP, frames[:, None], 0.0).reshape(-1, WINDOW_SAMPLES)
    return _frame_features(kept).reshape(len(frames), _KINDS, N_MELS)


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
        self.params = params
        self.cfg = cfg
        # robot encoding of the silent window, and the params it was made with
        self._silent_enc = None
        self._silent_enc_params = None
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

    def _roll_in(self, c: int, hop: np.ndarray) -> None:
        """Shift hop into channel c's 400 ms tail and store the rows of the
        tail's frame, silent when the tail is zeros, in the newest hop's ring slot."""
        tail = self._tail[c]
        tail[:-HOP_SAMPLES] = tail[HOP_SAMPLES:]
        tail[-HOP_SAMPLES:] = hop
        rows = _frame_rows(tail[None])[0] if tail.any() else silent_features(_KINDS)
        self._rows[c, self.clock % self.cfg.context_frames] = rows

    def _cached_silent_encoding(self) -> np.ndarray:
        """_silent_robot_encoding, made again when self.params is rebound to
        another object (not when its arrays change in place)."""
        if self._silent_enc_params is not self.params:
            self._silent_enc = _silent_robot_encoding(self.params, self.cfg)
            self._silent_enc_params = self.params
        return self._silent_enc

    def tick(self) -> FrameResult | None:
        """Consume 100 ms of queued audio and emit one prediction, or None if
        less than a hop of audio is pending."""
        if self.params is None:
            raise ModelNotAttachedError("no model parameters attached to this stream")
        if not self.tick_due:
            return None
        t0 = time.perf_counter()
        hop = self._take_hop()
        self.clock += 1
        for c in (0, 1):
            self._roll_in(c, hop[c])
        # the ring slot of hop h is h % ctx, so the window's oldest hop is in slot clock + 1
        oldest = [self.clock + 1]
        [pred] = _predict(self.params, self.cfg, self._rows, oldest, self._cached_silent_encoding)
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
        # the last 400 ms of each channel, and the rows of its last ctx hops
        self._tail = np.zeros((2, WINDOW_SAMPLES))
        self._rows = np.broadcast_to(silent_features(1), (2, ctx, _KINDS, N_MELS)).copy()
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
    so the window of tick k starts at index k - 1. The full-frame kind of
    every hop is one extract_features pass over the recording. A shorter
    kind m is read only as row m of a window, so it is computed only for hop
    k - ctx + 1 + m of each tick k. Hops <= 0, and rows no window of ticks
    reads, are silent; all of them, as a read-only broadcast, for zeros x."""
    n_ticks = x.size // HOP_SAMPLES
    lead = ctx - 1
    audio = x[: n_ticks * HOP_SAMPLES]
    silent = np.broadcast_to(silent_features(1), (lead + n_ticks, _KINDS, N_MELS))
    if not audio.any():
        return silent
    rows = silent.copy()
    rows[lead:, -1] = extract_features(audio)
    kinds = np.arange(min(ctx, _KINDS - 1))
    hops = (ticks[:, None] - ctx + 1 + kinds).ravel()
    kinds = np.broadcast_to(kinds, (len(ticks), len(kinds))).ravel()
    hops, kinds = hops[hops >= 1], kinds[hops >= 1]
    # frame f ends at hop f + 1; REPLAY_BLOCK rows per call bound the FFT buffers
    frames = hop_frames(audio)
    for i in range(0, len(hops), REPLAY_BLOCK):
        h, m = hops[i : i + REPLAY_BLOCK], kinds[i : i + REPLAY_BLOCK]
        rows[lead + h - 1, m] = _frame_features(np.where(_KEEP[m], frames[h - 1], 0.0))
    return rows


def replay(params: dict, cfg: ModelConfig, wav_a, wav_b=None, ticks=None) -> list[FrameResult]:
    """The ticks run_stream emits for the same audio, computed in batches.

    ticks, an increasing sequence of 1-based tick indices, selects the ticks
    to compute; None means every one. ValueError, before any work, for a
    tick outside 1..len(wav_a) // HOP_SAMPLES or ticks not strictly
    increasing. Results match run_stream within float rounding (tested to
    1e-9), whatever ticks selects. Each block of REPLAY_BLOCK requested
    windows takes the tick's prediction step (_predict) over rows built as
    the tick builds them (see _replay_rows). A block whose robot windows are
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
