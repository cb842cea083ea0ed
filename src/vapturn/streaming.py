"""Real-time inference: 5 s rolling context, one prediction tick per 100 ms of audio.

Each tick runs the forward pass over the features of the zero-padded trailing
5 s window, so streaming output equals an offline pass over that window and
does not depend on how the audio was chunked. Row j of the window ending at
hop k is the 400 ms frame ending at hop k - context_frames + 1 + j, keeping
the min(j + 1, 4) hops of it inside the window and zeros before them: kind
min(j, 3) of that hop. features.kind_rows builds such rows, as it builds
extract_features'. The tick builds all 4 kinds of each new hop from its frame,
read in place from the queued audio, and keeps them in a ring; a window is one
fixed gather over the ring. replay builds, in one call, only the (hop, kind)
pairs its requested windows read. Both then take one prediction step,
_predict. Only the newest row's prediction is used, so the last cross layer
and the heads run on that row alone.

Silence is read from the data, by kind_rows' one rule: a frame with no nonzero
sample has the silent rows, made without the frontend. The deployed engine
hears the user with the robot channel zeroed. When every robot feature a
prediction step reads is silent, whatever the audio under it, the step reuses
one stored encoding of the silent window. This is exact: the tick is
bit-identical to computing the robot side in full. A feature row has the bits
of its pair computed alone, whatever the batch (see features._log_mel), so
replay is bit-identical to run_stream, and every window the tick or replay
feeds the model is extract_features of the zero-padded trailing window, bit
for bit.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

import numpy as np

from .audio import SAMPLE_RATE
from .codebook import entropy_nats, p_now_pair
from .features import (
    HOP_SAMPLES,
    KINDS,
    LEAD_FRAMES,
    N_MELS,
    WINDOW_SAMPLES,
    NonFiniteAudioError,
    _check_finite,
    _samples,
    kind_rows,
    silent_features,
)

# forward and extract_features are not called here; they stay importable as
# vapturn.streaming.forward and .extract_features, names perfbench's traced run wraps
from .features import extract_features  # noqa: F401
from .model import ModelConfig, encode_channel, forward, forward_last  # noqa: F401

TICK_PERIOD_S = HOP_SAMPLES / SAMPLE_RATE
# samples the pending queue keeps before its oldest hop, so that a hop's frame is a view
_HISTORY = WINDOW_SAMPLES - HOP_SAMPLES
# windows per replay forward call. On a 54 s recording (2-vCPU VM, 1 BLAS
# thread) 16 and 32 ran equally fast, 64 and 128 5-10 % slower. At 32,
# replay's traced peak (tracemalloc, after a warm-up call) on a 54.55 s
# generated dialogue is 7.1 MB with no robot channel and 8.3 MB with one
REPLAY_BLOCK = 32
# the silent feature row, made once: _all_silent on a 50-row window took 6.1
# µs with a fresh silent_features(1) per prediction step, 2.4 µs with this
# row (2-vCPU VM)
_SILENT_ROW = silent_features(1)[0]


class ModelNotAttachedError(RuntimeError):
    pass


class MismatchedChunkError(ValueError):
    pass


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


def _channels(wav_a, wav_b) -> tuple:
    """(user samples, robot samples) of one recording or chunk, the robot's
    None when wav_b is: a missing robot channel is silent, and no zeros are
    made for it. MismatchedChunkError unless the two have one length."""
    a = _samples(wav_a)
    b = None if wav_b is None else _samples(wav_b)
    if b is not None and b.size != a.size:
        raise MismatchedChunkError(f"channel lengths differ: {a.size} vs {b.size}")
    return a, b


def _windows(rows: np.ndarray, oldest, ctx: int) -> np.ndarray:
    """(len(oldest), ctx, N_MELS) windows from (hops, len(KINDS), N_MELS)
    per-hop rows: row j of a window is kind min(j, LEAD_FRAMES) of hop
    oldest + j. Hops are taken modulo len(rows), so rows may be a ring."""
    hops = (np.asarray(oldest)[:, None] + np.arange(ctx)) % len(rows)
    return rows[hops, np.minimum(np.arange(ctx), LEAD_FRAMES)]


def _silent_robot_encoding(params: dict, cfg: ModelConfig) -> np.ndarray:
    """Robot encoding (1, context_frames, model_dim) of a context window of
    digital zeros: what every robot window of silent features encodes to."""
    return encode_channel(params, silent_features(cfg.context_frames)[None], cfg, "b")


def _all_silent(feats: np.ndarray) -> bool:
    """Whether every feature in feats is the silent value."""
    return bool((feats == _SILENT_ROW).all())


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
        return self._queue.shape[1] - _HISTORY

    def push_audio(self, chunk_a, chunk_b=None) -> None:
        """Queue new audio; the robot channel defaults to silence when omitted.

        A chunk with NaN or infinite samples raises NonFiniteAudioError and
        leaves the queue and the clock unchanged.
        """
        a, b = _channels(chunk_a, chunk_b)
        _check_finite(a, b)
        robot = np.zeros_like(a) if b is None else b
        self._queue = np.concatenate((self._queue, [a, robot]), axis=1)

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
        self.clock += 1
        # the 400 ms frame of each channel ending at the hop taken now
        frames = self._queue[:, :WINDOW_SAMPLES]
        self._queue = self._queue[:, HOP_SAMPLES:]
        for c in (0, 1):
            rows = kind_rows(frames[c], LEAD_FRAMES, KINDS)
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
        self._rows = np.broadcast_to(_SILENT_ROW, (2, ctx, len(KINDS), N_MELS)).copy()
        # the queued audio of both channels, after _HISTORY samples of the
        # audio before it, zeros at the start
        self._queue = np.zeros((2, _HISTORY))
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
    a, b = _channels(wav_a, wav_b)
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


def _replay_rows(x: np.ndarray | None, ticks: np.ndarray, ctx: int, n_ticks: int) -> np.ndarray:
    """The rows the windows of ticks read from channel x, of n_ticks hops:
    an array of shape (ctx - 1 + n_ticks, len(KINDS), N_MELS) holding hop
    i + 2 - ctx at index i, so the window of tick k starts at index k - 1.
    Only the (hop, kind) pairs those windows read, with hop >= 1, are
    computed, in one kind_rows call; the rest are silent, all of them, as a
    read-only broadcast, for zeros x or x None (a missing channel)."""
    lead = ctx - 1
    rows = np.broadcast_to(_SILENT_ROW, (lead + n_ticks, len(KINDS), N_MELS))
    if x is None or not x[: n_ticks * HOP_SAMPLES].any():
        return rows
    rows = rows.copy()
    read = np.zeros((lead + n_ticks, len(KINDS)), dtype=bool)
    j = np.arange(ctx)
    read[ticks[:, None] - 1 + j, np.minimum(j, LEAD_FRAMES)] = True
    # index i holds hop i + 1, whose frame is hop_frames row i
    index, kinds = np.nonzero(read[lead:])
    rows[lead + index, kinds] = kind_rows(x, index, kinds)
    return rows


def replay(params: dict, cfg: ModelConfig, wav_a, wav_b=None, ticks=None) -> list[FrameResult]:
    """The ticks run_stream emits for the same audio, computed in batches.

    ticks, an increasing sequence of 1-based tick indices, selects the ticks
    to compute; None means every one. ValueError, before any work, for a
    tick outside 1..len(wav_a) // HOP_SAMPLES or ticks not strictly
    increasing. Results equal run_stream's on every field but compute_ms,
    bit for bit, whatever ticks selects. Each block of REPLAY_BLOCK requested
    windows takes the tick's prediction step (_predict) over rows built by
    the tick's kind_rows (see _replay_rows). A block whose robot windows are
    all silent, as every block is when wav_b is None, shares one encoding of
    the silent window, made at most once per call. compute_ms of every result
    in a block is the block's wall time divided by the windows in it; the row
    computation before the blocks is not in it.
    """
    if params is None:
        raise ModelNotAttachedError("no model parameters attached to replay")
    a, b = _channels(wav_a, wav_b)
    n_ticks = a.size // HOP_SAMPLES
    ticks = _checked_ticks(ticks, n_ticks)
    _check_finite(a, b)
    if not ticks.size:
        return []
    rows = [_replay_rows(c, ticks, cfg.context_frames, n_ticks) for c in (a, b)]
    silent_encoding = functools.cache(lambda: _silent_robot_encoding(params, cfg))
    results = []
    for i in range(0, len(ticks), REPLAY_BLOCK):
        t0 = time.perf_counter()
        block = ticks[i : i + REPLAY_BLOCK]
        preds = _predict(params, cfg, rows, block - 1, silent_encoding)
        compute_ms = (time.perf_counter() - t0) * 1000.0 / len(block)
        results += [_frame_result(int(t), *pred, compute_ms) for t, pred in zip(block, preds)]
    return results
