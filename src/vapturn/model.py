"""Dual-channel causal transformer over log-mel features, with hand-written backprop.

Per-speaker self-attention stacks feed a cross-attention stage; the fused
representation drives a 256-way projection-state head while each stream keeps
its own voice-activity logit. Everything is float64 numpy so finite-difference
gradient checks are meaningful and runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .codebook import N_STATES
from .features import HOP_SAMPLES, N_MELS

HEAD_INIT_STD = 0.02
LN_EPS = 1e-6
STANDARDIZE_EPS = 1e-6


class ShapeMismatchError(ValueError):
    pass


class NoTargetsError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    """Desk-scale architecture knobs, each a count >= 1; defaults keep a
    full-context forward pass around a couple of milliseconds on CPU."""

    model_dim: int = 32
    channel_layers: int = 1
    cross_layers: int = 1
    heads: int = 2
    context_frames: int = 50
    ffn_mult: int = 4

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1")
        if self.model_dim % self.heads != 0:
            raise ValueError(
                f"model_dim {self.model_dim} not divisible by heads {self.heads}"
            )

    @property
    def feature_bands(self) -> int:
        """Bands per feature row: always the frontend's N_MELS."""
        return N_MELS

    @property
    def context_samples(self) -> int:
        return self.context_frames * HOP_SAMPLES

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of to_json_dict. Stored configs may hold two keys that are
        not fields: "feature_bands", dropped when it is N_MELS and a
        ValueError otherwise, and "seed", always dropped (init_params takes
        its seed as an argument)."""
        d = dict(d)
        d.pop("seed", None)
        if (bands := d.pop("feature_bands", N_MELS)) != N_MELS:
            raise ValueError(f"feature_bands {bands} unsupported: the frontend emits {N_MELS} bands")
        return cls(**d)


@dataclass
class FrameBatch:
    """Aligned per-frame features and training targets for one sequence.

    target_state uses -1 for frames without a full 2 s future; those frames
    carry no loss.
    """

    features_a: np.ndarray
    features_b: np.ndarray
    target_state: np.ndarray | None = None
    target_vad: np.ndarray | None = None

    def __post_init__(self):
        self.features_a = np.asarray(self.features_a, dtype=np.float64)
        self.features_b = np.asarray(self.features_b, dtype=np.float64)
        if self.features_a.shape != self.features_b.shape:
            raise ShapeMismatchError(
                f"channel features differ: {self.features_a.shape} vs {self.features_b.shape}"
            )
        t = self.features_a.shape[0]
        if self.target_state is None:
            self.target_state = np.full(t, -1, dtype=np.int64)
        else:
            self.target_state = np.asarray(self.target_state, dtype=np.int64)
        if self.target_vad is None:
            self.target_vad = np.zeros((t, 2))
        else:
            self.target_vad = np.asarray(self.target_vad, dtype=np.float64)
        if self.target_state.shape != (t,) or self.target_vad.shape != (t, 2):
            raise ShapeMismatchError("targets not aligned with features")

    @property
    def n_frames(self) -> int:
        return self.features_a.shape[0]


@dataclass
class PredictionOutput:
    """Per-frame normalized 256-way projection distribution and VAD probabilities."""

    vap: np.ndarray
    vad: np.ndarray


class LossBreakdown(NamedTuple):
    total: float
    vap: float
    vad: float


# ---------------------------------------------------------------------------
# parameters


def init_params(cfg: ModelConfig, seed: int = 0) -> dict:
    """Fresh parameter dict; trunk weights at 1/sqrt(fan_in), heads near zero."""
    rng = np.random.default_rng(seed)
    d = cfg.model_dim
    hidden = cfg.ffn_mult * d
    p: dict[str, np.ndarray] = {}

    def dense(shape, fan_in):
        return rng.standard_normal(shape) / math.sqrt(fan_in)

    def add_ln(base):
        p[f"{base}.g"] = np.ones(d)
        p[f"{base}.b"] = np.zeros(d)

    def add_attn(base):
        for name in ("Wq", "Wk", "Wv", "Wo"):
            p[f"{base}.{name}"] = dense((d, d), d)
        for name in ("bq", "bk", "bv", "bo"):
            p[f"{base}.{name}"] = np.zeros(d)

    def add_ffn(base):
        p[f"{base}.W1"] = dense((d, hidden), d)
        p[f"{base}.b1"] = np.zeros(hidden)
        p[f"{base}.W2"] = dense((hidden, d), hidden)
        p[f"{base}.b2"] = np.zeros(d)

    p["in.W"] = dense((N_MELS, d), N_MELS)
    p["in.b"] = np.zeros(d)
    for c in ("a", "b"):
        for layer in range(cfg.channel_layers):
            base = f"ch.{c}.{layer}"
            add_ln(f"{base}.ln1")
            add_attn(f"{base}.attn")
            add_ln(f"{base}.ln2")
            add_ffn(f"{base}.ffn")
        for layer in range(cfg.cross_layers):
            base = f"x.{c}.{layer}"
            add_ln(f"{base}.lnq")
            add_ln(f"{base}.lnkv")
            add_attn(f"{base}.attn")
            add_ln(f"{base}.ln2")
            add_ffn(f"{base}.ffn")
    add_ln("final")
    p["vap.W"] = rng.standard_normal((d, N_STATES)) * HEAD_INIT_STD
    p["vap.b"] = np.zeros(N_STATES)
    p["vad.W"] = rng.standard_normal((d, 2)) * HEAD_INIT_STD
    p["vad.b"] = np.zeros(2)
    return p


def clone_params(params: dict) -> dict:
    return {k: v.copy() for k, v in params.items()}


# ---------------------------------------------------------------------------
# primitives
#
# Forward primitives write only into arrays they allocate, never into their
# inputs. With train they also return what their backward needs and cannot
# recompute: a LayerNorm output is never kept, since _ln_out rebuilds it from
# the LayerNorm's (xhat, inv) with the same bits.


def _mean(x: np.ndarray) -> np.ndarray:
    """Mean over the last axis, kept: the bits of x.mean(axis=-1, keepdims=True)."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _affine(x, w, b):
    """x @ w + b."""
    out = x @ w
    out += b
    return out


def _split_heads(x, heads):
    """(b, t, d) -> head-major (b, heads, t, d // heads) view: every
    contraction over heads is then a batched dgemm."""
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    """Inverse of _split_heads, as a new (b, t, d) array."""
    b, heads, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, heads * dh)


def standardize(x: np.ndarray) -> np.ndarray:
    """Zero mean, unit variance per frame across feature bands (no parameters)."""
    z = x - _mean(x)
    z /= np.sqrt(_mean(np.square(z)) + STANDARDIZE_EPS)
    return z


def _mat_grad(x, dout):
    """dW for out = x @ W: contract batch and time in one dgemm."""
    return x.reshape(-1, x.shape[-1]).T @ dout.reshape(-1, dout.shape[-1])


def _ln_out(xhat, p, base, out=None):
    """LayerNorm base's output g * xhat + b, written into out when given.
    _ln_fwd makes its output here, and backward recomputes it here from the
    cached xhat, so both have the same bits."""
    out = np.multiply(xhat, p[f"{base}.g"], out=out)
    out += p[f"{base}.b"]
    return out


def _ln_fwd(x, p, base):
    """LayerNorm base over the last axis: the output and its cache (xhat, inv)."""
    xhat = x - _mean(x)
    out = np.square(xhat)  # the variance's scratch, then the output
    inv = 1.0 / np.sqrt(_mean(out) + LN_EPS)
    xhat *= inv
    return _ln_out(xhat, p, base, out=out), (xhat, inv)


def _ln_bwd(dout, cache, p, base, grads):
    """Adds LayerNorm base's parameter gradients to grads; returns dx."""
    xhat, inv = cache
    scratch = dout * xhat
    grads[f"{base}.g"] += scratch.sum(axis=(0, 1))
    grads[f"{base}.b"] += dout.sum(axis=(0, 1))
    dxhat = dout * p[f"{base}.g"]
    mean_d = _mean(dxhat)
    mean_dx = _mean(np.multiply(dxhat, xhat, out=scratch))
    # dx = inv * (dxhat - mean_d - xhat * mean_dx), built in place in dxhat
    dxhat -= mean_d
    dxhat -= np.multiply(xhat, mean_dx, out=scratch)
    dxhat *= inv
    return dxhat


def _alibi_slopes(heads: int) -> np.ndarray:
    base = 2.0 ** (-8.0 / heads)
    return base ** np.arange(1, heads + 1)


@lru_cache(maxsize=8)
def _score_bias(t: int, heads: int):
    """Causal mask plus a per-head linear distance penalty on attention scores.

    The distance term gives the model a clock: without it, runs of identical
    silence frames are indistinguishable and silence duration is unreadable.
    """
    mask = np.zeros((t, t))
    mask[np.triu_indices(t, k=1)] = -np.inf
    dist = np.maximum(np.arange(t)[:, None] - np.arange(t)[None, :], 0)
    bias = mask[None] - _alibi_slopes(heads)[:, None, None] * dist[None]
    bias.setflags(write=False)
    return bias


def _attn_fwd(q_in, kv_in, p, base, heads, train=False):
    """Attention of the query rows over the key/value rows.

    Either input may have batch size 1 against the other's B: that side is
    projected once and broadcast in the products, and the output has batch
    B. With fewer query rows than key/value rows, the queries are the last
    t_q positions of the sequence (the causal mask and distance penalty are
    those rows of the full-length bias). With train, also returns the cache
    (q, k, v, probabilities, context); only full-row caches (t_q == t_kv) of
    equal batches are valid input to _attn_bwd.
    """
    t_q, d = q_in.shape[1:]
    t_kv = kv_in.shape[1]
    q = _split_heads(_affine(q_in, p[f"{base}.Wq"], p[f"{base}.bq"]), heads)
    k = _split_heads(_affine(kv_in, p[f"{base}.Wk"], p[f"{base}.bk"]), heads)
    v = _split_heads(_affine(kv_in, p[f"{base}.Wv"], p[f"{base}.bv"]), heads)
    scores = q @ k.transpose(0, 1, 3, 2)
    scores /= math.sqrt(d // heads)
    scores += _score_bias(t_kv, heads)[None, :, t_kv - t_q :]
    scores -= scores.max(axis=-1, keepdims=True)
    attn = np.exp(scores, out=scores)
    attn /= attn.sum(axis=-1, keepdims=True)
    ctx = _merge_heads(attn @ v)
    out = _affine(ctx, p[f"{base}.Wo"], p[f"{base}.bo"])
    return out, ((q, k, v, attn, ctx) if train else None)


def _attn_bwd(dout, cache, q_in, kv_in, p, base, heads, grads):
    """Backward of _attn_fwd, given its inputs q_in and kv_in again."""
    q, k, v, attn, ctx = cache
    dh = dout.shape[-1] // heads
    grads[f"{base}.Wo"] += _mat_grad(ctx, dout)
    grads[f"{base}.bo"] += dout.sum(axis=(0, 1))
    dctx = _split_heads(dout @ p[f"{base}.Wo"].T, heads)
    dattn = dctx @ v.transpose(0, 1, 3, 2)
    dv = _merge_heads(attn.transpose(0, 1, 3, 2) @ dctx)
    # dscores = attn * (dattn - rowsum(dattn * attn)) / sqrt(dh), built in place in dattn
    dattn -= (dattn * attn).sum(axis=-1, keepdims=True)
    dattn *= attn
    dattn /= math.sqrt(dh)
    dscores = dattn
    dq = _merge_heads(dscores @ k)
    dk = _merge_heads(dscores.transpose(0, 1, 3, 2) @ q)
    dq_in = dq @ p[f"{base}.Wq"].T
    dkv_in = dk @ p[f"{base}.Wk"].T
    dkv_in += dv @ p[f"{base}.Wv"].T
    grads[f"{base}.Wq"] += _mat_grad(q_in, dq)
    grads[f"{base}.bq"] += dq.sum(axis=(0, 1))
    grads[f"{base}.Wk"] += _mat_grad(kv_in, dk)
    grads[f"{base}.bk"] += dk.sum(axis=(0, 1))
    grads[f"{base}.Wv"] += _mat_grad(kv_in, dv)
    grads[f"{base}.bv"] += dv.sum(axis=(0, 1))
    return dq_in, dkv_in


def _ffn_fwd(x, p, base, train=False):
    """Two-layer ReLU FFN; with train, also returns its post-ReLU hidden layer."""
    hid = _affine(x, p[f"{base}.W1"], p[f"{base}.b1"])
    np.maximum(hid, 0.0, out=hid)
    return _affine(hid, p[f"{base}.W2"], p[f"{base}.b2"]), (hid if train else None)


def _ffn_bwd(dout, hid, x, p, base, grads):
    """Backward of _ffn_fwd from its hidden layer hid and input x."""
    grads[f"{base}.W2"] += _mat_grad(hid, dout)
    grads[f"{base}.b2"] += dout.sum(axis=(0, 1))
    dhid = dout @ p[f"{base}.W2"].T
    dhid *= hid > 0  # ReLU: hid > 0 exactly where its pre-activation is
    grads[f"{base}.W1"] += _mat_grad(x, dhid)
    grads[f"{base}.b1"] += dhid.sum(axis=(0, 1))
    return dhid @ p[f"{base}.W1"].T


def _self_block_fwd(x, p, base, heads, train=False):
    a1, ln1_cache = _ln_fwd(x, p, f"{base}.ln1")
    x1, att_cache = _attn_fwd(a1, a1, p, f"{base}.attn", heads, train)
    x1 += x
    a2, ln2_cache = _ln_fwd(x1, p, f"{base}.ln2")
    out, ffn_cache = _ffn_fwd(a2, p, f"{base}.ffn", train)
    out += x1
    return out, ((ln1_cache, att_cache, ln2_cache, ffn_cache) if train else None)


def _self_block_bwd(dout, cache, p, base, heads, grads):
    ln1_cache, att_cache, ln2_cache, ffn_cache = cache
    a2 = _ln_out(ln2_cache[0], p, f"{base}.ln2")
    da2 = _ffn_bwd(dout, ffn_cache, a2, p, f"{base}.ffn", grads)
    dx1 = _ln_bwd(da2, ln2_cache, p, f"{base}.ln2", grads)
    dx1 += dout
    a1 = _ln_out(ln1_cache[0], p, f"{base}.ln1")
    da1, dkv_in = _attn_bwd(dx1, att_cache, a1, a1, p, f"{base}.attn", heads, grads)
    da1 += dkv_in
    dx = _ln_bwd(da1, ln1_cache, p, f"{base}.ln1", grads)
    dx += dx1
    return dx


def _cross_block_fwd(x_self, x_other, p, base, heads, train=False):
    """Cross block of the queries x_self over x_other; either may have
    batch size 1 against the other's B (see _attn_fwd)."""
    q, lnq_cache = _ln_fwd(x_self, p, f"{base}.lnq")
    kv, lnkv_cache = _ln_fwd(x_other, p, f"{base}.lnkv")
    y, att_cache = _attn_fwd(q, kv, p, f"{base}.attn", heads, train)
    y += x_self
    a2, ln2_cache = _ln_fwd(y, p, f"{base}.ln2")
    out, ffn_cache = _ffn_fwd(a2, p, f"{base}.ffn", train)
    out += y
    return out, ((lnq_cache, lnkv_cache, att_cache, ln2_cache, ffn_cache) if train else None)


def _cross_block_bwd(dout, cache, p, base, heads, grads):
    lnq_cache, lnkv_cache, att_cache, ln2_cache, ffn_cache = cache
    a2 = _ln_out(ln2_cache[0], p, f"{base}.ln2")
    da2 = _ffn_bwd(dout, ffn_cache, a2, p, f"{base}.ffn", grads)
    dy = _ln_bwd(da2, ln2_cache, p, f"{base}.ln2", grads)
    dy += dout
    q = _ln_out(lnq_cache[0], p, f"{base}.lnq")
    kv = _ln_out(lnkv_cache[0], p, f"{base}.lnkv")
    dq, dkv = _attn_bwd(dy, att_cache, q, kv, p, f"{base}.attn", heads, grads)
    dx_self = _ln_bwd(dq, lnq_cache, p, f"{base}.lnq", grads)
    dx_self += dy
    dx_other = _ln_bwd(dkv, lnkv_cache, p, f"{base}.lnkv", grads)
    return dx_self, dx_other


# ---------------------------------------------------------------------------
# full network


def _check_context(n_frames: int, cfg: ModelConfig) -> None:
    if n_frames > cfg.context_frames:
        raise ShapeMismatchError(
            f"sequence of {n_frames} frames exceeds context {cfg.context_frames}"
        )


def _encode(params, feats, cfg: ModelConfig, stream: str, train: bool = False):
    """One channel's encoder: standardize, input projection, self blocks.

    Returns the (B, T, model_dim) output and, with train, the cache
    (standardized features, [block caches]) _backward needs (None otherwise).
    """
    z = standardize(feats)
    x = _affine(z, params["in.W"], params["in.b"])
    blocks = []
    for layer in range(cfg.channel_layers):
        x, cache = _self_block_fwd(x, params, f"ch.{stream}.{layer}", cfg.heads, train)
        blocks.append(cache)
    return x, ((z, blocks) if train else None)


def _fuse(params, xa, xb, cfg: ModelConfig, last_row: bool = False, train: bool = False):
    """Fusion stage over both channels' encodings: cross layers, final LN, heads.

    xb may have batch size 1 against xa's B: one robot encoding shared by
    every window. With last_row, the last cross layer, the final LN and the
    heads run on the newest frame only, so the logits have one row per
    sequence; earlier cross layers still run on every row because they feed
    the other channel's keys and values. With train (full rows only), also
    returns the cache ([cross block caches], final LN caches) _backward
    needs; otherwise None.
    """
    cross = []
    for layer in range(cfg.cross_layers):
        qa, qb = xa, xb
        if last_row and layer == cfg.cross_layers - 1:
            qa, qb = xa[:, -1:], xb[:, -1:]
        ya, ca = _cross_block_fwd(qa, xb, params, f"x.a.{layer}", cfg.heads, train)
        yb, cb = _cross_block_fwd(qb, xa, params, f"x.b.{layer}", cfg.heads, train)
        cross += [ca, cb]
        xa, xb = ya, yb
    ha, lnf_a = _ln_fwd(xa, params, "final")
    hb, lnf_b = _ln_fwd(xb, params, "final")
    w_vad = params["vad.W"]
    b_vad = params["vad.b"]
    vad_logits = np.stack([ha @ w_vad[:, 0] + b_vad[0], hb @ w_vad[:, 1] + b_vad[1]], axis=-1)
    fused = ha
    fused += hb
    vap_logits = _affine(fused, params["vap.W"], params["vap.b"])
    return vap_logits, vad_logits, ((cross, lnf_a, lnf_b) if train else None)


def _forward(params, feats_a, feats_b, cfg: ModelConfig, train: bool = False):
    """Batched forward pass; returns raw head logits and, with train, the
    backprop cache (None otherwise).

    The train cache is a list that _backward consumes. Per channel it holds
    the standardized features and, per self block, each LayerNorm's
    (xhat, inv), the attention's (q, k, v, probabilities, context) and the
    FFN's post-ReLU hidden layer; each cross block holds the same; and the
    final LayerNorms hold their (xhat, inv). No LayerNorm output is kept:
    backward recomputes the attention and FFN inputs and the final ha, hb
    and fused with _ln_out, bit for bit.
    """
    if feats_a.shape != feats_b.shape:
        raise ShapeMismatchError(f"{feats_a.shape} vs {feats_b.shape}")
    _check_context(feats_a.shape[1], cfg)
    xa, enc_a = _encode(params, feats_a, cfg, "a", train)
    xb, enc_b = _encode(params, feats_b, cfg, "b", train)
    vap_logits, vad_logits, fuse_cache = _fuse(params, xa, xb, cfg, train=train)
    return vap_logits, vad_logits, ([enc_a, enc_b, fuse_cache] if train else None)


def _backward(params, cfg: ModelConfig, cache, dlogits) -> dict:
    """Gradients of every parameter from _forward's train cache and the
    logit gradients dlogits = [dvap_logits, dvad_logits].

    Consumes both: it empties the two lists, and releases each block's cache
    and the logit gradients as soon as it has used them, so memory falls as
    backward runs.
    """
    (za, blocks_a), (zb, blocks_b), (cross, lnf_a, lnf_b) = cache
    dvap, dvad = dlogits
    cache.clear()
    dlogits.clear()
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    ha = _ln_out(lnf_a[0], params, "final")
    hb = _ln_out(lnf_b[0], params, "final")
    grads["vap.W"] += _mat_grad(ha + hb, dvap)
    grads["vap.b"] += dvap.sum(axis=(0, 1))
    dha = dvap @ params["vap.W"].T
    del dvap
    w_vad = params["vad.W"]
    dhb = dha + dvad[..., 1:2] * w_vad[:, 1]
    dha += dvad[..., 0:1] * w_vad[:, 0]
    grads["vad.W"][:, 0] += ha.reshape(-1, ha.shape[-1]).T @ dvad[..., 0].ravel()
    grads["vad.b"][0] += dvad[..., 0].sum()
    grads["vad.W"][:, 1] += hb.reshape(-1, hb.shape[-1]).T @ dvad[..., 1].ravel()
    grads["vad.b"][1] += dvad[..., 1].sum()
    del ha, hb, dvad
    dxa = _ln_bwd(dha, lnf_a, params, "final", grads)
    dxb = _ln_bwd(dhb, lnf_b, params, "final", grads)
    del lnf_a, lnf_b, dha, dhb
    for layer in reversed(range(cfg.cross_layers)):
        # the layer's caches were pushed a then b
        dself_b, dother_b = _cross_block_bwd(dxb, cross.pop(), params, f"x.b.{layer}", cfg.heads, grads)
        dself_a, dother_a = _cross_block_bwd(dxa, cross.pop(), params, f"x.a.{layer}", cfg.heads, grads)
        dself_a += dother_b
        dself_b += dother_a
        dxa, dxb = dself_a, dself_b
    for layer in reversed(range(cfg.channel_layers)):
        dxa = _self_block_bwd(dxa, blocks_a.pop(), params, f"ch.a.{layer}", cfg.heads, grads)
        dxb = _self_block_bwd(dxb, blocks_b.pop(), params, f"ch.b.{layer}", cfg.heads, grads)
    grads["in.W"] += _mat_grad(za, dxa) + _mat_grad(zb, dxb)
    grads["in.b"] += dxa.sum(axis=(0, 1)) + dxb.sum(axis=(0, 1))
    return grads


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in logits."""
    logits -= logits.max(axis=-1, keepdims=True)
    e = np.exp(logits, out=logits)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward(params: dict, batch: FrameBatch, cfg: ModelConfig) -> PredictionOutput:
    """Run the network on one sequence pair; rows are normalized distributions."""
    vap_logits, vad_logits, _ = _forward(
        params, batch.features_a[None], batch.features_b[None], cfg
    )
    return PredictionOutput(vap=_softmax(vap_logits[0]), vad=_sigmoid(vad_logits[0]))


def encode_channel(params: dict, feats, cfg: ModelConfig, stream: str) -> np.ndarray:
    """Encoder output (B, T, model_dim) of one channel ("a" user, "b" robot)
    for a (B, T, bands) batch of feature windows."""
    return _encode(params, feats, cfg, stream)[0]


def forward_last(params: dict, feats_a, enc_b: np.ndarray, cfg: ModelConfig) -> PredictionOutput:
    """Newest-frame predictions for a (B, T, bands) batch of user feature
    windows: vap is (B, N_STATES), vad is (B, 2). The robot channel comes as
    its encode_channel output enc_b, (B, T, model_dim), or (1, T, model_dim)
    shared by every window; a shared encoding goes through its LayerNorm and
    key/value projections once, not once per window, with the same bits.
    Equals the last row of forward on each window pair up to float rounding."""
    batch, frames = feats_a.shape[:2]
    if enc_b.shape[0] not in (1, batch) or enc_b.shape[1] != frames:
        raise ShapeMismatchError(f"user features {feats_a.shape} vs robot encoding {enc_b.shape}")
    _check_context(frames, cfg)
    xa, _ = _encode(params, feats_a, cfg, "a")
    vap_logits, vad_logits, _ = _fuse(params, xa, enc_b, cfg, last_row=True)
    return PredictionOutput(vap=_softmax(vap_logits[:, -1]), vad=_sigmoid(vad_logits[:, -1]))


def _loss_terms(vap_logits, vad_logits, target_state, target_vad):
    """Masked joint loss (projection CE plus per-speaker activity BCE), and
    the terms its gradient is built from: the mask, the index arrays of the
    target frames, their number n, their projection targets, and their
    activity logits and targets (n, 2). Overwrites every row of vap_logits
    with its log-softmax.

    target_state entries of -1 mark frames excluded from both task losses.
    """
    mask = target_state >= 0
    n = int(mask.sum())
    if n == 0:
        raise NoTargetsError("no frames with targets in batch")
    rows = np.nonzero(mask)
    tgt = target_state[rows]
    m = vap_logits.max(axis=-1, keepdims=True)
    sums = np.empty_like(m)
    # exp(logits - m) one leading index at a time: the logits stay intact for logp
    for x, mx, s in zip(vap_logits, m, sums):
        shifted = x - mx
        s[...] = np.exp(shifted, out=shifted).sum(axis=-1, keepdims=True)
    vap_logits -= m + np.log(sums)
    l_vap = float(-vap_logits[rows + (tgt,)].mean())
    z = vad_logits[mask]
    t = target_vad[mask]
    l_vad = float(np.mean(np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))))
    return LossBreakdown(l_vap + l_vad, l_vap, l_vad), (mask, rows, n, tgt, z, t)


def loss_from_logits(vap_logits, vad_logits, target_state, target_vad) -> LossBreakdown:
    """Masked joint loss; builds no gradient. Overwrites vap_logits."""
    return _loss_terms(vap_logits, vad_logits, target_state, target_vad)[0]


def loss_and_grads_from_logits(vap_logits, vad_logits, target_state, target_vad):
    """loss_from_logits and the gradients with respect to both logit tensors.
    The projection gradient is built in place: it is vap_logits' array."""
    breakdown, (mask, rows, n, tgt, z, t) = _loss_terms(vap_logits, vad_logits, target_state, target_vad)
    dvap = np.exp(vap_logits, out=vap_logits)
    dvap[rows + (tgt,)] -= 1.0
    dvap /= n
    dvap[~mask] = 0.0
    dz = (_sigmoid(z) - t) / (n * 2)
    dvad = np.zeros_like(vad_logits)
    dvad[mask] = dz
    return breakdown, dvap, dvad


def loss(out: PredictionOutput, batch: FrameBatch) -> LossBreakdown:
    """Joint loss computed from output probabilities (contract form).

    Matches the logits path up to a 1e-12 probability clamp: mean cross-entropy
    of the projection distribution plus the per-frame, per-speaker mean binary
    cross-entropy of the activity probabilities.
    """
    mask = batch.target_state >= 0
    n = int(mask.sum())
    if n == 0:
        raise NoTargetsError("no frames with targets in batch")
    p = out.vap[mask]
    tgt = batch.target_state[mask]
    l_vap = float(-np.log(np.clip(p[np.arange(n), tgt], 1e-12, None)).mean())
    v = np.clip(out.vad[mask], 1e-12, 1.0 - 1e-12)
    t = batch.target_vad[mask]
    l_vad = float(-np.mean(t * np.log(v) + (1.0 - t) * np.log(1.0 - v)))
    return LossBreakdown(l_vap + l_vad, l_vap, l_vad)


def batch_loss_and_grads(params, cfg, feats_a, feats_b, target_state, target_vad):
    """Forward + backward over a stacked (B, T, ...) training batch: the loss
    and the gradients, and nothing else left allocated."""
    vap_logits, vad_logits, cache = _forward(params, feats_a, feats_b, cfg, train=True)
    breakdown, *dlogits = loss_and_grads_from_logits(vap_logits, vad_logits, target_state, target_vad)
    del vap_logits, vad_logits  # dlogits[0] is vap_logits' array; _backward frees it once used
    return breakdown, _backward(params, cfg, cache, dlogits)


def grad_check(
    params: dict,
    batch: FrameBatch,
    cfg: ModelConfig,
    n_coords: int = 24,
    eps: float = 1e-4,
    seed: int = 0,
    grads: dict | None = None,
    coords=None,
) -> float:
    """Max relative error between analytic and central finite-difference gradients.

    Samples n_coords parameter coordinates (or checks the explicit
    (key, flat_index) pairs in coords); a coordinate where both gradients are
    below 1e-8 in magnitude counts as an exact pass.
    """
    fa = batch.features_a[None]
    fb = batch.features_b[None]
    ts = batch.target_state[None]
    tv = batch.target_vad[None]

    def objective():
        vap_logits, vad_logits, _ = _forward(params, fa, fb, cfg)
        return loss_from_logits(vap_logits, vad_logits, ts, tv).total

    if grads is None:
        _, grads = batch_loss_and_grads(params, cfg, fa, fb, ts, tv)
    if coords is None:
        rng = np.random.default_rng(seed)
        keys = sorted(params.keys())
        coords = []
        for _ in range(n_coords):
            key = keys[int(rng.integers(len(keys)))]
            coords.append((key, int(rng.integers(params[key].size))))
    worst = 0.0
    for key, idx in coords:
        orig = params[key].flat[idx]
        params[key].flat[idx] = orig + eps
        f_plus = objective()
        params[key].flat[idx] = orig - eps
        f_minus = objective()
        params[key].flat[idx] = orig
        fd = (f_plus - f_minus) / (2.0 * eps)
        analytic = grads[key].flat[idx]
        if abs(analytic) < 1e-8 and abs(fd) < 1e-8:
            continue
        rel = abs(analytic - fd) / max(abs(analytic), abs(fd))
        worst = max(worst, rel)
    return worst
