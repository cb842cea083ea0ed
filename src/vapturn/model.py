"""Dual-channel causal transformer over log-mel features, with hand-written backprop.

Per-speaker self-attention stacks feed a cross-attention stage; the fused
representation drives a 256-way projection-state head while each stream keeps
its own voice-activity logit. Everything is float64 numpy so finite-difference
gradient checks are meaningful and runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """Desk-scale architecture knobs; defaults keep a full-context forward pass
    around a couple of milliseconds on CPU."""

    model_dim: int = 32
    channel_layers: int = 1
    cross_layers: int = 1
    heads: int = 2
    context_frames: int = 50
    ffn_mult: int = 4
    seed: int = 0

    def __post_init__(self):
        for name in ("model_dim", "channel_layers", "cross_layers", "heads", "context_frames", "ffn_mult"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
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
        return {
            "model_dim": self.model_dim,
            "channel_layers": self.channel_layers,
            "cross_layers": self.cross_layers,
            "heads": self.heads,
            "context_frames": self.context_frames,
            "ffn_mult": self.ffn_mult,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of to_json_dict. Stored configs may hold "feature_bands",
        no longer a field: dropped when it is N_MELS, ValueError otherwise."""
        d = dict(d)
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


def init_params(cfg: ModelConfig, seed: int | None = None) -> dict:
    """Fresh parameter dict; trunk weights at 1/sqrt(fan_in), heads near zero."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
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


def standardize(x: np.ndarray) -> np.ndarray:
    """Zero mean, unit variance per frame across feature bands (no parameters)."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    return xc / np.sqrt(var + STANDARDIZE_EPS)


def _mat_grad(x, dout):
    """dW for out = x @ W: contract batch and time in one dgemm."""
    return x.reshape(-1, x.shape[-1]).T @ dout.reshape(-1, dout.shape[-1])


def _ln_fwd(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv)


def _ln_bwd(dout, cache, g):
    xhat, inv = cache
    dg = (dout * xhat).sum(axis=(0, 1))
    db = dout.sum(axis=(0, 1))
    dxhat = dout * g
    mean_d = dxhat.mean(axis=-1, keepdims=True)
    mean_dx = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - mean_d - xhat * mean_dx)
    return dx, dg, db


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


def _attn_fwd(q_in, kv_in, p, base, heads):
    """Attention of the query rows over the key/value rows.

    With fewer query rows than key/value rows, the queries are the last
    t_q positions of the sequence (the causal mask and distance penalty are
    those rows of the full-length bias). Only _forward's full-row caches
    (t_q == t_kv) are valid input to _attn_bwd.
    """
    b, t_q, d = q_in.shape
    t_kv = kv_in.shape[1]
    dh = d // heads
    # head-major layout (b, heads, t, dh) keeps every contraction a batched dgemm
    q = (q_in @ p[f"{base}.Wq"] + p[f"{base}.bq"]).reshape(b, t_q, heads, dh).transpose(0, 2, 1, 3)
    k = (kv_in @ p[f"{base}.Wk"] + p[f"{base}.bk"]).reshape(b, t_kv, heads, dh).transpose(0, 2, 1, 3)
    v = (kv_in @ p[f"{base}.Wv"] + p[f"{base}.bv"]).reshape(b, t_kv, heads, dh).transpose(0, 2, 1, 3)
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh)
    scores += _score_bias(t_kv, heads)[None, :, t_kv - t_q :]
    scores -= scores.max(axis=-1, keepdims=True)
    expd = np.exp(scores)
    attn = expd / expd.sum(axis=-1, keepdims=True)
    ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, t_q, d)
    out = ctx @ p[f"{base}.Wo"] + p[f"{base}.bo"]
    cache = (q_in, kv_in, q, k, v, attn, ctx)
    return out, cache


def _attn_bwd(dout, cache, p, base, heads, grads):
    q_in, kv_in, q, k, v, attn, ctx = cache
    b, t, d = q_in.shape
    dh = d // heads
    grads[f"{base}.Wo"] += _mat_grad(ctx, dout)
    grads[f"{base}.bo"] += dout.sum(axis=(0, 1))
    dctx = (dout @ p[f"{base}.Wo"].T).reshape(b, t, heads, dh).transpose(0, 2, 1, 3)
    dattn = dctx @ v.transpose(0, 1, 3, 2)
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dscores /= math.sqrt(dh)
    dq = (dscores @ k).transpose(0, 2, 1, 3).reshape(b, t, d)
    dk = (dscores.transpose(0, 1, 3, 2) @ q).transpose(0, 2, 1, 3).reshape(b, t, d)
    dv = dv.transpose(0, 2, 1, 3).reshape(b, t, d)
    dq_in = dq @ p[f"{base}.Wq"].T
    dkv_in = dk @ p[f"{base}.Wk"].T + dv @ p[f"{base}.Wv"].T
    grads[f"{base}.Wq"] += _mat_grad(q_in, dq)
    grads[f"{base}.bq"] += dq.sum(axis=(0, 1))
    grads[f"{base}.Wk"] += _mat_grad(kv_in, dk)
    grads[f"{base}.bk"] += dk.sum(axis=(0, 1))
    grads[f"{base}.Wv"] += _mat_grad(kv_in, dv)
    grads[f"{base}.bv"] += dv.sum(axis=(0, 1))
    return dq_in, dkv_in


def _ffn_fwd(x, p, base):
    pre = x @ p[f"{base}.W1"] + p[f"{base}.b1"]
    hid = np.maximum(pre, 0.0)
    out = hid @ p[f"{base}.W2"] + p[f"{base}.b2"]
    return out, (x, pre, hid)


def _ffn_bwd(dout, cache, p, base, grads):
    x, pre, hid = cache
    grads[f"{base}.W2"] += _mat_grad(hid, dout)
    grads[f"{base}.b2"] += dout.sum(axis=(0, 1))
    dhid = (dout @ p[f"{base}.W2"].T) * (pre > 0)
    grads[f"{base}.W1"] += _mat_grad(x, dhid)
    grads[f"{base}.b1"] += dhid.sum(axis=(0, 1))
    return dhid @ p[f"{base}.W1"].T


def _self_block_fwd(x, p, base, heads):
    a1, ln1_cache = _ln_fwd(x, p[f"{base}.ln1.g"], p[f"{base}.ln1.b"])
    att, att_cache = _attn_fwd(a1, a1, p, f"{base}.attn", heads)
    x1 = x + att
    a2, ln2_cache = _ln_fwd(x1, p[f"{base}.ln2.g"], p[f"{base}.ln2.b"])
    f, ffn_cache = _ffn_fwd(a2, p, f"{base}.ffn")
    return x1 + f, (ln1_cache, att_cache, ln2_cache, ffn_cache)


def _self_block_bwd(dout, cache, p, base, heads, grads):
    ln1_cache, att_cache, ln2_cache, ffn_cache = cache
    da2 = _ffn_bwd(dout, ffn_cache, p, f"{base}.ffn", grads)
    dx1, dg, db = _ln_bwd(da2, ln2_cache, p[f"{base}.ln2.g"])
    grads[f"{base}.ln2.g"] += dg
    grads[f"{base}.ln2.b"] += db
    dx1 = dx1 + dout
    dq_in, dkv_in = _attn_bwd(dx1, att_cache, p, f"{base}.attn", heads, grads)
    da1 = dq_in + dkv_in
    dx, dg, db = _ln_bwd(da1, ln1_cache, p[f"{base}.ln1.g"])
    grads[f"{base}.ln1.g"] += dg
    grads[f"{base}.ln1.b"] += db
    return dx + dx1


def _cross_block_fwd(x_self, x_other, p, base, heads):
    q, lnq_cache = _ln_fwd(x_self, p[f"{base}.lnq.g"], p[f"{base}.lnq.b"])
    kv, lnkv_cache = _ln_fwd(x_other, p[f"{base}.lnkv.g"], p[f"{base}.lnkv.b"])
    att, att_cache = _attn_fwd(q, kv, p, f"{base}.attn", heads)
    y = x_self + att
    a2, ln2_cache = _ln_fwd(y, p[f"{base}.ln2.g"], p[f"{base}.ln2.b"])
    f, ffn_cache = _ffn_fwd(a2, p, f"{base}.ffn")
    return y + f, (lnq_cache, lnkv_cache, att_cache, ln2_cache, ffn_cache)


def _cross_block_bwd(dout, cache, p, base, heads, grads):
    lnq_cache, lnkv_cache, att_cache, ln2_cache, ffn_cache = cache
    da2 = _ffn_bwd(dout, ffn_cache, p, f"{base}.ffn", grads)
    dy, dg, db = _ln_bwd(da2, ln2_cache, p[f"{base}.ln2.g"])
    grads[f"{base}.ln2.g"] += dg
    grads[f"{base}.ln2.b"] += db
    dy = dy + dout
    dq, dkv = _attn_bwd(dy, att_cache, p, f"{base}.attn", heads, grads)
    dx_self, dg, db = _ln_bwd(dq, lnq_cache, p[f"{base}.lnq.g"])
    grads[f"{base}.lnq.g"] += dg
    grads[f"{base}.lnq.b"] += db
    dx_self = dx_self + dy
    dx_other, dg, db = _ln_bwd(dkv, lnkv_cache, p[f"{base}.lnkv.g"])
    grads[f"{base}.lnkv.g"] += dg
    grads[f"{base}.lnkv.b"] += db
    return dx_self, dx_other


# ---------------------------------------------------------------------------
# full network


def _check_context(n_frames: int, cfg: ModelConfig) -> None:
    if n_frames > cfg.context_frames:
        raise ShapeMismatchError(
            f"sequence of {n_frames} frames exceeds context {cfg.context_frames}"
        )


def _encode(params, feats, cfg: ModelConfig, stream: str):
    """One channel's encoder: standardize, input projection, self blocks.

    Returns the (B, T, model_dim) output and the cache _backward needs.
    """
    z = standardize(feats)
    x = z @ params["in.W"] + params["in.b"]
    caches = []
    for layer in range(cfg.channel_layers):
        x, cache = _self_block_fwd(x, params, f"ch.{stream}.{layer}", cfg.heads)
        caches.append(cache)
    return x, (z, caches)


def _fuse(params, xa, xb, cfg: ModelConfig, last_row: bool = False):
    """Fusion stage over both channels' encodings: cross layers, final LN, heads.

    With last_row, the last cross layer, the final LN and the heads run on the
    newest frame only, so the logits have one row per sequence; earlier cross
    layers still run on every row because they feed the other channel's keys
    and values. That cache is not valid for _backward.
    """
    cross_caches = []
    for layer in range(cfg.cross_layers):
        qa, qb = xa, xb
        if last_row and layer == cfg.cross_layers - 1:
            qa, qb = xa[:, -1:], xb[:, -1:]
        ya, ca = _cross_block_fwd(qa, xb, params, f"x.a.{layer}", cfg.heads)
        yb, cb = _cross_block_fwd(qb, xa, params, f"x.b.{layer}", cfg.heads)
        cross_caches.append((ca, cb))
        xa, xb = ya, yb
    ha, lnf_a = _ln_fwd(xa, params["final.g"], params["final.b"])
    hb, lnf_b = _ln_fwd(xb, params["final.g"], params["final.b"])
    fused = ha + hb
    vap_logits = fused @ params["vap.W"] + params["vap.b"]
    w_vad = params["vad.W"]
    b_vad = params["vad.b"]
    vad_logits = np.stack([ha @ w_vad[:, 0] + b_vad[0], hb @ w_vad[:, 1] + b_vad[1]], axis=-1)
    return vap_logits, vad_logits, (cross_caches, lnf_a, lnf_b, ha, hb, fused)


def _forward(params, feats_a, feats_b, cfg: ModelConfig):
    """Batched forward pass; returns raw head logits plus the backprop cache."""
    if feats_a.shape != feats_b.shape:
        raise ShapeMismatchError(f"{feats_a.shape} vs {feats_b.shape}")
    _check_context(feats_a.shape[1], cfg)
    xa, enc_a = _encode(params, feats_a, cfg, "a")
    xb, enc_b = _encode(params, feats_b, cfg, "b")
    vap_logits, vad_logits, fuse_cache = _fuse(params, xa, xb, cfg)
    return vap_logits, vad_logits, (enc_a, enc_b, fuse_cache)


def _backward(params, cfg: ModelConfig, cache, dvap_logits, dvad_logits) -> dict:
    (za, ch_caches_a), (zb, ch_caches_b), fuse_cache = cache
    cross_caches, lnf_a, lnf_b, ha, hb, fused = fuse_cache
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dfused = dvap_logits @ params["vap.W"].T
    grads["vap.W"] += _mat_grad(fused, dvap_logits)
    grads["vap.b"] += dvap_logits.sum(axis=(0, 1))
    w_vad = params["vad.W"]
    dha = dfused + dvad_logits[..., 0:1] * w_vad[:, 0]
    dhb = dfused + dvad_logits[..., 1:2] * w_vad[:, 1]
    grads["vad.W"][:, 0] += ha.reshape(-1, ha.shape[-1]).T @ dvad_logits[..., 0].ravel()
    grads["vad.b"][0] += dvad_logits[..., 0].sum()
    grads["vad.W"][:, 1] += hb.reshape(-1, hb.shape[-1]).T @ dvad_logits[..., 1].ravel()
    grads["vad.b"][1] += dvad_logits[..., 1].sum()
    dxa, dg, db = _ln_bwd(dha, lnf_a, params["final.g"])
    grads["final.g"] += dg
    grads["final.b"] += db
    dxb, dg, db = _ln_bwd(dhb, lnf_b, params["final.g"])
    grads["final.g"] += dg
    grads["final.b"] += db
    for layer in reversed(range(cfg.cross_layers)):
        ca, cb = cross_caches[layer]
        dself_a, dother_a = _cross_block_bwd(dxa, ca, params, f"x.a.{layer}", cfg.heads, grads)
        dself_b, dother_b = _cross_block_bwd(dxb, cb, params, f"x.b.{layer}", cfg.heads, grads)
        dxa = dself_a + dother_b
        dxb = dself_b + dother_a
    for layer in reversed(range(cfg.channel_layers)):
        ca, cb = ch_caches_a[layer], ch_caches_b[layer]
        dxa = _self_block_bwd(dxa, ca, params, f"ch.a.{layer}", cfg.heads, grads)
        dxb = _self_block_bwd(dxb, cb, params, f"ch.b.{layer}", cfg.heads, grads)
    grads["in.W"] += _mat_grad(za, dxa) + _mat_grad(zb, dxb)
    grads["in.b"] += dxa.sum(axis=(0, 1)) + dxb.sum(axis=(0, 1))
    return grads


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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
    shared by every window. Equals the last row of forward on each window
    pair up to float rounding."""
    batch, frames = feats_a.shape[:2]
    if enc_b.shape[0] not in (1, batch) or enc_b.shape[1] != frames:
        raise ShapeMismatchError(f"user features {feats_a.shape} vs robot encoding {enc_b.shape}")
    _check_context(frames, cfg)
    xa, _ = _encode(params, feats_a, cfg, "a")
    xb = np.broadcast_to(enc_b, xa.shape)
    vap_logits, vad_logits, _ = _fuse(params, xa, xb, cfg, last_row=True)
    return PredictionOutput(vap=_softmax(vap_logits[:, -1]), vad=_sigmoid(vad_logits[:, -1]))


def loss_and_grads_from_logits(vap_logits, vad_logits, target_state, target_vad):
    """Masked joint loss (projection CE plus per-speaker activity BCE) and the
    gradients with respect to both logit tensors.

    target_state entries of -1 mark frames excluded from both task losses.
    """
    mask = target_state >= 0
    n = int(mask.sum())
    if n == 0:
        raise NoTargetsError("no frames with targets in batch")
    sel = vap_logits[mask]
    tgt = target_state[mask]
    m = sel.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(sel - m).sum(axis=1, keepdims=True))
    logp = sel - lse
    l_vap = float(-logp[np.arange(n), tgt].mean())
    dsel = np.exp(logp)
    dsel[np.arange(n), tgt] -= 1.0
    dsel /= n
    dvap = np.zeros_like(vap_logits)
    dvap[mask] = dsel

    z = vad_logits[mask]
    t = target_vad[mask]
    l_vad = float(np.mean(np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))))
    dz = (_sigmoid(z) - t) / (n * 2)
    dvad = np.zeros_like(vad_logits)
    dvad[mask] = dz
    return LossBreakdown(l_vap + l_vad, l_vap, l_vad), dvap, dvad


def loss_from_logits(vap_logits, vad_logits, target_state, target_vad) -> LossBreakdown:
    breakdown, _, _ = loss_and_grads_from_logits(vap_logits, vad_logits, target_state, target_vad)
    return breakdown


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
    """Forward + backward over a stacked (B, T, ...) training batch."""
    vap_logits, vad_logits, cache = _forward(params, feats_a, feats_b, cfg)
    breakdown, dvap, dvad = loss_and_grads_from_logits(
        vap_logits, vad_logits, target_state, target_vad
    )
    grads = _backward(params, cfg, cache, dvap, dvad)
    return breakdown, grads


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
