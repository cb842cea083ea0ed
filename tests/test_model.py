import math
import warnings
import weakref
from dataclasses import dataclass, fields

import numpy as np
import pytest

from vapturn import model
from vapturn.features import N_MELS
from vapturn.model import (
    FrameBatch,
    ModelConfig,
    NoTargetsError,
    ShapeMismatchError,
    _attn_fwd,
    _backward,
    _ln_fwd,
    _ln_out,
    batch_loss_and_grads,
    forward,
    encode_channel,
    forward_last,
    init_params,
    loss,
    loss_and_grads_from_logits,
    loss_from_logits,
    _forward,
)


@dataclass(frozen=True)
class _ExtendedConfig(ModelConfig):
    """A config with one field more, as a new architecture setting adds."""

    adapter_layers: int = 2


@pytest.fixture(scope="module")
def cfg():
    return ModelConfig()


@pytest.fixture(scope="module")
def params(cfg):
    return init_params(cfg)


def _random_batch(rng, t=12, with_targets=True):
    fa = rng.standard_normal((t, 40))
    fb = rng.standard_normal((t, 40))
    if not with_targets:
        return FrameBatch(fa, fb)
    ts = rng.integers(0, 256, t)
    ts[-2:] = -1
    tv = rng.integers(0, 2, (t, 2)).astype(float)
    return FrameBatch(fa, fb, ts, tv)


class TestConfig:
    def test_dim_must_divide_heads(self):
        with pytest.raises(ValueError):
            ModelConfig(model_dim=33, heads=2)

    @pytest.mark.parametrize("bands", [20, 39, 41])
    def test_feature_bands_must_match_frontend(self, bands):
        # the width is always the frontend's; a stored config may still hold
        # the old field, and loads only when it matches
        assert ModelConfig().feature_bands == N_MELS
        with pytest.raises(TypeError):
            ModelConfig(feature_bands=bands)
        stored = ModelConfig(model_dim=16).to_json_dict()
        assert "feature_bands" not in stored
        old = {**stored, "feature_bands": N_MELS}
        assert ModelConfig.from_json_dict(old) == ModelConfig(model_dim=16)
        assert old["feature_bands"] == N_MELS  # the caller's dict is left alone
        with pytest.raises(ValueError, match=f"feature_bands {bands}"):
            ModelConfig.from_json_dict({**stored, "feature_bands": bands})

    def test_context_covers_five_seconds(self):
        cfg = ModelConfig()
        assert cfg.context_frames * 0.1 == 5.0
        assert cfg.context_samples == 80000

    def test_stored_seed_dropped(self):
        stored = ModelConfig(model_dim=16).to_json_dict()
        assert "seed" not in stored
        assert ModelConfig.from_json_dict({**stored, "seed": 9}) == ModelConfig(**stored)
        with pytest.raises(TypeError):
            ModelConfig(seed=9)

    def test_json_roundtrip(self):
        # every field is stored, in field order, a field a subclass adds too
        for cfg in (ModelConfig(model_dim=16, heads=4), _ExtendedConfig(model_dim=16, heads=4, adapter_layers=3)):
            stored = cfg.to_json_dict()
            assert list(stored) == [f.name for f in fields(cfg)]
            assert type(cfg).from_json_dict(stored) == cfg

    @pytest.mark.parametrize("name", [f.name for f in fields(_ExtendedConfig)])
    def test_every_field_must_be_at_least_one(self, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            _ExtendedConfig(**{name: 0})


class TestForward:
    def test_rows_normalized(self, params, cfg):
        rng = np.random.default_rng(0)
        out = forward(params, _random_batch(rng), cfg)
        assert np.allclose(out.vap.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out.vap >= 0)
        assert np.all((out.vad >= 0) & (out.vad <= 1))

    def test_zero_heads_give_uniform_outputs(self, cfg):
        rng = np.random.default_rng(1)
        p = init_params(cfg, seed=3)
        p["vap.W"][:] = 0.0
        p["vap.b"][:] = 0.0
        p["vad.W"][:] = 0.0
        p["vad.b"][:] = 0.0
        out = forward(p, _random_batch(rng), cfg)
        assert np.allclose(out.vap, 1.0 / 256, atol=1e-15)
        assert np.allclose(out.vad, 0.5, atol=1e-15)

    def test_causality_exact(self, params, cfg):
        rng = np.random.default_rng(2)
        fa = rng.standard_normal((20, 40))
        fb = rng.standard_normal((20, 40))
        out1 = forward(params, FrameBatch(fa, fb), cfg)
        fa2 = fa.copy()
        fa2[11, 7] += 2.0
        out2 = forward(params, FrameBatch(fa2, fb), cfg)
        assert np.array_equal(out1.vap[:11], out2.vap[:11])
        assert np.array_equal(out1.vad[:11], out2.vad[:11])
        assert not np.allclose(out1.vap[11], out2.vap[11])

    def test_future_inputs_cannot_reach_back(self, params, cfg):
        rng = np.random.default_rng(3)
        fa = rng.standard_normal((15, 40))
        fb = rng.standard_normal((15, 40))
        out_short = forward(params, FrameBatch(fa[:10], fb[:10]), cfg)
        out_full = forward(params, FrameBatch(fa, fb), cfg)
        assert np.array_equal(out_short.vap, out_full.vap[:10])

    def test_shape_mismatch_rejected(self, params, cfg):
        rng = np.random.default_rng(5)
        with pytest.raises(ShapeMismatchError):
            FrameBatch(rng.standard_normal((5, 40)), rng.standard_normal((6, 40)))

    def test_context_limit_enforced(self, params, cfg):
        rng = np.random.default_rng(6)
        fa = rng.standard_normal((cfg.context_frames + 1, 40))
        with pytest.raises(ShapeMismatchError):
            forward(params, FrameBatch(fa, fa), cfg)

    def test_deterministic_init_and_forward(self, cfg):
        rng = np.random.default_rng(7)
        batch = _random_batch(rng)
        p1 = init_params(cfg, seed=11)
        p2 = init_params(cfg, seed=11)
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)
        o1 = forward(p1, batch, cfg)
        o2 = forward(p2, batch, cfg)
        assert np.array_equal(o1.vap, o2.vap)

    def test_backprop_cache_kept_only_for_training(self, params, cfg):
        rng = np.random.default_rng(8)
        fa, fb = rng.standard_normal((2, 3, 12, 40))
        vap, vad, cache = _forward(params, fa, fb, cfg)
        assert cache is None
        vap_t, vad_t, cache_t = _forward(params, fa, fb, cfg, train=True)
        assert cache_t is not None
        assert np.array_equal(vap, vap_t) and np.array_equal(vad, vad_t)

    def test_training_step_memory_peak_is_bounded(self, params, cfg, traced_peak_bytes):
        # the step peaks at about 17.5e6 bytes at B=32 and 34.5e6 at B=64;
        # a cache that keeps q, k, v, the attention context and the FFN
        # hidden layer takes it to 31.0e6 and 61.5e6
        for batch, bound in ((32, 22e6), (64, 42e6)):
            rng = np.random.default_rng(9)
            shape = (batch, cfg.context_frames)
            feats = rng.standard_normal(shape + (N_MELS,))
            states = rng.integers(0, 256, shape)
            vad = rng.integers(0, 2, shape + (2,)).astype(float)
            peak = traced_peak_bytes(lambda: batch_loss_and_grads(params, cfg, feats, feats, states, vad))
            assert peak < bound, batch

    def test_training_step_retains_only_its_gradients(self, params, cfg, traced_peak_and_retained_bytes):
        rng = np.random.default_rng(12)
        shape = (8, cfg.context_frames)
        feats = rng.standard_normal(shape + (N_MELS,))
        states = rng.integers(0, 256, shape)
        vad = rng.integers(0, 2, shape + (2,)).astype(float)

        def step():
            return batch_loss_and_grads(params, cfg, feats, feats, states, vad)

        step()  # the attention bias cache is filled once per length
        _, retained = traced_peak_and_retained_bytes(step)
        grad_bytes = sum(v.nbytes for v in params.values())
        # one block's cache alone is over 200 kB at this batch
        assert grad_bytes <= retained < grad_bytes + 40_000

    def test_backward_frees_each_cache_once_used(self, params, cfg, monkeypatch):
        rng = np.random.default_rng(15)
        fa, fb = rng.standard_normal((2, 4, 12, N_MELS))
        states = rng.integers(0, 256, (4, 12))
        vad = rng.integers(0, 2, (4, 12, 2)).astype(float)
        vap_logits, vad_logits, cache = _forward(params, fa, fb, cfg, train=True)
        _, *dlogits = loss_and_grads_from_logits(vap_logits, vad_logits, states, vad)
        del vap_logits, vad_logits
        cross, final_a = cache[2][0], cache[2][1]
        # the logit gradient, a final LayerNorm's xhat, the x.a cross block's attention probabilities
        fusion = [weakref.ref(dlogits[0]), weakref.ref(final_a[0]), weakref.ref(cross[0][2])]
        del cross, final_a
        alive = []
        self_block_bwd = model._self_block_bwd

        def spy(*args):
            alive.append([ref() is not None for ref in fusion])
            return self_block_bwd(*args)

        monkeypatch.setattr(model, "_self_block_bwd", spy)
        _backward(params, cfg, cache, dlogits)
        assert cache == [] and dlogits == []
        assert alive == [[False] * 3] * (2 * cfg.channel_layers)

    def test_layernorm_output_recomputes_bit_for_bit(self, params):
        rng = np.random.default_rng(13)
        x = 3.0 * rng.standard_normal((4, 11, 32)) + 1.0
        for base in ("ch.a.0.ln1", "x.b.0.lnkv", "final"):
            out, (xhat, _) = _ln_fwd(x, params, base)
            assert np.array_equal(_ln_out(xhat, params, base), out)


class TestLastRow:
    @pytest.mark.parametrize("cross_layers", [1, 2])
    def test_last_row_attention_equals_full_rows(self, cross_layers):
        cfg = ModelConfig(cross_layers=cross_layers)
        p = init_params(cfg, seed=3)
        rng = np.random.default_rng(8)
        q_in = rng.standard_normal((3, 20, cfg.model_dim))
        kv_in = rng.standard_normal((3, 20, cfg.model_dim))
        for layer in range(cross_layers):
            base = f"x.a.{layer}.attn"
            full, _ = _attn_fwd(q_in, kv_in, p, base, cfg.heads)
            last, _ = _attn_fwd(q_in[:, -1:], kv_in, p, base, cfg.heads)
            assert last.shape == (3, 1, cfg.model_dim)
            assert np.max(np.abs(last - full[:, -1:])) <= 1e-12

    @pytest.mark.parametrize("cross_layers", [1, 2])
    def test_forward_last_equals_last_row_of_forward(self, cross_layers):
        cfg = ModelConfig(cross_layers=cross_layers)
        p = init_params(cfg, seed=4)
        rng = np.random.default_rng(9)
        batches = [_random_batch(rng, t=15, with_targets=False) for _ in range(3)]
        last = forward_last(
            p,
            np.stack([b.features_a for b in batches]),
            encode_channel(p, np.stack([b.features_b for b in batches]), cfg, "b"),
            cfg,
        )
        for i, batch in enumerate(batches):
            full = forward(p, batch, cfg)
            assert np.max(np.abs(last.vap[i] - full.vap[-1])) <= 1e-12
            assert np.max(np.abs(last.vad[i] - full.vad[-1])) <= 1e-12

    @pytest.mark.parametrize("cross_layers", [1, 2])
    @pytest.mark.parametrize("batch", [1, 5])
    def test_shared_robot_encoding_bit_identical_to_broadcast(self, cross_layers, batch):
        cfg = ModelConfig(cross_layers=cross_layers)
        p = {k: v + 0.1 for k, v in init_params(cfg, seed=6).items()}
        rng = np.random.default_rng(14)
        fa = rng.standard_normal((batch, 20, cfg.feature_bands))
        shared = encode_channel(p, rng.standard_normal((1, 20, cfg.feature_bands)), cfg, "b")
        out = forward_last(p, fa, shared, cfg)
        for enc in (np.broadcast_to(shared, (batch,) + shared.shape[1:]), np.repeat(shared, batch, axis=0)):
            full = forward_last(p, fa, enc, cfg)
            assert np.array_equal(out.vap, full.vap) and np.array_equal(out.vad, full.vad)

    def test_shared_robot_encoding_broadcasts(self):
        cfg = ModelConfig(cross_layers=2)
        p = init_params(cfg, seed=5)
        rng = np.random.default_rng(10)
        fa = rng.standard_normal((3, 12, cfg.feature_bands))
        fb = rng.standard_normal((1, 12, cfg.feature_bands))
        # one (1, T, model_dim) encoding shared by every window of the batch
        shared = forward_last(p, fa, encode_channel(p, fb, cfg, "b"), cfg)
        for i in range(3):
            full = forward(p, FrameBatch(fa[i], fb[0]), cfg)
            assert np.max(np.abs(shared.vap[i] - full.vap[-1])) <= 1e-12
            assert np.max(np.abs(shared.vad[i] - full.vad[-1])) <= 1e-12
        with pytest.raises(ShapeMismatchError):
            forward_last(p, fa, encode_channel(p, fb[:, 1:], cfg, "b"), cfg)
        with pytest.raises(ShapeMismatchError):
            forward_last(p, fa, encode_channel(p, np.repeat(fb, 2, axis=0), cfg, "b"), cfg)


class TestLoss:
    def test_uniform_output_anchors(self, cfg):
        t = 6
        out_vap = np.full((t, 256), 1.0 / 256)
        out_vad = np.full((t, 2), 0.5)
        rng = np.random.default_rng(8)
        batch = _random_batch(rng, t=t)
        from vapturn.model import PredictionOutput

        breakdown = loss(PredictionOutput(out_vap, out_vad), batch)
        assert breakdown.vap == pytest.approx(math.log(256), abs=1e-9)
        assert breakdown.vad == pytest.approx(math.log(2), abs=1e-9)
        assert breakdown.total == pytest.approx(math.log(256) + math.log(2), abs=1e-9)

    def test_perfect_output_zero_loss(self):
        t = 4
        ts = np.array([3, 7, 250, -1])
        tv = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        vap = np.zeros((t, 256))
        for i, s in enumerate(ts):
            vap[i, max(s, 0)] = 1.0
        vad = tv.copy()
        from vapturn.model import PredictionOutput

        fa = np.zeros((t, 40))
        batch = FrameBatch(fa, fa, ts, tv)
        breakdown = loss(PredictionOutput(vap, vad), batch)
        assert breakdown.total == pytest.approx(0.0, abs=1e-9)

    def test_probs_and_logits_paths_agree(self, params, cfg):
        rng = np.random.default_rng(9)
        batch = _random_batch(rng)
        out = forward(params, batch, cfg)
        a = loss(out, batch)
        vl, dl, _ = _forward(params, batch.features_a[None], batch.features_b[None], cfg)
        b = loss_from_logits(vl, dl, batch.target_state[None], batch.target_vad[None])
        assert a.total == pytest.approx(b.total, abs=1e-9)
        assert a.vap == pytest.approx(b.vap, abs=1e-9)
        assert a.vad == pytest.approx(b.vad, abs=1e-9)

    def test_no_targets_rejected(self, params, cfg):
        rng = np.random.default_rng(10)
        batch = _random_batch(rng, with_targets=False)
        out = forward(params, batch, cfg)
        with pytest.raises(NoTargetsError):
            loss(out, batch)

    def test_masked_frames_do_not_contribute(self, params, cfg):
        rng = np.random.default_rng(11)
        fa = rng.standard_normal((8, 40))
        fb = rng.standard_normal((8, 40))
        ts = rng.integers(0, 256, 8)
        tv = rng.integers(0, 2, (8, 2)).astype(float)
        ts_masked = ts.copy()
        ts_masked[5:] = -1
        full = FrameBatch(fa, fb, ts_masked, tv)
        trimmed = FrameBatch(fa[:5], fb[:5], ts[:5], tv[:5])
        out_full = forward(params, full, cfg)
        out_trim = forward(params, trimmed, cfg)
        a = loss(out_full, full)
        b = loss(out_trim, trimmed)
        assert a.total == pytest.approx(b.total, abs=1e-12)

    def test_sigmoid_equals_the_two_branch_formula(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310, np.nan]
        z = np.concatenate([edges, np.linspace(-60.0, 60.0, 4001), np.random.default_rng(16).standard_normal(999) * 20])
        # reference: 1 / (1 + exp(-z)) where z >= 0, exp(z) / (1 + exp(z))
        # elsewhere, each branch on its own masked entries
        ref = np.empty_like(z)
        pos = z >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        ref[~pos] = ez / (1.0 + ez)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model._sigmoid(z)
        nan = np.isnan(z)
        assert np.isnan(got[nan]).all()
        assert got[~nan].tobytes() == ref[~nan].tobytes()
