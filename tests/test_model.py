import math

import numpy as np
import pytest

from vapturn.model import (
    FrameBatch,
    ModelConfig,
    NoTargetsError,
    ShapeMismatchError,
    _attn_fwd,
    forward,
    forward_last,
    init_params,
    loss,
    loss_from_logits,
    param_count,
    _forward,
)


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

    def test_context_covers_five_seconds(self):
        cfg = ModelConfig()
        assert cfg.context_frames * 0.1 == 5.0
        assert cfg.context_samples == 80000

    def test_json_roundtrip(self):
        cfg = ModelConfig(model_dim=16, heads=4, seed=9)
        assert ModelConfig.from_json_dict(cfg.to_json_dict()) == cfg


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

    def test_swap_symmetry_with_tied_channels(self):
        cfg = ModelConfig(tie_channels=True)
        p = init_params(cfg, seed=5)
        rng = np.random.default_rng(4)
        fa = rng.standard_normal((10, 40))
        fb = rng.standard_normal((10, 40))
        out_ab = forward(p, FrameBatch(fa, fb), cfg)
        out_ba = forward(p, FrameBatch(fb, fa), cfg)
        assert np.allclose(out_ab.vad[:, 0], out_ba.vad[:, 1], atol=1e-12)
        assert np.allclose(out_ab.vad[:, 1], out_ba.vad[:, 0], atol=1e-12)

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

    def test_param_count_positive(self, params):
        assert param_count(params) > 1000


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
            np.stack([b.features_b for b in batches]),
            cfg,
        )
        for i, batch in enumerate(batches):
            full = forward(p, batch, cfg)
            assert np.max(np.abs(last.vap[i] - full.vap[-1])) <= 1e-12
            assert np.max(np.abs(last.vad[i] - full.vad[-1])) <= 1e-12


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
