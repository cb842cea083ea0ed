import numpy as np

from vapturn.model import (
    FrameBatch,
    ModelConfig,
    batch_loss_and_grads,
    grad_check,
    init_params,
)


def _small_batch(seed=0, t=8):
    rng = np.random.default_rng(seed)
    fa = rng.standard_normal((t, 40))
    fb = rng.standard_normal((t, 40))
    ts = rng.integers(0, 256, t)
    ts[-1] = -1
    tv = rng.integers(0, 2, (t, 2)).astype(float)
    return FrameBatch(fa, fb, ts, tv)


def test_analytic_matches_central_differences():
    cfg = ModelConfig()
    params = init_params(cfg, seed=1)
    err = grad_check(params, _small_batch(), cfg, n_coords=30, seed=2)
    assert err <= 1e-3


def test_dead_relu_coordinate_counts_as_pass():
    # drive one FFN unit far negative: its incoming weight has exactly zero
    # analytic gradient and a vanishing finite difference, which the check
    # treats as a pass rather than a 0/0 failure
    cfg = ModelConfig(model_dim=8, heads=2, ffn_mult=2)
    params = init_params(cfg, seed=5)
    params["ch.a.0.ffn.b1"][0] = -100.0
    batch = _small_batch(6, t=4)
    _, grads = batch_loss_and_grads(
        params,
        cfg,
        batch.features_a[None],
        batch.features_b[None],
        batch.target_state[None],
        batch.target_vad[None],
    )
    assert grads["ch.a.0.ffn.W1"][0, 0] == 0.0
    err = grad_check(
        params, batch, cfg, grads=grads, coords=[("ch.a.0.ffn.W1", 0), ("ch.a.0.ffn.b1", 0)]
    )
    assert err == 0.0


def test_corrupted_gradient_detected():
    cfg = ModelConfig(model_dim=16, heads=2, ffn_mult=2)
    params = init_params(cfg, seed=8)
    batch = _small_batch(9, t=6)
    _, grads = batch_loss_and_grads(
        params,
        cfg,
        batch.features_a[None],
        batch.features_b[None],
        batch.target_state[None],
        batch.target_vad[None],
    )
    corrupted = {k: v * 1.5 for k, v in grads.items()}
    err = grad_check(params, batch, cfg, n_coords=30, seed=10, grads=corrupted)
    assert err > 1e-1


def test_gradients_cover_all_parameters():
    cfg = ModelConfig()
    params = init_params(cfg, seed=11)
    batch = _small_batch(12, t=6)
    _, grads = batch_loss_and_grads(
        params,
        cfg,
        batch.features_a[None],
        batch.features_b[None],
        batch.target_state[None],
        batch.target_vad[None],
    )
    assert set(grads) == set(params)
    # trunk and heads all receive signal on a generic batch
    for key in ("in.W", "vap.W", "vad.W", "ch.a.0.attn.Wq", "x.b.0.ffn.W1", "final.g"):
        assert float(np.abs(grads[key]).max()) > 0.0, key
