"""End-to-end acceptance checks, one per shipped guarantee.

Heavy resources (the 200-dialogue corpus, the two 50-epoch trainings, the
240-turn latency simulation) are session-scoped fixtures shared by the checks
that need them, built by the vapturn.experiment stages that
scripts/run_experiments.py also runs. Run with `pytest tests/test_acceptance.py -v -s` to see one
PASS line per criterion; runtime is dominated by the two trainings.
"""

import math
import os
import time

import numpy as np
import pytest

from vapturn.audio import Waveform, mean_power
from vapturn.codebook import N_STATES, frame_targets, p_now
from vapturn.endpointing import SOURCE_STT, SOURCE_VAP
from vapturn.model import (
    FrameBatch,
    ModelConfig,
    PredictionOutput,
    grad_check,
    init_params,
    loss,
)
from vapturn.noise import mix_at_snr, synthetic_noise_bank
from vapturn.experiment import make_corpus, session_records, snr_tables, train_pair
from vapturn.simulate import compare_robot_response, summarize
from vapturn.streaming import run_stream
from vapturn.training import eval_per_snr

LN256 = math.log(N_STATES)


def report(num: int, detail: str) -> None:
    print(f"\nPASS criterion {num}: {detail}")


# ---------------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="session")
def corpus():
    """200 synthetic dialogues split 160/20/20."""
    return make_corpus()


@pytest.fixture(scope="session")
def model_cfg():
    return ModelConfig()


@pytest.fixture(scope="session")
def noise_bank():
    return synthetic_noise_bank(0)


@pytest.fixture(scope="session")
def trained(corpus, model_cfg, noise_bank):
    """Paired-seed clean and multi-condition trainings, 50 epochs each."""
    return train_pair(corpus, model_cfg, noise_bank)


@pytest.fixture(scope="session")
def latency_sim(trained, model_cfg):
    """240 simulated turns under the hybrid and cloud-only policies, paired seeds."""
    return session_records(trained["mc"]["params"], model_cfg)


# ---------------------------------------------------------------------------
# criteria


def test_c01_codebook_bijectivity():
    # frame 0's horizon is label frames 10-209; bins span 20/40/60/80 frames
    edges = (10, 30, 70, 130, 210)
    t0 = time.perf_counter()
    for idx in range(N_STATES):
        labels = np.zeros((2, 210), dtype=bool)
        for s in range(2):
            for i in range(4):
                labels[s, edges[i] : edges[i + 1]] = (idx >> (4 * s + i)) & 1
        state, _ = frame_targets(labels[0], labels[1], 1)
        assert state[0] == idx
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"each of the {N_STATES} bit patterns encodes to its own state in {elapsed:.3f}s")


def test_c02_p_now_oracle_equivalence():
    def oracle(probs, speaker):
        acc = [0.0, 0.0]
        for idx in range(N_STATES):
            for s in range(2):
                near = ((idx >> (4 * s)) & 1) + ((idx >> (4 * s + 1)) & 1)
                acc[s] += probs[idx] * near / 2.0
        total = acc[0] + acc[1]
        return 0.5 if total < 1e-9 else acc[speaker] / total

    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_oracle = 0.0
    worst_complement = 0.0
    for _ in range(1000):
        probs = rng.random(N_STATES)
        probs /= probs.sum()
        for s in (0, 1):
            worst_oracle = max(worst_oracle, abs(p_now(probs, s) - oracle(probs, s)))
        worst_complement = max(
            worst_complement, abs(p_now(probs, 0) + p_now(probs, 1) - 1.0)
        )
    elapsed = time.perf_counter() - t0
    assert worst_oracle <= 1e-9
    assert worst_complement <= 1e-6
    assert elapsed < 5.0
    report(2, f"1000 distributions: |model-oracle| <= {worst_oracle:.2e}, "
              f"complement error <= {worst_complement:.2e}, {elapsed:.2f}s")


def test_c03_snr_mixing_accuracy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        sig = Waveform(np.clip(0.15 * rng.standard_normal(8000), -1, 1))
        noi = Waveform(np.clip(0.15 * rng.standard_normal(11000), -1, 1))
        for target in (5.0, 10.0, 15.0, 20.0):
            mixed, _ = mix_at_snr(sig, noi, target, rng)
            noise_part = mixed.samples - sig.samples
            measured = 10.0 * math.log10(
                mean_power(sig) / float(np.mean(noise_part**2))
            )
            worst = max(worst, abs(measured - target))
    elapsed = time.perf_counter() - t0
    assert worst <= 0.1
    assert elapsed < 10.0
    report(3, f"400 mixtures: max |measured-target| = {worst:.4f} dB, {elapsed:.1f}s")


def test_c04_gradient_check(model_cfg):
    t0 = time.perf_counter()
    params = init_params(model_cfg, seed=1)
    rng = np.random.default_rng(3)
    batch = FrameBatch(
        rng.standard_normal((8, 40)),
        rng.standard_normal((8, 40)),
        rng.integers(0, N_STATES, 8),
        rng.integers(0, 2, (8, 2)).astype(float),
    )
    err = grad_check(params, batch, model_cfg, n_coords=24, seed=4)
    elapsed = time.perf_counter() - t0
    assert err <= 1e-3
    assert elapsed < 30.0
    report(4, f"24 sampled coordinates: max relative error {err:.2e}, {elapsed:.1f}s")


def test_c05_analytic_loss_anchors(corpus, model_cfg, noise_bank):
    t = 16
    rng = np.random.default_rng(5)
    batch = FrameBatch(
        rng.standard_normal((t, 40)),
        rng.standard_normal((t, 40)),
        rng.integers(0, N_STATES, t),
        rng.integers(0, 2, (t, 2)).astype(float),
    )
    uniform = PredictionOutput(
        vap=np.full((t, N_STATES), 1.0 / N_STATES), vad=np.full((t, 2), 0.5)
    )
    breakdown = loss(uniform, batch)
    assert abs(breakdown.vap - LN256) <= 1e-6
    fresh = init_params(model_cfg, seed=11)
    [table], _ = eval_per_snr([(fresh, model_cfg)], corpus["valid"], noise_bank, snr_list=(math.inf,))
    valid_vap = table[math.inf]
    assert abs(valid_vap - LN256) <= 0.5
    report(5, f"uniform L_vap = {breakdown.vap:.6f} (ln 256 = {LN256:.6f}); "
              f"fresh-init valid L_vap = {valid_vap:.3f}")


@pytest.mark.slow
def test_c06_training_effectiveness(trained):
    history = trained["mc"]["history"]
    initial_train = history[0]["train_vap"]
    final_train = history[-1]["train_vap"]
    initial_valid = history[0]["valid_vap"]
    final_valid = history[-1]["valid_vap"]
    assert final_train < 0.7 * initial_train
    assert final_valid < initial_valid
    assert trained["mc"]["train_s"] < 15 * 60
    report(6, f"50 epochs / 200 dialogues: train L_vap {initial_train:.3f} -> "
              f"{final_train:.3f} (< 0.7x), valid {initial_valid:.3f} -> {final_valid:.3f}, "
              f"{trained['mc']['train_s']:.0f}s")


@pytest.mark.slow
def test_c07_noise_robustness_ordering(trained, corpus, model_cfg, noise_bank):
    tables = snr_tables(trained, corpus, model_cfg, noise_bank)
    inf = math.inf
    mc_deg = tables["mc"][5.0] - tables["mc"][inf]
    clean_deg = tables["clean"][5.0] - tables["clean"][inf]
    assert mc_deg < clean_deg
    assert tables["mc"][5.0] < tables["clean"][5.0]
    total_train = trained["mc"]["train_s"] + trained["clean"]["train_s"]
    assert total_train < 30 * 60
    report(7, f"degradation at 5 dB: mc {mc_deg:.3f} < clean {clean_deg:.3f}; "
              f"L_vap@5dB mc {tables['mc'][5.0]:.3f} < clean {tables['clean'][5.0]:.3f}; "
              f"both trainings {total_train:.0f}s")


def test_c08_streaming_equivalence_and_rate(model_cfg):
    from vapturn.features import extract_features
    from vapturn.model import forward
    from vapturn.codebook import p_now_pair

    t0 = time.perf_counter()
    params = init_params(model_cfg, seed=2)
    rng = np.random.default_rng(6)
    audio = np.clip(0.3 * rng.standard_normal(int(7.3 * 16000)), -1, 1)
    results = run_stream(params, model_cfg, audio)
    assert len(results) == 73  # floor(10 * 7.3)

    cap = model_cfg.context_samples
    worst = 0.0
    for k, r in enumerate(results, start=1):
        end = k * 1600
        window = np.zeros(cap)
        seg = audio[max(0, end - cap) : end]
        window[cap - seg.size :] = seg
        pred = forward(
            params,
            FrameBatch(extract_features(window), extract_features(np.zeros(cap))),
            model_cfg,
        )
        pu, pr = p_now_pair(pred.vap[-1])
        worst = max(worst, abs(pu - r.p_now_user), abs(pr - r.p_now_robot))
    assert worst <= 1e-5

    alt = run_stream(params, model_cfg, audio, chunk_samples=917)
    assert len(alt) == len(results)
    assert all(
        a.p_now_user == b.p_now_user and a.p_now_robot == b.p_now_robot
        for a, b in zip(results, alt)
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(8, f"73 ticks: offline |dp_now| <= {worst:.2e}, chunking bit-exact, {elapsed:.1f}s")


def test_c09_real_time_contract(model_cfg):
    budget_ms = float(os.environ.get("VAPTURN_TICK_BUDGET_MS", "100"))
    params = init_params(model_cfg, seed=3)
    rng = np.random.default_rng(8)
    audio = np.clip(0.3 * rng.standard_normal(16000 * 20), -1, 1)
    results = run_stream(params, model_cfg, audio)
    mean_ms = float(np.mean([r.compute_ms for r in results]))
    assert mean_ms < budget_ms
    report(9, f"mean tick compute {mean_ms:.2f} ms over {len(results)} ticks "
              f"(budget {budget_ms:.0f} ms, real-time factor {mean_ms / 100:.3f})")


@pytest.mark.slow
def test_c10_latency_ordering(latency_sim):
    hybrid = latency_sim["hybrid"]
    stt = latency_sim["stt"]
    assert len(hybrid) >= 200 and len(stt) == len(hybrid)
    vap_subset = [r for r in hybrid if r.source == SOURCE_VAP]
    assert vap_subset
    mean_stt = summarize(stt).robot["mean"]
    hybrid_stats = summarize(hybrid)
    mean_hybrid = hybrid_stats.robot["mean"]
    mean_vap = summarize(vap_subset).robot["mean"]
    assert mean_stt > mean_hybrid > mean_vap
    for h, s in zip(hybrid, stt):
        assert h.robot_response_s <= s.robot_response_s + 1e-12
    result = compare_robot_response(stt, hybrid)
    assert result.p_value < 0.01
    report(10, f"{len(hybrid)} turns: means stt {mean_stt:.3f} > hybrid {mean_hybrid:.3f} "
               f"> vap-decided {mean_vap:.3f}; per-turn dominance exact; "
               f"rank-sum p = {result.p_value:.2e}; premature hybrid decisions "
               f"{hybrid_stats.n_premature}/{len(hybrid)} ({hybrid_stats.n_premature / len(hybrid):.3f})")


@pytest.mark.slow
def test_c11_hybrid_fallback(latency_sim, trained, model_cfg):
    stt = latency_sim["stt"]
    assert all(r.source == SOURCE_STT for r in stt)
    expected_turns = 40 * 6
    assert len(stt) == expected_turns  # every turn resolves; nothing stalls
    fraction = summarize(latency_sim["hybrid"]).vap_source_fraction
    assert 0.0 < fraction < 1.0
    report(11, f"detector disabled: {len(stt)}/{expected_turns} turns all "
               f"cloud-sourced; default hybrid vap fraction {fraction:.3f} in (0,1)")
