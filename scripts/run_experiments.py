"""End-to-end experiment: train clean and multi-condition models, compare
their loss across noise levels, and measure response-time distributions
under the cloud-only and hybrid endpointing policies.

Trains clean and multi-condition models on a 200-dialogue corpus, evaluates
the per-SNR loss table, and runs the 240-turn latency comparison, reporting
every quantity the heavy acceptance checks assert plus wall-clock timings.
"""

import time

import numpy as np

from vapturn.model import ModelConfig
from vapturn.noise import synthetic_noise_bank
from vapturn.simulate import (
    DialogueScript,
    compare_robot_response,
    generate_scripted_dialogue,
    run_session,
    session_scripts,
    summarize,
)
from vapturn.stats import SampleDist
from vapturn.training import AugmentConfig, eval_per_snr, fit


def main():
    t_all = time.perf_counter()
    corpus_script = DialogueScript(
        n_turns=2, user_reaction_s=SampleDist("normal", 1.2, 0.4), tail_s=2.2
    )
    scripts = session_scripts(200, corpus_script, seed=20)
    items = [(f"d{i}", generate_scripted_dialogue(s).stereo) for i, s in enumerate(scripts)]
    train, valid, test = items[:160], items[160:180], items[180:]
    print(f"corpus 200 dlgs, mean {np.mean([d.duration_s for _, d in items]):.1f}s, "
          f"gen {time.perf_counter()-t_all:.0f}s", flush=True)

    cfg = ModelConfig()
    bank = synthetic_noise_bank(0)
    results = {}
    for mode in ("mc", "clean"):
        t0 = time.perf_counter()
        params, history = fit(
            train, valid, cfg, epochs=50, lr=0.3, lr_decay=0.02,
            augment=AugmentConfig(mode=mode), bank=bank if mode == "mc" else None, seed=0,
        )
        dt = time.perf_counter() - t0
        print(f"{mode}: {dt:.0f}s  train_vap {history[1]['train_vap']:.3f}->{history[-1]['train_vap']:.3f}  "
              f"valid_vap {history[0]['valid_vap']:.3f}->{history[-1]['valid_vap']:.3f}", flush=True)
        results[mode] = (params, history, dt)

    t0 = time.perf_counter()
    modes = ("mc", "clean")
    tables, _ = eval_per_snr([(results[mode][0], cfg) for mode in modes], test, bank, seed=5)
    for mode, table in zip(modes, tables):
        row = "  ".join(
            f"{'clean' if np.isinf(snr) else int(snr)}dB={v:.3f}" for snr, v in table.items()
        )
        print(f"eval {mode}: {row}", flush=True)
        results[mode] += (table,)
    print(f"eval took {time.perf_counter()-t0:.0f}s", flush=True)

    mc_t, cl_t = results["mc"][3], results["clean"][3]
    import math
    inf = math.inf
    print(f"deg mc {mc_t[5.0]-mc_t[inf]:.3f} vs clean {cl_t[5.0]-cl_t[inf]:.3f}; "
          f"mc@5 {mc_t[5.0]:.3f} vs clean@5 {cl_t[5.0]:.3f}", flush=True)

    t0 = time.perf_counter()
    params = results["mc"][0]
    sim_scripts = session_scripts(40, DialogueScript(n_turns=6), seed=777)
    hybrid, stt = [], []
    for i, s in enumerate(sim_scripts):
        d = generate_scripted_dialogue(s)
        seed_i = 9000 + i
        hybrid.extend(run_session(d, "hybrid", params=params, model_cfg=cfg, seed=seed_i))
        stt.extend(run_session(d, "stt", seed=seed_i))
    h, s_ = summarize(hybrid), summarize(stt)
    vap_sub = [r for r in hybrid if r.source == "vap"]
    cmp_res = compare_robot_response(stt, hybrid)
    paired = all(a.robot_response_s <= b.robot_response_s + 1e-12 for a, b in zip(hybrid, stt))
    print(f"sim {time.perf_counter()-t0:.0f}s  turns={h.n_turns} fraction={h.vap_source_fraction:.3f} "
          f"premature={h.n_premature}", flush=True)
    print(f"means: vap_subset={summarize(vap_sub).robot['mean']:.3f} hybrid={h.robot['mean']:.3f} "
          f"stt={s_.robot['mean']:.3f}  p={cmp_res.p_value:.2e} paired_dominance={paired}", flush=True)
    print(f"user response means: hybrid={h.user['mean']:.2f}", flush=True)
    print(f"TOTAL {time.perf_counter()-t_all:.0f}s", flush=True)


if __name__ == "__main__":
    main()
