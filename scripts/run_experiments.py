"""End-to-end experiment: train clean and multi-condition models, compare
their loss across noise levels, and measure response-time distributions
under the cloud-only and hybrid endpointing policies.

Runs the stages of vapturn.experiment at the acceptance checks' sizes (a
200-dialogue corpus, two 50-epoch trainings, 40 six-turn sessions) unless
the size flags say otherwise, and reports every quantity the heavy
acceptance checks assert plus wall-clock timings.

    python scripts/run_experiments.py [--n-dialogues N] [--epochs E] [--n-sessions S]
"""

import argparse
import math
import time

import numpy as np

from vapturn.experiment import EPOCHS, N_DIALOGUES, N_SESSIONS, make_corpus, session_records, snr_tables, train_pair
from vapturn.model import ModelConfig
from vapturn.noise import synthetic_noise_bank
from vapturn.simulate import compare_robot_response, summarize


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n-dialogues", type=int, default=N_DIALOGUES, help="corpus size, split 8:1:1")
    ap.add_argument("--epochs", type=int, default=EPOCHS, help="epochs of each training")
    ap.add_argument("--n-sessions", type=int, default=N_SESSIONS, help="six-turn latency sessions")
    args = ap.parse_args(argv)

    t_all = time.perf_counter()
    corpus = make_corpus(args.n_dialogues)
    durations = [d.duration_s for split in corpus.values() for _, d in split]
    print(f"corpus {len(durations)} dlgs, mean {np.mean(durations):.1f}s, "
          f"gen {time.perf_counter()-t_all:.0f}s", flush=True)

    cfg = ModelConfig()
    bank = synthetic_noise_bank(0)
    trained = train_pair(corpus, cfg, bank, epochs=args.epochs)
    for mode, run in trained.items():
        history = run["history"]
        print(f"{mode}: {run['train_s']:.0f}s  train_vap {history[1]['train_vap']:.3f}->{history[-1]['train_vap']:.3f}  "
              f"valid_vap {history[0]['valid_vap']:.3f}->{history[-1]['valid_vap']:.3f}", flush=True)

    t0 = time.perf_counter()
    tables = snr_tables(trained, corpus, cfg, bank)
    for mode, table in tables.items():
        row = "  ".join(
            f"{'clean' if np.isinf(snr) else int(snr)}dB={v:.3f}" for snr, v in table.items()
        )
        print(f"eval {mode}: {row}", flush=True)
    print(f"eval took {time.perf_counter()-t0:.0f}s", flush=True)

    mc_t, cl_t = tables["mc"], tables["clean"]
    inf = math.inf
    print(f"deg mc {mc_t[5.0]-mc_t[inf]:.3f} vs clean {cl_t[5.0]-cl_t[inf]:.3f}; "
          f"mc@5 {mc_t[5.0]:.3f} vs clean@5 {cl_t[5.0]:.3f}", flush=True)

    t0 = time.perf_counter()
    records = session_records(trained["mc"]["params"], cfg, n_sessions=args.n_sessions)
    hybrid, stt = records["hybrid"], records["stt"]
    h, s_ = summarize(hybrid), summarize(stt)
    vap_sub = [r for r in hybrid if r.source == "vap"]
    vap_mean = summarize(vap_sub).robot["mean"] if vap_sub else math.nan
    cmp_res = compare_robot_response(stt, hybrid)
    paired = all(a.robot_response_s <= b.robot_response_s + 1e-12 for a, b in zip(hybrid, stt))
    print(f"sim {time.perf_counter()-t0:.0f}s  turns={h.n_turns} fraction={h.vap_source_fraction:.3f} "
          f"premature={h.n_premature} ({h.n_premature / h.n_turns:.3f})", flush=True)
    print(f"means: vap_subset={vap_mean:.3f} hybrid={h.robot['mean']:.3f} "
          f"stt={s_.robot['mean']:.3f}  p={cmp_res.p_value:.2e} paired_dominance={paired}", flush=True)
    print(f"user response means: hybrid={h.user['mean']:.2f}", flush=True)
    print(f"TOTAL {time.perf_counter()-t_all:.0f}s", flush=True)


if __name__ == "__main__":
    main()
