"""train_eval: an operator running ``vapturn train`` then ``vapturn eval``.

Closed loop, in-process ``cli.main``. Set-up writes a seeded corpus with
``vapturn synth-data``. Each iteration trains a multi-condition model for a
few epochs at the default batch of 32 windows, then scores it at the 5 SNR
rows on the training split. With a corpus this small the test split holds
one dialogue, and eval would mostly time loading the whole corpus; the
8 training dialogues make it time scoring. The model runs forward and backward at batch 32 and eval forward at
batch 64, half the training windows carry real robot audio, and the noise,
features and datasets modules do augmentation and I/O. Streaming is idle
here, so a streaming optimisation must show no change on this workload.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_eval, check_history
from common import Tally, percentile, run_cli

CORPUS = 10  # dialogues; split 8:1:1
# 3-turn dialogues (about 30 s) keep one train + eval iteration near 5 s, so
# a run holds several iterations and their median rides out host noise
TURNS = 3
EPOCHS = 2
SNR_ROWS = 5


@dataclass
class State:
    data: Path
    run: Path
    eval: Path
    corpus_seed: int
    train_windows: int  # per epoch
    eval_windows: int  # over all SNR rows


def _window_counts(data: Path, context: int) -> tuple[int, int]:
    """Windows ``fit`` trains per epoch (stride 25) and windows ``eval`` scores
    on the training split over all SNR rows (stride = context, deduplicated),
    from the label files."""
    import numpy as np
    from vapturn.model import FrameBatch
    from vapturn.training import slice_windows

    manifest = json.loads((data / "manifest.json").read_text())

    def frames(item_id):
        labels = json.loads((data / f"{item_id}_labels.json").read_text())
        n = labels["n_frames"] // 10
        return FrameBatch(np.zeros((n, 1)), np.zeros((n, 1)))

    items = manifest["splits"]["train"]
    train = sum(len(slice_windows(frames(i), context, 25)) for i in items)
    scored = sum(len(slice_windows(frames(i), context, context, dedupe=True)) for i in items)
    return train, SNR_ROWS * scored


def setup(seed: int, work: Path, seconds: float) -> State:
    import numpy as np
    from vapturn.features import extract_features
    from vapturn.model import ModelConfig, _forward, batch_loss_and_grads, init_params

    data = work / "data"
    corpus_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
    code, output = run_cli(
        ["synth-data", "--out", str(data), "--n", str(CORPUS), "--turns", str(TURNS),
         "--seed", str(corpus_seed)]
    )
    if code != 0:
        raise RuntimeError(f"synth-data failed with exit {code}: {output}")
    cfg = ModelConfig()
    train_windows, eval_windows = _window_counts(data, cfg.context_frames)
    # warm-up: feature lru caches and the first BLAS calls at both batch sizes
    rng = np.random.default_rng(seed)
    extract_features(rng.standard_normal(16000))
    params = init_params(cfg, seed=seed)
    for batch in (32, 64):
        feats = rng.standard_normal((batch, cfg.context_frames, cfg.feature_bands))
        states = rng.integers(0, 256, (batch, cfg.context_frames))
        vad = rng.integers(0, 2, (batch, cfg.context_frames, 2)).astype(float)
        batch_loss_and_grads(params, cfg, feats, feats, states, vad)
        _forward(params, feats, feats, cfg)
    return State(data, work / "run", work / "eval", corpus_seed, train_windows, eval_windows)


@dataclass
class Measured:
    train_ms_per_window: list = field(default_factory=list)
    eval_ms_per_window: list = field(default_factory=list)
    iterations: int = 0


def _command(argv: list[str], tally: Tally, check) -> float:
    """Run one command, timed; then check its output, untimed. The command is
    one unit of work and fails once, whatever number of checks it fails."""
    t = time.perf_counter()
    code, output = run_cli(argv)
    wall = time.perf_counter() - t
    reasons = check() if code == 0 else [f"exit {code}: {output[-200:]}"]
    tally.add(1, [f"{argv[0]}: " + "; ".join(reasons)] if reasons else [])
    return wall


def _seed(state: State, iteration: int) -> int:
    """A fresh train and eval seed per iteration. The seed draws the noise
    conditions, and a clean draw skips feature re-extraction, so one seed's
    draws set the cost per window: on a 2-vCPU virtual machine one corpus
    trained at 8.4 to 11.9 ms per window over 8 seeds. Varying the seed lets
    the median over iterations average the draws."""
    import numpy as np

    sequence = np.random.SeedSequence(entropy=state.corpus_seed, spawn_key=(iteration,))
    return int(sequence.generate_state(1)[0])


def run(state: State, seconds: float, tally: Tally, tracer=None) -> Measured:
    m = Measured()
    checkpoint = state.run / "checkpoint.npz"
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        seed = _seed(state, m.iterations)
        if tracer is not None:
            tracer.group = f"iter{m.iterations}.train"
        shutil.rmtree(state.run, ignore_errors=True)
        shutil.rmtree(state.eval, ignore_errors=True)
        wall = _command(
            ["train", "--data", str(state.data), "--out", str(state.run), "--mode", "mc",
             "--epochs", str(EPOCHS), "--seed", str(seed), "--quiet"],
            tally,
            lambda: check_history(state.run / "history.csv"),
        )
        m.train_ms_per_window.append(1000.0 * wall / (EPOCHS * state.train_windows))
        if tracer is not None:
            tracer.group = f"iter{m.iterations}.eval"
        wall = _command(
            ["eval", "--data", str(state.data), "--checkpoint", str(checkpoint),
             "--out", str(state.eval), "--seed", str(seed), "--split", "train"],
            tally,
            lambda: check_eval(state.eval / "eval.csv", SNR_ROWS),
        )
        m.eval_ms_per_window.append(1000.0 * wall / state.eval_windows)
        m.iterations += 1
    return m


def check(state: State, m: Measured, tally: Tally) -> None:
    """The per-command checks ran after each command, outside its timing."""


def summarize(m: Measured) -> tuple[float, float, dict]:
    """(primary_ms, secondary_ms, report): train ms per window trained and
    eval ms per window scored."""
    n = len(m.train_ms_per_window)
    primary = percentile(m.train_ms_per_window, 50)
    secondary = percentile(m.eval_ms_per_window, 50)
    report = {
        "train_ms_per_window": {"value": primary, "unit": "ms", "samples": n},
        "eval_windows_per_s": {"value": 1000.0 / secondary, "unit": "windows/s", "samples": n},
        "train_ms_per_window_samples": m.train_ms_per_window,
        "eval_ms_per_window_samples": m.eval_ms_per_window,
    }
    return primary, secondary, report
