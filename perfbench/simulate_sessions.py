"""simulate_sessions: an operator running ``vapturn simulate`` (offline replay).

Closed loop, in-process ``cli.main``. Each iteration runs
``simulate --policies stt,hybrid,vap`` over a fixed set of 2 seeded 6-turn
dialogues with an untrained ``init_params`` checkpoint written at set-up, and
then, twice, the cloud-only baseline ``simulate --policies stt`` over 8 dialogues
(the same 2 first), which replays nothing and so isolates generation,
endpointing and statistics. The baseline takes more dialogues because
generation time depends on the burst lengths each dialogue draws, and a
larger set averages that out.

Under the untrained checkpoint ``p_now_robot`` stays near 0.5, below the
detector threshold 0.6, so the local detector never fires: the command prints
``vap fraction 0.00`` and ``policy vap: no records``, and hybrid equals stt on
every turn. That is expected: replay cost does not depend on firing.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_simulate
from common import Tally, percentile, run_cli

DIALOGUES = 2
BASELINE_DIALOGUES = 8
POLICIES = "stt,hybrid,vap"


@dataclass
class State:
    checkpoint: Path
    out: Path
    sim_seed: int
    audio_s: list  # per dialogue, for the first BASELINE_DIALOGUES
    turns: list


def setup(seed: int, work: Path, seconds: float) -> State:
    import numpy as np
    import vapturn.simulate as simulate
    from vapturn.model import ModelConfig, init_params
    from vapturn.streaming import run_stream
    from vapturn.training import save_checkpoint

    cfg = ModelConfig()
    params = init_params(cfg, seed=seed)
    checkpoint = work / "checkpoint.npz"
    save_checkpoint(checkpoint, params, cfg)
    sim_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
    # the same dialogues the command will generate, for their length and turns
    audio_s, turns = [], []
    for script in simulate.session_scripts(BASELINE_DIALOGUES, simulate.DialogueScript(), sim_seed):
        dialogue = simulate.generate_scripted_dialogue(script)
        audio_s.append(dialogue.duration_s)
        turns.append(len(dialogue.turns))
    # warm-up: feature and attention lru caches, first BLAS calls
    run_stream(params, cfg, dialogue.stereo.channel_a.samples[: 10 * 1600])
    return State(checkpoint, work / "sim", sim_seed, audio_s, turns)


@dataclass
class Measured:
    replay_ms_per_s: list = field(default_factory=list)
    baseline_ms_per_s: list = field(default_factory=list)
    messages: set = field(default_factory=set)
    iterations: int = 0


def _simulate(state: State, policies: str, n: int, tally: Tally, m: Measured) -> float:
    """One timed ``simulate`` command over the first ``n`` dialogues; returns
    its ms of wall time per second of dialogue audio."""
    argv = [
        "simulate",
        "--checkpoint", str(state.checkpoint),
        "--out", str(state.out),
        "--policies", policies,
        "--n-dialogues", str(n),
        "--seed", str(state.sim_seed),
    ]
    shutil.rmtree(state.out, ignore_errors=True)
    t = time.perf_counter()
    code, output = run_cli(argv)
    wall = time.perf_counter() - t
    turns = state.turns[:n]
    units = 1 + sum(turns)
    if code != 0:
        tally.add(units, [f"simulate --policies {policies}: exit {code}: {output[-200:]}"] * units)
    else:
        ran = ("stt", "hybrid") if "hybrid" in policies else ("stt",)
        tally.add(units, check_simulate(state.out, turns, ran))
    m.messages.update(line for line in output.splitlines() if "vap" in line)
    return 1000.0 * wall / sum(state.audio_s[:n])


def run(state: State, seconds: float, tally: Tally, tracer=None) -> Measured:
    m = Measured()
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        if tracer is not None:
            tracer.group = f"iter{m.iterations}"
        m.replay_ms_per_s.append(_simulate(state, POLICIES, DIALOGUES, tally, m))
        # the baseline command is short, so host-noise bursts move single
        # samples a lot; two per iteration give its median more samples
        for _ in range(2):
            m.baseline_ms_per_s.append(_simulate(state, "stt", BASELINE_DIALOGUES, tally, m))
        m.iterations += 1
    return m


def check(state: State, m: Measured, tally: Tally) -> None:
    """The per-command checks ran after each command, outside its timing."""


def summarize(m: Measured) -> tuple[float, float, dict]:
    """(primary_ms, secondary_ms, report): ms of wall time per second of
    dialogue audio, for the full policy set and for the stt baseline."""
    n = len(m.replay_ms_per_s)
    primary = percentile(m.replay_ms_per_s, 50)
    secondary = percentile(m.baseline_ms_per_s, 50)
    report = {
        "sim_wall_s_per_dialogue_min": {"value": primary * 60 / 1000, "unit": "s/min", "samples": n},
        "stt_baseline_wall_s_per_dialogue_min": {
            "value": secondary * 60 / 1000,
            "unit": "s/min",
            "samples": n,
        },
        "replay_ms_per_dialogue_s_samples": m.replay_ms_per_s,
        "baseline_ms_per_dialogue_s_samples": m.baseline_ms_per_s,
        "expected_untrained_messages": sorted(m.messages),
    }
    return primary, secondary, report
