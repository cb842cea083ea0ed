"""The paper's two headline experiments as pipeline stages.

A synthetic corpus, paired clean and multi-condition trainings, their loss
per SNR row, and session records of every policy, paired turn by turn.
Seeds are fixed and the default sizes are the ones the acceptance checks
assert on; each stage is separate so a check that needs only the corpus
trains nothing.
"""

from __future__ import annotations

import time

from .model import ModelConfig
from .noise import NoiseBank
from .simulate import POLICIES, DialogueScript, generate_scripted_dialogue, run_session, session_scripts
from .stats import SampleDist
from .training import eval_per_snr, fit

N_DIALOGUES = 200
EPOCHS = 50
N_SESSIONS = 40
MODES = ("mc", "clean")
CORPUS_SCRIPT = DialogueScript(n_turns=2, user_reaction_s=SampleDist("normal", 1.2, 0.4), tail_s=2.2)
SESSION_SCRIPT = DialogueScript(n_turns=6)


def make_corpus(n_dialogues: int = N_DIALOGUES) -> dict:
    """Two-turn dialogues split 8:1:1 in order, as {split: [(id, dialogue)]}."""
    scripts = session_scripts(n_dialogues, CORPUS_SCRIPT, seed=20)
    items = [(f"d{i}", generate_scripted_dialogue(s).stereo) for i, s in enumerate(scripts)]
    n_valid = n_dialogues // 10
    n_train = n_dialogues - 2 * n_valid
    return {
        "train": items[:n_train],
        "valid": items[n_train : n_train + n_valid],
        "test": items[n_train + n_valid :],
    }


def train_pair(corpus: dict, cfg: ModelConfig, bank: NoiseBank, epochs: int = EPOCHS) -> dict:
    """One training per mode from the same seed: {mode: {params, history, train_s}}."""
    out = {}
    for mode in MODES:
        t0 = time.perf_counter()
        params, history = fit(
            corpus["train"],
            corpus["valid"],
            cfg,
            epochs=epochs,
            lr=0.3,
            lr_decay=0.02,
            bank=bank if mode == "mc" else None,
            seed=0,
        )
        out[mode] = {"params": params, "history": history, "train_s": time.perf_counter() - t0}
    return out


def snr_tables(trained: dict, corpus: dict, cfg: ModelConfig, bank: NoiseBank) -> dict:
    """Test-split L_vap per SNR row of each trained mode: {mode: {snr: L_vap}}."""
    tables, _ = eval_per_snr([(trained[mode]["params"], cfg) for mode in MODES], corpus["test"], bank, seed=5)
    return dict(zip(MODES, tables))


def session_records(params, cfg: ModelConfig, n_sessions: int = N_SESSIONS) -> dict:
    """Six-turn sessions, {policy: records} over all of them; each hybrid
    turn races the same cloud decision as its stt turn."""
    records = {policy: [] for policy in POLICIES}
    for i, script in enumerate(session_scripts(n_sessions, SESSION_SCRIPT, seed=777)):
        dialogue = generate_scripted_dialogue(script)
        session = run_session(dialogue, params=params, model_cfg=cfg, seed=9000 + i)
        for policy in POLICIES:
            records[policy].extend(session[policy])
    return records
