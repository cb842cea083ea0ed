"""Correctness checks on the outputs of each workload. None of them is timed.

Each check returns a list of failure reasons, one per failed unit (tick, turn,
file row); an empty list means the outputs passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

OFFLINE_TOL = 1e-5
HYBRID_SLACK_S = 1e-12


def offline_p_now(params, cfg, audio: np.ndarray, end: int, robot_features: np.ndarray):
    """p_now of an offline forward over the zero-padded 5 s window of
    ``audio`` ending at sample ``end``, with a silent robot channel (the way
    acceptance test c08 builds it)."""
    from vapturn.codebook import p_now_pair
    from vapturn.features import extract_features
    from vapturn.model import FrameBatch, forward

    cap = cfg.context_samples
    window = np.zeros(cap)
    seg = audio[max(0, end - cap) : end]
    window[cap - seg.size :] = seg
    pred = forward(params, FrameBatch(extract_features(window), robot_features), cfg)
    return p_now_pair(pred.vap[-1])


def check_offline(params, cfg, samples) -> list[str]:
    """``samples``: (audio, end sample, p_now_user, p_now_robot) of live ticks."""
    from vapturn.features import extract_features

    robot = extract_features(np.zeros(cfg.context_samples))
    reasons = []
    for audio, end, p_user, p_robot in samples:
        ref_user, ref_robot = offline_p_now(params, cfg, audio, end, robot)
        err = max(abs(ref_user - p_user), abs(ref_robot - p_robot))
        if not err <= OFFLINE_TOL:
            reasons.append(f"tick ending at sample {end}: |dp_now| {err:.3g} > {OFFLINE_TOL}")
    return reasons


def result_fields(r) -> tuple:
    """Every output field of a FrameResult except the program's own timer."""
    return (r.frame_index, r.p_now_user, r.p_now_robot, r.vad_user, r.vad_robot, r.vap_entropy)


def check_chunking(live: list[tuple], replayed: list) -> list[str]:
    """Live ticks (as ``result_fields`` tuples) against a hop-chunked replay of
    the same audio: bit-identical, same number of ticks."""
    reasons = []
    if len(live) != len(replayed):
        reasons.append(f"hop-chunked replay gave {len(replayed)} ticks, live gave {len(live)}")
    for a, b in zip(live, replayed):
        if a != result_fields(b):
            reasons.append(f"tick {a[0]} differs between 20 ms and hop-sized chunks")
    return reasons


def finite_result(r) -> bool:
    return all(math.isfinite(v) for v in result_fields(r)[1:])


def _records(path: Path) -> dict:
    with open(path) as fh:
        rows = [json.loads(line) for line in fh]
    return {(r["dialogue"], r["turn"]): r for r in rows}


def check_simulate(out_dir, turns: list[int], policies: tuple) -> list[str]:
    """One record per scripted turn for each of ``policies``; where both stt and
    hybrid ran, hybrid is never slower than stt on any turn."""
    out = Path(out_dir)
    expected = {(d, t) for d, n in enumerate(turns) for t in range(n)}
    reasons = []
    records = {}
    for policy in policies:
        path = out / f"records_{policy}.jsonl"
        if not path.exists():
            return [f"no {path.name}"] * len(expected)
        records[policy] = _records(path)
        missing = expected - records[policy].keys()
        extra = records[policy].keys() - expected
        reasons += [f"{policy}: no record for turn {k}" for k in sorted(missing)]
        reasons += [f"{policy}: unexpected record {k}" for k in sorted(extra)]
    if "stt" in records and "hybrid" in records:
        for key in sorted(expected & records["stt"].keys() & records["hybrid"].keys()):
            h = records["hybrid"][key]["robot_response_s"]
            s = records["stt"][key]["robot_response_s"]
            if not h <= s + HYBRID_SLACK_S:
                reasons.append(f"turn {key}: hybrid {h:.6f} s slower than stt {s:.6f} s")
    return reasons


def check_history(path) -> list[str]:
    """history.csv: every loss finite, last valid_vap below epoch 0's."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) < 2:
        return [f"history.csv has {len(rows)} rows"]
    reasons = []
    for row in rows:
        values = [float(v) for k, v in row.items() if k != "epoch"]
        if not all(math.isfinite(v) for v in values):
            reasons.append(f"epoch {row['epoch']}: non-finite loss")
    first, last = float(rows[0]["valid_vap"]), float(rows[-1]["valid_vap"])
    if not last < first:
        reasons.append(f"valid_vap did not drop: {first:.4f} -> {last:.4f}")
    return reasons


def check_eval(path, n_rows: int = 5) -> list[str]:
    """eval.csv: ``n_rows`` SNR rows, each with finite losses."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    reasons = []
    if len(rows) != n_rows:
        reasons.append(f"eval.csv has {len(rows)} rows, expected {n_rows}")
    for row in rows:
        if len(row) < 2 or not all(math.isfinite(float(v)) for v in row[1:]):
            reasons.append(f"eval.csv row {row[:1]}: missing or non-finite loss")
    return reasons
