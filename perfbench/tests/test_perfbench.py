"""Tests of the benchmark itself: its declared metrics, and that its
correctness gate trips on corrupted outputs.

    python -m pytest perfbench/tests -q
"""

import csv
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import live_stream  # noqa: E402
import run  # noqa: E402
from common import Tally  # noqa: E402
from layers import PER_LAYER  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_metric_names_are_valid_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names + WORKLOADS)
    assert len(set(names)) == len(names)


def test_per_layer_table_matches_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == [(n, u, b) for n, u, b, _ in PER_LAYER]


def test_workloads_match_the_runner():
    assert tuple(WORKLOADS) == run.WORKLOADS


def _bench(workload, trace, seed=3, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace):
    code, result = _bench(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_bench_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "live_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# the correctness gate


@pytest.fixture(scope="module")
def streamed():
    from vapturn.model import ModelConfig, init_params
    from vapturn.streaming import run_stream

    cfg = ModelConfig()
    params = init_params(cfg, seed=5)
    audio = np.clip(0.3 * np.random.default_rng(5).standard_normal(16000 * 2), -1, 1)
    return params, cfg, audio, run_stream(params, cfg, audio, chunk_samples=320)


def test_offline_check_trips_on_perturbed_p_now(streamed):
    params, cfg, audio, results = streamed
    r = results[-1]
    end = r.frame_index * 1600
    assert checks.check_offline(params, cfg, [(audio, end, r.p_now_user, r.p_now_robot)]) == []
    bad = [(audio, end, r.p_now_user + 1e-4, r.p_now_robot)]
    assert len(checks.check_offline(params, cfg, bad)) == 1


def test_chunking_check_trips_on_one_changed_bit(streamed):
    params, cfg, audio, results = streamed
    live = [checks.result_fields(r) for r in results]
    assert checks.check_chunking(live, results) == []
    live[3] = live[3][:2] + (np.nextafter(live[3][2], 1.0),) + live[3][3:]
    assert len(checks.check_chunking(live, results)) == 1
    assert checks.check_chunking(live[:-1], results)


def _write_records(path, responses):
    with open(path, "w") as fh:
        for (dialogue, turn), value in responses.items():
            fh.write(json.dumps({"dialogue": dialogue, "turn": turn, "robot_response_s": value}) + "\n")


def test_simulate_check_trips_on_slower_hybrid_and_missing_turn(tmp_path):
    stt = {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 1.5}
    _write_records(tmp_path / "records_stt.jsonl", stt)
    _write_records(tmp_path / "records_hybrid.jsonl", stt)
    assert checks.check_simulate(tmp_path, [2, 1], ("stt", "hybrid")) == []
    _write_records(tmp_path / "records_hybrid.jsonl", {**stt, (0, 1): 2.0 + 1e-9})
    assert len(checks.check_simulate(tmp_path, [2, 1], ("stt", "hybrid"))) == 1
    _write_records(tmp_path / "records_hybrid.jsonl", {(0, 0): 1.0, (0, 1): 2.0})
    assert len(checks.check_simulate(tmp_path, [2, 1], ("stt", "hybrid"))) == 1


def _write_history(path, rows):
    cols = ["epoch", "train_loss", "train_vap", "train_vad", "valid_loss", "valid_vap", "valid_vad"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for epoch, valid_vap, other in rows:
            w.writerow([epoch, other, other, other, other, valid_vap, other])


def test_history_check_trips_on_nan_and_no_progress(tmp_path):
    path = tmp_path / "history.csv"
    _write_history(path, [(0, 5.5, 1.0), (1, 4.0, 1.0)])
    assert checks.check_history(path) == []
    _write_history(path, [(0, 5.5, 1.0), (1, 4.0, float("nan"))])
    assert checks.check_history(path)
    _write_history(path, [(0, 5.5, 1.0), (1, 5.5, 1.0)])
    assert checks.check_history(path)


def test_eval_check_trips_on_missing_or_nan_row(tmp_path):
    path = tmp_path / "eval.csv"
    rows = [["snr_db", "m"]] + [[s, "5.1"] for s in ("clean", "20", "15", "10", "5")]
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    assert checks.check_eval(path) == []
    path.write_text("\n".join(",".join(r) for r in rows[:-1]) + "\n")
    assert checks.check_eval(path)
    rows[2][1] = "nan"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    assert checks.check_eval(path)


def test_late_tick_fails_without_making_the_run_wrong():
    t = Tally()
    t.add(3)
    t.add(1, ["late"], wrong=False)
    assert (t.attempted, t.failed, t.wrong) == (4, 1, False)
    t.add(0, ["offline mismatch"])
    assert (t.attempted, t.failed, t.wrong) == (4, 2, True)


def test_run_clock_counts_the_programs_own_waits():
    clock = live_stream.RunClock()
    t = clock.now()
    time.sleep(0.05)
    end = time.perf_counter() + 0.05
    while time.perf_counter() < end:
        pass
    assert clock.now() - t >= 0.1


@pytest.mark.parametrize("stall", ["spin", "sleep"])
def test_a_tick_the_program_holds_up_fails_as_late(monkeypatch, capsys, stall):
    """Time the program spends, on the CPU or blocked, is never excused."""
    from vapturn.streaming import StreamContext

    original = StreamContext.tick
    calls = []

    def slow_tick(self):
        calls.append(None)
        if len(calls) == 60:  # inside the timed part: warm-up and first ticks take 18
            if stall == "sleep":
                time.sleep(0.15)
            else:
                end = time.perf_counter() + 0.15
                while time.perf_counter() < end:
                    pass
        return original(self)

    monkeypatch.setattr(StreamContext, "tick", slow_tick)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "live_stream", "--seed", "2", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is True and result["failed"] >= 1


def test_gate_fails_the_run_when_streaming_output_is_corrupted(monkeypatch, capsys):
    import vapturn.streaming as streaming

    original = streaming.p_now_pair
    monkeypatch.setattr(streaming, "p_now_pair", lambda v: tuple(p + 1e-3 for p in original(v)))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "live_stream", "--seed", "2", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_gate_fails_the_run_when_hybrid_is_slower_than_stt(monkeypatch, capsys):
    import vapturn.simulate as simulate

    original = simulate.stt_decide
    calls = []

    def drifting(*args):
        calls.append(None)
        return original(*args) + 0.01 * len(calls)

    monkeypatch.setattr(simulate, "stt_decide", drifting)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "simulate_sessions", "--seed", "2", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
