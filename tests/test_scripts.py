"""Smoke tests for scripts/ and perfbench/: an API change that breaks a
script or a name the traced benchmark wraps fails here."""

import importlib
import importlib.util
from pathlib import Path

from vapturn import features, model, streaming

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_experiments_runs(capsys):
    _load("run_experiments").main(["--n-dialogues", "10", "--epochs", "1", "--n-sessions", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "corpus", "mc:", "clean:", "eval", "eval", "eval", "deg", "sim", "means:", "user", "TOTAL",
    ]
    assert lines[0].startswith("corpus 10 dlgs")
    assert "valid_vap" in lines[1] and "valid_vap" in lines[2]
    assert lines[3].startswith("eval mc: cleandB=") and lines[4].startswith("eval clean: cleandB=")
    assert "turns=6 " in lines[7] and "premature=" in lines[7]
    assert "paired_dominance=True" in lines[8]


def test_traced_benchmark_wraps_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    layers = importlib.import_module("layers")
    tracer = spans.Tracer()
    try:
        layers.instrument(tracer)
        assert streaming.extract_features is not features.extract_features
    finally:
        tracer.restore()
    assert streaming.extract_features is features.extract_features
    assert streaming.forward is model.forward
