"""Smoke tests for scripts/: an API change that breaks a script fails here."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_experiments_imports():
    # the full experiment trains two models for minutes, so only its
    # imports of the library are checked here
    assert callable(_load("run_experiments").main)


def test_tune_corpus_runs(monkeypatch, capsys):
    module = _load("tune_corpus")
    argv = ["tune_corpus.py", "--n-train", "10", "--epochs", "1", "--n-sim", "1"]
    monkeypatch.setattr(sys, "argv", argv)
    module.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("train ") and "valid_vap" in lines[0]
    assert lines[1].startswith("sim ") and "fraction=" in lines[1]
