"""Smoke tests for scripts/: an API change that breaks a script fails here."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
