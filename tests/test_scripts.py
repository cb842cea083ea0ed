"""Smoke tests for scripts/ and perfbench/: an API change that breaks a
script or a name the traced benchmark wraps fails here."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from vapturn import features, model, streaming

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_experiments_runs(capsys):
    _load("run_experiments").main(["--n-dialogues", "10", "--epochs", "1", "--n-sessions", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "corpus", "mc:", "clean:", "eval", "eval", "eval", "deg", "sim", "means:", "TOTAL",
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
    cfg = model.ModelConfig(context_frames=6)
    params = model.init_params(cfg, seed=0)
    audio = 0.1 * np.random.default_rng(0).standard_normal(3 * features.HOP_SAMPLES)
    try:
        layers.instrument(tracer)
        assert streaming.extract_features is not features.extract_features
        # the tick and replay must look p_now_pair up as a vapturn.streaming
        # global, or codebook.ms_per_tick reads 0
        for run in (streaming.run_stream, streaming.replay):
            before = len(tracer.spans)
            assert len(run(params, cfg, audio)) == 3
            names = [span.name for span in tracer.spans[before:]]
            assert names.count("codebook.p_now_pair") == 3, run.__name__
    finally:
        tracer.restore()
    assert streaming.extract_features is features.extract_features
    assert streaming.forward is model.forward


def test_benchmark_imports_resolve():
    # every vapturn module and name the benchmark imports, found by parsing
    # its files, exists; a deletion that breaks one fails here rather than
    # as a failed benchmark run
    imports = set()
    for path in sorted(PERFBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vapturn"):
                imports.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                imports.update((alias.name, None) for alias in node.names if alias.name.startswith("vapturn"))
    assert ("vapturn.training", "slice_windows") in imports
    missing = []
    for module, name in sorted(imports, key=str):
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            missing.append(f"{module}.{name}")
    assert not missing
