"""Helpers shared by the workloads: percentiles, in-process CLI calls, run
metadata and the per-run tally of attempts and failures."""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import resource
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_percentile(n: int) -> float:
    """99 if at least ten of ``n`` samples lie beyond p99, else 100 (the max)."""
    return 99.0 if n * 0.01 >= 10 else 100.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Tally:
    """Units of work attempted (ticks, commands, turns) and failed."""

    attempted: int = 0
    failed: int = 0
    wrong: bool = False  # some output failed a correctness check
    reasons: list = field(default_factory=list)

    def add(self, units: int, reasons=(), wrong: bool = True) -> None:
        """Count ``units`` new attempts and one failure per reason. A check
        that re-examines units already counted passes ``units=0``. A late
        live tick fails without making the output wrong (``wrong=False``)."""
        self.attempted += units
        self.failed = min(self.failed + len(reasons), self.attempted)
        if reasons:
            self.wrong |= wrong
            self.reasons.extend(list(reasons)[: max(0, 20 - len(self.reasons))])


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``vapturn.cli.main`` in-process; returns (exit code, captured output).

    Looked up on the module at call time, so the traced run sees its wrapper.
    """
    import vapturn.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = vapturn.cli.main(argv)
    return code, out.getvalue()


def metadata(root: Path, seed: int) -> dict:
    """Machine and run facts, so numbers from different boxes are never
    compared blind."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = root / "src" / "vapturn"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }
