"""vapturn benchmark: one workload per process, metrics on the last line.

    python3 perfbench/run.py --workload live_stream --seed 1 --seconds 20 --trace 0

Run from a source checkout: the program is imported from ``src/`` next to
this directory, never from an installed copy. ``--trace 0`` prints every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` runs the timed part
once untraced and once traced (half the seconds each), writes the spans to
``.perfbench-traces/`` and prints every per-layer metric. The line before
the last holds the full report: metrics under their workload names, sample
counts, diagnostics and machine metadata. Exit code 1 means an output failed
a correctness check, 2 that the benchmark could not run.
"""

import os

# BLAS runs on one thread, set before numpy is first imported: on a 2-core box
# a B=32 training step takes about twice as long with default threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("live_stream", "simulate_sessions", "train_eval")
SETUP_PROBES = 3
READY = "perfbench-setup-ready"


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description="vapturn benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import vapturn from this checkout's ``src/``; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "vapturn" / "__init__.py").is_file():
        raise BenchError(f"no vapturn sources under {src}")
    sys.path.insert(0, str(src))
    import vapturn

    if Path(vapturn.__file__).resolve().parent != (src / "vapturn").resolve():
        raise BenchError(f"imported vapturn from {vapturn.__file__}, not from {src}")


def setup_times(args) -> list[float]:
    """Set-up time of fresh processes: from process start until the workload
    is ready to be timed (imports, inputs, files written, warm-up)."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
        ]
        t = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != READY or code != 0:
            raise BenchError(f"set-up probe failed with exit {code}")
        times.append(elapsed)
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from common import Tally, metadata, peak_rss_mb
    from layers import PER_LAYER, instrument, per_layer_metrics
    from spans import Tracer

    wl = importlib.import_module(args.workload)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        if args.setup_only:
            wl.setup(args.seed, work, args.seconds)
            print(READY, flush=True)
            return 0
        probes = setup_times(args) if not args.trace else []
        tally = Tally()
        report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
        t = time.perf_counter()
        if args.trace:
            tracer = Tracer()
            instrument(tracer)
            state = wl.setup(args.seed, work, args.seconds)
            tracer.restore()
            report["setup_s_traced"] = time.perf_counter() - t
            untraced = wl.run(state, args.seconds / 2, tally)
            instrument(tracer)
            measured = wl.run(state, args.seconds / 2, tally, tracer)
            tracer.restore()
            wl.check(state, untraced, tally)
        else:
            state = wl.setup(args.seed, work, args.seconds)
            report["setup_s_this_process"] = time.perf_counter() - t
            measured = wl.run(state, args.seconds, tally)
        wl.check(state, measured, tally)
        if not tally.attempted:
            tally.add(1, ["no unit of work completed"])
        primary, secondary, details = wl.summarize(measured)
        report.update(details)
        report["iterations"] = measured.iterations
        if args.trace:
            base_primary, base_secondary, _ = wl.summarize(untraced)
            report["trace_overhead"] = {
                "primary_ms": {"untraced": base_primary, "traced": primary, "diff": primary - base_primary},
                "secondary_ms": {"untraced": base_secondary, "traced": secondary, "diff": secondary - base_secondary},
            }
            values = per_layer_metrics(tracer, measured.iterations)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
            out = ROOT / ".perfbench-traces"
            out.mkdir(exist_ok=True)
            stem = f"{args.workload}-seed{args.seed}"
            tracer.write_jsonl(out / f"{stem}.spans.jsonl")
            report["spans"] = {"count": len(tracer.spans), "file": f".perfbench-traces/{stem}.spans.jsonl"}
        else:
            report["setup_samples_s"] = probes
            metrics = {
                "setup_s": {"value": median(probes), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
                "primary_ms": {"value": primary, "unit": "ms"},
                "secondary_ms": {"value": secondary, "unit": "ms"},
            }
        report["failed_ratio"] = {
            "value": tally.failed / tally.attempted,
            "unit": "failed/attempted",
            "samples": tally.attempted,
        }
        report["failures"] = tally.reasons
        report["metadata"] = metadata(ROOT, args.seed)
        if args.trace:
            (out / f"{stem}.report.json").write_text(json.dumps({**report, "metrics": metrics}, indent=1))
        print(json.dumps({"report": report}))
        print(
            json.dumps(
                {
                    "correct": not tally.wrong,
                    "attempted": tally.attempted,
                    "failed": tally.failed,
                    "metrics": metrics,
                }
            )
        )
        return 0 if not tally.wrong else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
