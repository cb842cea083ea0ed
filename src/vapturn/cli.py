"""Operator command line: synth-data, train, eval, simulate, stream, bench.

Every command is deterministic for a fixed config and seed; commands that
write to an output directory also write their resolved configuration there as
config.json. Exit codes: 0 success, 2 configuration/usage error, 1 runtime
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .audio import load_wav
from .endpointing import SttSimConfig, VapEndpointerConfig
from .model import ModelConfig, init_params
from .noise import NoiseBank, synthetic_noise_bank
from .simulate import (
    POLICY_HYBRID,
    POLICY_STT,
    POLICY_VAP,
    DialogueScript,
    SOURCE_VAP,
    compare_robot_response,
    generate_scripted_dialogue,
    run_session,
    session_scripts,
    summarize,
)
from .stats import SampleDist
from .streaming import StreamContext, run_stream
from .training import (
    AugmentConfig,
    CheckpointError,
    eval_per_snr,
    fit,
    load_checkpoint,
    save_checkpoint,
    write_history_csv,
)
from .datasets import load_dataset, write_dataset
from .noise import write_conditions_jsonl

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class CliConfigError(ValueError):
    pass


def _dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise CliConfigError(f"config file not found: {p}")
    try:
        with open(p) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliConfigError(f"config file {p} must hold a JSON object")
    return cfg


def _resolve(args, file_cfg: dict, defaults: dict) -> dict:
    """Flag > config file > default, per key."""
    out = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
        elif key in file_cfg:
            out[key] = file_cfg[key]
        else:
            out[key] = default
    return out


def _script_from(resolved: dict, file_cfg: dict) -> DialogueScript:
    script = DialogueScript()
    if "script" in file_cfg:
        script = DialogueScript.from_json_dict({**script.to_json_dict(), **file_cfg["script"]})
    if resolved.get("turns") is not None:
        script = replace(script, n_turns=int(resolved["turns"]))
    return script


def _parse_snr_tokens(text: str) -> tuple:
    out = []
    for token in str(text).split(","):
        token = token.strip().lower()
        if not token:
            continue
        out.append(math.inf if token == "clean" else float(token))
    if not out:
        raise CliConfigError("empty SNR list")
    return tuple(out)


def _noise_bank(resolved: dict) -> NoiseBank:
    if resolved.get("noise_dir"):
        return NoiseBank.from_dir(resolved["noise_dir"])
    return synthetic_noise_bank(seed=int(resolved.get("noise_seed", 0)))


def _model_config(resolved: dict) -> ModelConfig:
    try:
        return ModelConfig(
            feature_bands=int(resolved["feature_bands"]),
            model_dim=int(resolved["model_dim"]),
            channel_layers=int(resolved["channel_layers"]),
            cross_layers=int(resolved["cross_layers"]),
            heads=int(resolved["heads"]),
            seed=int(resolved["seed"]),
        )
    except ValueError as exc:
        raise CliConfigError(f"model config: {exc}") from exc


# ---------------------------------------------------------------------------
# commands

SYNTH_DEFAULTS = {"out": None, "n": 60, "seed": 0, "turns": None}


def cmd_synth_data(args) -> int:
    file_cfg = _load_config_file(args.config)
    resolved = _resolve(args, file_cfg, SYNTH_DEFAULTS)
    if not resolved["out"]:
        raise CliConfigError("synth-data requires --out")
    script = _script_from(resolved, file_cfg)
    out = Path(resolved["out"])
    manifest = write_dataset(out, int(resolved["n"]), script, int(resolved["seed"]))
    _dump_json(
        {**resolved, "turns": script.n_turns, "script": script.to_json_dict()},
        out / "config.json",
    )
    sizes = {k: len(v) for k, v in manifest["splits"].items()}
    print(f"wrote {resolved['n']} dialogues to {out} (splits {sizes})")
    return EXIT_OK


TRAIN_DEFAULTS = {
    "data": None,
    "out": None,
    "mode": "mc",
    "epochs": 50,
    "lr": 0.3,
    "lr_decay": 0.0,
    "batch_size": 32,
    "window_stride": 25,
    "seed": 0,
    "train_snrs": "clean,5,10,15,20",
    "zero_robot_prob": 0.5,
    "noise_dir": None,
    "noise_seed": 0,
    "feature_bands": 40,
    "model_dim": 32,
    "channel_layers": 1,
    "cross_layers": 1,
    "heads": 2,
    "quiet": False,
}


def cmd_train(args) -> int:
    file_cfg = _load_config_file(args.config)
    resolved = _resolve(args, file_cfg, TRAIN_DEFAULTS)
    for key in ("data", "out"):
        if not resolved[key]:
            raise CliConfigError(f"train requires --{key}")
    if resolved["mode"] not in ("clean", "mc"):
        raise CliConfigError(f"--mode must be clean or mc, got {resolved['mode']}")
    data = load_dataset(resolved["data"])
    cfg = _model_config(resolved)
    augment = AugmentConfig(
        mode=resolved["mode"],
        snr_set=_parse_snr_tokens(resolved["train_snrs"]),
        zero_robot_prob=float(resolved["zero_robot_prob"]),
    )
    bank = _noise_bank(resolved) if resolved["mode"] == "mc" else None
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    log = None if resolved["quiet"] else (lambda msg: print(msg, flush=True))
    params, history = fit(
        data["train"],
        data["valid"],
        cfg,
        epochs=int(resolved["epochs"]),
        lr=float(resolved["lr"]),
        lr_decay=float(resolved["lr_decay"]),
        batch_size=int(resolved["batch_size"]),
        window_stride=int(resolved["window_stride"]),
        augment=augment,
        bank=bank,
        seed=int(resolved["seed"]),
        log=log,
    )
    save_checkpoint(out / "checkpoint.npz", params, cfg)
    write_history_csv(out / "history.csv", history)
    _dump_json(resolved, out / "config.json")
    print(
        f"trained {resolved['mode']} model: valid_vap "
        f"{history[0]['valid_vap']:.3f} -> {history[-1]['valid_vap']:.3f} "
        f"({out / 'checkpoint.npz'})"
    )
    return EXIT_OK


EVAL_DEFAULTS = {
    "data": None,
    "out": None,
    "checkpoint": None,
    "snrs": "clean,20,15,10,5",
    "seed": 0,
    "noise_dir": None,
    "noise_seed": 0,
    "split": "test",
}


def cmd_eval(args) -> int:
    file_cfg = _load_config_file(args.config)
    resolved = _resolve(args, file_cfg, EVAL_DEFAULTS)
    for key in ("data", "out", "checkpoint"):
        if not resolved[key]:
            raise CliConfigError(f"eval requires --{key}")
    ckpt_paths = (
        resolved["checkpoint"]
        if isinstance(resolved["checkpoint"], list)
        else [resolved["checkpoint"]]
    )
    data = load_dataset(resolved["data"])
    items = data[resolved["split"]]
    snr_list = _parse_snr_tokens(resolved["snrs"])
    bank = _noise_bank(resolved)
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    columns = {}
    provenance = None
    for path in ckpt_paths:
        params, cfg = load_checkpoint(path)
        table, prov = eval_per_snr(
            params, items, cfg, bank, snr_list=snr_list, seed=int(resolved["seed"])
        )
        columns[Path(path).stem + "_" + Path(path).parent.name] = table
        provenance = prov
    names = list(columns.keys())
    with open(out / "eval.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snr_db"] + names)
        for snr in snr_list:
            label = "clean" if math.isinf(snr) else f"{snr:g}"
            writer.writerow([label] + [f"{columns[n][snr]:.6f}" for n in names])
    write_conditions_jsonl(provenance, out / "conditions.jsonl")
    _dump_json({**resolved, "checkpoint": ckpt_paths}, out / "config.json")
    print(f"wrote {out / 'eval.csv'} ({len(snr_list)} SNR rows x {len(names)} models)")
    return EXIT_OK


SIM_DEFAULTS = {
    "out": None,
    "checkpoint": None,
    "policies": "stt,hybrid,vap",
    "n_dialogues": 40,
    "turns": None,
    "seed": 7,
    "theta": 0.6,
    "consecutive_k": 3,
    "min_user_speech_ms": 300.0,
    "stt_silence_ms": 800.0,
    "latency_family": "lognormal",
    "latency_mean": 0.6,
    "latency_std": 0.3,
    "response_delay": 0.3,
}


def cmd_simulate(args) -> int:
    file_cfg = _load_config_file(args.config)
    resolved = _resolve(args, file_cfg, SIM_DEFAULTS)
    if not resolved["out"]:
        raise CliConfigError("simulate requires --out")
    policies = [p.strip() for p in str(resolved["policies"]).split(",") if p.strip()]
    for p in policies:
        if p not in (POLICY_STT, POLICY_HYBRID, POLICY_VAP):
            raise CliConfigError(f"unknown policy {p!r}")
    needs_model = any(p != POLICY_STT for p in policies)
    params = cfg = None
    if needs_model:
        if not resolved["checkpoint"]:
            raise CliConfigError("policies using the local detector require --checkpoint")
        params, cfg = load_checkpoint(resolved["checkpoint"])
    vap_cfg = VapEndpointerConfig(
        theta=float(resolved["theta"]),
        consecutive_k=int(resolved["consecutive_k"]),
        min_user_speech_ms=float(resolved["min_user_speech_ms"]),
    )
    stt_cfg = SttSimConfig(
        silence_threshold_ms=float(resolved["stt_silence_ms"]),
        latency=SampleDist(
            family=resolved["latency_family"],
            mean_s=float(resolved["latency_mean"]),
            std_s=float(resolved["latency_std"]),
        ),
    )
    script = _script_from(resolved, file_cfg)
    seed = int(resolved["seed"])
    scripts = session_scripts(int(resolved["n_dialogues"]), script, seed)
    dialogues = [generate_scripted_dialogue(s) for s in scripts]
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)

    run_policies = [p for p in policies if p != POLICY_VAP]
    if POLICY_VAP in policies and POLICY_HYBRID not in run_policies:
        run_policies.append(POLICY_HYBRID)
    all_records = {}
    for policy in run_policies:
        records = []
        for i, dialogue in enumerate(dialogues):
            records.extend(
                (i, rec)
                for rec in run_session(
                    dialogue,
                    policy,
                    params=params,
                    model_cfg=cfg,
                    vap_cfg=vap_cfg,
                    stt_cfg=stt_cfg,
                    response_delay_s=float(resolved["response_delay"]),
                    seed=int(
                        np.random.SeedSequence(entropy=seed, spawn_key=(500 + i,)).generate_state(1)[0]
                    ),
                )
            )
        all_records[policy] = records
    if POLICY_VAP in policies:
        all_records[POLICY_VAP] = [
            (i, r) for i, r in all_records[POLICY_HYBRID] if r.source == SOURCE_VAP
        ]

    stats_blocks = {}
    for policy in policies:
        records = all_records[policy]
        if not records:
            print(f"policy {policy}: no records", file=sys.stderr)
            continue
        with open(out / f"records_{policy}.jsonl", "w") as fh:
            for i, rec in records:
                fh.write(json.dumps({"dialogue": i, **rec.to_json_dict()}, sort_keys=True) + "\n")
        stats = summarize([rec for _, rec in records])
        stats_blocks[policy] = stats.to_json_dict()
        with open(out / f"hist_{policy}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_start_s", "count"])
            writer.writerows(stats.histogram)
    comparisons = {}
    done = set()
    for a in policies:
        for b in policies:
            if a >= b or (a, b) in done or a not in stats_blocks or b not in stats_blocks:
                continue
            done.add((a, b))
            result = compare_robot_response(
                [r for _, r in all_records[a]], [r for _, r in all_records[b]]
            )
            comparisons[f"{a}_vs_{b}"] = {
                "u_statistic": result.u_statistic,
                "p_value": result.p_value,
            }
    _dump_json({"policies": stats_blocks, "comparisons": comparisons}, out / "stats.json")
    _dump_json(
        {**resolved, "policies": policies, "script": script.to_json_dict()},
        out / "config.json",
    )
    for policy, block in stats_blocks.items():
        print(
            f"{policy}: mean robot response {block['robot_response']['mean']:.3f} s "
            f"over {block['n_turns']} turns"
            + (
                f", vap fraction {block['vap_source_fraction']:.2f}"
                if policy != POLICY_STT
                else ""
            )
        )
    return EXIT_OK


STREAM_DEFAULTS = {
    "checkpoint": None,
    "wav": None,
    "robot_wav": None,
    "out": "-",
    "chunk_ms": 100.0,
    "realtime": False,
}


def cmd_stream(args) -> int:
    file_cfg = _load_config_file(args.config)
    resolved = _resolve(args, file_cfg, STREAM_DEFAULTS)
    for key in ("checkpoint", "wav"):
        if not resolved[key]:
            raise CliConfigError(f"stream requires --{key}")
    params, cfg = load_checkpoint(resolved["checkpoint"])
    wav_a = load_wav(resolved["wav"])
    wav_b = load_wav(resolved["robot_wav"]) if resolved["robot_wav"] else None
    chunk = max(1, int(float(resolved["chunk_ms"]) * 16))
    ctx = StreamContext(params, cfg)
    sink = sys.stdout if resolved["out"] == "-" else open(resolved["out"], "w")
    compute = []
    try:
        a = wav_a.samples
        b = wav_b.samples if wav_b is not None else None
        for start in range(0, a.size, chunk):
            stop = start + chunk
            ctx.push_audio(a[start:stop], None if b is None else b[start:stop])
            for result in ctx.tick_all():
                sink.write(result.to_json_line() + "\n")
                compute.append(result.compute_ms)
                if resolved["realtime"]:
                    time.sleep(max(0.0, 0.1 - result.compute_ms / 1000.0))
    finally:
        if sink is not sys.stdout:
            sink.close()
    mean_ms = float(np.mean(compute)) if compute else 0.0
    rtf = mean_ms / 100.0
    print(
        f"streamed {len(compute)} frames, mean compute {mean_ms:.2f} ms/tick, "
        f"real-time factor {rtf:.3f}",
        file=sys.stderr,
    )
    if resolved["out"] != "-":
        _dump_json(
            {**resolved, "frames": len(compute), "mean_compute_ms": mean_ms, "rtf": rtf},
            str(resolved["out"]) + ".config.json",
        )
    return EXIT_OK


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _machine_info() -> dict:
    """What a timing depends on besides the code: usable cores, the BLAS numpy
    was built with, and the BLAS thread variables that are set."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 prints its config instead
        blas = {}
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
    }


BENCH_DEFAULTS = {"checkpoint": None, "seconds": 20.0, "seed": 0, "budget_ms": None}


def cmd_bench(args) -> int:
    file_cfg = _load_config_file(args.config)
    resolved = _resolve(args, file_cfg, BENCH_DEFAULTS)
    if resolved["checkpoint"]:
        params, cfg = load_checkpoint(resolved["checkpoint"])
    else:
        cfg = ModelConfig()
        params = init_params(cfg, seed=int(resolved["seed"]))
    rng = np.random.default_rng(int(resolved["seed"]))
    audio = 0.3 * rng.standard_normal(int(float(resolved["seconds"]) * 16000))
    results = run_stream(params, cfg, np.clip(audio, -1, 1))
    ms = np.array([r.compute_ms for r in results])
    report = {
        "ticks": len(results),
        "mean_ms": float(ms.mean()),
        "p95_ms": float(np.percentile(ms, 95)),
        "max_ms": float(ms.max()),
        "rtf_mean": float(ms.mean() / 100.0),
        **_machine_info(),
    }
    print(json.dumps(report, sort_keys=True))
    budget = resolved["budget_ms"]
    if budget is not None and report["mean_ms"] > float(budget):
        print(f"mean tick {report['mean_ms']:.2f} ms exceeds budget {budget} ms", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vapturn",
        description="Noise-robust turn-taking engine: data synthesis, training, "
        "evaluation, latency simulation, and streaming inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.set_defaults(func=func)
        return p

    p = add("synth-data", cmd_synth_data, "generate a synthetic dialogue corpus with 8:1:1 split")
    p.add_argument("--out")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--turns", type=int)

    p = add("train", cmd_train, "train a projection model (clean or multi-condition)")
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--mode", choices=["clean", "mc"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lr-decay", dest="lr_decay", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--window-stride", dest="window_stride", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--train-snrs", dest="train_snrs")
    p.add_argument("--zero-robot-prob", dest="zero_robot_prob", type=float)
    p.add_argument("--noise-dir", dest="noise_dir")
    p.add_argument("--model-dim", dest="model_dim", type=int)
    p.add_argument("--channel-layers", dest="channel_layers", type=int)
    p.add_argument("--cross-layers", dest="cross_layers", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--quiet", action="store_true", default=None)

    p = add("eval", cmd_eval, "projection-task loss per SNR level, one column per checkpoint")
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--checkpoint", action="append")
    p.add_argument("--snrs")
    p.add_argument("--seed", type=int)
    p.add_argument("--noise-dir", dest="noise_dir")
    p.add_argument("--split", choices=["train", "valid", "test"])

    p = add("simulate", cmd_simulate, "simulated sessions measuring response-time per policy")
    p.add_argument("--out")
    p.add_argument("--checkpoint")
    p.add_argument("--policies")
    p.add_argument("--n-dialogues", dest="n_dialogues", type=int)
    p.add_argument("--turns", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--theta", type=float)
    p.add_argument("--consecutive-k", dest="consecutive_k", type=int)
    p.add_argument("--min-user-speech-ms", dest="min_user_speech_ms", type=float)
    p.add_argument("--stt-silence-ms", dest="stt_silence_ms", type=float)
    p.add_argument("--latency-family", dest="latency_family")
    p.add_argument("--latency-mean", dest="latency_mean", type=float)
    p.add_argument("--latency-std", dest="latency_std", type=float)
    p.add_argument("--response-delay", dest="response_delay", type=float)

    p = add("stream", cmd_stream, "replay a WAV through the engine, one JSON line per tick")
    p.add_argument("--checkpoint")
    p.add_argument("--wav")
    p.add_argument("--robot-wav", dest="robot_wav")
    p.add_argument("--out")
    p.add_argument("--chunk-ms", dest="chunk_ms", type=float)
    p.add_argument("--realtime", action="store_true", default=None)

    p = add("bench", cmd_bench, "measure per-tick compute on synthetic audio")
    p.add_argument("--checkpoint")
    p.add_argument("--seconds", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--budget-ms", dest="budget_ms", type=float)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliConfigError, CheckpointError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
