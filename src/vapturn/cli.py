"""Operator command line: synth-data, train, eval, simulate, stream.

Every command is deterministic for a fixed config and seed; commands that
write to an output directory also write their resolved configuration there as
config.json. Exit codes: 0 success, 2 configuration/usage error, 1 runtime
failure.

Each command declares its options once, in one table: a key, its default and
its type. The key is both the config-file key and, with dashes for
underscores, the command-line flag; flags override config-file keys, which
override defaults.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .audio import SAMPLE_RATE, AudioError, load_wav
from .endpointing import SttSimConfig, VapEndpointerConfig
from .model import ModelConfig
from .noise import DatasetSplitError, NoiseBank, synthetic_noise_bank, write_conditions_jsonl
from .simulate import (
    POLICIES,
    DialogueScript,
    compare_robot_response,
    generate_scripted_dialogue,
    run_session,
    session_scripts,
    summarize,
)
from .stats import SampleDist
from .streaming import TICK_PERIOD_S, run_stream
from .training import (
    AugmentConfig,
    CheckpointError,
    check_schedule,
    eval_per_snr,
    fit,
    load_checkpoint,
    save_checkpoint,
    write_history_csv,
)
from .datasets import load_dataset, write_dataset

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class CliConfigError(ValueError):
    pass


class Opt(NamedTuple):
    """One option of a command. A bool option is a store_true flag; an
    append option collects a list of kind from a repeatable flag (a config
    file may give one value or a list)."""

    default: object = None
    kind: type = str
    choices: tuple = ()
    append: bool = False
    required: bool = False


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _typed(key: str, opt: Opt, value):
    """A config-file value checked against its option: exactly the option's
    kind (an int is accepted for a float, but not NaN or inf), None only
    where the default is."""
    if value is None and opt.default is None:
        return None
    if opt.append:
        values = value if isinstance(value, list) else [value]
        return [_typed(key, opt._replace(append=False), v) for v in values]
    if opt.kind is float and type(value) is int:
        value = float(value)
    if type(value) is not opt.kind:
        raise CliConfigError(f"config key {key!r} must be {opt.kind.__name__}, got {value!r}")
    if opt.kind is float and not math.isfinite(value):
        raise CliConfigError(f"config key {key!r} must be finite, got {value!r}")
    if opt.choices and value not in opt.choices:
        raise CliConfigError(f"config key {key!r} must be one of {opt.choices}, got {value!r}")
    return value


def _config(build, *args, **kwargs):
    """Build a config object from resolved settings. The ValueError it raises
    for a bad value, or the TypeError for an unknown key in a config-file
    block, is a configuration error."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise CliConfigError(str(exc)) from exc


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


def _resolve(args, file_cfg: dict, options: dict) -> dict:
    """Flag > config file > default, per key. A config-file value is checked
    even where a flag overrides it. A config-file key that no command
    declares is an error; one another command declares is left to it, so
    that one file can configure several commands."""
    declared = {key for _, table, _ in COMMANDS.values() for key in table} | {"script"}
    if unknown := sorted(file_cfg.keys() - declared):
        raise CliConfigError(f"config file has keys no command declares: {unknown}")
    out = {}
    for key, opt in options.items():
        out[key] = _typed(key, opt, file_cfg[key]) if key in file_cfg else opt.default
        if (flag := getattr(args, key)) is not None:
            if opt.kind is float and not math.isfinite(flag):
                raise CliConfigError(f"{_flag(key)} must be finite, got {flag}")
            out[key] = flag
        if opt.required and not out[key]:
            raise CliConfigError(f"{args.command} requires {_flag(key)}")
    return out


def _typed_like(key: str, default, value):
    """A config-file value checked against a default of the same JSON shape:
    an object key by key, over the default's keys, so a key it leaves out
    keeps its default; a list item by item against its first item; any other
    value like a top-level key against the type of the default."""
    if isinstance(default, dict):
        block = _typed(key, Opt({}, dict), value)
        if unknown := sorted(block.keys() - default.keys()):
            raise CliConfigError(f"config key {key!r} has unknown keys {unknown}")
        return {**default, **{k: _typed_like(f"{key}.{k}", default[k], v) for k, v in block.items()}}
    if isinstance(default, list):
        items = _typed(key, Opt([], list), value)
        return [_typed_like(f"{key}[{i}]", default[0], v) for i, v in enumerate(items)]
    return _typed(key, Opt(default, type(default)), value)


def _script_from(resolved: dict, file_cfg: dict) -> DialogueScript:
    """Defaults, then the config file's script block, then --turns."""
    script = DialogueScript()
    if "script" in file_cfg:
        block = _typed_like("script", script.to_json_dict(), file_cfg["script"])
        if "seed" in file_cfg["script"]:
            raise CliConfigError(
                "config key 'script.seed' is not a setting: each dialogue's seed derives from --seed"
            )
        script = _config(DialogueScript.from_json_dict, block)
    if resolved["turns"] is not None:
        script = _config(replace, script, n_turns=resolved["turns"])
    return script


def _parse_snr_tokens(text: str) -> tuple:
    """'clean' (inf) or a finite dB value per comma-separated token, each at
    most once."""
    out = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token == "clean":
            out.append(math.inf)
            continue
        try:
            snr = float(token)
        except ValueError:
            snr = math.nan
        if not math.isfinite(snr):
            raise CliConfigError(f"SNR list {text!r}: {token!r} is not a finite number or 'clean'")
        out.append(snr)
    if not out:
        raise CliConfigError("empty SNR list")
    if len(set(out)) < len(out):
        raise CliConfigError(f"SNR list {text!r} repeats a value")
    return tuple(out)


def _noise_bank(resolved: dict) -> NoiseBank:
    """The --noise-dir clips, or the synthetic bank of --noise-seed. A
    directory that gives no usable bank is a configuration error."""
    if not resolved["noise_dir"]:
        return synthetic_noise_bank(seed=resolved["noise_seed"])
    try:
        return NoiseBank.from_dir(resolved["noise_dir"])
    except AudioError as exc:
        raise CliConfigError(f"--noise-dir: {exc}") from exc


_MODEL = ModelConfig()
MODEL_OPTIONS = {
    key: Opt(getattr(_MODEL, key), int)
    for key in ("model_dim", "channel_layers", "cross_layers", "heads")
}
NOISE_OPTIONS = {"noise_dir": Opt(), "noise_seed": Opt(0, int)}


def _model_config(resolved: dict) -> ModelConfig:
    return _config(ModelConfig, **{key: resolved[key] for key in MODEL_OPTIONS})


# ---------------------------------------------------------------------------
# commands

SYNTH_OPTIONS = {
    "out": Opt(required=True),
    "n": Opt(60, int),
    "seed": Opt(0, int),
    "turns": Opt(None, int),
}


def cmd_synth_data(resolved: dict, file_cfg: dict) -> int:
    script = _script_from(resolved, file_cfg)
    out = Path(resolved["out"])
    manifest = write_dataset(out, resolved["n"], script, resolved["seed"])
    _dump_json(
        {**resolved, "turns": script.n_turns, "script": script.to_json_dict()},
        out / "config.json",
    )
    sizes = {k: len(v) for k, v in manifest["splits"].items()}
    print(f"wrote {resolved['n']} dialogues to {out} (splits {sizes})")
    return EXIT_OK


_AUGMENT = AugmentConfig()
TRAIN_OPTIONS = {
    "data": Opt(required=True),
    "out": Opt(required=True),
    "mode": Opt("mc", choices=("clean", "mc")),
    "epochs": Opt(50, int),
    "lr": Opt(0.3, float),
    "lr_decay": Opt(0.0, float),
    "batch_size": Opt(32, int),
    "window_stride": Opt(25, int),
    "seed": Opt(0, int),
    "train_snrs": Opt("clean,5,10,15,20"),
    "zero_robot_prob": Opt(_AUGMENT.zero_robot_prob, float),
    **NOISE_OPTIONS,
    **MODEL_OPTIONS,
    "quiet": Opt(False, bool),
}


def cmd_train(resolved: dict, file_cfg: dict) -> int:
    cfg = _model_config(resolved)
    augment = _config(
        AugmentConfig,
        snr_set=_parse_snr_tokens(resolved["train_snrs"]),
        zero_robot_prob=resolved["zero_robot_prob"],
    )
    schedule = {key: resolved[key] for key in ("epochs", "lr", "lr_decay", "batch_size", "window_stride")}
    _config(check_schedule, **schedule)
    # lazy splits: fit reads each dialogue once and keeps only what it uses
    splits = load_dataset(resolved["data"], ["train", "valid"])
    bank = _noise_bank(resolved) if resolved["mode"] == "mc" else None
    log = None if resolved["quiet"] else (lambda msg: print(msg, flush=True))
    params, history = fit(
        splits["train"],
        splits["valid"],
        cfg,
        **schedule,
        augment=augment,
        bank=bank,
        seed=resolved["seed"],
        log=log,
    )
    # made only now, so that an unreadable item leaves no output directory
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "checkpoint.npz", params, cfg)
    write_history_csv(out / "history.csv", history)
    # fit draws noise conditions only from a bank
    unread = dict.fromkeys(["train_snrs", *NOISE_OPTIONS]) if bank is None else {}
    _dump_json({**resolved, **unread}, out / "config.json")
    print(
        f"trained {resolved['mode']} model: valid_vap "
        f"{history[0]['valid_vap']:.3f} -> {history[-1]['valid_vap']:.3f} "
        f"({out / 'checkpoint.npz'})"
    )
    return EXIT_OK


EVAL_OPTIONS = {
    "data": Opt(required=True),
    "out": Opt(required=True),
    "checkpoint": Opt(append=True, required=True),
    "snrs": Opt("clean,20,15,10,5"),
    "seed": Opt(0, int),
    **NOISE_OPTIONS,
    "split": Opt("test", choices=("train", "valid", "test")),
}


def cmd_eval(resolved: dict, file_cfg: dict) -> int:
    paths = resolved["checkpoint"]
    # a checkpoint's column is named after its file and its directory
    names = [Path(path).stem + "_" + Path(path).parent.name for path in paths]
    if len(set(names)) < len(names):
        raise CliConfigError(f"checkpoints {paths} give clashing eval.csv columns {names}")
    snr_list = _parse_snr_tokens(resolved["snrs"])
    models = [load_checkpoint(path) for path in paths]
    items = load_dataset(resolved["data"], [resolved["split"]])[resolved["split"]]
    bank = None if all(math.isinf(snr) for snr in snr_list) else _noise_bank(resolved)
    tables, provenance = eval_per_snr(models, items, bank, snr_list=snr_list, seed=resolved["seed"])
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "eval.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snr_db"] + names)
        for snr in snr_list:
            label = "clean" if math.isinf(snr) else f"{snr:g}"
            writer.writerow([label] + [f"{table[snr]:.6f}" for table in tables])
    write_conditions_jsonl(provenance, out / "conditions.jsonl")
    unread = dict.fromkeys(NOISE_OPTIONS) if bank is None else {}
    _dump_json({**resolved, **unread}, out / "config.json")
    print(f"wrote {out / 'eval.csv'} ({len(snr_list)} SNR rows x {len(names)} models)")
    return EXIT_OK


VAP_OPTIONS = {key: Opt(value, type(value)) for key, value in asdict(VapEndpointerConfig()).items()}
_STT = SttSimConfig()
SIM_OPTIONS = {
    "out": Opt(required=True),
    "checkpoint": Opt(),
    "policies": Opt("stt,hybrid,vap"),
    "n_dialogues": Opt(40, int),
    "turns": Opt(None, int),
    "seed": Opt(7, int),
    **VAP_OPTIONS,
    "stt_silence_ms": Opt(_STT.silence_threshold_ms, float),
    "latency_family": Opt(_STT.latency.family),
    "latency_mean": Opt(_STT.latency.mean_s, float),
    "latency_std": Opt(_STT.latency.std_s, float),
    "response_delay": Opt(0.3, float),
}


def cmd_simulate(resolved: dict, file_cfg: dict) -> int:
    policies = [p.strip() for p in resolved["policies"].split(",") if p.strip()]
    if not policies or len(set(policies)) < len(policies) or not set(policies) <= set(POLICIES):
        raise CliConfigError(
            f"--policies must name policies of {POLICIES}, each once, got {resolved['policies']!r}"
        )
    if resolved["n_dialogues"] < 1:
        raise CliConfigError(f"--n-dialogues must be >= 1, got {resolved['n_dialogues']}")
    if resolved["response_delay"] < 0:
        raise CliConfigError(f"--response-delay must be >= 0, got {resolved['response_delay']}")
    vap_cfg = _config(VapEndpointerConfig, **{key: resolved[key] for key in VAP_OPTIONS})
    latency = _config(
        SampleDist,
        family=resolved["latency_family"],
        mean_s=resolved["latency_mean"],
        std_s=resolved["latency_std"],
    )
    stt_cfg = _config(SttSimConfig, silence_threshold_ms=resolved["stt_silence_ms"], latency=latency)
    script = _script_from(resolved, file_cfg)
    if script.n_turns < 1:
        raise CliConfigError("simulate needs dialogues of at least one turn")
    params = cfg = None
    checkpoint = resolved["checkpoint"]
    if policies != ["stt"]:
        if not checkpoint:
            raise CliConfigError("policies using the local detector require --checkpoint")
        params, cfg = load_checkpoint(checkpoint)
    elif checkpoint:
        # neither loaded nor checked, so config.json does not claim it
        print(f"checkpoint {checkpoint} not used: policy stt needs no model", file=sys.stderr)
        checkpoint = None
    seed = resolved["seed"]
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)

    all_records = {policy: [] for policy in policies}
    # one dialogue's audio at a time: each script carries its own seed
    for i, dialogue_script in enumerate(session_scripts(resolved["n_dialogues"], script, seed)):
        session = run_session(
            generate_scripted_dialogue(dialogue_script),
            params=params,
            model_cfg=cfg,
            vap_cfg=vap_cfg,
            stt_cfg=stt_cfg,
            response_delay_s=resolved["response_delay"],
            seed=int(np.random.SeedSequence(entropy=seed, spawn_key=(500 + i,)).generate_state(1)[0]),
        )
        for policy in policies:
            all_records[policy].extend((i, rec) for rec in session[policy])

    stats_blocks = {}
    for policy in policies:
        records = all_records[policy]
        # written even when empty: a policy that decided no turn was still run
        with open(out / f"records_{policy}.jsonl", "w") as fh:
            for i, rec in records:
                fh.write(json.dumps({"dialogue": i, **rec.to_json_dict()}, sort_keys=True) + "\n")
        if not records:
            print(f"policy {policy}: no records", file=sys.stderr)
            continue
        stats = summarize([rec for _, rec in records])
        stats_blocks[policy] = stats.to_json_dict()
        with open(out / f"hist_{policy}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_start_s", "count"])
            writer.writerows(stats.histogram)
    comparisons = {}
    for a, b in itertools.combinations(sorted(stats_blocks), 2):
        result = compare_robot_response(
            [r for _, r in all_records[a]], [r for _, r in all_records[b]]
        )
        comparisons[f"{a}_vs_{b}"] = {
            "u_statistic": result.u_statistic,
            "p_value": result.p_value,
        }
    _dump_json({"policies": stats_blocks, "comparisons": comparisons}, out / "stats.json")
    # the detector's settings are checked but unread when no model is loaded
    unread = dict.fromkeys(VAP_OPTIONS) if params is None else {}
    _dump_json(
        {
            **resolved,
            **unread,
            "checkpoint": checkpoint,
            "policies": policies,
            "script": script.to_json_dict(),
        },
        out / "config.json",
    )
    for policy, block in stats_blocks.items():
        print(
            f"{policy}: mean robot response {block['robot_response']['mean']:.3f} s "
            f"over {block['n_turns']} turns"
            + (
                f", vap fraction {block['vap_source_fraction']:.2f}"
                if policy != "stt"
                else ""
            )
        )
    return EXIT_OK


STREAM_OPTIONS = {
    "checkpoint": Opt(required=True),
    "wav": Opt(required=True),
    "robot_wav": Opt(),
    "out": Opt("-"),
    "chunk_ms": Opt(100.0, float),
}


def cmd_stream(resolved: dict, file_cfg: dict) -> int:
    chunk = int(SAMPLE_RATE / 1000 * resolved["chunk_ms"])
    if chunk < 1:
        raise CliConfigError(
            f"--chunk-ms must cover one sample ({1000 / SAMPLE_RATE} ms), "
            f"got {resolved['chunk_ms']}"
        )
    params, cfg = load_checkpoint(resolved["checkpoint"])
    wav_a = load_wav(resolved["wav"])
    wav_b = load_wav(resolved["robot_wav"]) if resolved["robot_wav"] else None
    if wav_b is not None and len(wav_b) != len(wav_a):
        raise CliConfigError(f"--robot-wav has {len(wav_b)} samples, --wav has {len(wav_a)}")
    results = run_stream(params, cfg, wav_a, wav_b, chunk_samples=chunk)
    sink = sys.stdout if resolved["out"] == "-" else open(resolved["out"], "w")
    try:
        sink.writelines(result.to_json_line() + "\n" for result in results)
    finally:
        if sink is not sys.stdout:
            sink.close()
    hop_ms = 1000 * TICK_PERIOD_S
    compute_ms = np.array([result.compute_ms for result in results] or [0.0])  # 0 with no tick
    summary = {
        "frames": len(results),
        "mean_compute_ms": float(compute_ms.mean()),
        "p95_compute_ms": float(np.percentile(compute_ms, 95)),
        "max_compute_ms": float(compute_ms.max()),
        "ticks_over_hop": int(np.count_nonzero(compute_ms > hop_ms)),
        "rtf": float(compute_ms.mean()) / hop_ms,
    }
    print(
        "streamed {frames} frames, compute mean {mean_compute_ms:.2f} / p95 {p95_compute_ms:.2f} / "
        "max {max_compute_ms:.2f} ms/tick, {ticks_over_hop} ticks over the {hop_ms:.0f} ms hop, "
        "real-time factor {rtf:.3f}".format(**summary, hop_ms=hop_ms),
        file=sys.stderr,
    )
    if resolved["out"] != "-":
        _dump_json({**resolved, **summary}, str(resolved["out"]) + ".config.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

COMMANDS = {
    "synth-data": (cmd_synth_data, SYNTH_OPTIONS, "generate a synthetic dialogue corpus with 8:1:1 split"),
    "train": (cmd_train, TRAIN_OPTIONS, "train a projection model (clean or multi-condition)"),
    "eval": (cmd_eval, EVAL_OPTIONS, "projection-task loss per SNR level, one column per checkpoint"),
    "simulate": (cmd_simulate, SIM_OPTIONS, "simulated sessions measuring response-time per policy"),
    "stream": (cmd_stream, STREAM_OPTIONS, "replay a WAV through the engine, one JSON line per tick"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vapturn",
        description="Noise-robust turn-taking engine: data synthesis, training, "
        "evaluation, latency simulation, and streaming inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, options, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.set_defaults(func=func, options=options)
        for key, opt in options.items():
            if opt.kind is bool:
                p.add_argument(_flag(key), dest=key, action="store_true", default=None)
            else:
                p.add_argument(
                    _flag(key),
                    dest=key,
                    type=opt.kind,
                    choices=opt.choices or None,
                    action="append" if opt.append else "store",
                )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_cfg = _load_config_file(args.config)
        return args.func(_resolve(args, file_cfg, args.options), file_cfg)
    except (CliConfigError, CheckpointError, DatasetSplitError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
