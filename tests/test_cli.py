import argparse
import csv
import json
import math
import shutil
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from vapturn import cli
from vapturn.cli import COMMANDS, EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, build_parser, main
from vapturn.audio import Waveform, load_wav, save_wav
from vapturn.datasets import write_dataset
from vapturn.model import ModelConfig, init_params
from vapturn.simulate import DialogueScript
from vapturn.streaming import run_stream
from vapturn.training import load_checkpoint, save_checkpoint


def read_history(path) -> list:
    with open(path, newline="") as fh:
        return [{k: int(v) if k == "epoch" else float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared workspace: small corpus plus one quick training run."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    config = root / "train_config.json"
    config.write_text(
        json.dumps(
            {
                "epochs": 2,
                "lr": 0.3,
                "script": {
                    "n_turns": 1,
                    "user_reaction_s": {"family": "normal", "mean_s": 1.0, "std_s": 0.2},
                    "tail_s": 2.2,
                },
            }
        )
    )
    assert main(["synth-data", "--out", str(data), "--n", "12", "--seed", "3",
                 "--config", str(config)]) == EXIT_OK
    assert main([
        "train", "--data", str(data), "--out", str(run), "--mode", "mc",
        "--config", str(config), "--quiet",
    ]) == EXIT_OK
    return {"root": root, "data": data, "run": run}


class TestSynthData:
    def test_manifest_split(self, workspace):
        manifest = json.loads((workspace["data"] / "manifest.json").read_text())
        sizes = {k: len(v) for k, v in manifest["splits"].items()}
        assert sizes == {"train": 10, "valid": 1, "test": 1}

    def test_config_echoed(self, workspace):
        cfg = json.loads((workspace["data"] / "config.json").read_text())
        assert cfg["n"] == 12 and cfg["seed"] == 3

    def test_deterministic_manifests(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth-data", "--out", str(out), "--n", "10", "--seed", "1"]) == EXIT_OK
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_wavs_reload(self, workspace):
        manifest = json.loads((workspace["data"] / "manifest.json").read_text())
        item = manifest["splits"]["train"][0]
        w = load_wav(workspace["data"] / f"{item}_user.wav")
        assert len(w) > 0

    def test_missing_out_is_config_error(self):
        assert main(["synth-data", "--n", "5"]) == EXIT_CONFIG

    def test_partial_script_object_keeps_the_script_defaults(self, tmp_path):
        # the keys an object leaves out come from the script's own default
        # (normal, 2.35 s), not from SampleDist's class defaults (lognormal, 0.6 s)
        cfg_path = tmp_path / "script.json"
        cfg_path.write_text(json.dumps({"script": {"user_reaction_s": {"std_s": 0.1}}}))
        out = tmp_path / "data"
        assert main(["synth-data", "--out", str(out), "--n", "10", "--turns", "1",
                     "--config", str(cfg_path)]) == EXIT_OK
        default = DialogueScript()
        expected = replace(default, n_turns=1, user_reaction_s=replace(default.user_reaction_s, std_s=0.1))
        assert json.loads((out / "config.json").read_text())["script"] == expected.to_json_dict()
        assert asdict(expected.user_reaction_s) == {"family": "normal", "mean_s": 2.35, "std_s": 0.1}

    @pytest.mark.parametrize("command", ["synth-data", "simulate"])
    def test_script_seed_exits_2_naming_the_seed_flag(self, tmp_path, capsys, command):
        # each dialogue's seed derives from --seed, so a script seed would be ignored
        cfg_path = tmp_path / "script.json"
        cfg_path.write_text(json.dumps({"script": {"seed": 12345}}))
        out = tmp_path / "out"
        extra = ["--policies", "stt"] if command == "simulate" else []
        assert main([command, "--out", str(out), "--config", str(cfg_path), *extra]) == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_outputs_exist(self, workspace):
        run = workspace["run"]
        assert (run / "checkpoint.npz").exists()
        assert (run / "history.csv").exists()
        assert (run / "config.json").exists()

    def test_history_has_six_loss_columns(self, workspace):
        with open(workspace["run"] / "history.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == [
            "epoch",
            "train_loss",
            "train_vap",
            "train_vad",
            "valid_loss",
            "valid_vap",
            "valid_vad",
        ]
        rows = read_history(workspace["run"] / "history.csv")
        assert len(rows) == 3  # epoch 0 plus two epochs

    def test_first_epoch_near_uniform_anchor(self, workspace):
        rows = read_history(workspace["run"] / "history.csv")
        assert abs(rows[0]["valid_vap"] - math.log(256)) <= 0.5

    def test_clean_and_mc_checkpoints_differ(self, workspace, tmp_path):
        clean_run = tmp_path / "clean_run"
        assert main([
            "train", "--data", str(workspace["data"]), "--out", str(clean_run),
            "--mode", "clean", "--epochs", "1", "--quiet",
        ]) == EXIT_OK
        a = np.load(workspace["run"] / "checkpoint.npz")
        b = np.load(clean_run / "checkpoint.npz")
        diff = any(
            not np.array_equal(a[k], b[k]) for k in a.files if k != "__meta__"
        )
        assert diff

    def test_clean_mode_records_no_noise_options(self, workspace, tmp_path):
        # fit draws noise conditions only from a bank, and clean mode builds none
        out = tmp_path / "clean_run"
        assert main([
            "train", "--data", str(workspace["data"]), "--out", str(out), "--mode", "clean",
            "--epochs", "1", "--noise-seed", "5", "--train-snrs", "clean,5", "--quiet",
        ]) == EXIT_OK
        keys = ("noise_dir", "noise_seed", "train_snrs")
        assert {key: json.loads((out / "config.json").read_text())[key] for key in keys} == dict.fromkeys(keys)
        mc = json.loads((workspace["run"] / "config.json").read_text())
        assert (mc["noise_seed"], mc["train_snrs"]) == (0, "clean,5,10,15,20")

    def test_missing_dataset_runtime_error(self, tmp_path):
        assert main([
            "train", "--data", str(tmp_path / "none"), "--out", str(tmp_path / "r"),
            "--epochs", "1",
        ]) == EXIT_RUNTIME

    def test_bad_mode_config_error(self, workspace, tmp_path):
        # via flag: argparse rejects the choice with usage exit code 2
        with pytest.raises(SystemExit) as exc:
            main([
                "train", "--data", str(workspace["data"]), "--out", str(tmp_path / "x"),
                "--mode", "fancy",
            ])
        assert exc.value.code == EXIT_CONFIG
        # via config file: our own validation reports the same exit code
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mode": "fancy"}))
        assert main([
            "train", "--data", str(workspace["data"]), "--out", str(tmp_path / "y"),
            "--config", str(bad),
        ]) == EXIT_CONFIG


    @pytest.mark.parametrize(
        "config, flags",
        [
            ({"model_dim": 0}, []),
            ({}, ["--model-dim", "33", "--heads", "2"]),
            ({}, ["--channel-layers", "0"]),
            ({}, ["--heads", "0"]),
        ],
    )
    def test_invalid_model_config_is_config_error(self, workspace, tmp_path, config, flags):
        cfg_path = tmp_path / "model.json"
        cfg_path.write_text(json.dumps({"epochs": 1, **config}))
        assert main([
            "train", "--data", str(workspace["data"]), "--out", str(tmp_path / "m"),
            "--config", str(cfg_path), "--quiet", *flags,
        ]) == EXIT_CONFIG
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_unreadable_item_leaves_no_output(self, workspace, tmp_path, command):
        # items are read inside fit and eval_per_snr, so --out is made after them
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        item_id = json.loads((data / "manifest.json").read_text())["splits"]["train"][-1]
        (data / f"{item_id}_robot.wav").write_text("not a wav\n")
        out = tmp_path / "out"
        argv = {
            "train": ["--epochs", "1", "--quiet"],
            "eval": ["--checkpoint", str(workspace["run"] / "checkpoint.npz"), "--split", "train"],
        }[command]
        assert main([command, "--data", str(data), "--out", str(out), *argv]) == EXIT_RUNTIME
        assert not out.exists()

    def test_memory_peak_holds_the_user_audio_only(self, tmp_path, traced_peak_bytes):
        # holding both channels of every train and valid dialogue took this
        # run to 108 MiB; the user channels and the features take it to 74
        write_dataset(tmp_path / "data", 10, DialogueScript(n_turns=3), seed=1)
        argv = ["train", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "run"),
                "--epochs", "1", "--quiet"]
        codes = []
        assert traced_peak_bytes(lambda: codes.append(main(argv))) < 90 * 2**20
        assert codes == [EXIT_OK]

    def test_feature_bands_is_not_an_option(self, workspace, tmp_path):
        # the feature width is always the frontend's 40 bands
        cfg_path = tmp_path / "model.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "feature_bands": 40}))
        train = ["train", "--data", str(workspace["data"]), "--out", str(tmp_path / "m"), "--quiet"]
        assert main([*train, "--config", str(cfg_path)]) == EXIT_CONFIG
        with pytest.raises(SystemExit) as exc:
            main([*train, "--feature-bands", "40"])
        assert exc.value.code == EXIT_CONFIG
        assert not (tmp_path / "m").exists()


class TestEval:
    def test_eval_csv_layout(self, workspace, tmp_path):
        out = tmp_path / "eval"
        assert main([
            "eval", "--data", str(workspace["data"]),
            "--checkpoint", str(workspace["run"] / "checkpoint.npz"),
            "--out", str(out), "--split", "test",
        ]) == EXIT_OK
        with open(out / "eval.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "snr_db"
        assert [r[0] for r in rows[1:]] == ["clean", "20", "15", "10", "5"]
        assert all(float(cell) > 0 for row in rows[1:] for cell in row[1:])
        assert (out / "conditions.jsonl").exists()
        assert (out / "config.json").exists()

    def test_missing_checkpoint_is_config_error(self, workspace, tmp_path):
        assert main([
            "eval", "--data", str(workspace["data"]), "--out", str(tmp_path / "e2"),
        ]) == EXIT_CONFIG

    def test_checkpoints_sharing_a_column_name_exit_2_before_output(self, workspace, tmp_path):
        # a column is <file stem>_<directory>: both of these are checkpoint_run
        paths = [tmp_path / side / "run" / "checkpoint.npz" for side in ("a", "b")]
        for path in paths:
            path.parent.mkdir(parents=True)
            save_checkpoint(path, init_params(ModelConfig()), ModelConfig())
        out = tmp_path / "e3"
        assert main([
            "eval", "--data", str(workspace["data"]), "--out", str(out),
            "--checkpoint", str(paths[0]), "--checkpoint", str(paths[1]),
        ]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["absent", "text"])
    def test_unreadable_checkpoint_exits_2_before_output(self, workspace, tmp_path, kind):
        ckpt = tmp_path / "model.npz"
        if kind == "text":
            ckpt.write_text("not a checkpoint\n")
        out = tmp_path / "e4"
        assert main([
            "eval", "--data", str(workspace["data"]), "--out", str(out), "--checkpoint", str(ckpt),
        ]) == EXIT_CONFIG
        assert not out.exists()


    @pytest.mark.parametrize("noise_dir", [None, "missing"])
    def test_clean_rows_build_no_noise_bank(self, workspace, tmp_path, monkeypatch, noise_dir):
        def no_bank(*args, **kwargs):
            raise AssertionError("a noise bank was built for clean rows")

        monkeypatch.setattr(cli, "synthetic_noise_bank", no_bank)
        monkeypatch.setattr(cli.NoiseBank, "from_dir", no_bank)
        out = tmp_path / "eval"
        extra = [] if noise_dir is None else ["--noise-dir", str(tmp_path / noise_dir)]
        assert main([
            "eval", "--data", str(workspace["data"]), "--out", str(out), "--snrs", "clean",
            "--checkpoint", str(workspace["run"] / "checkpoint.npz"), *extra,
        ]) == EXIT_OK
        assert [row[0] for row in csv.reader((out / "eval.csv").open())] == ["snr_db", "clean"]

    def test_clean_rows_record_no_noise_options(self, workspace, tmp_path):
        # like simulate's unloaded checkpoint, options no run read are null
        argv = ["eval", "--data", str(workspace["data"]), "--noise-seed", "5",
                "--checkpoint", str(workspace["run"] / "checkpoint.npz")]
        for snrs, noise in (("clean", (None, None)), ("clean,5", (None, 5))):
            out = tmp_path / snrs
            assert main([*argv, "--out", str(out), "--snrs", snrs]) == EXIT_OK
            config = json.loads((out / "config.json").read_text())
            assert (config["noise_dir"], config["noise_seed"]) == noise

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("clips", ["none", "short"])
    def test_noise_dir_without_usable_clip_exits_2_before_output(
        self, workspace, tmp_path, capsys, command, clips
    ):
        noise_dir = tmp_path / "noise"
        noise_dir.mkdir()
        if clips == "short":
            save_wav(Waveform(np.full(8000, 0.1)), noise_dir / "half_second.wav")
        out = tmp_path / "out"
        argv = {
            "train": ["--mode", "mc", "--epochs", "1", "--quiet"],
            "eval": ["--checkpoint", str(workspace["run"] / "checkpoint.npz")],
        }[command]
        assert main([
            command, "--data", str(workspace["data"]), "--out", str(out), "--noise-dir", str(noise_dir), *argv,
        ]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: --noise-dir")
        assert not out.exists()


class TestSimulate:
    def test_stt_only_outputs(self, tmp_path):
        out = tmp_path / "sim"
        assert main([
            "simulate", "--out", str(out), "--policies", "stt",
            "--n-dialogues", "3", "--turns", "2", "--seed", "5",
        ]) == EXIT_OK
        stats = json.loads((out / "stats.json").read_text())
        assert "stt" in stats["policies"]
        block = stats["policies"]["stt"]
        assert block["n_turns"] == 6
        assert block["vap_source_fraction"] == 0.0
        lines = (out / "records_stt.jsonl").read_text().splitlines()
        assert len(lines) == 6
        assert (out / "hist_stt.csv").exists()

    def test_hybrid_and_comparison(self, workspace, tmp_path):
        out = tmp_path / "sim2"
        assert main([
            "simulate", "--out", str(out), "--policies", "stt,hybrid",
            "--checkpoint", str(workspace["run"] / "checkpoint.npz"),
            "--n-dialogues", "2", "--turns", "2", "--seed", "6",
        ]) == EXIT_OK
        stats = json.loads((out / "stats.json").read_text())
        assert set(stats["policies"]) == {"stt", "hybrid"}
        assert "hybrid_vs_stt" in stats["comparisons"]
        assert 0.0 <= stats["comparisons"]["hybrid_vs_stt"]["p_value"] <= 1.0

    def test_deterministic(self, tmp_path):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main([
                "simulate", "--out", str(out), "--policies", "stt",
                "--n-dialogues", "2", "--turns", "2", "--seed", "9",
            ]) == EXIT_OK
            outs.append((out / "stats.json").read_text())
        assert outs[0] == outs[1]

    def test_detector_that_never_fires_writes_empty_records(self, tmp_path, capsys):
        ckpt = tmp_path / "untrained.npz"
        save_checkpoint(ckpt, init_params(ModelConfig()), ModelConfig())
        out = tmp_path / "sim4"
        assert main([
            "simulate", "--out", str(out), "--policies", "stt,hybrid,vap",
            "--checkpoint", str(ckpt), "--theta", "0.6",
            "--n-dialogues", "2", "--turns", "2", "--seed", "6",
        ]) == EXIT_OK
        assert "policy vap: no records" in capsys.readouterr().err
        assert (out / "records_vap.jsonl").read_text() == ""
        assert not (out / "hist_vap.csv").exists()
        stats = json.loads((out / "stats.json").read_text())
        assert set(stats["policies"]) == {"stt", "hybrid"}
        assert set(stats["comparisons"]) == {"hybrid_vs_stt"}

    def test_vap_alone_writes_the_vap_records_of_all_policies(self, tmp_path):
        # theta just above the untrained model's p_now_robot, so the detector fires
        ckpt = tmp_path / "untrained.npz"
        save_checkpoint(ckpt, init_params(ModelConfig(), seed=2), ModelConfig())
        records = []
        for name, policies in (("alone", "vap"), ("all", "stt,hybrid,vap")):
            out = tmp_path / name
            assert main([
                "simulate", "--out", str(out), "--policies", policies,
                "--checkpoint", str(ckpt), "--theta", "0.502", "--consecutive-k", "2",
                "--min-user-speech-ms", "0", "--n-dialogues", "2", "--turns", "2", "--seed", "4",
            ]) == EXIT_OK
            records.append((out / "records_vap.jsonl").read_text())
        assert records[0] == records[1] != ""

    def test_unused_checkpoint_is_not_recorded(self, tmp_path, capsys):
        out = tmp_path / "sim5"
        assert main([
            "simulate", "--out", str(out), "--policies", "stt",
            "--checkpoint", str(tmp_path / "nonexistent.npz"),
            "--n-dialogues", "1", "--turns", "1", "--seed", "5", "--theta", "0.9",
        ]) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "checkpoint" in line] == [
            f"checkpoint {tmp_path / 'nonexistent.npz'} not used: policy stt needs no model"
        ]
        config = json.loads((out / "config.json").read_text())
        # no model is loaded, so the detector's settings are not read either
        for key in ("checkpoint", "theta", "consecutive_k", "min_user_speech_ms"):
            assert config[key] is None

    def test_model_policy_requires_checkpoint(self, tmp_path):
        assert main([
            "simulate", "--out", str(tmp_path / "s3"), "--policies", "hybrid",
        ]) == EXIT_CONFIG


class TestStream:
    def test_stream_file_lines_and_rate(self, workspace, tmp_path):
        wav = workspace["data"] / (
            json.loads((workspace["data"] / "manifest.json").read_text())["splits"]["train"][0]
            + "_user.wav"
        )
        out = tmp_path / "frames.jsonl"
        assert main([
            "stream", "--checkpoint", str(workspace["run"] / "checkpoint.npz"),
            "--wav", str(wav), "--out", str(out),
        ]) == EXIT_OK
        lines = out.read_text().splitlines()
        w = load_wav(wav)
        assert len(lines) == int(len(w) // 1600)
        row = json.loads(lines[0])
        assert abs(row["p_now_user"] + row["p_now_robot"] - 1.0) <= 1e-6
        assert (tmp_path / "frames.jsonl.config.json").exists()

    def test_summary_gives_tick_tail_and_ticks_over_the_hop(self, workspace, tmp_path, monkeypatch, capsys):
        # compute_ms of the 20 ticks set to 1..18 ms, then 150 and 250 ms
        times = [*range(1, 19), 150.0, 250.0]

        def timed_run_stream(*args, **kwargs):
            results = run_stream(*args, **kwargs)[: len(times)]
            return [replace(r, compute_ms=float(ms)) for r, ms in zip(results, times)]

        monkeypatch.setattr(cli, "run_stream", timed_run_stream)
        out = tmp_path / "frames.jsonl"
        assert main([
            "stream", "--checkpoint", str(workspace["run"] / "checkpoint.npz"),
            "--wav", str(next(workspace["data"].glob("*_user.wav"))), "--out", str(out),
        ]) == EXIT_OK
        config = json.loads((tmp_path / "frames.jsonl.config.json").read_text())
        summary = {
            "frames": 20,
            "mean_compute_ms": float(np.mean(times)),
            "p95_compute_ms": float(np.percentile(times, 95)),
            "max_compute_ms": 250.0,
            "ticks_over_hop": 2,
            "rtf": float(np.mean(times)) / 100.0,
        }
        assert {key: config[key] for key in summary} == summary
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"streamed 20 frames, compute mean {np.mean(times):.2f} / "
            f"p95 {np.percentile(times, 95):.2f} / max 250.00 ms/tick, "
            f"2 ticks over the 100 ms hop, real-time factor {np.mean(times) / 100:.3f}"
        )

    def test_robot_wav_lines_match_run_stream(self, workspace, tmp_path):
        user = next(workspace["data"].glob("*_user.wav"))
        robot = user.with_name(user.name.replace("_user", "_robot"))
        ckpt = workspace["run"] / "checkpoint.npz"
        out = tmp_path / "frames.jsonl"
        assert main([
            "stream", "--checkpoint", str(ckpt), "--wav", str(user), "--robot-wav", str(robot),
            "--chunk-ms", "37", "--out", str(out),
        ]) == EXIT_OK
        params, cfg = load_checkpoint(ckpt)
        expected = run_stream(params, cfg, load_wav(user), load_wav(robot), chunk_samples=592)
        timeless = lambda line: {k: v for k, v in json.loads(line).items() if k != "compute_ms"}
        assert [timeless(line) for line in out.read_text().splitlines()] == [
            timeless(result.to_json_line()) for result in expected
        ]

    def test_checkpoint_disagreeing_with_its_config_is_config_error(self, workspace, tmp_path):
        # model_dim=16 tensors stored under the default model_dim=32 config
        ckpt = tmp_path / "mismatch.npz"
        save_checkpoint(ckpt, init_params(ModelConfig(model_dim=16, heads=2)), ModelConfig())
        wav = next(workspace["data"].glob("*_user.wav"))
        assert main(["stream", "--checkpoint", str(ckpt), "--wav", str(wav)]) == EXIT_CONFIG

    @pytest.mark.parametrize("kind", ["text", "absent", "stored_tie_channels"])
    def test_unreadable_checkpoint_is_config_error(self, workspace, tmp_path, kind):
        ckpt = tmp_path / "model.npz"
        if kind == "text":
            ckpt.write_text("not a checkpoint\n")
        elif kind == "stored_tie_channels":
            cfg = ModelConfig()
            meta = json.dumps({"version": 1, "config": {**cfg.to_json_dict(), "tie_channels": False}})
            np.savez(ckpt, __meta__=np.array(meta), **init_params(cfg))
        wav = next(workspace["data"].glob("*_user.wav"))
        assert main(["stream", "--checkpoint", str(ckpt), "--wav", str(wav)]) == EXIT_CONFIG

    @pytest.mark.parametrize("robot_s", [1.03, 3.0])
    def test_robot_wav_of_other_length_exits_2_before_output(self, tmp_path, capsys, robot_s):
        ckpt = tmp_path / "untrained.npz"
        save_checkpoint(ckpt, init_params(ModelConfig()), ModelConfig())
        rng = np.random.default_rng(0)
        for name, seconds in (("user", 2.0), ("robot", robot_s)):
            noise = 0.1 * np.tanh(rng.standard_normal(int(seconds * 16000)))
            save_wav(Waveform(noise), tmp_path / f"{name}.wav")
        args = ["stream", "--checkpoint", str(ckpt), "--wav", str(tmp_path / "user.wav"),
                "--robot-wav", str(tmp_path / "robot.wav")]
        out = tmp_path / "frames.jsonl"
        assert main(args + ["--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().out == ""

    def test_missing_wav_config_error(self, workspace):
        assert main([
            "stream", "--checkpoint", str(workspace["run"] / "checkpoint.npz"),
        ]) == EXIT_CONFIG


OPTION_STRINGS = {
    "synth-data": ["--config", "--out", "--n", "--seed", "--turns"],
    "train": [
        "--config", "--data", "--out", "--mode", "--epochs", "--lr", "--lr-decay", "--batch-size",
        "--window-stride", "--seed", "--train-snrs", "--zero-robot-prob", "--noise-dir",
        "--noise-seed", "--model-dim", "--channel-layers", "--cross-layers",
        "--heads", "--quiet",
    ],
    "eval": [
        "--config", "--data", "--out", "--checkpoint", "--snrs", "--seed", "--noise-dir",
        "--noise-seed", "--split",
    ],
    "simulate": [
        "--config", "--out", "--checkpoint", "--policies", "--n-dialogues", "--turns", "--seed",
        "--theta", "--consecutive-k", "--min-user-speech-ms", "--stt-silence-ms",
        "--latency-family", "--latency-mean", "--latency-std", "--response-delay",
    ],
    "stream": ["--config", "--checkpoint", "--wav", "--robot-wav", "--out", "--chunk-ms"],
}


def test_readme_and_docstring_name_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage = next(block for block in readme.split("```")[1::2] if "\nvapturn " in block)
    documented = [line.split()[1] for line in usage.splitlines() if line.startswith("vapturn ")]
    assert documented == list(COMMANDS)
    listed = cli.__doc__.splitlines()[0].split(":", 1)[1].rstrip(".").split(",")
    assert [name.strip() for name in listed] == list(COMMANDS)


class TestOptionTable:
    @pytest.mark.parametrize("command", sorted(OPTION_STRINGS))
    def test_flags_come_from_the_table(self, command):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = [s for a in sub.choices[command]._actions for s in a.option_strings]
        assert [f for f in flags if f not in ("-h", "--help")] == OPTION_STRINGS[command]
        for key, opt in COMMANDS[command][1].items():
            assert opt.default is None or type(opt.default) is opt.kind, key

    @pytest.mark.parametrize(
        "command, config, flags",
        [
            # a config-file value of the wrong type or outside its choices
            ("train", {"epochs": 1.7}, []),  # float for an int
            ("train", {"quiet": "no"}, []),  # string for a bool
            ("train", {"lr": [0.1]}, []),  # list for a float
            ("train", {"batch_size": True}, []),  # bool for an int
            ("eval", {"split": "bogus"}, []),
            ("eval", {"snrs": "clean,loud"}, []),
            ("simulate", {"script": {"bogus_key": 1}}, []),
            ("stream", {"chunk_ms": "fast"}, []),
            # a value a config object rejects
            ("simulate", {}, ["--latency-family", "bogus"]),
            ("simulate", {}, ["--latency-mean", "-1"]),
            ("simulate", {}, ["--turns", "-1"]),
            ("simulate", {}, ["--theta", "0.4"]),
            ("train", {}, ["--zero-robot-prob", "2"]),
            # a value that gives no work
            ("synth-data", {}, ["--n", "5"]),  # fewer items than an 8:1:1 split needs
            ("simulate", {}, ["--n-dialogues", "0"]),
            ("simulate", {}, ["--turns", "0"]),
            ("stream", {}, ["--chunk-ms", "0"]),
            ("stream", {}, ["--chunk-ms", "-20"]),
            ("stream", {}, ["--chunk-ms", "0.05"]),
            # a script-block value of the wrong type
            ("simulate", {"script": {"n_turns": 1.5}}, []),
            ("synth-data", {"script": {"n_turns": 1.5}}, []),
            ("simulate", {"script": {"tail_s": "2"}}, []),
            ("synth-data", {"script": {"tail_s": "2"}}, []),
            ("simulate", {"script": [1]}, []),
            ("synth-data", {"script": {"user_reaction_s": {"family": "normal", "mean_s": True}}}, []),
            ("synth-data", {"script": {"lead_in_s": [True, 2]}}, []),
            # a training schedule fit cannot follow
            ("train", {}, ["--epochs", "0"]),
            ("train", {}, ["--lr", "0"]),
            ("train", {}, ["--lr", "-1"]),
            ("train", {}, ["--lr-decay", "-0.5"]),
            ("train", {}, ["--batch-size", "0"]),
            ("train", {}, ["--window-stride", "0"]),
            # a config-file key no command declares
            ("train", {"epoch": 1}, []),
            ("simulate", {"polices": "stt"}, []),
            # a policy list that names no policy, an unknown one, or one twice
            ("simulate", {}, ["--policies", "teleport"]),
            ("simulate", {}, ["--policies", ","]),
            ("simulate", {}, ["--policies", "stt,stt"]),
            # a float that is NaN or infinite, from a flag, a config file or a
            # script block, and a negative response delay
            ("simulate", {}, ["--stt-silence-ms", "nan"]),
            ("simulate", {}, ["--latency-mean", "nan"]),
            ("simulate", {}, ["--response-delay", "nan"]),
            ("simulate", {}, ["--response-delay", "-5"]),
            ("simulate", {}, ["--min-user-speech-ms", "nan"]),
            ("simulate", {"latency_std": math.nan}, []),
            ("train", {"lr": math.inf}, []),
            ("stream", {"chunk_ms": math.inf}, []),
            ("stream", {}, ["--chunk-ms", "nan"]),
            ("synth-data", {"script": {"tail_s": math.nan}}, []),
            ("eval", {}, ["--snrs=-inf"]),
            ("eval", {}, ["--snrs", "clean,nan"]),
            ("train", {}, ["--train-snrs", "clean,inf"]),
            ("eval", {}, ["--snrs", "5,5,clean"]),
            ("train", {}, ["--train-snrs", "clean,5,5"]),
        ],
    )
    def test_rejected_value_exits_2_before_work(self, workspace, tmp_path, command, config, flags):
        ckpt = str(workspace["run"] / "checkpoint.npz")
        out = str(tmp_path / "out")
        required = {
            "synth-data": ["--out", out],
            "train": ["--data", str(workspace["data"]), "--out", out, "--quiet"],
            "eval": ["--data", str(workspace["data"]), "--out", out, "--checkpoint", ckpt],
            "simulate": ["--out", out, "--policies", "stt"],
            "stream": ["--checkpoint", ckpt, "--wav", str(next(workspace["data"].glob("*_user.wav")))],
        }[command]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert main([command, *required, "--config", str(cfg_path), *flags]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_int_for_float_is_accepted(self, workspace, tmp_path, capsys):
        cfg_path = tmp_path / "stream.json"
        cfg_path.write_text(json.dumps({"chunk_ms": 100}))
        wav = next(workspace["data"].glob("*_user.wav"))
        assert main([
            "stream", "--checkpoint", str(workspace["run"] / "checkpoint.npz"),
            "--wav", str(wav), "--config", str(cfg_path),
        ]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == len(load_wav(wav)) // 1600
