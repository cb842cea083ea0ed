import csv
import json
import math
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import vapturn.training as training
from vapturn import datasets
from vapturn.codebook import frame_targets
from vapturn.model import FrameBatch, ModelConfig, init_params
from vapturn.noise import Condition, apply_condition, synthetic_noise_bank
from vapturn.simulate import DialogueScript, generate_scripted_dialogue, session_scripts
from vapturn.stats import SampleDist
from vapturn.training import (
    HISTORY_COLUMNS,
    AugmentConfig,
    CheckpointError,
    EmptyDatasetError,
    TrainingDivergedError,
    dialogue_frames,
    eval_per_snr,
    fit,
    load_checkpoint,
    save_checkpoint,
    slice_windows,
    write_history_csv,
)


TINY_SCRIPT = DialogueScript(n_turns=1, user_reaction_s=SampleDist("normal", 1.0, 0.2), tail_s=2.2)


def _tiny_corpus(n=8, seed=3):
    scripts = session_scripts(n, TINY_SCRIPT, seed=seed)
    return [(f"d{i}", generate_scripted_dialogue(s)) for i, s in enumerate(scripts)]


@pytest.fixture(scope="module")
def corpus():
    return _tiny_corpus()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A written 10-dialogue corpus: train 8, valid 1, test 1."""
    out = tmp_path_factory.mktemp("corpus")
    datasets.write_dataset(out, 10, TINY_SCRIPT, seed=4)
    return out


def oracle_state(horizon_a, horizon_b) -> int:
    """Projection state of one 200-frame horizon per speaker: bit 4s + i is
    set when at least half of speaker s's frames in bin i are active."""
    edges = (0, 20, 60, 120, 200)
    state = 0
    for s, labels in enumerate((horizon_a, horizon_b)):
        for i in range(4):
            frames = labels[edges[i] : edges[i + 1]]
            if frames.sum() / len(frames) >= 0.5:
                state |= 1 << (4 * s + i)
    return state


class TestFrameTargets:
    def test_matches_codebook_reference(self):
        # vectorized targets must equal the per-frame bin oracle
        rng = np.random.default_rng(0)
        n_frames = 40
        n_labels = (n_frames + 1) * 10 + 200
        la = rng.random(n_labels) < 0.4
        lb = rng.random(n_labels) < 0.3
        state, target_vad = frame_targets(la, lb, n_frames)
        for g in range(n_frames):
            start = (g + 1) * 10
            expect = oracle_state(la[start : start + 200], lb[start : start + 200])
            assert state[g] == expect
            assert target_vad[g, 0] == float(la[start - 1])
            assert target_vad[g, 1] == float(lb[start - 1])

    def test_frames_without_full_future_masked(self):
        la = np.ones(300, dtype=bool)
        lb = np.zeros(300, dtype=bool)
        state, _ = frame_targets(la, lb, 30)
        # frame g needs labels up to (g+1)*10 + 200 <= 300, so g <= 9
        assert (state[:10] >= 0).all()
        assert (state[10:] == -1).all()

    def test_dialogue_frames_shape(self, corpus):
        batch = dialogue_frames(corpus[0][1])
        assert batch.features_a.shape == batch.features_b.shape
        assert batch.target_state.shape == (batch.n_frames,)
        assert (batch.target_state >= -1).all() and (batch.target_state <= 255).all()


class TestSliceWindows:
    def test_stride_and_window(self):
        t = 120
        fa = np.zeros((t, 40))
        batch = FrameBatch(fa, fa, np.zeros(t, dtype=np.int64), np.zeros((t, 2)))
        wins = slice_windows(batch, 50, 25)
        assert len(wins) == 3
        assert all(w.n_frames == 50 for w in wins)

    def test_short_input_no_windows(self):
        fa = np.zeros((30, 40))
        batch = FrameBatch(fa, fa)
        assert slice_windows(batch, 50, 25) == []

    def test_dedupe_counts_each_frame_once(self):
        t = 70
        fa = np.zeros((t, 40))
        state = np.arange(t, dtype=np.int64) % 256
        batch = FrameBatch(fa, fa, state, np.zeros((t, 2)))
        wins = slice_windows(batch, 50, 50, dedupe=True)
        assert len(wins) == 2
        counted = sum(int((w.target_state >= 0).sum()) for w in wins)
        assert counted == t


class TestFit:
    def test_epoch_zero_anchor_and_improvement(self, corpus):
        cfg = ModelConfig()
        bank = synthetic_noise_bank(0)
        params, history = fit(
            corpus[:6],
            corpus[6:],
            cfg,
            epochs=3,
            lr=0.3,
            bank=bank,
            seed=1,
        )
        assert abs(history[0]["valid_vap"] - math.log(256)) <= 0.5
        assert history[-1]["valid_vap"] < history[0]["valid_vap"]
        assert len(history) == 4
        assert [list(row) for row in history] == [list(HISTORY_COLUMNS)] * 4
        assert [row["epoch"] for row in history] == [0, 1, 2, 3]
        assert all(math.isfinite(v) for row in history for v in row.values())

    def test_deterministic_history(self, corpus):
        cfg = ModelConfig()
        bank = synthetic_noise_bank(0)
        kwargs = dict(epochs=2, lr=0.3, bank=bank, seed=4)
        p1, h1 = fit(corpus[:6], corpus[6:], cfg, **kwargs)
        p2, h2 = fit(corpus[:6], corpus[6:], cfg, **kwargs)
        assert h1 == h2
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)

    def test_clean_mode_needs_no_bank(self, corpus):
        cfg = ModelConfig()
        params, history = fit(
            corpus[:6],
            corpus[6:],
            cfg,
            epochs=1,
            lr=0.3,
            seed=2,
        )
        assert history[1]["train_vap"] < history[0]["train_vap"] + 0.5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self, corpus):
        cfg = ModelConfig()
        with pytest.raises(TrainingDivergedError):
            fit(
                corpus[:6],
                corpus[6:],
                cfg,
                epochs=3,
                lr=1e9,
                clip_norm=0.0,
                seed=3,
            )

    @pytest.mark.parametrize(
        "key, value",
        [("epochs", 0), ("lr", 0.0), ("lr", math.nan), ("lr_decay", -0.1), ("batch_size", 0), ("window_stride", 0)],
    )
    def test_rejects_schedule_it_cannot_follow(self, corpus, key, value):
        kwargs = {"epochs": 1, key: value}
        with pytest.raises(ValueError, match=key):
            fit(corpus[:6], corpus[6:], ModelConfig(), **kwargs)

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            fit([], [], ModelConfig())

    @pytest.mark.parametrize("snr_set", [(), (-math.inf,), (5.0, math.nan)])
    def test_augment_rejects_undefined_snr_set(self, snr_set):
        with pytest.raises(ValueError, match="snr_set|SNR"):
            AugmentConfig(snr_set=snr_set)


def _count_reads(monkeypatch, on_read=None) -> Counter:
    """Count datasets.load_item calls per item id; on_read(dialogue) sees
    each loaded dialogue."""
    reads = Counter()
    load_item = datasets.load_item

    def counted(base, item_id):
        reads[item_id] += 1
        item = load_item(base, item_id)
        if on_read is not None:
            on_read(item)
        return item

    monkeypatch.setattr(datasets, "load_item", counted)
    return reads


class TestLazySplits:
    """fit and eval_per_snr read a lazy split once and keep only the user
    channel of its audio."""

    def test_fit_reads_each_item_once(self, written, monkeypatch):
        splits = datasets.load_dataset(written, ["train", "valid"])
        reads = _count_reads(monkeypatch)
        fit(splits["train"], splits["valid"], ModelConfig(context_frames=20), epochs=2,
            bank=synthetic_noise_bank(0))
        manifest = json.loads((written / "manifest.json").read_text())
        assert reads == Counter(manifest["splits"]["train"] + manifest["splits"]["valid"])
        assert sum(reads.values()) == 9

    def test_eval_reads_each_item_once(self, written, monkeypatch):
        cfg = ModelConfig(context_frames=20)
        split = datasets.load_dataset(written, ["train"])["train"]
        reads = _count_reads(monkeypatch)
        (table,), prov = eval_per_snr([(init_params(cfg), cfg)], split, synthetic_noise_bank(0))
        ids = json.loads((written / "manifest.json").read_text())["splits"]["train"]
        assert reads == Counter(ids) and len(ids) == 8
        assert [item_id for item_id, _, _ in prov] == 5 * ids

    def test_no_dialogue_is_alive_at_the_first_training_step(self, written, monkeypatch):
        loaded = []
        reads = _count_reads(monkeypatch, lambda dialogue: loaded.append(weakref.ref(dialogue)))
        alive = []
        step = training.batch_loss_and_grads

        def first_step(*args):
            if not alive:
                alive.append([ref for ref in loaded if ref() is not None])
            return step(*args)

        monkeypatch.setattr(training, "batch_loss_and_grads", first_step)
        splits = datasets.load_dataset(written, ["train", "valid"])
        fit(splits["train"], splits["valid"], ModelConfig(context_frames=20), epochs=1)
        assert len(loaded) == sum(reads.values()) == 9
        assert alive == [[]]


class TestEvalLoss:
    def test_memory_peak_is_bounded(self, traced_peak_bytes):
        cfg = ModelConfig()
        params = init_params(cfg, seed=0)
        rng = np.random.default_rng(4)
        n = 64 * cfg.context_frames  # one eval batch of 64 windows
        frames = FrameBatch(
            rng.standard_normal((n, 40)),
            rng.standard_normal((n, 40)),
            rng.integers(0, 256, n),
            rng.integers(0, 2, (n, 2)).astype(float),
        )
        # a forward that keeps every block's backprop cache and a loss that
        # builds its gradient take this batch past 100 MiB; a loss holding
        # four logit-sized arrays at once, to 28.6e6 bytes
        assert traced_peak_bytes(lambda: training._eval_loss(params, cfg, [frames])) < 27e6


class TestEvalPerSnr:
    def test_uniform_model_flat_table(self, corpus):
        cfg = ModelConfig()
        params = init_params(cfg, seed=0)
        for key in ("vap.W", "vap.b", "vad.W", "vad.b"):
            params[key][:] = 0.0
        bank = synthetic_noise_bank(0)
        (table,), prov = eval_per_snr([(params, cfg)], corpus[:3], bank, seed=0)
        assert set(table) == {math.inf, 20.0, 15.0, 10.0, 5.0}
        for snr, lvap in table.items():
            assert lvap == pytest.approx(math.log(256), abs=1e-9), snr
        assert len(prov) == 5 * 3

    def test_deterministic(self, corpus):
        cfg = ModelConfig()
        params = init_params(cfg, seed=1)
        bank = synthetic_noise_bank(0)
        t1, _ = eval_per_snr([(params, cfg)], corpus[:3], bank, seed=9)
        t2, _ = eval_per_snr([(params, cfg)], corpus[:3], bank, seed=9)
        assert t1 == t2

    def test_empty_test_set_rejected(self):
        with pytest.raises(EmptyDatasetError):
            eval_per_snr([({}, ModelConfig())], [], synthetic_noise_bank(0))

    def test_repeated_snr_rejected_before_work(self, corpus, monkeypatch):
        # the table is keyed by SNR, so a repeated row would overwrite the first
        monkeypatch.setattr(training, "_prepare_items", lambda items: pytest.fail("did work"))
        with pytest.raises(ValueError, match="repeats"):
            eval_per_snr(
                [({}, ModelConfig())], corpus[:1], synthetic_noise_bank(0), snr_list=(5.0, 5.0, math.inf)
            )

    @pytest.mark.parametrize("snr", [math.nan, -math.inf])
    def test_undefined_snr_rejected_before_work(self, corpus, monkeypatch, snr):
        monkeypatch.setattr(training, "_prepare_items", lambda items: pytest.fail("did work"))
        with pytest.raises(ValueError, match="SNR"):
            eval_per_snr([({}, ModelConfig())], corpus[:1], synthetic_noise_bank(0), snr_list=(math.inf, snr))

    def test_noisy_row_without_bank_rejected_before_work(self, corpus, monkeypatch):
        monkeypatch.setattr(training, "_prepare_items", lambda items: pytest.fail("did work"))
        with pytest.raises(ValueError, match="noise bank"):
            eval_per_snr([({}, ModelConfig())], corpus[:1], None, snr_list=(math.inf, 5.0))

    def test_equals_per_row_extraction(self, corpus, monkeypatch):
        # reference: every row builds each item's whole-dialogue batch again
        # from its mixed dialogue; the result must be exactly the same, from
        # one robot and one clean-user extraction per item plus the noisy users
        cfg = ModelConfig(context_frames=20)
        params = init_params(cfg, seed=3)
        bank = synthetic_noise_bank(0)
        items, snrs, seed = corpus[:3], (math.inf, 10.0, 5.0), 4

        ref_table, ref_prov = {}, []
        for row_idx, snr in enumerate(snrs):
            batches = []
            for item_idx, (item_id, dialogue) in enumerate(items):
                seq = np.random.SeedSequence(entropy=seed, spawn_key=(row_idx, item_idx))
                rng = np.random.default_rng(seq)
                mixed, cond = dialogue, Condition("none", math.inf)
                if not math.isinf(snr):
                    cond = Condition(bank.names[int(rng.integers(len(bank)))], snr)
                    user, _ = apply_condition(dialogue.channel_a, cond, bank, rng)
                    mixed = replace(dialogue, channels=(user, dialogue.channel_b))
                ref_prov.append((item_id, cond, seed))
                batches.append(dialogue_frames(mixed))
            ref_table[snr] = training._eval_loss(params, cfg, batches).vap

        calls = []
        extract = training.extract_features
        monkeypatch.setattr(training, "extract_features", lambda w: calls.append(1) or extract(w))
        (table,), prov = eval_per_snr([(params, cfg)], items, bank, snr_list=snrs, seed=seed)
        assert table == ref_table
        assert prov == ref_prov
        assert len(calls) == 2 * len(items) + 2 * len(items)  # 2 per item, 1 per noisy row

    def test_models_share_the_noisy_rows(self, corpus, monkeypatch):
        # two models scored in one call give exactly their one-model tables,
        # for the feature extraction and noise mixing of one model
        small = ModelConfig(context_frames=20, cross_layers=2)
        models = [(init_params(ModelConfig(), seed=5), ModelConfig()), (init_params(small, seed=6), small)]
        bank = synthetic_noise_bank(0)
        counts = {"extract_features": 0, "apply_condition": 0}
        for name in counts:
            fn = getattr(training, name)

            def counted(*args, name=name, fn=fn, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(training, name, counted)

        def run(models):
            for name in counts:
                counts[name] = 0
            tables, prov = eval_per_snr(models, corpus[:4], bank, seed=2)
            return tables, prov, dict(counts)

        singles = [run([model]) for model in models]
        tables, prov, calls = run(models)
        assert tables == [t for (t,), _, _ in singles]
        assert all(prov == p for _, p, _ in singles)
        assert all(calls == c for _, _, c in singles)
        assert calls == {"extract_features": 4 * 2 + 4 * 4, "apply_condition": 4 * 4}


class TestCheckpointIO:
    def test_roundtrip(self, tmp_path, corpus):
        cfg = ModelConfig(model_dim=16, heads=2)
        params = init_params(cfg, seed=7)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, cfg)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert set(loaded) == set(params)
        assert all(np.array_equal(loaded[k], params[k]) for k in params)

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("content", ["text", "empty", "npy", "bad_meta", "list_meta", "absent"])
    def test_unreadable_file_is_checkpoint_error(self, tmp_path, content):
        path = tmp_path / "ckpt.npz"
        if content == "text":
            path.write_text("not a checkpoint\n")
        elif content == "empty":
            path.write_bytes(b"")
        elif content == "npy":
            with open(path, "wb") as fh:
                np.save(fh, np.zeros(3))
        elif content in ("bad_meta", "list_meta"):
            meta = "{not json" if content == "bad_meta" else "[1, 2]"
            np.savez(path, __meta__=np.array(meta), a=np.zeros(3))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("fault", ["missing", "extra", "shape", "other_dim", "nonfinite"])
    def test_rejects_tensors_that_disagree_with_config(self, tmp_path, fault):
        cfg = ModelConfig(model_dim=16, heads=2)
        params = init_params(cfg, seed=7)
        if fault == "missing":
            del params["vad.b"]
        elif fault == "extra":
            params["x.c.0.attn.Wq"] = np.zeros((16, 16))
        elif fault == "shape":
            params["in.W"] = params["in.W"][:, :8]
        elif fault == "nonfinite":
            params["in.W"][0, 0] = np.nan
        else:  # a whole model_dim=32 tensor set stored under a model_dim=16 config
            params = init_params(ModelConfig(model_dim=32, heads=2), seed=7)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, cfg)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        assert issubclass(CheckpointError, ValueError)

    @pytest.mark.parametrize("tie", [False, True])
    def test_rejects_stored_tie_channels(self, tmp_path, tie):
        # the tie_channels field is gone: a config that still holds it never loads
        cfg = ModelConfig()
        meta = json.dumps({"version": 1, "config": {**cfg.to_json_dict(), "tie_channels": tie}})
        path = tmp_path / "ckpt.npz"
        np.savez(path, __meta__=np.array(meta), **init_params(cfg))
        with pytest.raises(CheckpointError, match="tie_channels"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bands", [40, 20])
    def test_stored_feature_bands(self, tmp_path, bands):
        # configs saved while feature_bands was a field hold it as 40
        cfg = ModelConfig()
        meta = json.dumps({"version": 1, "config": {**cfg.to_json_dict(), "feature_bands": bands}})
        path = tmp_path / "ckpt.npz"
        np.savez(path, __meta__=np.array(meta), **init_params(cfg))
        if bands == 40:
            assert load_checkpoint(path)[1] == cfg
        else:
            with pytest.raises(CheckpointError, match="feature_bands 20"):
                load_checkpoint(path)

    def test_stored_seed_ignored(self, tmp_path):
        # every checkpoint written while seed was a config field holds it
        cfg = ModelConfig(model_dim=16)
        meta = json.dumps({"version": 1, "config": {**cfg.to_json_dict(), "seed": 9}})
        path = tmp_path / "ckpt.npz"
        params = init_params(cfg, seed=9)
        np.savez(path, __meta__=np.array(meta), **params)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert all(np.array_equal(loaded[k], params[k]) for k in params)

    def test_history_csv_roundtrip(self, tmp_path):
        history = [
            {
                "epoch": 0,
                "train_loss": 6.2,
                "train_vap": 5.5,
                "train_vad": 0.7,
                "valid_loss": 6.1,
                "valid_vap": 5.4,
                "valid_vad": 0.7,
            }
        ]
        path = tmp_path / "history.csv"
        write_history_csv(path, history)
        with open(path, newline="") as fh:
            back = [{k: int(v) if k == "epoch" else float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        assert back == history
