import json
from dataclasses import dataclass, fields

import numpy as np
import pytest

from vapturn import datasets, simulate
from vapturn.audio import AudioError, Waveform, load_wav, save_wav
from vapturn.datasets import DatasetError, load_dataset, load_item, write_dataset
from vapturn.simulate import DialogueScript, ScriptedTurn, generate_scripted_dialogue
from vapturn.stats import SampleDist


@pytest.fixture(scope="module")
def script():
    return DialogueScript(n_turns=1, user_reaction_s=SampleDist("normal", 1.0, 0.2), tail_s=2.2)


@pytest.fixture(scope="module")
def written(tmp_path_factory, script):
    out = tmp_path_factory.mktemp("corpus")
    manifest = write_dataset(out, 10, script, seed=4)
    return out, manifest


@dataclass(frozen=True)
class _ExtendedTurn(ScriptedTurn):
    """A turn with one field more, as a new label adds."""

    turn_type: str = "statement"


class TestWriteDataset:
    def test_split_sizes(self, written):
        _, manifest = written
        sizes = {k: len(v) for k, v in manifest["splits"].items()}
        assert sizes == {"train": 8, "valid": 1, "test": 1}

    def test_manifest_byte_identical_for_same_seed(self, tmp_path, script):
        a = tmp_path / "a"
        b = tmp_path / "b"
        write_dataset(a, 10, script, seed=9)
        write_dataset(b, 10, script, seed=9)
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        assert (a / "dlg0003_user.wav").read_bytes() == (b / "dlg0003_user.wav").read_bytes()

    def test_items_reload_as_valid_dialogues(self, written, script):
        out, manifest = written
        item_id = manifest["splits"]["train"][0]
        loaded = load_item(out, item_id)
        assert loaded.duration_s > 0
        assert len(loaded.turns) == script.n_turns
        assert len(loaded.vad_a) == len(loaded.vad_b)

    def test_reload_matches_generation(self, written):
        out, manifest = written
        item_id = manifest["splits"]["test"][0]
        loaded = load_item(out, item_id)
        with open(out / f"{item_id}_labels.json") as fh:
            labels = json.load(fh)
        regen = generate_scripted_dialogue(
            DialogueScript.from_json_dict({**manifest["script"], "seed": labels["seed"]})
        )
        # waveforms go through 16-bit quantization on disk
        assert np.max(np.abs(loaded.channel_a.samples - regen.channel_a.samples)) <= 1 / 32768
        assert np.array_equal(loaded.vad_a.frames, regen.vad_a.frames)
        assert loaded.turns == regen.turns

    def test_labels_of_another_length_are_refused(self, tmp_path, script):
        write_dataset(tmp_path, 10, script, seed=4)
        path = tmp_path / "dlg0000_labels.json"
        labels = json.loads(path.read_text())
        path.write_text(json.dumps({**labels, "n_frames": labels["n_frames"] + 1}))
        with pytest.raises(AudioError, match="vad_a has"):
            load_item(tmp_path, "dlg0000")

    def test_channels_of_another_length_are_refused(self, tmp_path, script):
        write_dataset(tmp_path, 10, script, seed=4)
        path = tmp_path / "dlg0000_robot.wav"
        robot = load_wav(path)
        save_wav(Waveform(robot.samples[:-1]), path)
        with pytest.raises(AudioError, match="channel has"):
            load_item(tmp_path, "dlg0000")

    @pytest.mark.parametrize("turn_class", [ScriptedTurn, _ExtendedTurn])
    def test_label_turns_hold_every_turn_field(self, tmp_path, script, turn_class, monkeypatch):
        monkeypatch.setattr(simulate, "ScriptedTurn", turn_class)
        write_dataset(tmp_path, 10, script, seed=4)
        labels = json.loads((tmp_path / "dlg0000_labels.json").read_text())
        assert [sorted(turn) for turn in labels["turns"]] == [sorted(f.name for f in fields(turn_class))]

    def test_load_dataset_splits(self, written):
        out, _ = written
        splits = load_dataset(out, ["train", "valid", "test"])
        assert set(splits) == {"train", "valid", "test"}
        assert len(splits["train"]) == 8
        item_id, dialogue = splits["train"][0]
        assert dialogue.duration_s > 0

    def test_splits_read_no_wav_until_used(self, written, monkeypatch):
        out, manifest = written
        read = []
        load_wav = datasets.load_wav
        monkeypatch.setattr(datasets, "load_wav", lambda path: read.append(path.name) or load_wav(path))
        splits = load_dataset(out, ["train", "valid", "test"])
        assert {k: len(v) for k, v in splits.items()} == {"train": 8, "valid": 1, "test": 1}
        assert read == []
        # lazy and uncached: every use reads the item again, and only it
        last = manifest["splits"]["train"][-1]
        assert splits["train"][-1][0] == last
        assert read == [f"{last}_user.wav", f"{last}_robot.wav"]
        read.clear()
        assert [item_id for item_id, _ in splits["train"]] == manifest["splits"]["train"]
        assert len(read) == 2 * 8
        read.clear()
        part = splits["train"][2:5]
        assert len(part) == 3 and read == []
        assert [item_id for item_id, _ in part] == manifest["splits"]["train"][2:5]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(tmp_path, ["test"])

    def test_load_dataset_reads_only_named_splits(self, written, monkeypatch):
        out, manifest = written
        read = []
        load_item = datasets.load_item

        def record(base, item_id):
            read.append(item_id)
            return load_item(base, item_id)

        monkeypatch.setattr(datasets, "load_item", record)
        splits = load_dataset(out, ["test"])
        assert list(splits) == ["test"]
        assert read == [item_id for item_id, _ in splits["test"]] == manifest["splits"]["test"]

    def test_unknown_split_rejected(self, written):
        out, _ = written
        with pytest.raises(DatasetError):
            load_dataset(out, ["train", "dev"])
