"""On-disk dialogue corpora: WAV pairs, label files, and a split manifest."""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .audio import LABEL_FRAME_RATE, VadTrack, load_wav, save_wav
from .noise import split_dataset
from .simulate import (
    DialogueScript,
    ScriptedDialogue,
    ScriptedTurn,
    generate_scripted_dialogue,
    session_scripts,
)

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


class DatasetError(ValueError):
    pass


def _segments(frames: np.ndarray) -> list:
    """Run-length encode a boolean track into [start, end) frame pairs."""
    out = []
    start = None
    for i, v in enumerate(frames):
        if v and start is None:
            start = i
        elif not v and start is not None:
            out.append([start, i])
            start = None
    if start is not None:
        out.append([start, len(frames)])
    return out


def _frames_from_segments(segments, n_frames: int) -> np.ndarray:
    frames = np.zeros(n_frames, dtype=bool)
    for start, end in segments:
        frames[start:end] = True
    return frames


def write_dataset(out_dir, n_items: int, script: DialogueScript, seed: int) -> dict:
    """Generate n_items dialogues, write WAVs + labels, and split them 8:1:1.

    The manifest is byte-stable for a fixed seed and script.
    """
    ids = [f"dlg{i:04d}" for i in range(n_items)]
    train, valid, test = split_dataset(ids, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for item_id, item_script in zip(ids, session_scripts(n_items, script, seed)):
        sd = generate_scripted_dialogue(item_script)
        save_wav(sd.channel_a, out / f"{item_id}_user.wav")
        save_wav(sd.channel_b, out / f"{item_id}_robot.wav")
        labels = {
            "frame_rate": LABEL_FRAME_RATE,
            "n_frames": len(sd.vad_a),
            "segments_a": _segments(sd.vad_a.frames),
            "segments_b": _segments(sd.vad_b.frames),
            "turns": [asdict(t) for t in sd.turns],
            "seed": item_script.seed,
        }
        with open(out / f"{item_id}_labels.json", "w") as fh:
            json.dump(labels, fh, sort_keys=True)
    manifest = {
        "version": MANIFEST_VERSION,
        "seed": seed,
        "script": script.to_json_dict(),
        "n_items": n_items,
        "splits": {"train": train, "valid": valid, "test": test},
    }
    with open(out / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
    return manifest


def load_item(data_dir, item_id: str) -> ScriptedDialogue:
    """One written dialogue, its channels already read. AudioError when the
    channels and label tracks disagree in length."""
    base = Path(data_dir)
    user = load_wav(base / f"{item_id}_user.wav")
    robot = load_wav(base / f"{item_id}_robot.wav")
    with open(base / f"{item_id}_labels.json") as fh:
        labels = json.load(fh)
    n_frames = labels["n_frames"]
    return ScriptedDialogue(
        turns=tuple(ScriptedTurn(**t) for t in labels["turns"]),
        n_samples=len(user),
        vad_a=VadTrack(_frames_from_segments(labels["segments_a"], n_frames)),
        vad_b=VadTrack(_frames_from_segments(labels["segments_b"], n_frames)),
        channels=(user, robot),
    )


class Split(Sequence):
    """The (item_id, ScriptedDialogue) items of one split of a written dataset.

    Lazy: an item is read from disk each time it is indexed or iterated
    over, and nothing is cached, so a caller that keeps only part of each
    item holds only that part.
    """

    def __init__(self, data_dir, item_ids):
        self._base = Path(data_dir)
        self._ids = tuple(item_ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Split(self._base, self._ids[index])
        item_id = self._ids[index]
        return item_id, load_item(self._base, item_id)


def load_dataset(data_dir, splits) -> dict:
    """The named splits of a written dataset as {split: Split}, lazy
    sequences of (item_id, ScriptedDialogue). Reads only the manifest: an item
    is read when its split is iterated, and no other split's files are. A
    missing or unsupported manifest, or a split it does not name, raises
    DatasetError."""
    base = Path(data_dir)
    manifest_path = base / MANIFEST_NAME
    if not manifest_path.exists():
        raise DatasetError(f"no {MANIFEST_NAME} in {base}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if manifest.get("version") != MANIFEST_VERSION:
        raise DatasetError(f"unsupported manifest version {manifest.get('version')}")
    if unknown := [split for split in splits if split not in manifest["splits"]]:
        raise DatasetError(f"no split {unknown} in {manifest_path}: it has {sorted(manifest['splits'])}")
    return {split: Split(base, manifest["splits"][split]) for split in splits}
