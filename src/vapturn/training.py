"""Training loop, per-SNR evaluation, and checkpoint I/O."""

from __future__ import annotations

import csv
import json
import math
import zipfile
from dataclasses import dataclass, replace

import numpy as np

from .audio import StereoDialogue
from .codebook import frame_targets
from .features import extract_features, silent_features
from .model import (
    FrameBatch,
    LossBreakdown,
    ModelConfig,
    batch_loss_and_grads,
    clone_params,
    init_params,
    loss_from_logits,
    _forward,
)
from .noise import NoiseBank, TRAIN_SNRS_DB, Condition, apply_condition, check_snr, sample_condition

CHECKPOINT_VERSION = 1
# a history row: the epoch, then the train and the valid LossBreakdown in field
# order (total, vap, vad), total as loss
HISTORY_COLUMNS = (
    "epoch",
    "train_loss",
    "train_vap",
    "train_vad",
    "valid_loss",
    "valid_vap",
    "valid_vad",
)


class TrainingDivergedError(RuntimeError):
    pass


class EmptyDatasetError(ValueError):
    pass


class CheckpointError(ValueError):
    """A file that is not a checkpoint this version can load, whose tensors
    disagree with its own stored config, or that holds NaN or inf."""


@dataclass(frozen=True)
class AugmentConfig:
    """How training audio is perturbed, re-drawn per item per epoch. The
    noise conditions are drawn from snr_set only when fit is given a bank."""

    snr_set: tuple = TRAIN_SNRS_DB
    zero_robot_prob: float = 0.5

    def __post_init__(self):
        if not self.snr_set:
            raise ValueError("snr_set is empty")
        for snr in self.snr_set:
            check_snr(snr)
        if not 0.0 <= self.zero_robot_prob <= 1.0:
            raise ValueError("zero_robot_prob must be in [0, 1]")


def dialogue_frames(dialogue: StereoDialogue) -> FrameBatch:
    """Features and targets for every 100 ms frame of one dialogue."""
    feats_a = extract_features(dialogue.channel_a)
    feats_b = extract_features(dialogue.channel_b)
    state, target_vad = frame_targets(dialogue.vad_a.frames, dialogue.vad_b.frames, feats_a.shape[0])
    return FrameBatch(feats_a, feats_b, state, target_vad)


def slice_windows(batch: FrameBatch, window: int, stride: int, dedupe: bool = False):
    """Cut a whole-dialogue FrameBatch into fixed-length training windows.

    With dedupe=True a final catch-up window is added when the length is not a
    multiple of the stride and already-covered frames in it lose their targets,
    so every frame's loss is counted exactly once (evaluation mode).
    """
    t = batch.n_frames
    if t < window:
        return []
    starts = list(range(0, t - window + 1, stride))
    covered = starts[-1] + window if starts else 0
    extra_from = None
    if dedupe and covered < t:
        starts.append(t - window)
        extra_from = covered
    out = []
    for s in starts:
        state = batch.target_state[s : s + window].copy()
        if extra_from is not None and s == t - window and s < extra_from:
            state[: extra_from - s] = -1
        out.append(
            FrameBatch(
                batch.features_a[s : s + window],
                batch.features_b[s : s + window],
                state,
                batch.target_vad[s : s + window],
            )
        )
    return out


def _stack(windows) -> tuple:
    fa = np.stack([w.features_a for w in windows])
    fb = np.stack([w.features_b for w in windows])
    ts = np.stack([w.target_state for w in windows])
    tv = np.stack([w.target_vad for w in windows])
    return fa, fb, ts, tv


def _eval_loss(params, cfg: ModelConfig, batches, batch_size: int = 64) -> LossBreakdown:
    """Target-weighted mean loss over whole-dialogue FrameBatches, each cut
    into deduplicated context-length windows so every frame counts once."""
    windows = [
        w for b in batches for w in slice_windows(b, cfg.context_frames, cfg.context_frames, dedupe=True)
    ]
    tot = np.zeros(3)
    n_total = 0
    for i in range(0, len(windows), batch_size):
        fa, fb, ts, tv = _stack(windows[i : i + batch_size])
        n = int((ts >= 0).sum())
        if n == 0:
            continue
        vap_logits, vad_logits, _ = _forward(params, fa, fb, cfg)
        breakdown = loss_from_logits(vap_logits, vad_logits, ts, tv)
        tot += np.array(breakdown) * n
        n_total += n
    if n_total == 0:
        raise EmptyDatasetError("no frames with targets to evaluate")
    return LossBreakdown(*(tot / n_total))


def _prepare_items(items) -> list:
    """(item id, user waveform, dialogue_frames) per (item id, dialogue)
    item, in one pass over items: everything augmentation and noisy
    evaluation rows do not touch, computed once. Of each dialogue's audio
    only the user channel is kept: they mix noise into it."""
    return [(item_id, dialogue.channel_a, dialogue_frames(dialogue)) for item_id, dialogue in items]


def _epoch_windows(prepared, augment: AugmentConfig, bank, cfg: ModelConfig,
                   stride: int, seed: int, epoch: int) -> list:
    """Fresh augmentation draw for every item, reusing cached clean features."""
    windows = []
    for item_idx, (_, user, frames) in enumerate(prepared):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(epoch, item_idx))
        )
        if bank is not None:
            cond = sample_condition(rng, bank, augment.snr_set)
            if not cond.is_clean:
                mixed, _ = apply_condition(user, cond, bank, rng)
                frames = replace(frames, features_a=extract_features(mixed))
        if rng.random() < augment.zero_robot_prob:
            frames = replace(frames, features_b=silent_features(frames.n_frames))
        windows.extend(slice_windows(frames, cfg.context_frames, stride))
    return windows


def _clip_gradients(grads: dict, max_norm: float) -> float:
    total = math.sqrt(sum(float((g**2).sum()) for g in grads.values()))
    if total > max_norm > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def check_schedule(epochs: int, lr: float, lr_decay: float, batch_size: int, window_stride: int) -> None:
    """Raise ValueError for a schedule fit cannot follow: no epoch, a step
    that is not downhill, a growing step size, or an empty batch or stride."""
    if epochs < 1 or batch_size < 1 or window_stride < 1:
        raise ValueError(
            f"epochs, batch_size and window_stride must be >= 1, "
            f"got {epochs}, {batch_size}, {window_stride}"
        )
    if not lr > 0 or not lr_decay >= 0:
        raise ValueError(f"lr must be > 0 and lr_decay >= 0, got {lr}, {lr_decay}")


def fit(
    train_items,
    valid_items,
    cfg: ModelConfig,
    *,
    epochs: int = 50,
    lr: float = 0.3,
    lr_decay: float = 0.0,
    batch_size: int = 32,
    window_stride: int = 25,
    augment: AugmentConfig = AugmentConfig(),
    bank: NoiseBank | None = None,
    clip_norm: float = 1.0,
    seed: int = 0,
    log=None,
):
    """Minibatch gradient descent with per-epoch multi-condition augmentation.

    Returns (best-validation parameters, history). History row 0 is the
    pre-training evaluation; training rows report the running loss over the
    augmented batches seen that epoch. Fully deterministic for a fixed seed.
    """
    check_schedule(epochs, lr, lr_decay, batch_size, window_stride)
    # one pass over each set, which may read its items from disk as it goes
    prepared = _prepare_items(train_items)
    valid_frames = [dialogue_frames(dialogue) for _, dialogue in valid_items]
    if not prepared or not valid_frames:
        raise EmptyDatasetError("train and valid sets must be non-empty")
    params = init_params(cfg, seed=seed)
    history = []

    valid_bd = _eval_loss(params, cfg, valid_frames)
    train_bd = _eval_loss(params, cfg, [frames for _, _, frames in prepared])
    history.append(dict(zip(HISTORY_COLUMNS, (0, *train_bd, *valid_bd))))
    best = (valid_bd.total, clone_params(params))
    if log:
        log(f"epoch 0 valid_loss={valid_bd.total:.4f} vap={valid_bd.vap:.4f}")

    order_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    for epoch in range(1, epochs + 1):
        windows = _epoch_windows(prepared, augment, bank, cfg, window_stride, seed, epoch)
        if not windows:
            raise EmptyDatasetError("no usable training windows (dialogues too short?)")
        order = order_rng.permutation(len(windows))
        step_lr = lr / (1.0 + lr_decay * (epoch - 1))
        sums = np.zeros(3)
        n_frames = 0
        for i in range(0, len(order), batch_size):
            chunk = [windows[j] for j in order[i : i + batch_size]]
            fa, fb_, ts, tv = _stack(chunk)
            breakdown, grads = batch_loss_and_grads(params, cfg, fa, fb_, ts, tv)
            if not math.isfinite(breakdown.total):
                raise TrainingDivergedError(
                    f"non-finite loss {breakdown.total} at epoch {epoch}, batch {i // batch_size}"
                )
            _clip_gradients(grads, clip_norm)
            for key, g in grads.items():
                params[key] -= step_lr * g
            n = int((ts >= 0).sum())
            sums += np.array(breakdown) * n
            n_frames += n
        train_bd = LossBreakdown(*(sums / n_frames))
        valid_bd = _eval_loss(params, cfg, valid_frames)
        if not math.isfinite(valid_bd.total):
            raise TrainingDivergedError(f"non-finite validation loss at epoch {epoch}")
        history.append(dict(zip(HISTORY_COLUMNS, (epoch, *train_bd, *valid_bd))))
        if valid_bd.total < best[0]:
            best = (valid_bd.total, clone_params(params))
        if log:
            log(
                f"epoch {epoch} train_loss={train_bd.total:.4f} "
                f"valid_loss={valid_bd.total:.4f} valid_vap={valid_bd.vap:.4f}"
            )
    return best[1], history


def eval_per_snr(
    models,
    test_items,
    bank: NoiseBank | None,
    snr_list=(math.inf, 20.0, 15.0, 10.0, 5.0),
    seed: int = 0,
):
    """Projection-task loss of each (params, cfg) model at each SNR level,
    noise on the user channel only.

    Noise draws are deterministic per (seed, SNR row, item) and shared by all
    models. The items are read in one pass, after the SNR rows are checked;
    the robot and clean user features and the targets are computed once per
    item, and of its audio only the user channel is kept. Each noisy row
    extracts only its mixed user channel, once for all models. bank may be
    None only when every row is clean. Returns one loss table {snr: L_vap}
    per model and the condition provenance rows.
    """
    models = list(models)
    for snr in snr_list:
        check_snr(snr)
        if bank is None and not math.isinf(snr):
            raise ValueError(f"SNR row {snr} needs a noise bank, got None")
    if len(set(snr_list)) < len(snr_list):
        raise ValueError(f"snr_list {snr_list} repeats a value; each row is keyed by its SNR")
    prepared = _prepare_items(test_items)
    if not prepared:
        raise EmptyDatasetError("empty test set")
    tables = [{} for _ in models]
    provenance = []
    for row_idx, snr in enumerate(snr_list):
        batches = []
        for item_idx, (item_id, user, frames) in enumerate(prepared):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(row_idx, item_idx))
            )
            cond = Condition("none", math.inf)
            if not math.isinf(snr):
                cond = Condition(bank.names[int(rng.integers(len(bank)))], float(snr))
                mixed, _ = apply_condition(user, cond, bank, rng)
                frames = replace(frames, features_a=extract_features(mixed))
            provenance.append((item_id, cond, seed))
            batches.append(frames)
        for table, (params, cfg) in zip(tables, models):
            table[snr] = _eval_loss(params, cfg, batches).vap
    return tables, provenance


# ---------------------------------------------------------------------------
# checkpoint and history files


def save_checkpoint(path, params: dict, cfg: ModelConfig) -> None:
    meta = json.dumps({"version": CHECKPOINT_VERSION, "config": cfg.to_json_dict()})
    np.savez(path, __meta__=np.array(meta), **params)


def load_checkpoint(path) -> tuple[dict, ModelConfig]:
    """Parameters and config stored by save_checkpoint.

    Raises CheckpointError unless the file exists and holds a supported
    checkpoint whose tensor names and shapes are exactly those init_params
    builds for its config, and whose values are all finite.
    """
    try:
        with np.load(path) as z:
            params = {k: z[k] for k in z.files}
        meta = json.loads(str(params.pop("__meta__").item()))
    except (OSError, EOFError, zipfile.BadZipFile, ValueError, TypeError, KeyError) as exc:
        # a missing, truncated or non-npz file, no __meta__, or meta not JSON
        raise CheckpointError(f"{path}: not a model checkpoint ({exc!r})") from exc
    version = meta.get("version") if isinstance(meta, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    try:
        cfg = ModelConfig.from_json_dict(meta["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: invalid model config: {exc}") from exc
    expected = {k: v.shape for k, v in init_params(cfg).items()}
    problems = []
    if missing := sorted(expected.keys() - params.keys()):
        problems.append(f"missing tensors {missing}")
    if extra := sorted(params.keys() - expected.keys()):
        problems.append(f"unexpected tensors {extra}")
    for k in sorted(expected.keys() & params.keys()):
        if params[k].shape != expected[k]:
            problems.append(f"{k} has shape {params[k].shape}, config needs {expected[k]}")
    if problems:
        raise CheckpointError(f"{path}: tensors disagree with the stored config: " + "; ".join(problems))
    if nonfinite := sorted(k for k, v in params.items() if not np.isfinite(v).all()):
        raise CheckpointError(f"{path}: non-finite values in tensors {nonfinite}")
    return params, cfg


def write_history_csv(path, history) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=HISTORY_COLUMNS)
        writer.writeheader()
        for row in history:
            writer.writerow(row)
