"""Multi-condition augmentation: exact-SNR mixing, condition sampling, dataset splits."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import SAMPLE_RATE, AudioError, Waveform, load_wav, mean_power, mean_square

CLEAN = math.inf
DEFAULT_SNRS_DB = (5.0, 10.0, 15.0, 20.0)
# Training condition set: uniform over clean plus the four noisy levels.
TRAIN_SNRS_DB = (CLEAN,) + DEFAULT_SNRS_DB

MIN_NOISE_CLIP_S = 1.0


class SilentAudioError(AudioError):
    """SNR is undefined for a silent signal or silent noise."""


class DatasetSplitError(ValueError):
    pass


def check_snr(snr_db: float) -> None:
    """Raise ValueError unless snr_db is a dB value or CLEAN: NaN has no
    meaning, and -inf (noise only) has no finite noise gain."""
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"SNR must be finite or +inf (clean), got {snr_db}")


@dataclass(frozen=True)
class Condition:
    """One augmentation draw: which noise clip and at what SNR (inf = clean)."""

    noise_name: str
    snr_db: float

    def __post_init__(self):
        check_snr(self.snr_db)

    @property
    def is_clean(self) -> bool:
        return self.snr_db == CLEAN

    def to_json_dict(self) -> dict:
        return {
            "noise_name": self.noise_name,
            "snr_db": "clean" if self.is_clean else self.snr_db,
        }


@dataclass(frozen=True)
class NoiseBank:
    """Named noise clips used for augmentation: at least one, each >= 1 s."""

    entries: tuple

    def __post_init__(self):
        if not self.entries:
            raise AudioError("noise bank has no clips")
        for name, clip in self.entries:
            if clip.duration_s < MIN_NOISE_CLIP_S:
                raise AudioError(f"noise clip {name!r} shorter than {MIN_NOISE_CLIP_S} s")

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, name: str) -> Waveform:
        for entry_name, clip in self.entries:
            if entry_name == name:
                return clip
        raise KeyError(name)

    @property
    def names(self) -> list:
        return [name for name, _ in self.entries]

    @classmethod
    def from_dir(cls, path) -> "NoiseBank":
        p = Path(path)
        wavs = sorted(p.glob("*.wav"))
        if not wavs:
            raise AudioError(f"no .wav files in noise directory {p}")
        return cls(tuple((f.stem, load_wav(f)) for f in wavs))


def tile_to_length(noise: Waveform, n_samples: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Tile or truncate a noise clip to n_samples, starting at a seeded random offset."""
    src = noise.samples
    if src.size == 0:
        raise SilentAudioError("cannot tile an empty noise clip")
    offset = int(rng.integers(src.size)) if rng is not None else 0
    # sample i is src[(offset + i) % src.size], copied once into the output
    out = np.empty(n_samples)
    head = src[offset : offset + n_samples]
    out[: head.size] = head
    for pos in range(head.size, n_samples, src.size):
        out[pos : pos + src.size] = src[: n_samples - pos]
    return out


def mix_at_snr(
    signal: Waveform,
    noise: Waveform,
    snr_db: float,
    rng: np.random.Generator | None = None,
    signal_power: float | None = None,
) -> tuple[Waveform, int]:
    """Superimpose noise onto a signal at an exact target SNR.

    The signal is the loudness reference: gain is applied to the noise only,
    g = sqrt(P_signal / (P_noise * 10^(snr/10))), so the measured SNR of the two
    addends equals the target before clipping. snr_db = inf returns the signal
    unchanged; NaN and -inf raise ValueError. signal_power, when given, is
    mean_power(signal), computed once by a caller that mixes one signal
    many times. Returns the mixture and the number of samples clipped to
    [-1, 1].
    """
    check_snr(snr_db)
    if snr_db == CLEAN:
        return signal, 0
    p_sig = mean_power(signal) if signal_power is None else signal_power
    if p_sig == 0.0:
        raise SilentAudioError("signal is silent; SNR undefined")
    mixed = tile_to_length(noise, len(signal), rng)
    p_noise = mean_square(mixed)
    if p_noise == 0.0:
        raise SilentAudioError("noise is silent; SNR undefined")
    gain = math.sqrt(p_sig / (p_noise * 10.0 ** (snr_db / 10.0)))
    # in place on the tiled noise: signal + gain * noise, then clipped, counted
    # only when a sample leaves [-1, 1]
    mixed *= gain
    mixed += signal.samples
    clipped = 0
    if mixed.min() < -1.0 or mixed.max() > 1.0:
        clipped = int(np.count_nonzero(mixed > 1.0)) + int(np.count_nonzero(mixed < -1.0))
        np.clip(mixed, -1.0, 1.0, out=mixed)
    return Waveform.adopt(mixed), clipped


def sample_condition(
    rng: np.random.Generator,
    bank: NoiseBank,
    snr_set=TRAIN_SNRS_DB,
) -> Condition:
    """Draw noise type and SNR level independently and uniformly."""
    snrs = tuple(snr_set)
    if not snrs:
        raise ValueError("SNR set is empty")
    name = bank.names[int(rng.integers(len(bank)))]
    snr = float(snrs[int(rng.integers(len(snrs)))])
    return Condition(noise_name=name, snr_db=snr)


def apply_condition(
    signal: Waveform,
    cond: Condition,
    bank: NoiseBank,
    rng: np.random.Generator | None = None,
    signal_power: float | None = None,
) -> tuple[Waveform, int]:
    """Mix the signal with the condition's noise clip at the condition's SNR
    (signal_power as for mix_at_snr)."""
    if cond.is_clean:
        return signal, 0
    return mix_at_snr(signal, bank.get(cond.noise_name), cond.snr_db, rng, signal_power)


def split_dataset(items, seed: int) -> tuple[list, list, list]:
    """Deterministic 8:1:1 split into (train, valid, test).

    Sizes are round(0.8 n) / round(0.1 n) / remainder; the three parts are
    disjoint and cover the input exactly.
    """
    items = list(items)
    n = len(items)
    if n < 10:
        raise DatasetSplitError(f"need at least 10 items to split, got {n}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(0.8 * n + 0.5)
    n_valid = int(0.1 * n + 0.5)
    train = [items[i] for i in order[:n_train]]
    valid = [items[i] for i in order[n_train : n_train + n_valid]]
    test = [items[i] for i in order[n_train + n_valid :]]
    return train, valid, test


def write_conditions_jsonl(records, path) -> None:
    """Emit (item id, condition, seed) rows as JSON-lines for provenance."""
    with open(path, "w") as fh:
        for item_id, cond, seed in records:
            row = {"item": item_id, "seed": seed, **cond.to_json_dict()}
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def shape_noise(white: np.ndarray, tilt_db_per_octave: float) -> np.ndarray:
    """Apply a spectral tilt (dB per octave around 1 kHz) and peak-normalize."""
    return shape_noises(white, (tilt_db_per_octave,))[0]


def shape_noises(white: np.ndarray, tilts_db_per_octave) -> list:
    """shape_noise of white at each tilt, with one spectrum and one octave
    axis for all of them."""
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(white.size, d=1.0 / SAMPLE_RATE)
    freqs[0] = freqs[1]
    octaves = np.log2(freqs / 1000.0)
    out = []
    for tilt in tilts_db_per_octave:
        shaped = np.fft.irfft(spectrum * 10.0 ** (tilt * octaves / 20.0), n=white.size)
        out.append(shaped / (np.abs(shaped).max() + 1e-12))
    return out


def synthetic_noise_bank(seed: int = 0, duration_s: float = 5.0) -> NoiseBank:
    """Built-in stand-in noise bank: white, pink, and babble-like clips."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * SAMPLE_RATE)
    white = rng.standard_normal(n)
    white /= np.abs(white).max()
    pink = shape_noise(rng.standard_normal(n), -3.0)
    babble = np.zeros(n)
    for _ in range(8):
        stream = shape_noise(rng.standard_normal(n), -4.5)
        gate = np.zeros(n)
        pos = 0
        while pos < n:
            burst = int(rng.uniform(0.15, 0.6) * SAMPLE_RATE)
            gap = int(rng.uniform(0.05, 0.4) * SAMPLE_RATE)
            gate[pos : pos + burst] = 1.0
            pos += burst + gap
        babble += stream * gate
    babble /= np.abs(babble).max() + 1e-12
    return NoiseBank(
        (
            ("white", Waveform(0.9 * white)),
            ("pink", Waveform(0.9 * pink)),
            ("babble", Waveform(0.9 * babble)),
        )
    )
