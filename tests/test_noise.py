import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vapturn.audio import AudioError, Waveform, mean_power, save_wav
from vapturn.noise import (
    CLEAN,
    Condition,
    DatasetSplitError,
    NoiseBank,
    SilentAudioError,
    apply_condition,
    mix_at_snr,
    sample_condition,
    shape_noise,
    shape_noises,
    split_dataset,
    synthetic_noise_bank,
    tile_to_length,
    write_conditions_jsonl,
)


def _rand_wave(rng, n=16000, amp=0.3):
    return Waveform(np.clip(amp * rng.standard_normal(n), -1, 1))


def measured_snr_db(mixture: Waveform, signal: Waveform) -> float:
    """Oracle: recompute the powers of the two addends independently."""
    noise_part = mixture.samples - signal.samples
    p_sig = float(np.mean(signal.samples**2))
    p_noise = float(np.mean(noise_part**2))
    return 10.0 * math.log10(p_sig / p_noise)


class TestMixAtSnr:
    def test_equal_power_zero_db_gain_one(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(8000)
        sig = Waveform(np.clip(0.1 * x, -1, 1))
        noi = Waveform(np.clip(0.1 * rng.standard_normal(8000), -1, 1))
        # scale noise to exactly the signal power so g must be 1
        scaled = Waveform(noi.samples * math.sqrt(mean_power(sig) / mean_power(noi)))
        mixed, clipped = mix_at_snr(sig, scaled, 0.0)
        assert clipped == 0
        assert np.allclose(mixed.samples - sig.samples, scaled.samples, atol=1e-12)

    def test_clean_condition_identity(self):
        rng = np.random.default_rng(1)
        sig = _rand_wave(rng)
        noi = _rand_wave(rng)
        mixed, clipped = mix_at_snr(sig, noi, CLEAN)
        assert clipped == 0
        assert mixed is sig

    def test_measured_snr_at_5db(self):
        rng = np.random.default_rng(2)
        sig = _rand_wave(rng, amp=0.2)
        noi = _rand_wave(rng, amp=0.4)
        mixed, clipped = mix_at_snr(sig, noi, 5.0)
        assert clipped == 0
        assert measured_snr_db(mixed, sig) == pytest.approx(5.0, abs=0.1)

    @pytest.mark.parametrize("snr", [math.nan, -math.inf])
    def test_undefined_snr_rejected(self, snr):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="SNR"):
            mix_at_snr(_rand_wave(rng), _rand_wave(rng), snr)

    def test_silent_signal_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(SilentAudioError):
            mix_at_snr(Waveform(np.zeros(1000)), _rand_wave(rng), 10.0)

    def test_silent_noise_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(SilentAudioError):
            mix_at_snr(_rand_wave(rng), Waveform(np.zeros(1000)), 10.0)

    def test_noise_tiled_to_signal_length(self):
        rng = np.random.default_rng(5)
        sig = _rand_wave(rng, n=20000)
        noi = _rand_wave(rng, n=4000)
        mixed, _ = mix_at_snr(sig, noi, 10.0)
        assert len(mixed) == 20000
        assert measured_snr_db(mixed, sig) == pytest.approx(10.0, abs=0.1)

    def test_tiling_offset_seeded(self):
        rng = np.random.default_rng(6)
        noi = _rand_wave(rng, n=3000)
        t1 = tile_to_length(noi, 9000, np.random.default_rng(9))
        t2 = tile_to_length(noi, 9000, np.random.default_rng(9))
        t3 = tile_to_length(noi, 9000, np.random.default_rng(10))
        assert np.array_equal(t1, t2)
        assert not np.array_equal(t1, t3)

    @pytest.mark.parametrize("n_samples", [0, 1234, 3000, 3 * 3000 + 77])
    @pytest.mark.parametrize("offset", [0, 1500, 2999])
    def test_tiling_follows_the_clip_from_its_offset(self, offset, n_samples):
        noi = _rand_wave(np.random.default_rng(7), n=3000)

        class FixedOffset:
            def integers(self, high):
                return offset

        tiled = tile_to_length(noi, n_samples, FixedOffset())
        assert np.array_equal(tiled, noi.samples[(offset + np.arange(n_samples)) % 3000])

    @given(st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=20, deadline=None)
    def test_linear_in_signal_before_clipping(self, a):
        rng = np.random.default_rng(12)
        base = 0.15 * rng.standard_normal(6000)
        noi = _rand_wave(rng, n=6000, amp=0.15)
        sig = Waveform(np.clip(base, -1, 1))
        sig_a = Waveform(np.clip(a * base, -1, 1))
        m1, c1 = mix_at_snr(sig, noi, 12.0)
        m2, c2 = mix_at_snr(sig_a, noi, 12.0)
        assert c1 == c2 == 0
        p1 = float(np.mean((m1.samples - sig.samples) ** 2))
        p2 = float(np.mean((m2.samples - sig_a.samples) ** 2))
        assert p2 == pytest.approx(a * a * p1, rel=1e-6)

    def test_clipped_mixture_counts_and_clips_every_sample_outside(self):
        # noise 5 dB louder than a loud signal: many samples leave [-1, 1]
        rng = np.random.default_rng(13)
        sig = _rand_wave(rng, n=4000, amp=0.6)
        noi = _rand_wave(rng, n=1500, amp=0.6)
        mixed, clipped = mix_at_snr(sig, noi, -5.0, np.random.default_rng(14))
        tiled = tile_to_length(noi, 4000, np.random.default_rng(14))
        gain = math.sqrt(mean_power(sig) / (float(np.mean(tiled**2)) * 10.0 ** (-5.0 / 10.0)))
        raw = sig.samples + gain * tiled
        outside = sum(1 for v in raw.tolist() if v > 1.0 or v < -1.0)
        assert (raw > 1.0).any() and (raw < -1.0).any()
        assert clipped == outside
        assert mixed.samples.tobytes() == np.clip(raw, -1.0, 1.0).tobytes()

    def test_memory_peak_is_the_mixture(self, traced_peak_bytes):
        # mixed in place in the tiled noise, whose power is summed a block
        # at a time, and handed to the Waveform with no copy
        rng = np.random.default_rng(6)
        sig = _rand_wave(rng, n=30 * 16000)
        noi = _rand_wave(rng, n=5 * 16000)
        kept = 30 * 16000 * 8
        assert traced_peak_bytes(lambda: mix_at_snr(sig, noi, 5.0, rng)) < 1.5 * kept


def test_shape_noises_has_the_bits_of_shape_noise_per_tilt():
    white = np.random.default_rng(0).standard_normal(4001)
    tilts = (-4.0, -13.0, 10.0)
    for tilt, shaped in zip(tilts, shape_noises(white, tilts)):
        assert np.array_equal(shaped, shape_noise(white, tilt))


class TestSampleCondition:
    def test_single_entry_single_snr(self):
        bank = synthetic_noise_bank(0)
        one = NoiseBank((bank.entries[0],))
        rng = np.random.default_rng(0)
        for _ in range(5):
            cond = sample_condition(rng, one, (10.0,))
            assert cond == Condition("white", 10.0)

    def test_fixed_seed_reproducible(self):
        bank = synthetic_noise_bank(0)
        seq1 = [sample_condition(np.random.default_rng(42), bank) for _ in range(1)]
        draws1 = []
        draws2 = []
        r1 = np.random.default_rng(42)
        r2 = np.random.default_rng(42)
        for _ in range(50):
            draws1.append(sample_condition(r1, bank, (5.0, 10.0, 15.0, 20.0)))
            draws2.append(sample_condition(r2, bank, (5.0, 10.0, 15.0, 20.0)))
        assert draws1 == draws2
        assert seq1  # draws happened

    def test_snr_frequencies_uniform(self):
        bank = synthetic_noise_bank(0)
        rng = np.random.default_rng(123)
        counts = {5.0: 0, 10.0: 0, 15.0: 0, 20.0: 0}
        n = 10000
        for _ in range(n):
            counts[sample_condition(rng, bank, (5.0, 10.0, 15.0, 20.0)).snr_db] += 1
        for snr, c in counts.items():
            assert c / n == pytest.approx(0.25, abs=0.02), snr

    def test_empty_rejected(self):
        bank = synthetic_noise_bank(0)
        with pytest.raises(ValueError):
            sample_condition(np.random.default_rng(0), bank, ())

    @pytest.mark.parametrize("snr", [math.nan, -math.inf])
    def test_condition_rejects_undefined_snr(self, snr):
        # -inf is not clean: it has no finite noise gain
        with pytest.raises(ValueError, match="SNR"):
            Condition("white", snr)

    def test_apply_condition_clean_passthrough(self):
        bank = synthetic_noise_bank(0)
        rng = np.random.default_rng(1)
        sig = _rand_wave(rng)
        out, clipped = apply_condition(sig, Condition("white", CLEAN), bank)
        assert out is sig and clipped == 0


class TestSplitDataset:
    def test_ten_items_split_8_1_1(self):
        train, valid, test = split_dataset([f"i{k}" for k in range(10)], seed=0)
        assert (len(train), len(valid), len(test)) == (8, 1, 1)

    def test_hundred_items_partition(self):
        items = [f"i{k}" for k in range(100)]
        train, valid, test = split_dataset(items, seed=3)
        assert (len(train), len(valid), len(test)) == (80, 10, 10)
        union = set(train) | set(valid) | set(test)
        assert union == set(items)
        assert not (set(train) & set(valid)) and not (set(train) & set(test))
        assert not (set(valid) & set(test))

    def test_deterministic_and_seed_sensitive(self):
        items = [f"i{k}" for k in range(100)]
        a = split_dataset(items, seed=7)
        b = split_dataset(items, seed=7)
        c = split_dataset(items, seed=8)
        assert a == b
        assert a != c

    def test_too_few_items(self):
        with pytest.raises(DatasetSplitError):
            split_dataset(list(range(9)), seed=0)

    @given(st.integers(min_value=10, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n):
        items = list(range(n))
        train, valid, test = split_dataset(items, seed=n)
        assert len(train) == int(0.8 * n + 0.5)
        assert len(valid) == int(0.1 * n + 0.5)
        assert len(train) + len(valid) + len(test) == n
        assert sorted(train + valid + test) == items


class TestNoiseBank:
    def test_from_dir(self, tmp_path):
        rng = np.random.default_rng(0)
        for name in ("amb", "hum"):
            save_wav(_rand_wave(rng, n=17000), tmp_path / f"{name}.wav")
        bank = NoiseBank.from_dir(tmp_path)
        assert bank.names == ["amb", "hum"]
        assert bank.get("hum").duration_s > 1.0

    def test_empty_bank_rejected_at_construction(self):
        with pytest.raises(AudioError, match="no clips"):
            NoiseBank(())

    def test_short_clip_rejected(self):
        with pytest.raises(Exception):
            NoiseBank((("tiny", Waveform(np.zeros(100) + 0.1)),))

    def test_synthetic_bank_contents(self):
        bank = synthetic_noise_bank(5)
        assert bank.names == ["white", "pink", "babble"]
        for _, clip in bank.entries:
            assert clip.duration_s >= 1.0
            assert mean_power(clip) > 0

    def test_conditions_jsonl(self, tmp_path):
        path = tmp_path / "conds.jsonl"
        write_conditions_jsonl(
            [("d1", Condition("white", 5.0), 1), ("d2", Condition("pink", CLEAN), 1)], path
        )
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0] == {"item": "d1", "noise_name": "white", "snr_db": 5.0, "seed": 1}
        assert rows[1]["snr_db"] == "clean"
