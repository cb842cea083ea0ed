import math

import numpy as np
import pytest

from vapturn import features
from vapturn.audio import AudioError, Waveform
from vapturn.codebook import LABELS_PER_FEATURE_FRAME
from vapturn.endpointing import FRAME_MS
from vapturn.features import (
    HOP_SAMPLES,
    KINDS,
    LEAD_FRAMES,
    LOG_FLOOR,
    N_MELS,
    WINDOW_SAMPLES,
    NonFiniteAudioError,
    extract_features,
    feature_frame_count,
    hop_frames,
    hz_to_mel,
    kind_rows,
    mel_band_edges_hz,
    mel_filterbank,
    silent_features,
)
from vapturn.streaming import TICK_PERIOD_S


def oracle_band_for_tone(freq_hz: float) -> int:
    """Which triangle responds most to a pure tone, from the mel formula alone."""
    edges = 700.0 * (
        10.0 ** (np.linspace(0.0, 2595.0 * math.log10(1 + 8000 / 700), N_MELS + 2) / 2595.0) - 1.0
    )
    best, best_w = -1, -1.0
    for k in range(N_MELS):
        lo, mid, hi = edges[k], edges[k + 1], edges[k + 2]
        if lo <= freq_hz <= hi:
            w = (freq_hz - lo) / (mid - lo) if freq_hz <= mid else (hi - freq_hz) / (hi - mid)
            if w > best_w:
                best, best_w = k, w
    return best


def test_silence_hits_log_floor():
    feats = extract_features(Waveform(np.zeros(16000)))
    assert feats.shape == (10, N_MELS)
    assert np.all(feats == math.log(LOG_FLOOR))


@pytest.mark.parametrize("n_frames", [4, 6, 33, 50])
def test_silent_features_equal_features_of_zeros(n_frames):
    # the one definition of a silent channel: bit-equal to the frontend's
    # output for that many hops of digital zeros, and shared read-only
    feats = silent_features(n_frames)
    reference = extract_features(np.zeros(n_frames * HOP_SAMPLES))
    assert feats.shape == reference.shape == (n_frames, N_MELS)
    assert feats.tobytes() == reference.tobytes()
    assert not feats.flags.writeable


def test_one_second_gives_ten_frames():
    rng = np.random.default_rng(0)
    feats = extract_features(Waveform(np.clip(0.3 * rng.standard_normal(16000), -1, 1)))
    assert feats.shape == (10, N_MELS)


def test_partial_hop_dropped():
    feats = extract_features(np.zeros(HOP_SAMPLES * 3 + 100))
    assert feats.shape[0] == 3


def test_empty_audio_empty_features():
    assert extract_features(np.zeros(0)).shape == (0, N_MELS)
    assert extract_features(np.zeros(HOP_SAMPLES - 1)).shape == (0, N_MELS)


def test_tone_argmax_matches_mel_geometry_oracle():
    t = np.arange(32000)
    tone = 0.5 * np.sin(2 * np.pi * 1000.0 * t / 16000.0)
    feats = extract_features(Waveform(tone))
    expect = oracle_band_for_tone(1000.0)
    assert expect >= 0
    for frame in feats:
        assert int(np.argmax(frame)) == expect


def test_deterministic():
    rng = np.random.default_rng(1)
    x = np.clip(0.2 * rng.standard_normal(48000), -1, 1)
    a = extract_features(x)
    b = extract_features(x)
    assert np.array_equal(a, b)


def test_causal_prefix_stability():
    # features of a prefix equal the leading rows of the full extraction
    rng = np.random.default_rng(2)
    x = np.clip(0.2 * rng.standard_normal(5 * HOP_SAMPLES), -1, 1)
    full = extract_features(x)
    prefix = extract_features(x[: 3 * HOP_SAMPLES])
    assert np.array_equal(full[:3], prefix)


def test_window_covers_400ms():
    assert WINDOW_SAMPLES == 4 * HOP_SAMPLES == 6400


def test_time_grid_derived_from_hop():
    # tick period, endpointer frame and labels per feature frame all follow
    # HOP_SAMPLES; these are their values at the 100 ms hop
    assert TICK_PERIOD_S == 0.1
    assert FRAME_MS == 100.0
    assert LABELS_PER_FEATURE_FRAME == 10


def test_filterbank_geometry():
    bank = mel_filterbank()
    assert bank.shape == (N_MELS, WINDOW_SAMPLES // 2 + 1)
    # every filter has positive area and peaks at its own center
    assert np.all(bank.sum(axis=1) > 0)
    edges = mel_band_edges_hz()
    assert edges[0] == pytest.approx(0.0)
    assert edges[-1] == pytest.approx(8000.0)
    mels = hz_to_mel(edges)
    gaps = np.diff(mels)
    assert np.allclose(gaps, gaps[0], atol=1e-9)


def _dense_log_mel(frames, kinds=LEAD_FRAMES):
    """The frontend as one product of every frame's power with the whole
    filterbank: frame i with its leading LEAD_FRAMES - kinds[i] hops zeroed,
    Hann-windowed."""
    dropped = np.arange(WINDOW_SAMPLES) < (LEAD_FRAMES - np.asarray(kinds))[..., None] * HOP_SAMPLES
    spectrum = np.fft.rfft(np.where(dropped, 0.0, frames) * np.hanning(WINDOW_SAMPLES), axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    return np.log(np.maximum(power @ mel_filterbank().T, LOG_FLOOR))


def _one_product_features(samples):
    """The frontend as one product over every frame of the recording."""
    return _dense_log_mel(hop_frames(samples, np.arange(feature_frame_count(samples.size))))


def _frame_by_frame_features(samples):
    """The frontend run on each frame alone."""
    frames = hop_frames(samples, np.arange(feature_frame_count(samples.size)))
    return np.array([features._log_mel(frame[None])[0] for frame in frames]).reshape(-1, N_MELS)


# how far the band groups' 4-row products may round from one dense product
# over all frames; with OpenBLAS 0.3.31 on SkylakeX kernels the largest gap
# seen is 3.6e-15, over these tests' inputs and every channel of
# make_corpus(10)
ONE_PRODUCT_BOUND = 1e-13


def _assert_frontend_bits(samples, got):
    assert got.shape == (feature_frame_count(samples.size), N_MELS)
    assert got.tobytes() == _frame_by_frame_features(samples).tobytes()
    assert np.abs(got - _one_product_features(samples)).max(initial=0.0) <= ONE_PRODUCT_BOUND


def test_band_groups_hold_the_whole_filterbank():
    # each band is in one group, and the groups' weights put back at their
    # bands and bins rebuild the filterbank: no nonzero weight is outside
    # its group's bins
    bank = mel_filterbank()
    rebuilt = np.zeros_like(bank)
    groups_of_band = np.zeros(N_MELS, dtype=int)
    for bands, bins, weights in features._BAND_GROUPS:
        rebuilt[bands, bins] = weights
        groups_of_band[bands] += 1
    assert (groups_of_band == 1).all()
    assert rebuilt.tobytes() == bank.tobytes()


def test_log_mel_agrees_with_the_dense_product():
    rng = np.random.default_rng(19)
    frames = np.logspace(-4, 0, 13)[:, None] * np.tanh(rng.standard_normal((13, WINDOW_SAMPLES)))
    mixed = rng.integers(0, len(KINDS), len(frames))
    for kinds in [*KINDS, mixed]:
        gap = np.abs(features._log_mel(frames, kinds) - _dense_log_mel(frames, kinds)).max()
        assert gap <= ONE_PRODUCT_BOUND, kinds


def test_log_mel_rows_do_not_depend_on_the_batch():
    # the rule the frontend rests on: a row of _log_mel has the bits of its
    # frame computed alone, whatever the batch size and the row's place in it
    rng = np.random.default_rng(16)
    frames = 0.1 * rng.standard_normal((40, WINDOW_SAMPLES))
    frames[5, : 3 * HOP_SAMPLES] = 0.0  # a frame that sounds in its last hop only
    alone = np.array([features._log_mel(frame[None])[0] for frame in frames])
    for n in range(1, 41):
        assert features._log_mel(frames[:n]).tobytes() == alone[:n].tobytes(), n
        order = rng.permutation(n)
        assert features._log_mel(frames[order]).tobytes() == alone[order].tobytes(), n


def test_kind_windows_equal_zeroing_the_dropped_hops():
    # kind m's analysis window zeroes a frame's leading LEAD_FRAMES - m hops:
    # rows equal those of the frames with those hops set to +0.0, byte for
    # byte, also where they hold negative samples, which the window turns
    # into -0.0
    rng = np.random.default_rng(17)
    frames = 0.1 * rng.standard_normal((24, WINDOW_SAMPLES))
    frames[0, : LEAD_FRAMES * HOP_SAMPLES] = -np.abs(frames[0, : LEAD_FRAMES * HOP_SAMPLES])
    kinds = np.r_[KINDS, rng.integers(0, len(KINDS), len(frames) - len(KINDS))]
    zeroed = frames.copy()
    for row, m in zip(zeroed, kinds):
        row[: (LEAD_FRAMES - m) * HOP_SAMPLES] = 0.0
    assert features._log_mel(frames, kinds).tobytes() == features._log_mel(zeroed).tobytes()
    for m in KINDS:  # one kind for the whole batch
        dropped = np.arange(WINDOW_SAMPLES) < (LEAD_FRAMES - m) * HOP_SAMPLES
        expected = features._log_mel(np.where(dropped, 0.0, frames))
        assert features._log_mel(frames, m).tobytes() == expected.tobytes()


def test_pair_with_silent_kept_hops_gets_the_silent_row():
    # frame 3 sounds in its first hop only, negative samples there: its
    # kinds 0-2 keep only silent hops and get exactly the silent row
    samples = np.zeros(WINDOW_SAMPLES)
    samples[:HOP_SAMPLES] = -0.1 * np.abs(np.random.default_rng(18).standard_normal(HOP_SAMPLES))
    rows = kind_rows(samples, LEAD_FRAMES, KINDS)
    assert rows[:LEAD_FRAMES].tobytes() == silent_features(LEAD_FRAMES).tobytes()
    assert rows[LEAD_FRAMES].tobytes() == extract_features(samples)[LEAD_FRAMES].tobytes()
    assert (rows[LEAD_FRAMES] != silent_features(1)[0]).any()


def test_blocked_frontend_keeps_the_bits_of_each_frame_alone():
    rng = np.random.default_rng(12)
    counts = list(range(81)) + [32 * k + r for k in (3, 4, 9) for r in range(1, 8)]
    for n_frames in counts:
        samples = 0.1 * rng.standard_normal(n_frames * HOP_SAMPLES + int(rng.integers(HOP_SAMPLES)))
        samples[: 2 * HOP_SAMPLES] = 0.0  # rows at the log floor too
        _assert_frontend_bits(samples, extract_features(samples))


def test_frontend_skips_frames_without_sound(frontend_calls):
    # a frame with no nonzero sample gets the silent row without the
    # frontend, which gets exactly the frames with sound
    rng = np.random.default_rng(14)
    for _ in range(60):
        n_frames = int(rng.integers(1, 120))
        samples = np.zeros(n_frames * HOP_SAMPLES)
        for _ in range(int(rng.integers(0, 6))):
            start = int(rng.integers(samples.size))
            burst = samples[start : start + int(rng.integers(1, 3 * HOP_SAMPLES))]
            burst[:] = 0.1 * rng.standard_normal(burst.size)
        hops = samples.reshape(n_frames, HOP_SAMPLES).any(axis=1)
        sounding = [t for t in range(n_frames) if hops[max(0, t - 3) : t + 1].any()]
        frontend_calls.clear()
        got = extract_features(samples)
        frontend_frames = np.concatenate([np.empty((0, WINDOW_SAMPLES))] + frontend_calls)
        assert np.array_equal(frontend_frames, hop_frames(samples, sounding))
        _assert_frontend_bits(samples, got)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_raw_non_finite_audio_rejected(bad):
    # one bad sample in 4800 would otherwise turn every feature NaN
    samples = 0.1 * np.random.default_rng(15).standard_normal(3 * HOP_SAMPLES)
    samples[1234] = bad
    with pytest.raises(NonFiniteAudioError, match="1 NaN or infinite"):
        extract_features(samples)


def test_raw_audio_must_be_one_dimensional():
    with pytest.raises(AudioError, match="1-D"):
        extract_features(np.zeros((2, 2 * HOP_SAMPLES)))


def test_memory_peak_does_not_grow_with_the_recording(traced_peak_bytes):
    samples = 0.1 * np.random.default_rng(13).standard_normal(60 * 10 * HOP_SAMPLES)
    # spectra of the whole minute at once would take 66 MiB, and a padded
    # copy of the recording before striding took the peak to 11.8 MiB
    assert traced_peak_bytes(lambda: extract_features(samples)) < 8 * 2**20


def test_hop_frames_reads_the_samples_in_place():
    samples = np.arange(6 * HOP_SAMPLES, dtype=np.float64)
    frames = hop_frames(samples, [3, 4, 5])
    assert np.shares_memory(frames, samples) and not frames.flags.writeable
    # the first frames reach before the start: zeros, then the samples so far
    head = hop_frames(samples, [0, 5, 2])
    assert not np.shares_memory(head, samples)
    assert np.array_equal(head[0], np.r_[np.zeros(3 * HOP_SAMPLES), samples[:HOP_SAMPLES]])
    assert np.array_equal(head[1], samples[2 * HOP_SAMPLES :])
    assert np.array_equal(head[2], np.r_[np.zeros(HOP_SAMPLES), samples[: 3 * HOP_SAMPLES]])
    for outside in ([5, 6], [6], [-1]):
        with pytest.raises(IndexError, match="not one of the 6 frames"):
            hop_frames(samples, outside)
