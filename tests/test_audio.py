import ast
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vapturn
from vapturn.audio import (
    AudioError,
    EmptyWaveformError,
    UnsupportedChannelCountError,
    UnsupportedEncodingError,
    UnsupportedSampleRateError,
    VadTrack,
    Waveform,
    label_frame_count,
    load_wav,
    mean_power,
    mean_square,
    save_wav,
)


def test_waveform_rejects_out_of_range():
    with pytest.raises(AudioError):
        Waveform(np.array([0.0, 1.5]))


def test_waveform_is_immutable():
    w = Waveform(np.zeros(4))
    with pytest.raises(ValueError):
        w.samples[0] = 1.0


class TestAdopt:
    def test_keeps_the_array_it_is_handed(self):
        x = np.linspace(-1.0, 1.0, 9)
        w = Waveform.adopt(x)
        assert w.samples is x
        with pytest.raises(ValueError):
            w.samples[0] = 0.0

    def test_checks_as_the_constructor_does(self):
        for bad in (np.zeros((2, 2)), np.array([0.0, np.nan]), np.array([np.inf]), np.array([0.0, -1.5])):
            with pytest.raises(AudioError):
                Waveform.adopt(bad)

    def test_clips_rounding_overshoot_in_place(self):
        x = np.array([0.5, 1.0 + 1e-12, -1.0 - 1e-12])
        w = Waveform.adopt(x)
        assert w.samples is x
        assert x.tolist() == [0.5, 1.0, -1.0]


class TestWavIO:
    def test_silence_roundtrip(self, tmp_path):
        w = Waveform(np.zeros(16000))
        path = tmp_path / "z.wav"
        save_wav(w, path)
        back = load_wav(path)
        assert len(back) == 16000
        assert back.duration_s == 1.0
        assert np.all(back.samples == 0.0)

    def test_normalization_definition(self, tmp_path):
        # 32767 stored -> 32767/32768 on load
        import wave

        path = tmp_path / "one.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(np.array([32767], dtype="<i2").tobytes())
        w = load_wav(path)
        assert w.samples[0] == pytest.approx(32767 / 32768, abs=1e-12)

    def test_full_scale_saturates_to_32767(self, tmp_path):
        import wave

        path = tmp_path / "sat.wav"
        save_wav(Waveform(np.array([1.0, -1.0])), path)
        with wave.open(str(path), "rb") as fh:
            raw = np.frombuffer(fh.readframes(2), dtype="<i2")
        assert raw[0] == 32767
        assert raw[1] == -32768

    def test_zeros_written_as_zero_bytes(self, tmp_path):
        import wave

        path = tmp_path / "z2.wav"
        save_wav(Waveform(np.zeros(123)), path)
        with wave.open(str(path), "rb") as fh:
            raw = fh.readframes(fh.getnframes())
        assert raw == b"\x00" * (2 * 123)

    def test_roundtrip_oracle_100_random_waveforms(self, tmp_path):
        # independent oracle: per-sample quantization error bounded by one step
        rng = np.random.default_rng(42)
        path = tmp_path / "rt.wav"
        for i in range(100):
            n = int(rng.integers(1, 4000))
            w = Waveform(rng.uniform(-1.0, 1.0, n))
            save_wav(w, path)
            back = load_wav(path)
            assert len(back) == n
            assert np.max(np.abs(back.samples - w.samples)) <= 1.0 / 32768

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wav(tmp_path / "nope.wav")

    def test_wrong_rate(self, tmp_path):
        import wave

        path = tmp_path / "slow.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(b"\x00\x00" * 10)
        with pytest.raises(UnsupportedSampleRateError):
            load_wav(path)

    def test_wrong_channels(self, tmp_path):
        import wave

        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(b"\x00\x00\x00\x00" * 10)
        with pytest.raises(UnsupportedChannelCountError):
            load_wav(path)

    def test_wrong_width(self, tmp_path):
        import wave

        path = tmp_path / "w8.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(16000)
            fh.writeframes(b"\x00" * 10)
        with pytest.raises(UnsupportedEncodingError):
            load_wav(path)

    def test_memory_peak_is_the_samples_and_the_file_bytes(self, tmp_path, traced_peak_bytes):
        # the float samples are scaled in place and kept, with no copy:
        # 8 bytes per sample plus the 2 of the PCM bytes read
        path = tmp_path / "long.wav"
        save_wav(Waveform(0.3 * np.sin(np.arange(30 * 16000) / 7.0)), path)
        kept = 30 * 16000 * 8
        assert traced_peak_bytes(lambda: load_wav(path)) < 1.5 * kept

    def test_not_a_wav(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not RIFF data")
        with pytest.raises(UnsupportedEncodingError):
            load_wav(path)


class TestPower:
    def test_constant_half(self):
        assert mean_power(Waveform(np.full(100, 0.5))) == pytest.approx(0.25)

    def test_silence(self):
        assert mean_power(Waveform(np.zeros(100))) == 0.0

    def test_unit_sine(self):
        t = np.arange(16000)
        w = Waveform(np.sin(2 * np.pi * 100 * t / 16000))  # 100 full periods
        assert mean_power(w) == pytest.approx(0.5, abs=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(EmptyWaveformError):
            mean_power(Waveform(np.zeros(0)))

    @given(st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_quadratic(self, k):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, 500)
        p1 = mean_power(Waveform(x))
        pk = mean_power(Waveform(k * x))
        assert pk == pytest.approx(k * k * p1, rel=1e-9)


@pytest.mark.parametrize("n", [1, 7, 129, 65536, 65537, 131081, 480000, 1_000_003])
def test_mean_square_has_the_bits_of_numpy_mean(n):
    x = np.random.default_rng(n).standard_normal(n) * 0.3
    assert mean_square(x) == float(np.mean(x**2))


def test_mean_square_keeps_no_reference_to_its_input():
    # a reference cycle would hold each mixture until the garbage collector
    # ran, and training's memory grew by a mixture per noisy window
    x = np.random.default_rng(0).standard_normal(200_000)
    ref = weakref.ref(x)
    gc.disable()
    try:
        mean_square(x)
        del x
        assert ref() is None
    finally:
        gc.enable()


def test_sample_rate_written_once_in_src():
    # 16 kHz, its 100 ms hop and 400 ms window appear as integer literals
    # only in audio.SAMPLE_RATE's assignment; everything else derives them
    found = []
    for path in sorted(Path(vapturn.__file__).parent.glob("*.py")):
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Constant) and type(node.value) is int and node.value in (16000, 1600, 6400):
                found.append(f"{path.name}: {source.splitlines()[node.lineno - 1]}")
    assert found == ["audio.py: SAMPLE_RATE = 16000"]


def test_label_frame_count_rounds_up():
    # a partial 10 ms frame at the end counts as a label frame
    expect = {1: 1, 159: 1, 160: 1, 161: 2, 16000: 100, 16001: 101}
    assert {n: label_frame_count(n) for n in expect} == expect


def test_vadtrack_immutable():
    track = VadTrack(np.zeros(10, dtype=bool))
    with pytest.raises(ValueError):
        track.frames[0] = True
