import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vapturn.audio import VadTrack
from vapturn.endpointing import (
    NoSpeechError,
    SOURCE_STT,
    SOURCE_VAP,
    SttSimConfig,
    VapEndpointerConfig,
    arbitrate,
    stt_decide,
    vap_decide,
)
from vapturn.stats import SampleDist
from vapturn.streaming import FrameResult


def make_frames(p_robot_series, vad_user=1.0):
    out = []
    for i, p in enumerate(p_robot_series, start=1):
        out.append(
            FrameResult(
                frame_index=i,
                timestamp_s=i * 0.1,
                p_now_user=1.0 - p,
                p_now_robot=p,
                vad_user=vad_user,
                vad_robot=0.0,
                vap_entropy=0.0,
                compute_ms=0.0,
            )
        )
    return out


class TestVapDecide:
    def test_flat_low_series_never_fires(self):
        frames = make_frames([0.4] * 100)
        assert vap_decide(frames, VapEndpointerConfig()) is None

    def test_jump_at_frame_30_fires_at_32(self):
        series = [0.1] * 29 + [0.9] * 20
        frames = make_frames(series)
        t = vap_decide(frames, VapEndpointerConfig(theta=0.6, consecutive_k=3))
        assert t == pytest.approx(3.2)

    def test_k_minus_one_crossing_ignored(self):
        series = [0.1] * 10 + [0.9, 0.9] + [0.1] * 10
        frames = make_frames(series)
        assert vap_decide(frames, VapEndpointerConfig(consecutive_k=3)) is None

    def test_min_user_speech_guard(self):
        # threshold crossed from the first frame, but no user speech detected
        frames = make_frames([0.9] * 20, vad_user=0.0)
        assert vap_decide(frames, VapEndpointerConfig(min_user_speech_ms=300)) is None
        # with speech present the same series fires once the guard is met
        frames2 = make_frames([0.9] * 20, vad_user=1.0)
        t = vap_decide(frames2, VapEndpointerConfig(min_user_speech_ms=300, consecutive_k=3))
        assert t == pytest.approx(0.3)

    @given(st.floats(min_value=0.55, max_value=0.85), st.floats(min_value=0.86, max_value=0.95))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_theta(self, lo, hi):
        rng = np.random.default_rng(0)
        series = np.clip(rng.random(80), 0, 1)
        frames = make_frames(series)
        t_lo = vap_decide(frames, VapEndpointerConfig(theta=lo))
        t_hi = vap_decide(frames, VapEndpointerConfig(theta=hi))
        if t_hi is not None:
            assert t_lo is not None and t_lo <= t_hi

    def test_hysteresis_ignores_short_fluctuations(self):
        base = [0.2] * 50
        for pos in (5, 17, 33):
            base[pos] = 0.95
            base[pos + 1] = 0.95  # k-1 consecutive
        frames = make_frames(base)
        assert vap_decide(frames, VapEndpointerConfig(consecutive_k=3)) is None

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_oracle(self, seed):
        # first index whose last k values exceed theta and whose speech
        # frames so far x 100 ms reach the guard
        rng = np.random.default_rng(seed)
        theta, k = float(rng.choice([0.6, 0.8, 0.9])), int(rng.integers(1, 6))
        guard = 100.0 * int(rng.integers(0, 12))
        p, speech = rng.random(200), rng.random(200) < 0.1
        frames = [replace(fr, vad_user=float(s)) for fr, s in zip(make_frames(p), speech)]
        expect = next(
            (
                frames[i].timestamp_s
                for i in range(k - 1, len(p))
                if all(p[i - k + 1 : i + 1] > theta) and speech[: i + 1].sum() * 100 >= guard
            ),
            None,
        )
        cfg = VapEndpointerConfig(theta=theta, consecutive_k=k, min_user_speech_ms=guard)
        assert vap_decide(frames, cfg) == expect

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VapEndpointerConfig(theta=0.5)
        with pytest.raises(ValueError):
            VapEndpointerConfig(consecutive_k=0)
        with pytest.raises(ValueError):
            VapEndpointerConfig(min_user_speech_ms=math.nan)
        with pytest.raises(ValueError):
            SttSimConfig(silence_threshold_ms=math.nan)


class TestSttDecide:
    def _track(self, end_active_s=1.0, total_s=3.0):
        frames = np.zeros(int(total_s * 100), dtype=bool)
        frames[: int(end_active_s * 100)] = True
        return VadTrack(frames)

    def test_arithmetic_example(self):
        cfg = SttSimConfig(
            silence_threshold_ms=800, latency=SampleDist("constant", 0.5, 0.0)
        )
        t = stt_decide(self._track(1.0), cfg, np.random.default_rng(0))
        assert t == pytest.approx(2.3)

    def test_zero_delay_degenerate(self):
        cfg = SttSimConfig(silence_threshold_ms=800, latency=SampleDist("constant", 0.0, 0.0))
        t = stt_decide(self._track(1.0), cfg, np.random.default_rng(0))
        assert t == pytest.approx(1.8)

    def test_lognormal_sampling_oracle(self):
        dist = SampleDist("lognormal", 0.6, 0.3)
        rng = np.random.default_rng(7)
        draws = np.array([dist.sample(rng) for _ in range(10000)])
        assert draws.mean() == pytest.approx(0.6, abs=0.02)
        assert draws.min() >= 0.0
        assert draws.std() == pytest.approx(0.3, abs=0.05)

    def test_all_silent_rejected(self):
        cfg = SttSimConfig()
        with pytest.raises(NoSpeechError):
            stt_decide(VadTrack(np.zeros(100, dtype=bool)), cfg, np.random.default_rng(0))

    def test_last_speech_region_counts(self):
        frames = np.zeros(400, dtype=bool)
        frames[0:50] = True
        frames[200:250] = True  # speech ends at 2.5 s
        cfg = SttSimConfig(silence_threshold_ms=800, latency=SampleDist("constant", 0.0, 0.0))
        t = stt_decide(VadTrack(frames), cfg, np.random.default_rng(0))
        assert t == pytest.approx(3.3)


class TestArbitrate:
    def test_min_rule(self):
        assert arbitrate(1.1, 2.3) == (1.1, SOURCE_VAP)

    def test_vap_absent_defaults_to_stt(self):
        assert arbitrate(None, 2.3) == (2.3, SOURCE_STT)

    def test_tie_goes_to_vap(self):
        assert arbitrate(2.3, 2.3) == (2.3, SOURCE_VAP)

    def test_stt_earlier_wins(self):
        assert arbitrate(3.0, 2.3) == (2.3, SOURCE_STT)

    @given(
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=10.0)),
        st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_dominance_property(self, vap_t, stt_t):
        decision, source = arbitrate(vap_t, stt_t)
        assert decision <= stt_t
        assert decision == (stt_t if source == SOURCE_STT else vap_t)
        if vap_t is None:
            assert source == SOURCE_STT
