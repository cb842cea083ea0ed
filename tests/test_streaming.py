import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vapturn.codebook import p_now_pair
from vapturn.features import HOP_SAMPLES, extract_features
from vapturn.model import FrameBatch, ModelConfig, forward, init_params
from vapturn.streaming import (
    FrameResult,
    MismatchedChunkError,
    ModelNotAttachedError,
    NonFiniteAudioError,
    StreamContext,
    replay,
    run_stream,
)


@pytest.fixture(scope="module")
def cfg():
    return ModelConfig()


@pytest.fixture(scope="module")
def params(cfg):
    return init_params(cfg, seed=2)


def _audio(seconds, seed=0, amp=0.3):
    rng = np.random.default_rng(seed)
    return np.clip(amp * rng.standard_normal(int(seconds * 16000)), -1, 1)


def offline_frame_results(params, cfg, audio_a, audio_b=None):
    """Oracle: independent full recompute of every tick over its trailing window."""
    cap = cfg.context_samples
    b = np.zeros_like(audio_a) if audio_b is None else audio_b
    out = []
    n_ticks = audio_a.size // 1600
    for k in range(1, n_ticks + 1):
        end = k * 1600
        win_a = np.zeros(cap)
        win_b = np.zeros(cap)
        seg_a = audio_a[max(0, end - cap) : end]
        seg_b = b[max(0, end - cap) : end]
        win_a[cap - seg_a.size :] = seg_a
        win_b[cap - seg_b.size :] = seg_b
        pred = forward(params, FrameBatch(extract_features(win_a), extract_features(win_b)), cfg)
        p_user, p_robot = p_now_pair(pred.vap[-1])
        out.append((p_user, p_robot, float(pred.vad[-1, 0]), float(pred.vad[-1, 1])))
    return out


class TestRate:
    def test_exactly_floor_10n_results(self, params, cfg):
        rng = np.random.default_rng(1)
        audio = _audio(10.0, seed=1)
        ctx = StreamContext(params, cfg)
        results = []
        pos = 0
        while pos < audio.size:
            step = int(rng.integers(1, 7000))
            ctx.push_audio(audio[pos : pos + step])
            results.extend(ctx.tick_all())
            pos += step
        assert len(results) == 100
        assert [r.frame_index for r in results] == list(range(1, 101))
        for r in results:
            assert r.timestamp_s == pytest.approx(r.frame_index * 0.1)

    def test_non_multiple_duration(self, params, cfg):
        audio = _audio(1.234, seed=2)
        results = run_stream(params, cfg, audio)
        assert len(results) == 12  # floor(12.34)

    def test_push_one_hop_one_tick(self, params, cfg):
        ctx = StreamContext(params, cfg)
        ctx.push_audio(np.zeros(1600))
        assert ctx.tick_due
        first = ctx.tick()
        assert isinstance(first, FrameResult)
        assert ctx.tick() is None


class TestEquivalence:
    def test_streaming_matches_offline_recompute(self, params, cfg):
        audio = _audio(8.0, seed=3)
        results = run_stream(params, cfg, audio)
        oracle = offline_frame_results(params, cfg, audio)
        assert len(results) == len(oracle)
        worst = max(
            max(abs(r.p_now_user - o[0]), abs(r.p_now_robot - o[1]))
            for r, o in zip(results, oracle)
        )
        assert worst <= 1e-5

    def test_chunking_invariance_bit_exact(self, params, cfg):
        audio = _audio(6.0, seed=4)
        base = run_stream(params, cfg, audio, chunk_samples=1600)
        odd = run_stream(params, cfg, audio, chunk_samples=731)
        big = run_stream(params, cfg, audio, chunk_samples=160000)
        for other in (odd, big):
            assert len(other) == len(base)
            for a, b in zip(base, other):
                assert a.p_now_user == b.p_now_user
                assert a.p_now_robot == b.p_now_robot
                assert a.vad == b.vad

    def test_buffer_keeps_only_last_five_seconds(self, params, cfg):
        # prepend loud audio more than 5 s before the probe point: no effect
        tail = _audio(5.0, seed=5)
        head1 = np.zeros(32000)
        head2 = np.clip(0.9 * np.random.default_rng(6).standard_normal(32000), -1, 1)
        r1 = run_stream(params, cfg, np.concatenate([head1, tail]))
        r2 = run_stream(params, cfg, np.concatenate([head2, tail]))
        assert r1[-1].p_now_user == r2[-1].p_now_user
        assert r1[-1].vad == r2[-1].vad

    def test_omitted_robot_channel_is_zeros(self, params, cfg):
        audio = _audio(3.0, seed=7)
        implicit = run_stream(params, cfg, audio)
        explicit = run_stream(params, cfg, audio, np.zeros_like(audio))
        for a, b in zip(implicit, explicit):
            assert a.p_now_user == b.p_now_user
            assert a.vad == b.vad


class TestContract:
    def test_mismatched_chunks_rejected(self, params, cfg):
        ctx = StreamContext(params, cfg)
        with pytest.raises(MismatchedChunkError):
            ctx.push_audio(np.zeros(100), np.zeros(99))

    def test_tick_without_model(self, cfg):
        ctx = StreamContext(None, cfg)
        ctx.push_audio(np.zeros(1600))
        with pytest.raises(ModelNotAttachedError):
            ctx.tick()

    def test_result_invariants(self, params, cfg):
        results = run_stream(params, cfg, _audio(2.0, seed=8))
        for r in results:
            assert abs(r.p_now_user + r.p_now_robot - 1.0) <= 1e-6
            assert 0.0 <= r.vad_user <= 1.0 and 0.0 <= r.vad_robot <= 1.0
            assert r.vap_entropy >= 0.0
            assert r.compute_ms >= 0.0

    def test_json_line_fields(self, params, cfg):
        import json

        r = run_stream(params, cfg, _audio(0.5, seed=9))[0]
        row = json.loads(r.to_json_line())
        assert set(row) == {
            "frame_index",
            "timestamp_s",
            "p_now_user",
            "p_now_robot",
            "vad",
            "vap_entropy",
            "compute_ms",
        }


class TestReset:
    def test_reset_equals_fresh(self, params, cfg):
        audio = _audio(3.0, seed=10)
        ctx = StreamContext(params, cfg)
        ctx.push_audio(_audio(2.0, seed=11))
        ctx.tick_all()
        ctx.reset()
        assert ctx.clock == 0
        replay = []
        ctx.push_audio(audio)
        replay.extend(ctx.tick_all())
        fresh = run_stream(params, cfg, audio, chunk_samples=audio.size)
        assert len(replay) == len(fresh)
        for a, b in zip(replay, fresh):
            assert a.p_now_user == b.p_now_user
            assert a.vad == b.vad

    def test_double_reset_idempotent(self, params, cfg):
        ctx = StreamContext(params, cfg)
        ctx.push_audio(_audio(1.0, seed=12))
        ctx.tick_all()
        ctx.reset()
        ctx.reset()
        assert ctx.clock == 0 and ctx.samples_pending == 0

    def test_first_post_reset_tick_sees_padded_context(self, params, cfg):
        ctx = StreamContext(params, cfg)
        ctx.push_audio(_audio(4.0, seed=13))
        ctx.tick_all()
        ctx.reset()
        chunk = _audio(0.1, seed=14)
        ctx.push_audio(chunk)
        r = ctx.tick()
        fresh = run_stream(params, cfg, chunk)[0]
        assert r.p_now_user == fresh.p_now_user
        assert r.frame_index == 1


def _fields(r: FrameResult) -> tuple:
    return (r.frame_index, r.timestamp_s, r.p_now_user, r.p_now_robot, r.vad, r.vap_entropy)


class TestChunkingExtremes:
    def test_one_sample_chunks_bit_exact(self, params, cfg):
        audio = _audio(0.45, seed=16)
        base = run_stream(params, cfg, audio)
        ones = run_stream(params, cfg, audio, chunk_samples=1)
        assert len(base) == 4
        assert [_fields(r) for r in ones] == [_fields(r) for r in base]


class TestNonFiniteAudio:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_push_rejects_and_leaves_queue_and_clock(self, params, cfg, bad):
        audio = _audio(0.5, seed=15)
        poisoned = audio[2000:3000].copy()
        poisoned[17] = bad
        ctx = StreamContext(params, cfg)
        ctx.push_audio(audio[:2000])
        results = ctx.tick_all()
        with pytest.raises(NonFiniteAudioError):
            ctx.push_audio(poisoned)
        with pytest.raises(NonFiniteAudioError):
            ctx.push_audio(audio[2000:3000], poisoned)
        assert ctx.clock == 1 and ctx.samples_pending == 400
        ctx.push_audio(audio[2000:])
        results += ctx.tick_all()
        assert [_fields(r) for r in results] == [_fields(r) for r in run_stream(params, cfg, audio)]

    def test_replay_rejects(self, params, cfg):
        audio = _audio(0.5, seed=17)
        poisoned = audio.copy()
        poisoned[-1] = np.nan
        assert issubclass(NonFiniteAudioError, ValueError)
        with pytest.raises(NonFiniteAudioError):
            replay(params, cfg, poisoned)
        with pytest.raises(NonFiniteAudioError):
            replay(params, cfg, audio, poisoned)


REPLAY_CONFIGS = (ModelConfig(), ModelConfig(context_frames=6, cross_layers=2))
DEFAULT_CFG = REPLAY_CONFIGS[0]


class TestReplay:
    """replay computes in batches the ticks run_stream emits one at a time."""

    @settings(max_examples=8, deadline=None)
    @given(
        cfg=st.sampled_from(REPLAY_CONFIGS),
        whole_hops=st.sampled_from(["none", "context-1", "context", "context+1"]),
        extra=st.integers(0, HOP_SAMPLES - 1),
        robot=st.booleans(),
        seed=st.integers(0, 1000),
    )
    @example(cfg=DEFAULT_CFG, whole_hops="none", extra=0, robot=False, seed=0)
    @example(cfg=DEFAULT_CFG, whole_hops="none", extra=1234, robot=True, seed=1)
    @example(cfg=DEFAULT_CFG, whole_hops="context-1", extra=0, robot=True, seed=2)
    @example(cfg=DEFAULT_CFG, whole_hops="context+1", extra=777, robot=False, seed=3)
    def test_replay_matches_run_stream(self, cfg, whole_hops, extra, robot, seed):
        ctx = cfg.context_frames
        n_hops = {"none": 0, "context-1": ctx - 1, "context": ctx, "context+1": ctx + 1}[whole_hops]
        n = n_hops * HOP_SAMPLES + extra
        params = init_params(cfg, seed=2)
        rng = np.random.default_rng(seed)
        audio_a = np.clip(0.3 * rng.standard_normal(n), -1, 1)
        audio_b = np.clip(0.3 * rng.standard_normal(n), -1, 1) if robot else None
        streamed = run_stream(params, cfg, audio_a, audio_b)
        replayed = replay(params, cfg, audio_a, audio_b)
        assert len(replayed) == len(streamed) == n_hops
        for r, s in zip(replayed, streamed):
            assert (r.frame_index, r.timestamp_s) == (s.frame_index, s.timestamp_s)
            for name in ("p_now_user", "p_now_robot", "vad_user", "vad_robot", "vap_entropy"):
                assert abs(getattr(r, name) - getattr(s, name)) <= 1e-9, name
            assert r.compute_ms >= 0.0

    @settings(max_examples=10, deadline=None)
    @given(n_a=st.integers(0, 4000), n_b=st.integers(0, 4000))
    def test_mismatched_channel_lengths_rejected(self, params, cfg, n_a, n_b):
        if n_a == n_b:
            n_b += 1
        for run in (run_stream, replay):
            with pytest.raises(MismatchedChunkError):
                run(params, cfg, np.zeros(n_a), np.zeros(n_b))
