from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vapturn import features, streaming
from vapturn.codebook import p_now_pair
from vapturn.features import HOP_SAMPLES, extract_features, hop_frames
from vapturn.model import FrameBatch, ModelConfig, forward, init_params
from vapturn.simulate import DialogueScript, generate_scripted_dialogue
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

    @pytest.mark.parametrize("chunk", [0, -5])
    def test_chunk_samples_below_one_rejected(self, params, cfg, chunk):
        with pytest.raises(ValueError, match="chunk_samples"):
            run_stream(params, cfg, _audio(0.5, seed=9), chunk_samples=chunk)

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


def _burst_robot(n_samples, bursts, seed):
    """Robot channel of digital zeros except noise over each (start_s, seconds)."""
    robot = np.zeros(n_samples)
    for i, (start_s, seconds) in enumerate(bursts):
        lo, hi = int(start_s * 16000), int((start_s + seconds) * 16000)
        robot[lo:hi] = _audio(seconds, seed=seed + i)[: hi - lo]
    return robot


def _trained_like_params(cfg, seed):
    """init_params with every tensor perturbed. At init all biases are zero,
    which makes the encoding of a silent window zero whatever the weights."""
    rng = np.random.default_rng(seed)
    return {k: v + 0.1 * rng.standard_normal(v.shape) for k, v in init_params(cfg, seed).items()}


@pytest.fixture(scope="module")
def burst_stream(cfg):
    """Params, user audio and a robot channel that is silent, has a 0.3 s
    burst, is silent for 5.7 s and has another burst, so a stream leaves the
    silent-robot path, enters it again 5 s after the first burst and leaves it
    again; with the fields of its 100 ms-chunk ticks."""
    params = _trained_like_params(cfg, seed=17)
    audio = _audio(8.0, seed=18)
    robot = _burst_robot(audio.size, [(1.0, 0.3), (7.0, 0.2)], seed=19)
    ticks = run_stream(params, cfg, audio, robot, chunk_samples=1600)
    assert len(ticks) == 80
    return params, audio, robot, [_fields(r) for r in ticks]


class TestChunkingProperty:
    @settings(max_examples=12, deadline=None)
    @given(sizes=st.lists(st.integers(0, 5000), min_size=1, max_size=30))
    @example(sizes=[0, 1, 1599, 0, 3201])
    @example(sizes=[120000])
    def test_any_chunk_sequence_bit_exact(self, cfg, burst_stream, sizes):
        assume(any(sizes))
        params, audio, robot, base = burst_stream
        ctx = StreamContext(params, cfg)
        results, pos, i = [], 0, 0
        while pos < audio.size:
            stop = pos + sizes[i % len(sizes)]
            ctx.push_audio(audio[pos:stop], robot[pos:stop])
            results.extend(ctx.tick_all())
            pos, i = min(stop, audio.size), i + 1
        assert [_fields(r) for r in results] == base


def _count_encodes(monkeypatch) -> list:
    """Record each encoding of the silent robot window the streaming module makes."""
    calls = []
    silent_encoding = streaming._silent_robot_encoding
    monkeypatch.setattr(
        streaming, "_silent_robot_encoding", lambda *a: calls.append(a) or silent_encoding(*a)
    )
    return calls


SILENT_CONFIGS = {
    "default": ModelConfig(),
    "cross2": ModelConfig(cross_layers=2),
    "context4": ModelConfig(context_frames=4),
    "context3": ModelConfig(context_frames=3),
}


class TestSilentRobot:
    """A robot window of digital zeros reuses one stored encoding."""

    @pytest.mark.parametrize("name", sorted(SILENT_CONFIGS))
    def test_ticks_equal_forward_on_silent_features(self, name, monkeypatch):
        cfg = SILENT_CONFIGS[name]
        params = _trained_like_params(cfg, seed=4)
        audio = _audio(7.0, seed=20)
        robot = _burst_robot(audio.size, [(0.5, 0.2), (6.2, 0.2)], seed=21)
        # samples of 1e-200 are not zeros, so their rows come from the
        # frontend, yet their power underflows: the features are the silent ones
        faint = np.where(robot == 0.0, 1e-200, robot)
        cap = cfg.context_samples
        assert np.array_equal(extract_features(np.full(cap, 1e-200)), extract_features(np.zeros(cap)))
        encodes = _count_encodes(monkeypatch)
        with monkeypatch.context() as m:
            # the reference encodes every robot window in full
            m.setattr(streaming, "_all_silent", lambda feats: False)
            full = run_stream(params, cfg, audio, faint)
        assert not encodes
        silent = run_stream(params, cfg, audio, robot)
        assert len(encodes) == 1
        assert [_fields(r) for r in silent] == [_fields(r) for r in full]
        # silence is read from the features, so the faint robot's silent
        # windows take the stored encoding too
        assert [_fields(r) for r in run_stream(params, cfg, audio, faint)] == [
            _fields(r) for r in full
        ]
        assert len(encodes) == 2

    def test_rebinding_params_gives_new_params_ticks(self, monkeypatch):
        cfg = ModelConfig()
        p1, p2 = _trained_like_params(cfg, seed=5), _trained_like_params(cfg, seed=6)
        audio = _audio(4.0, seed=22)
        encodes = _count_encodes(monkeypatch)
        ctx = StreamContext(p1, cfg)
        ctx.push_audio(audio[:1600])
        before = [ctx.tick()]
        assert len(encodes) == 1  # the fresh window is silent from the first tick
        ctx.push_audio(audio[1600:32000])
        before += ctx.tick_all()
        ctx.params = p2
        ctx.push_audio(audio[32000:])
        after = ctx.tick_all()
        assert len(encodes) == 2
        fresh = run_stream(p2, cfg, audio)
        assert [_fields(r) for r in after] == [_fields(r) for r in fresh[len(before) :]]
        assert _fields(before[-1]) != _fields(fresh[len(before) - 1])

    @pytest.mark.parametrize("robot", ["none", "zeros"])
    @pytest.mark.parametrize("name", sorted(SILENT_CONFIGS))
    def test_replay_silent_robot_matches_full_stream(self, name, robot):
        cfg = SILENT_CONFIGS[name]
        params = _trained_like_params(cfg, seed=7)
        audio = _audio(6.0, seed=25)
        # a faint robot takes run_stream's full path with the silent features
        full = run_stream(params, cfg, audio, np.full(audio.size, 1e-200))
        replayed = replay(params, cfg, audio, None if robot == "none" else np.zeros(audio.size))
        assert len(replayed) == len(full) == 60
        for r, s in zip(replayed, full):
            assert r.frame_index == s.frame_index
            for field in ("p_now_user", "p_now_robot", "vad_user", "vad_robot", "vap_entropy"):
                assert getattr(r, field) == getattr(s, field), field

    def test_replay_missing_robot_equals_zeros_bit_for_bit(self, cfg):
        params = _trained_like_params(cfg, seed=9)
        audio = _gappy_user(6.0, seed=41)
        missing = replay(params, cfg, audio)
        zeros = replay(params, cfg, audio, np.zeros(audio.size))
        assert len(missing) == 60
        assert [_fields(r) for r in missing] == [_fields(r) for r in zeros]

    def test_replay_robot_silent_after_start(self, monkeypatch):
        cfg = ModelConfig()
        params = _trained_like_params(cfg, seed=32)
        audio = _audio(12.0, seed=33)
        # the robot speaks until 0.8 s, so windows from tick 58 on are silent:
        # of the blocks of ticks 1-32, 33-64, 65-96 and 97-120, the last two
        robot = _burst_robot(audio.size, [(0.5, 0.3)], seed=34)
        streamed = run_stream(params, cfg, audio, robot)
        encodes = _count_encodes(monkeypatch)
        user, robot_calls = _record_model_inputs(monkeypatch)
        replayed = replay(params, cfg, audio, robot)
        assert streaming.REPLAY_BLOCK == 32 and len(user) == 4
        # one full encoding per speaking block, then the stored one, made once
        assert len(encodes) == 1
        assert [(n, len(feats)) for n, feats in robot_calls] == [(0, 32), (1, 32), (2, 1)]
        assert len(replayed) == len(streamed) == 120
        for r, s in zip(replayed, streamed):
            assert r.frame_index == s.frame_index
            for field in ("p_now_user", "p_now_robot", "vad_user", "vad_robot", "vap_entropy"):
                assert getattr(r, field) == getattr(s, field), field

    def test_replay_encodes_silent_robot_once(self, params, cfg, monkeypatch):
        audio = _audio(4.0, seed=23)
        encodes = _count_encodes(monkeypatch)
        for robot in (None, np.zeros_like(audio)):
            replay(params, cfg, audio, robot)
        assert len(encodes) == 2
        replay(params, cfg, audio, _burst_robot(audio.size, [(1.0, 0.1)], seed=24))
        assert len(encodes) == 2


def _gappy_user(seconds, seed):
    """User noise with digital-zero gaps: 1.2 s, 0.35 s (shorter than a
    400 ms frame) and 0.55 s long."""
    audio = _audio(seconds, seed=seed)
    for lo, hi in [(1.0, 2.2), (3.05, 3.4), (4.0, 4.55)]:
        audio[int(lo * 16000) : int(hi * 16000)] = 0.0
    return audio


class TestUserZeroGaps:
    """A hop whose 400 ms frame holds no nonzero sample gets the silent rows
    without the frontend, on the user channel as on the robot's."""

    def test_gaps_keep_both_contracts(self, cfg):
        params = _trained_like_params(cfg, seed=30)
        audio = _gappy_user(6.0, seed=31)
        base = run_stream(params, cfg, audio)
        for chunk in (731, 160000):
            assert [_fields(r) for r in run_stream(params, cfg, audio, chunk_samples=chunk)] == [
                _fields(r) for r in base
            ]
        oracle = offline_frame_results(params, cfg, audio)
        assert len(base) == len(oracle) == 60
        for r, o in zip(base, oracle):
            assert max(abs(r.p_now_user - o[0]), abs(r.p_now_robot - o[1])) <= 1e-5

    def test_frontend_runs_only_on_frames_with_sound(self, params, cfg, monkeypatch):
        audio = _gappy_user(6.0, seed=31)
        calls = _record_frontend(monkeypatch)
        run_stream(params, cfg, audio)
        # one call per frame with sound: its 4 kinds, the last the whole frame
        assert all(len(f) == 4 for f in calls)
        frames = [f[-1:] for f in calls]
        sounding = [k for k in range(1, 61) if audio[max(0, k - 4) * 1600 : k * 1600].any()]
        assert 30 < len(sounding) < 60
        # the robot is silent throughout, so every call is the user's frame
        assert np.array_equal(np.concatenate(frames), hop_frames(audio, np.array(sounding) - 1))


class TestAudioShape:
    """Audio must be 1-D: a 2-D array is not read as interleaved mono."""

    def test_push_audio_rejects_before_queueing(self, params, cfg):
        ctx = StreamContext(params, cfg)
        ctx.push_audio(np.zeros(100))
        with pytest.raises(ValueError, match=r"\(1600, 2\)"):
            ctx.push_audio(np.zeros((1600, 2)))
        with pytest.raises(ValueError, match=r"\(1, 1600\)"):
            ctx.push_audio(np.zeros(1600), np.zeros((1, 1600)))
        assert ctx.samples_pending == 100

    def test_run_stream_rejects(self, params, cfg):
        with pytest.raises(ValueError, match=r"\(3200, 2\)"):
            run_stream(params, cfg, np.zeros((3200, 2)))

    def test_replay_rejects(self, params, cfg):
        with pytest.raises(ValueError, match=r"\(3200, 2\)"):
            replay(params, cfg, np.zeros((3200, 2)))
        with pytest.raises(ValueError, match=r"\(2, 3200\)"):
            replay(params, cfg, np.zeros(3200), np.zeros((2, 3200)))


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


REPLAY_CONFIGS = (
    ModelConfig(),
    ModelConfig(context_frames=6, cross_layers=2),
    ModelConfig(context_frames=3),
)
DEFAULT_CFG = REPLAY_CONFIGS[0]


class TestReplay:
    """replay computes in batches the ticks run_stream emits one at a time."""

    @settings(max_examples=8, deadline=None)
    @given(
        cfg=st.sampled_from(REPLAY_CONFIGS),
        whole_hops=st.sampled_from(["none", "context-1", "context", "context+1"]),
        extra=st.integers(0, HOP_SAMPLES - 1),
        robot=st.sampled_from(["none", "zeros", "noise"]),
        seed=st.integers(0, 1000),
    )
    @example(cfg=DEFAULT_CFG, whole_hops="none", extra=0, robot="none", seed=0)
    @example(cfg=DEFAULT_CFG, whole_hops="none", extra=1234, robot="noise", seed=1)
    @example(cfg=DEFAULT_CFG, whole_hops="context-1", extra=0, robot="noise", seed=2)
    @example(cfg=DEFAULT_CFG, whole_hops="context+1", extra=777, robot="none", seed=3)
    @example(cfg=DEFAULT_CFG, whole_hops="context+1", extra=5, robot="zeros", seed=4)
    def test_replay_matches_run_stream(self, cfg, whole_hops, extra, robot, seed):
        ctx = cfg.context_frames
        n_hops = {"none": 0, "context-1": ctx - 1, "context": ctx, "context+1": ctx + 1}[whole_hops]
        n = n_hops * HOP_SAMPLES + extra
        params = init_params(cfg, seed=2)
        rng = np.random.default_rng(seed)
        audio_a = np.clip(0.3 * rng.standard_normal(n), -1, 1)
        audio_b = {
            "none": None,
            "zeros": np.zeros(n),
            "noise": np.clip(0.3 * rng.standard_normal(n), -1, 1),
        }[robot]
        streamed = run_stream(params, cfg, audio_a, audio_b)
        replayed = replay(params, cfg, audio_a, audio_b)
        assert len(replayed) == len(streamed) == n_hops
        for r, s in zip(replayed, streamed):
            assert (r.frame_index, r.timestamp_s) == (s.frame_index, s.timestamp_s)
            for name in ("p_now_user", "p_now_robot", "vad_user", "vad_robot", "vap_entropy"):
                assert getattr(r, name) == getattr(s, name), name
            assert r.compute_ms >= 0.0

    @settings(max_examples=10, deadline=None)
    @given(n_a=st.integers(0, 4000), n_b=st.integers(0, 4000))
    def test_mismatched_channel_lengths_rejected(self, params, cfg, n_a, n_b):
        if n_a == n_b:
            n_b += 1
        for run in (run_stream, replay):
            with pytest.raises(MismatchedChunkError):
                run(params, cfg, np.zeros(n_a), np.zeros(n_b))


class TestReplayTicks:
    """replay(ticks=...) computes the selected ticks of the full replay."""

    @settings(max_examples=10, deadline=None)
    @given(
        cfg=st.sampled_from(REPLAY_CONFIGS),
        robot=st.sampled_from(["none", "zeros", "noise"]),
        n_hops=st.integers(1, 70),
        data=st.data(),
    )
    def test_subset_equals_full_replay(self, cfg, robot, n_hops, data):
        n = n_hops * HOP_SAMPLES + data.draw(st.integers(0, HOP_SAMPLES - 1))
        params = init_params(cfg, seed=2)
        rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
        audio_a = np.clip(0.3 * rng.standard_normal(n), -1, 1)
        audio_b = {
            "none": None,
            "zeros": np.zeros(n),
            "noise": np.clip(0.3 * rng.standard_normal(n), -1, 1),
        }[robot]
        # tick 1, the ticks whose windows reach before the audio, and the last
        early = list(range(1, min(cfg.context_frames, n_hops) + 1))
        rest = data.draw(st.sets(st.integers(1, n_hops)))
        ticks = sorted({1, n_hops} | set(data.draw(st.lists(st.sampled_from(early)))) | rest)
        full = replay(params, cfg, audio_a, audio_b)
        part = replay(params, cfg, audio_a, audio_b, ticks=ticks)
        assert len(part) == len(ticks)
        for tick, r in zip(ticks, part):
            f = full[tick - 1]
            assert (r.frame_index, r.timestamp_s) == (f.frame_index, f.timestamp_s) == (
                tick,
                tick * streaming.TICK_PERIOD_S,
            )
            for name in ("p_now_user", "p_now_robot", "vad_user", "vad_robot", "vap_entropy"):
                assert getattr(r, name) == getattr(f, name), name
        assert replay(params, cfg, audio_a, audio_b, ticks=[]) == []

    @pytest.mark.parametrize("ticks", [[0], [1, 0], [41], [1, 41], [3, 2], [2, 2], [1.0], [[1]]])
    def test_bad_ticks_rejected_before_any_work(self, params, cfg, ticks, monkeypatch):
        def no_work(*args):
            raise AssertionError("rows computed before the ticks were checked")

        monkeypatch.setattr(streaming, "extract_features", no_work)
        monkeypatch.setattr(streaming, "_log_mel", no_work)
        monkeypatch.setattr(streaming, "forward_last", no_work)
        audio = _audio(4.0, seed=28)  # 40 ticks
        with pytest.raises(ValueError, match="ticks"):
            replay(params, cfg, audio, ticks=ticks)


def _record_frontend(monkeypatch) -> list:
    """Record the frames of each frontend call, in streaming or through
    extract_features."""
    calls = []
    log_mel = features._log_mel

    def record(frames):
        calls.append(np.array(frames))
        return log_mel(frames)

    monkeypatch.setattr(features, "_log_mel", record)
    monkeypatch.setattr(streaming, "_log_mel", record)
    return calls


class TestReplayRows:
    """replay computes only the rows its windows read, a block at a time."""

    def test_frontend_gets_blocks_of_frames_with_sound(self, params, cfg, monkeypatch):
        audio = _gappy_user(6.0, seed=35)
        robot = _burst_robot(audio.size, [(2.5, 0.3)], seed=36)
        calls = _record_frontend(monkeypatch)
        replay(params, cfg, audio, robot)
        assert calls and max(len(f) for f in calls) <= streaming.REPLAY_BLOCK
        # the (hop, kind) pairs the windows read whose 400 ms frame holds
        # sound, kind m keeping the frame's last m + 1 hops
        ctx = cfg.context_frames
        pairs = {(k - ctx + 1 + j, min(j, 3)) for k in range(1, 61) for j in range(ctx)}
        expected = []
        for x in (audio, robot):
            for hop, kind in pairs:
                if hop >= 1 and (row := hop_frames(x, [hop - 1])[0].copy()).any():
                    row[: (3 - kind) * HOP_SAMPLES] = 0.0
                    expected.append(row.tobytes())
        assert Counter(f.tobytes() for f in np.concatenate(calls)) == Counter(expected)

    @pytest.mark.parametrize("tick", [1, 30, 80])
    def test_one_tick_computes_at_most_context_rows_per_channel(self, params, cfg, tick, monkeypatch):
        audio, robot = _audio(8.0, seed=37), _audio(8.0, seed=38)
        calls = _record_frontend(monkeypatch)
        [result] = replay(params, cfg, audio, robot, ticks=[tick])
        assert result.frame_index == tick
        # every frame sounds, so each channel computes the window's rows of hops >= 1
        assert sum(len(f) for f in calls) == 2 * min(tick, cfg.context_frames)

    def test_memory_peak_is_bounded_on_a_dialogue(self, params, cfg, traced_peak_bytes):
        audio = generate_scripted_dialogue(DialogueScript(n_turns=6, seed=0)).stereo.channel_a
        assert audio.duration_s > 45.0
        assert traced_peak_bytes(lambda: replay(params, cfg, audio)) < 40e6


def _record_model_inputs(monkeypatch) -> tuple[list, list]:
    """Record the user features of each forward_last call, and the robot
    features of each encode_channel call with the number of forward_last
    calls made before it."""
    user, robot = [], []
    forward_last, encode_channel = streaming.forward_last, streaming.encode_channel

    def record_forward(params, feats_a, enc_b, cfg):
        user.append(np.array(feats_a))
        return forward_last(params, feats_a, enc_b, cfg)

    def record_encode(params, feats, cfg, channel):
        robot.append((len(user), np.array(feats)))
        return encode_channel(params, feats, cfg, channel)

    monkeypatch.setattr(streaming, "forward_last", record_forward)
    monkeypatch.setattr(streaming, "encode_channel", record_encode)
    return user, robot


class TestWindowRule:
    """Every window the tick and replay feed the model is extract_features of
    the zero-padded trailing context window, bit for bit."""

    @pytest.mark.parametrize("robot", ["silent", "burst"])
    @pytest.mark.parametrize("context_frames", [1, 3, 4, 6, 50])
    def test_model_inputs_are_padded_window_features(self, context_frames, robot, monkeypatch):
        cfg = ModelConfig(context_frames=context_frames)
        params = init_params(cfg, seed=2)
        audio = _audio(8.0, seed=26)
        # the robot is silent for 57 hops between bursts, long enough that a
        # 50-hop stream stops and restarts the robot's rows
        bursts = [] if robot == "silent" else [(0.5, 0.2), (6.5, 0.3)]
        robot_audio = _burst_robot(audio.size, bursts, seed=27)
        cap = cfg.context_samples
        padded = {"a": np.concatenate([np.zeros(cap), audio]),
                  "b": np.concatenate([np.zeros(cap), robot_audio])}

        def oracle(channel, tick):
            return extract_features(padded[channel][tick * HOP_SAMPLES : tick * HOP_SAMPLES + cap])

        user, robot_calls = _record_model_inputs(monkeypatch)
        for run in (run_stream, replay):
            user.clear()
            robot_calls.clear()
            run(params, cfg, audio, robot_audio)
            windows = np.concatenate(user)
            assert len(windows) == 80
            for tick, window in enumerate(windows, start=1):
                assert window.tobytes() == oracle("a", tick).tobytes()
            # robot windows encoded after i forward_last calls start at tick
            # i * block + 1; a tick with none reuses the silent encoding, so
            # its robot window must be all zeros
            block = streaming.REPLAY_BLOCK if run is replay else 1
            encoded = set()
            for calls_before, feats in robot_calls:
                for tick, window in enumerate(feats, start=calls_before * block + 1):
                    assert window.tobytes() == oracle("b", tick).tobytes()
                    encoded.add(tick)
            for tick in set(range(1, 81)) - encoded:
                assert not padded["b"][tick * HOP_SAMPLES : tick * HOP_SAMPLES + cap].any()
