import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats

from vapturn import simulate
from vapturn.audio import SAMPLES_PER_LABEL_FRAME
from vapturn.endpointing import SOURCE_STT, SOURCE_VAP, SttSimConfig, VapEndpointerConfig
from vapturn.model import ModelConfig, init_params
from vapturn.simulate import (
    DialogueScript,
    ResponseTimeRecord,
    compare_robot_response,
    generate_scripted_dialogue,
    render_burst,
    run_session,
    session_scripts,
    summarize,
)
from vapturn.stats import SampleDist


@dataclass(frozen=True)
class _ExtendedScript(DialogueScript):
    """A script with one field more, as a new dialogue setting adds."""

    barge_in_s: tuple = (0.2, 0.5)


@dataclass(frozen=True)
class _ExtendedRecord(ResponseTimeRecord):
    """A record with one field more, as a new per-turn field adds."""

    interrupted: bool = False


def energy_labels(samples, threshold_db: float):
    """10 ms frames whose mean-square energy exceeds threshold_db re full
    scale; a partial last frame is zero-padded."""
    n = -(-samples.size // 160)
    padded = np.zeros(n * 160)
    padded[: samples.size] = samples
    return np.mean(padded.reshape(n, 160) ** 2, axis=1) > 10.0 ** (threshold_db / 10.0)


@pytest.fixture(scope="module")
def dialogue():
    return generate_scripted_dialogue(DialogueScript(n_turns=3, seed=5))


class TestGeneration:
    def test_zero_turns_silent(self):
        d = generate_scripted_dialogue(DialogueScript(n_turns=0, seed=0))
        assert d.turns == ()
        assert not d.vad_a.frames.any()
        assert not d.vad_b.frames.any()
        assert np.all(d.channel_a.samples == 0)

    def test_deterministic(self):
        a = generate_scripted_dialogue(DialogueScript(n_turns=3, seed=9))
        b = generate_scripted_dialogue(DialogueScript(n_turns=3, seed=9))
        assert np.array_equal(a.channel_a.samples, b.channel_a.samples)
        assert np.array_equal(a.vad_a.frames, b.vad_a.frames)
        assert a.turns == b.turns

    def test_hold_cue_changes_only_the_closing_burst_of_held_groups(self, monkeypatch):
        # the hold cue is drawn for every continued turn and a cued burst
        # takes the same draws, so at one seed the timing does not change
        cues = []
        render = simulate.render_burst

        def record(duration_s, rng, tilt, cue="none"):
            cues.append(cue)
            return render(duration_s, rng, tilt, cue=cue)

        monkeypatch.setattr(simulate, "render_burst", record)
        script = DialogueScript(n_turns=6, continuation_prob=1.0, seed=11)
        # the channels are rendered when channel_b is first read
        off = generate_scripted_dialogue(script)
        off.channel_b
        cues.clear()
        on = generate_scripted_dialogue(replace(script, hold_cue_prob=1.0))
        on.channel_b
        assert on.turns == off.turns
        assert all(turn.has_continuation for turn in on.turns)
        for name in ("vad_a", "vad_b"):
            assert np.array_equal(getattr(on, name).frames, getattr(off, name).frames)
        assert np.array_equal(on.channel_b.samples, off.channel_b.samples)
        # user bursts are rendered first, in time order, one per label run
        labels = np.r_[False, on.vad_a.frames, False]
        edges = np.flatnonzero(np.diff(labels.astype(np.int8))).reshape(-1, 2) * SAMPLES_PER_LABEL_FRAME
        assert len(cues) == len(edges) + len(on.turns)  # one robot burst per turn
        user_cues = cues[: len(edges)]
        assert user_cues.count("hold") == len(on.turns)
        differs = on.channel_a.samples != off.channel_a.samples
        held = np.zeros_like(differs)
        for (start, end), cue in zip(edges, user_cues):
            held[start:end] = cue == "hold"
            assert differs[start:end].any() == (cue == "hold")
        assert not (differs & ~held).any()

    def test_labels_consistent_with_energy_vad(self, dialogue):
        # generated labels must agree with an energy detector on the clean channel
        for chan, vad in (
            (dialogue.channel_a, dialogue.vad_a),
            (dialogue.channel_b, dialogue.vad_b),
        ):
            detected = energy_labels(chan.samples, threshold_db=-45.0)
            agreement = float(np.mean(detected == vad.frames))
            assert agreement >= 0.99

    def test_turn_timeline_orders(self, dialogue):
        t_prev = 0.0
        for turn in dialogue.turns:
            assert turn.user_start_s >= t_prev
            assert turn.user_end_s > turn.user_start_s
            assert turn.robot_start_s > turn.user_end_s
            assert turn.robot_end_s > turn.robot_start_s
            t_prev = turn.robot_end_s

    def test_labels_match_turn_boundaries(self, dialogue):
        frames = dialogue.vad_a.frames
        for turn in dialogue.turns:
            end_frame = int(round(turn.user_end_s * 100))
            assert frames[end_frame - 1]
            assert not frames[end_frame]

    def test_speaker_tilts_differ(self):
        rng = np.random.default_rng(0)
        user = render_burst(1.0, rng, -4.0)
        robot = render_burst(1.0, rng, 2.0)
        spec_u = np.abs(np.fft.rfft(user)) ** 2
        spec_r = np.abs(np.fft.rfft(robot)) ** 2
        freqs = np.fft.rfftfreq(user.size, d=1 / 16000)
        lo = (freqs > 100) & (freqs < 1000)
        hi = (freqs > 2000) & (freqs < 6000)
        ratio_u = spec_u[hi].mean() / spec_u[lo].mean()
        ratio_r = spec_r[hi].mean() / spec_r[lo].mean()
        assert ratio_r > ratio_u

    @pytest.mark.parametrize("cue,expect_darker", [("final", True), ("hold", False)])
    def test_closing_cue_changes_tail_spectrum(self, cue, expect_darker):
        def tail_brightness(x):
            tail = x[-1600:]  # the blend peaks in the final 100 ms
            spec = np.abs(np.fft.rfft(tail)) ** 2
            freqs = np.fft.rfftfreq(tail.size, d=1 / 16000)
            lo = (freqs > 100) & (freqs < 800)
            hi = (freqs > 2500) & (freqs < 6000)
            return spec[hi].mean() / spec[lo].mean()

        flat = render_burst(1.5, np.random.default_rng(1), -4.0, cue="none")
        cued = render_burst(1.5, np.random.default_rng(1), -4.0, cue=cue)
        if expect_darker:
            assert tail_brightness(cued) < 0.5 * tail_brightness(flat)
        else:
            assert tail_brightness(cued) > 2.0 * tail_brightness(flat)

    def test_final_cue_decays_level(self):
        flat = render_burst(1.5, np.random.default_rng(2), -4.0, cue="none")
        cued = render_burst(1.5, np.random.default_rng(2), -4.0, cue="final")
        tail_rms = lambda x: float(np.sqrt(np.mean(x[-1600:] ** 2)))
        assert tail_rms(cued) < 0.6 * tail_rms(flat)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SampleDist("normal", math.nan, 0.1),
            lambda: SampleDist("normal", 1.0, math.nan),
            lambda: SampleDist("lognormal", math.nan, 0.1),
            lambda: DialogueScript(tail_s=math.nan),
            lambda: DialogueScript(lead_in_s=(math.nan, 1.0)),
            lambda: DialogueScript(lead_in_s=(0.5, math.nan)),
        ],
        ids=["normal_mean", "normal_std", "lognormal_mean", "tail", "lead_in_lo", "lead_in_hi"],
    )
    def test_script_settings_reject_nan(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tail_s": math.inf},
            {"user_utterance_s": (1.0, math.inf)},
            {"robot_utterance_s": (math.inf, math.inf)},
            {"lead_in_s": (0.4, math.inf)},
        ],
        ids=["tail", "user_utterance_hi", "robot_utterance", "lead_in_hi"],
    )
    def test_script_settings_reject_infinity(self, kwargs):
        with pytest.raises(ValueError):
            DialogueScript(**kwargs)

    @pytest.mark.parametrize(
        "script",
        [
            DialogueScript(n_turns=2, user_reaction_s=SampleDist("uniform", 1.5, 0.4), lead_in_s=(0.5, 0.6), seed=3),
            _ExtendedScript(n_turns=2, barge_in_s=(0.1, 0.3), seed=3),
        ],
    )
    def test_script_json_roundtrip(self, script):
        # plain JSON (tuples as lists, SampleDists as objects) of every
        # field, a field a subclass adds too
        stored = script.to_json_dict()
        assert list(stored) == [f.name for f in fields(script)]
        assert stored["lead_in_s"] == list(script.lead_in_s)
        assert stored["user_reaction_s"] == asdict(script.user_reaction_s)
        assert type(script).from_json_dict(stored) == script
        with pytest.raises(TypeError):
            DialogueScript.from_json_dict({**stored, "bogus_key": 1})

    def test_unknown_cue_rejected(self):
        with pytest.raises(ValueError):
            render_burst(1.0, np.random.default_rng(0), -4.0, cue="shout")


class TestLazyRendering:
    @pytest.fixture
    def rendered_tilts(self, monkeypatch):
        """The tilt of every burst rendered while the test runs."""
        tilts = []
        render = simulate.render_burst

        def record(duration_s, rng, tilt, cue="none"):
            tilts.append(tilt)
            return render(duration_s, rng, tilt, cue=cue)

        monkeypatch.setattr(simulate, "render_burst", record)
        return tilts

    def test_cloud_only_simulate_renders_no_audio(self, rendered_tilts, tmp_path):
        from vapturn.cli import main

        assert main(["simulate", "--out", str(tmp_path), "--policies", "stt", "--n-dialogues", "2"]) == 0
        assert rendered_tilts == []

    def test_replaying_session_renders_the_user_channel_only(self, rendered_tilts):
        cfg = ModelConfig()
        dialogue = generate_scripted_dialogue(DialogueScript(n_turns=3, seed=5))
        run_session(dialogue, params=init_params(cfg, seed=2), model_cfg=cfg, seed=1)
        assert set(rendered_tilts) == {simulate.USER_TILT_DB_PER_OCTAVE}

    def test_records_do_not_depend_on_what_was_rendered_before(self):
        # theta just above the untrained model's p_now_robot, so the
        # detector decides some turns
        cfg = ModelConfig()
        vap_cfg = VapEndpointerConfig(theta=0.502, consecutive_k=2, min_user_speech_ms=0.0)
        kwargs = dict(params=init_params(cfg, seed=2), model_cfg=cfg, vap_cfg=vap_cfg, seed=1)
        script = DialogueScript(n_turns=3, seed=5)
        lazy = generate_scripted_dialogue(script)
        rendered = generate_scripted_dialogue(script)
        rendered.channel_b
        records = run_session(lazy, **kwargs)
        assert records == run_session(rendered, **kwargs)
        assert {r.source for r in records["hybrid"]} == {SOURCE_VAP, SOURCE_STT}
        assert "channel_b" not in vars(lazy)

    @pytest.mark.parametrize(
        "script",
        [
            DialogueScript(n_turns=0, seed=8),
            DialogueScript(n_turns=4, continuation_prob=0.5, hold_cue_prob=1.0, seed=8),
        ],
        ids=["no-turns", "cued"],
    )
    def test_channel_bits_do_not_depend_on_read_order(self, script):
        a_first = generate_scripted_dialogue(script)
        a_first.channel_a
        b_first = generate_scripted_dialogue(script)
        b_first.channel_b
        for name in ("channel_a", "channel_b"):
            assert np.array_equal(getattr(b_first, name).samples, getattr(a_first, name).samples)

    def test_user_channel_memory_peak_is_the_channel(self, traced_peak_bytes):
        # the bursts are written into the channel, which the Waveform keeps
        # with no copy; a burst's temporaries (about 3 MB for the longest)
        # are small beside a dialogue of 12 turns
        dialogue = generate_scripted_dialogue(DialogueScript(n_turns=12, seed=11))
        assert traced_peak_bytes(lambda: dialogue.channel_a) < 1.5 * dialogue.n_samples * 8


class TestRunSession:
    def test_stt_only_deterministic_zero_delay(self, dialogue):
        stt_cfg = SttSimConfig(
            silence_threshold_ms=800, latency=SampleDist("constant", 0.0, 0.0)
        )
        records = run_session(dialogue, stt_cfg=stt_cfg, response_delay_s=0.3, seed=0)["stt"]
        assert len(records) == 3
        for rec in records:
            assert rec.source == SOURCE_STT
            assert rec.robot_response_s == pytest.approx(1.1, abs=1e-9)
            assert not rec.premature

    def test_oracle_endpointer_latency(self, dialogue):
        # perfect detector whose p_now flips exactly at the true end fires k
        # ticks after the first post-end frame on the 10 Hz grid
        from vapturn.endpointing import vap_decide
        from vapturn.streaming import FrameResult

        k = 3
        for turn in dialogue.turns:
            end = turn.user_end_s
            first = int(np.floor(turn.user_start_s * 10)) + 1
            last = int(np.floor((end + 2.0) * 10))
            frames = []
            for n in range(first, last + 1):
                t = n * 0.1
                p = 1.0 if t > end + 1e-12 else 0.0
                frames.append(FrameResult(n, t, 1 - p, p, 1.0, 0.0, 0.0, 0.0))
            decision = vap_decide(frames, VapEndpointerConfig(theta=0.6, consecutive_k=k))
            first_after = (np.floor(end / 0.1 + 1e-9) + 1) * 0.1
            assert decision == pytest.approx(first_after + (k - 1) * 0.1, abs=1e-6)

    def test_without_params_only_stt(self, dialogue):
        assert list(run_session(dialogue, seed=3)) == ["stt"]
        with pytest.raises(ValueError, match="together"):
            run_session(dialogue, model_cfg=ModelConfig())

    @pytest.mark.parametrize("delay", [-5.0, math.nan])
    def test_rejects_response_delay_below_zero_or_nan(self, dialogue, delay):
        with pytest.raises(ValueError, match="response_delay_s"):
            run_session(dialogue, response_delay_s=delay, seed=3)

    def test_raced_policies_share_the_cloud_decision(self, dialogue):
        # theta just above the untrained model's p_now_robot of about 0.5, so
        # the detector decides some turns and the cloud path the others
        cfg = ModelConfig()
        vap_cfg = VapEndpointerConfig(theta=0.502, consecutive_k=2, min_user_speech_ms=0.0)
        raced = run_session(dialogue, params=init_params(cfg, seed=2), model_cfg=cfg, vap_cfg=vap_cfg, seed=3)
        assert list(raced) == ["stt", "hybrid", "vap"]
        assert raced["stt"] == run_session(dialogue, seed=3)["stt"]
        assert raced["vap"] == [r for r in raced["hybrid"] if r.source == SOURCE_VAP]
        assert 0 < len(raced["vap"]) < len(raced["hybrid"])
        for h, s in zip(raced["hybrid"], raced["stt"]):
            if h.source == SOURCE_STT:
                assert h == s

    def test_hybrid_with_untrained_model_falls_back(self, dialogue):
        # an untrained model keeps p_now near 0.5 < theta, so every turn is
        # decided by the simulated cloud path and nothing stalls
        cfg = ModelConfig()
        params = init_params(cfg, seed=0)
        records = run_session(dialogue, params=params, model_cfg=cfg, seed=1)["hybrid"]
        assert len(records) == 3
        assert all(r.source == SOURCE_STT for r in records)

    def test_replay_and_streaming_give_identical_decisions(self, dialogue, monkeypatch):
        # theta just above the untrained model's p_now_robot of about 0.5, so
        # the detector fires on some turns and not on others
        import vapturn.simulate as simulate
        from vapturn.streaming import run_stream

        cfg = ModelConfig()
        params = init_params(cfg, seed=2)
        vap_cfg = VapEndpointerConfig(theta=0.502, consecutive_k=2, min_user_speech_ms=0.0)
        kwargs = dict(params=params, model_cfg=cfg, vap_cfg=vap_cfg, seed=1)
        replayed = run_session(dialogue, **kwargs)

        def stream_requested(params, cfg, wav_a, wav_b=None, ticks=None):
            frames = run_stream(params, cfg, wav_a, wav_b)
            return frames if ticks is None else [frames[k - 1] for k in ticks]

        monkeypatch.setattr(simulate, "replay", stream_requested)
        streamed = run_session(dialogue, **kwargs)
        assert replayed == streamed
        assert {r.source for r in replayed["hybrid"]} == {SOURCE_VAP, SOURCE_STT}

    @pytest.mark.parametrize(
        "vap_cfg",
        [
            VapEndpointerConfig(theta=0.502, consecutive_k=2, min_user_speech_ms=0.0),
            VapEndpointerConfig(),
        ],
        ids=["fires-on-some", "default"],
    )
    def test_race_replays_only_ticks_up_to_the_cloud_decision(self, dialogue, vap_cfg, monkeypatch):
        import vapturn.simulate as simulate
        from vapturn.streaming import replay

        cfg = ModelConfig()
        kwargs = dict(params=init_params(cfg, seed=2), model_cfg=cfg, vap_cfg=vap_cfg, seed=1)
        requested = []

        def replay_all(params, cfg, wav_a, wav_b=None, ticks=None):
            requested.append(list(ticks))
            return replay(params, cfg, wav_a, wav_b)

        selected = run_session(dialogue, **kwargs)
        monkeypatch.setattr(simulate, "replay", replay_all)
        everything = run_session(dialogue, **kwargs)
        assert selected == everything
        if vap_cfg.theta < 0.6:
            assert {r.source for r in selected["hybrid"]} == {SOURCE_VAP, SOURCE_STT}
        (ticks,) = requested
        assert 0 < len(ticks) < dialogue.n_samples // 1600
        turns = dialogue.turns
        for tick in ticks:
            t = tick * 0.1
            k = max(i for i, turn in enumerate(turns) if turn.user_start_s < t)
            assert k + 1 == len(turns) or t <= turns[k + 1].user_start_s
            assert t <= selected["stt"][k].decision_time_s

    def test_record_json_fields(self, dialogue):
        # the open-loop simulator has no user reply to measure, so a record
        # carries no user-response gap
        for rec in run_session(dialogue, seed=2)["stt"]:
            d = rec.to_json_dict()
            assert set(d) == {
                "turn",
                "robot_response_s",
                "source",
                "decision_time_s",
                "true_end_time_s",
                "latency_s",
                "premature",
            }
            assert d["latency_s"] == d["decision_time_s"] - d["true_end_time_s"]
            # a field a subclass adds is written too
            assert _ExtendedRecord(**asdict(rec), interrupted=True).to_json_dict() == {**d, "interrupted": True}

    @settings(max_examples=10, deadline=None)
    @given(
        n_turns=st.integers(1, 2),
        script_seed=st.integers(0, 2**31),
        continuation_prob=st.floats(0.0, 1.0),
        session_seed=st.integers(0, 2**31),
        silence_ms=st.floats(200.0, 1500.0),
        family=st.sampled_from(["lognormal", "normal", "constant", "uniform"]),
        mean_s=st.floats(0.01, 2.0),
        std_s=st.floats(0.0, 1.0),
    )
    def test_hybrid_never_slower_than_stt(
        self, n_turns, script_seed, continuation_prob, session_seed, silence_ms, family, mean_s, std_s
    ):
        dialogue = generate_scripted_dialogue(
            DialogueScript(n_turns=n_turns, continuation_prob=continuation_prob, seed=script_seed)
        )
        latency = SampleDist(family, mean_s, std_s)
        stt_cfg = SttSimConfig(silence_threshold_ms=silence_ms, latency=latency)
        cfg = ModelConfig()
        # theta just above the untrained model's p_now_robot, so the local
        # detector wins some races and loses others
        vap_cfg = VapEndpointerConfig(theta=0.502, consecutive_k=2, min_user_speech_ms=0.0)
        kwargs = dict(stt_cfg=stt_cfg, seed=session_seed)
        stt = run_session(dialogue, **kwargs)["stt"]
        hybrid = run_session(
            dialogue, params=init_params(cfg, seed=2), model_cfg=cfg, vap_cfg=vap_cfg, **kwargs
        )["hybrid"]
        assert [r.turn for r in hybrid] == [r.turn for r in stt] == list(range(n_turns))
        for h, s in zip(hybrid, stt):
            assert h.robot_response_s <= s.robot_response_s

    def test_same_seed_same_records(self, dialogue):
        a = run_session(dialogue, seed=11)
        b = run_session(dialogue, seed=11)
        assert a == b


class TestSummarize:
    def _rec(self, v, source=SOURCE_STT):
        return ResponseTimeRecord(0, v, source, 1.0, 0.5, False)

    def test_single_record(self):
        stats = summarize([self._rec(1.0)])
        assert stats.robot["mean"] == 1.0
        assert stats.robot["median"] == 1.0
        assert stats.robot["stddev"] == 0.0
        assert stats.n_turns == 1

    def test_constant_records_point_mass(self):
        stats = summarize([self._rec(1.3) for _ in range(9)])
        nonzero = [(b, c) for b, c in stats.histogram if c > 0]
        assert nonzero == [(1.25, 9)]

    def test_vap_fraction(self):
        recs = [self._rec(1.0), self._rec(0.5, SOURCE_VAP), self._rec(0.6, SOURCE_VAP)]
        stats = summarize(recs)
        assert stats.vap_source_fraction == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_rank_sum_disjoint_support(self):
        rng = np.random.default_rng(0)
        a = [self._rec(v) for v in rng.uniform(0.5, 1.0, 30)]
        b = [self._rec(v) for v in rng.uniform(2.0, 3.0, 30)]
        result = compare_robot_response(a, b)
        assert result.p_value < 0.001
        ref = sp_stats.mannwhitneyu(
            [r.robot_response_s for r in a],
            [r.robot_response_s for r in b],
            alternative="two-sided",
            method="asymptotic",
        )
        assert result.p_value == pytest.approx(ref.pvalue, rel=1e-6)


def test_session_scripts_distinct_seeds():
    base = DialogueScript(n_turns=2)
    scripts = session_scripts(5, base, seed=3)
    assert len({s.seed for s in scripts}) == 5
    again = session_scripts(5, base, seed=3)
    assert [s.seed for s in scripts] == [s.seed for s in again]
