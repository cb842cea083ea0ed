import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vapturn.codebook import (
    N_STATES,
    _NOW_WEIGHTS,
    entropy_nats,
    frame_targets,
    p_now,
    p_now_pair,
)

# label-frame bin edges of the 2 s horizon: 0-0.2, 0.2-0.6, 0.6-1.2, 1.2-2.0 s
EDGES = (0, 20, 60, 120, 200)


def oracle_decode_bits(idx: int):
    """Test-local bit extraction, independent of the module's decode tables."""
    return [[(idx >> (4 * s + i)) & 1 for i in range(4)] for s in range(2)]


def oracle_p_now(probs, speaker):
    """Brute-force accumulation over all 256 decoded states."""
    acc = [0.0, 0.0]
    for idx in range(256):
        bits = oracle_decode_bits(idx)
        for s in range(2):
            acc[s] += probs[idx] * (bits[s][0] + bits[s][1]) / 2.0
    total = acc[0] + acc[1]
    if total < 1e-9:
        return 0.5
    return acc[speaker] / total


def horizon(bits):
    """200 label frames with each bin fully active where its bit is set."""
    out = np.zeros(200, dtype=bool)
    for i, bit in enumerate(bits):
        out[EDGES[i] : EDGES[i + 1]] = bit
    return out


def first_state(horizon_a, horizon_b, lead=False):
    """Target state of feature frame 0, whose horizon is label frames 10-209
    after 10 lead frames, all active or all silent."""
    pad = np.full(10, lead)
    state, _ = frame_targets(np.concatenate([pad, horizon_a]), np.concatenate([pad, horizon_b]), 1)
    return int(state[0])


SILENT = horizon((0, 0, 0, 0))
FULL = horizon((1, 1, 1, 1))


class TestEncoding:
    def test_all_zero_is_zero(self):
        assert first_state(SILENT, SILENT) == 0

    def test_all_one_is_255(self):
        assert first_state(FULL, FULL) == 255

    def test_single_bits(self):
        assert first_state(horizon((1, 0, 0, 0)), SILENT) == 1
        assert first_state(SILENT, horizon((1, 0, 0, 0))) == 16

    def test_decode_endpoints(self):
        # p_now's table reads each state through the same layout
        assert _NOW_WEIGHTS[0].tolist() == [0.0, 0.0]
        assert _NOW_WEIGHTS[255].tolist() == [1.0, 1.0]
        for idx in range(N_STATES):
            bits = oracle_decode_bits(idx)
            assert _NOW_WEIGHTS[idx].tolist() == [(row[0] + row[1]) / 2 for row in bits]

    def test_exhaustive_bijectivity(self):
        # every 2x4 bit pattern gets its own state, the one the oracle decodes
        for idx in range(N_STATES):
            bits_a, bits_b = oracle_decode_bits(idx)
            assert first_state(horizon(bits_a), horizon(bits_b)) == idx


class TestWindowFromLabels:
    """Each frame's projection window, built by frame_targets from its labels."""

    def test_silent_window_zero(self):
        # activity before the horizon sets no bit
        assert first_state(SILENT, SILENT, lead=True) == 0

    def test_user_active_entire_horizon(self):
        assert first_state(FULL, SILENT) == 15

    def test_threshold_boundary(self):
        # bin 0 covers frames 0..19; 100 ms = 10 frames = exactly half
        a = np.zeros(200, dtype=bool)
        a[:10] = True
        assert first_state(a, SILENT) == 1
        # 90 ms = 9 of 20 frames -> below threshold
        a9 = np.zeros(200, dtype=bool)
        a9[:9] = True
        assert first_state(a9, SILENT) == 0

    @given(st.integers(min_value=0, max_value=199))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_added_activity(self, extra):
        rng = np.random.default_rng(5)
        a = rng.random(200) < 0.3
        b = rng.random(200) < 0.3
        s1 = first_state(a, b)
        a2 = a.copy()
        a2[extra] = True
        s2 = first_state(a2, b)
        assert s2 & s1 == s1


class TestPNow:
    def test_uniform_is_half(self):
        uniform = np.full(256, 1 / 256)
        assert p_now(uniform, 0) == pytest.approx(0.5, abs=1e-12)
        assert p_now(uniform, 1) == pytest.approx(0.5, abs=1e-12)

    def test_one_hot_user_near_bins(self):
        idx = 0b0000_0011  # user bins 0 and 1
        one_hot = np.zeros(256)
        one_hot[idx] = 1.0
        assert p_now(one_hot, 0) == 1.0
        assert p_now(one_hot, 1) == 0.0

    def test_degenerate_mass_returns_half(self):
        # all mass on states with no near-term activity for either speaker
        idx = 0b1100_1100  # bins 2 and 3 of both speakers
        one_hot = np.zeros(256)
        one_hot[idx] = 1.0
        assert p_now(one_hot, 0) == 0.5
        assert p_now(one_hot, 1) == 0.5

    def test_brute_force_oracle_1000_random(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            probs = rng.random(256)
            probs /= probs.sum()
            for s in (0, 1):
                assert abs(p_now(probs, s) - oracle_p_now(probs, s)) <= 1e-9
            assert abs(p_now(probs, 0) + p_now(probs, 1) - 1.0) <= 1e-6

    def test_pair_sums_exactly(self):
        rng = np.random.default_rng(1)
        probs = rng.random(256)
        probs /= probs.sum()
        u, r = p_now_pair(probs)
        assert u + r == 1.0

    def test_speaker_swap_symmetry(self):
        rng = np.random.default_rng(2)
        probs = rng.random(256)
        probs /= probs.sum()
        # state idx of the swapped distribution holds the mass of the state
        # with the two speakers' bits exchanged
        swap = []
        for idx in range(N_STATES):
            user, robot = oracle_decode_bits(idx)
            swap.append(sum(bit << (4 * s + i) for s, row in enumerate((robot, user)) for i, bit in enumerate(row)))
        swapped = probs[swap]
        assert p_now(swapped, 0) == pytest.approx(p_now(probs, 1), abs=1e-12)
        assert p_now(swapped, 1) == pytest.approx(p_now(probs, 0), abs=1e-12)

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError):
            p_now(np.full(256, 1.0), 0)
        with pytest.raises(ValueError):
            p_now(np.full(255, 1 / 255), 0)
        bad = np.full(256, 1 / 256)
        bad[0] = -bad[0]
        with pytest.raises(ValueError):
            p_now(bad / bad.sum(), 0)
        with pytest.raises(ValueError):
            p_now(np.full(256, 1 / 256), 2)


def test_entropy_uniform():
    assert entropy_nats(np.full(256, 1 / 256)) == pytest.approx(np.log(256))
    one_hot = np.zeros(256)
    one_hot[3] = 1.0
    assert entropy_nats(one_hot) == 0.0
