import math

import numpy as np
import pytest
from scipy import stats as sp_stats

from vapturn.stats import SampleDist, describe, histogram_fixed, rank_sum_test


class TestRankSum:
    def test_matches_scipy_no_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(0.0, 1.0, 30)
            y = rng.normal(0.4, 1.2, 25)
            ours = rank_sum_test(x, y)
            ref = sp_stats.mannwhitneyu(x, y, alternative="two-sided", method="asymptotic")
            assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-6)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.integers(0, 6, 40).astype(float)
            y = rng.integers(1, 7, 35).astype(float)
            ours = rank_sum_test(x, y)
            ref = sp_stats.mannwhitneyu(x, y, alternative="two-sided", method="asymptotic")
            assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-6)

    def test_disjoint_support_highly_significant(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0.0, 1.0, 30)
        b = rng.uniform(2.0, 3.0, 30)
        result = rank_sum_test(a, b)
        assert result.p_value < 0.001

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, 25)
        y = rng.normal(1, 1, 30)
        assert rank_sum_test(x, y).p_value == pytest.approx(rank_sum_test(y, x).p_value)

    def test_identical_samples_p_near_one(self):
        x = np.arange(10.0)
        result = rank_sum_test(x, x)
        assert result.p_value > 0.9

    def test_constant_samples(self):
        assert rank_sum_test([1.0] * 5, [1.0] * 7).p_value == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_sum_test([], [1.0])


class TestHistogram:
    def test_point_mass_single_bin(self):
        hist = histogram_fixed([1.1] * 7)
        assert sum(c for _, c in hist) == 7
        nonzero = [(b, c) for b, c in hist if c > 0]
        assert nonzero == [(1.0, 7)]

    def test_geometry(self):
        hist = histogram_fixed([], bin_width=0.25, lo=0.0, hi=6.0)
        assert len(hist) == 24
        assert hist[0][0] == 0.0
        assert hist[-1][0] == pytest.approx(5.75)

    def test_out_of_range_clamped_to_edges(self):
        hist = histogram_fixed([-1.0, 100.0])
        assert hist[0][1] == 1
        assert hist[-1][1] == 1

    def test_bin_edges_left_closed(self):
        hist = histogram_fixed([0.25])
        assert hist[1] == (0.25, 1)


class TestDescribe:
    def test_single_value(self):
        d = describe([1.0])
        assert d == {"n": 1, "mean": 1.0, "median": 1.0, "stddev": 0.0}

    def test_known_values(self):
        d = describe([1.0, 2.0, 3.0, 4.0])
        assert d["mean"] == pytest.approx(2.5)
        assert d["median"] == pytest.approx(2.5)
        assert d["stddev"] == pytest.approx(np.std([1, 2, 3, 4]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            describe([])


class TestSampleDist:
    def test_constant(self):
        dist = SampleDist("constant", 0.7, 0.0)
        assert dist.sample(np.random.default_rng(0)) == 0.7

    def test_normal_truncated_at_zero(self):
        dist = SampleDist("normal", 0.1, 2.0)
        rng = np.random.default_rng(1)
        draws = [dist.sample(rng) for _ in range(2000)]
        assert min(draws) >= 0.0

    def test_uniform_half_width(self):
        dist = SampleDist("uniform", 0.4, 0.2)
        rng = np.random.default_rng(2)
        draws = np.array([dist.sample(rng) for _ in range(5000)])
        assert draws.min() >= 0.2 - 1e-9
        assert draws.max() <= 0.6 + 1e-9
        assert draws.mean() == pytest.approx(0.4, abs=0.01)

    @pytest.mark.parametrize(
        "family, mean_s, std_s",
        [("normal", math.inf, 0.0), ("normal", 1.0, math.inf), ("lognormal", math.inf, 0.1),
         ("uniform", 0.4, math.inf), ("constant", math.inf, 0.0)],
    )
    def test_infinite_setting_rejected(self, family, mean_s, std_s):
        with pytest.raises(ValueError):
            SampleDist(family, mean_s, std_s)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            SampleDist("cauchy", 1.0, 1.0)

    def test_json_roundtrip(self):
        dist = SampleDist("normal", 2.35, 0.8)
        assert SampleDist.from_json_dict(dist.to_json_dict()) == dist
