"""Small statistics utilities: rank-sum test, fixed histograms, sampling distributions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class RankSumResult(NamedTuple):
    u_statistic: float
    p_value: float


def rank_sum_test(x, y) -> RankSumResult:
    """Two-sided Mann-Whitney rank-sum test, normal approximation with tie
    correction and continuity correction."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n1, n2 = x.size, y.size
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")
    combined = np.concatenate([x, y])
    _, inverse, counts = np.unique(combined, return_inverse=True, return_counts=True)
    # 1-based ranks: tied values share the mean of their ranks
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    r1 = float(ranks[:n1].sum())
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1
    u = max(u1, u2)
    n = n1 + n2
    tie_term = float((counts.astype(np.float64) ** 3 - counts).sum())
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return RankSumResult(u, 1.0)
    z = (u - n1 * n2 / 2.0 - 0.5) / math.sqrt(var)
    p = min(1.0, math.erfc(z / math.sqrt(2.0)))
    return RankSumResult(u, p)


def histogram_fixed(values, bin_width: float = 0.25, lo: float = 0.0, hi: float = 6.0):
    """Fixed-width histogram over [lo, hi); out-of-range values land in the edge bins.

    Returns a list of (bin_start, count) pairs.
    """
    if bin_width <= 0 or hi <= lo:
        raise ValueError("bad histogram geometry")
    n_bins = int(round((hi - lo) / bin_width))
    counts = [0] * n_bins
    for v in values:
        idx = int(math.floor((v - lo) / bin_width))
        counts[min(max(idx, 0), n_bins - 1)] += 1
    return [(lo + i * bin_width, counts[i]) for i in range(n_bins)]


def describe(values) -> dict:
    """Mean, median, and population standard deviation."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot describe an empty sample")
    return {
        "n": int(arr.size),
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "stddev": float(arr.std()),
    }


@dataclass(frozen=True)
class SampleDist:
    """Seeded scalar sampler used for delays and reaction times.

    Families: lognormal (parameterized by target mean/std), normal (truncated
    at 0), constant, uniform (mean +/- std as half-width, truncated at 0).
    """

    family: str = "lognormal"
    mean_s: float = 0.6
    std_s: float = 0.3

    def __post_init__(self):
        if self.family not in ("lognormal", "normal", "constant", "uniform"):
            raise ValueError(f"unknown distribution family {self.family!r}")
        if not (0 <= self.mean_s < math.inf and 0 <= self.std_s < math.inf):
            raise ValueError("mean_s and std_s must be finite and >= 0")
        if self.family == "lognormal" and not self.mean_s > 0:
            raise ValueError("lognormal requires mean_s > 0")

    def sample(self, rng: np.random.Generator) -> float:
        if self.family == "constant":
            return self.mean_s
        if self.family == "lognormal":
            if self.std_s == 0:
                return self.mean_s
            sigma2 = math.log(1.0 + (self.std_s / self.mean_s) ** 2)
            mu = math.log(self.mean_s) - sigma2 / 2.0
            return float(rng.lognormal(mu, math.sqrt(sigma2)))
        if self.family == "normal":
            return max(0.0, float(rng.normal(self.mean_s, self.std_s)))
        return max(0.0, float(rng.uniform(self.mean_s - self.std_s, self.mean_s + self.std_s)))

    def to_json_dict(self) -> dict:
        return {"family": self.family, "mean_s": self.mean_s, "std_s": self.std_s}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SampleDist":
        return cls(**d)
