"""Shapiro–Wilk normality tests over the time-related measures (§3.4.1).

The paper reports that every involved measure fails normality (highest
p-value on the order of 1e-9), justifying the use of rank correlation
and quantile-based statistics. The test is a standard-library port of
Royston's algorithm AS R94, the one :func:`scipy.stats.shapiro`
implements (tests hold the two together); the module also builds the
10-bucket histograms the paper quantized with.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.records import MEASURE_NAMES, StudyRecord, measures_of
from repro.errors import AnalysisError

# AS R94 polynomial coefficients (Royston 1995), lowest order first:
# _C1/_C2 correct the two largest weights, _G/_C3/_C4 give the
# normalising transform of 1 - W for n <= 11, _C5/_C6 for n > 11.
_C1 = (0.0, 0.221157, -0.147981, -2.07119, 4.434685, -2.706056)
_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_C3 = (0.544, -0.39978, 0.025054, -6.714e-4)
_C4 = (1.3822, -0.77857, 0.062767, -2.0322e-3)
_C5 = (-1.5861, -0.31082, -0.083751, 3.8915e-3)
_C6 = (-0.4803, -0.082676, 3.0302e-3)
_G = (-2.273, 0.459)

# AS 111 (Beasley & Springer 1977) normal-quantile rational functions:
# numerator/denominator for |p - 0.5| <= 0.42, then for the tails.
_PPND_A = (2.50662823884, -18.61500062529, 41.39119773534, -25.44106049637)
_PPND_B = (1.0, -8.47351093090, 23.08336743743, -21.06224101826,
           3.13082909833)
_PPND_C = (-2.78718931138, -2.29796479134, 4.85014127135, 2.32121276858)
_PPND_D = (1.0, 3.54388924762, 1.63706781897)

#: A range below this counts as zero (AS R94's SMALL).
_SMALL = 1e-19

#: Largest sample size the p-value approximation was fitted for.
_MAX_FITTED_N = 5000


def _poly(coefficients: Sequence[float], x: float) -> float:
    """Horner evaluation, lowest-order coefficient first (AS 181.2)."""
    result = 0.0
    for coefficient in reversed(coefficients):
        result = result * x + coefficient
    return result


def _ppnd(p: float) -> float:
    """The standard normal quantile of ``p`` by AS 111.

    Accurate to ~1e-7 only, but it is the quantile R94's weights were
    fitted with and scipy's ``swilk`` uses: the exact quantile
    (``statistics.NormalDist().inv_cdf``) moves W by ~1e-9 relative.
    """
    q = p - 0.5
    if abs(q) <= 0.42:
        r = q * q
        return q * _poly(_PPND_A, r) / _poly(_PPND_B, r)
    r = math.sqrt(-math.log(p if q < 0 else 1.0 - p))
    value = _poly(_PPND_C, r) / _poly(_PPND_D, r)
    return -value if q < 0 else value


def _weights(n: int) -> list[float]:
    """R94's ``n // 2`` Shapiro–Wilk weights, largest first."""
    if n == 3:
        return [math.sqrt(0.5)]
    half = n // 2
    m = [_ppnd((i - 0.375) / (n + 0.25)) for i in range(1, half + 1)]
    summ2 = 0.0
    for value in m:
        summ2 += value * value
    summ2 *= 2.0
    ssumm2 = math.sqrt(summ2)
    rsn = 1.0 / math.sqrt(n)
    a1 = _poly(_C1, rsn) - m[0] / ssumm2
    if n > 5:
        a2 = -m[1] / ssumm2 + _poly(_C2, rsn)
        fac = math.sqrt((summ2 - 2.0 * m[0] ** 2 - 2.0 * m[1] ** 2)
                        / (1.0 - 2.0 * a1 ** 2 - 2.0 * a2 ** 2))
        head = [a1, a2]
    else:
        fac = math.sqrt((summ2 - 2.0 * m[0] ** 2) / (1.0 - 2.0 * a1 ** 2))
        head = [a1]
    # scipy scales by the reciprocal; dividing by fac moves the last bit.
    scale = 1.0 / fac
    return head + [-value * scale for value in m[len(head):]]


def _shapiro(values: Sequence[float]) -> tuple[float, float]:
    """Shapiro–Wilk ``(W, p)`` of ``values`` (at least 3) by AS R94.

    A port of what :func:`scipy.stats.shapiro` computes, operation for
    operation where it matters, so W agrees with scipy to the last bit
    and p to better than 1e-10 relative. p's upper normal tail is
    ``erfc`` (scipy uses AS 66, which differs by that much); ``erfc``
    keeps its precision down to the ~1e-21 p-values of the paper
    corpus, where ``statistics.NormalDist().cdf`` has cancelled to 0.
    """
    n = len(values)
    if n > _MAX_FITTED_N:
        warnings.warn(f"For N > {_MAX_FITTED_N}, computed p-value may not "
                      f"be accurate. Current N is {n}.", stacklevel=2)
    # Shift by the element at n // 2 of the *unsorted* input, as scipy
    # does (its gh-15777), then scale by the range.
    shift = float(values[n // 2])
    x = sorted(float(value) - shift for value in values)
    span = x[-1] - x[0]
    if span < _SMALL:
        # Zero range, where scipy returns W = p = 1 (with a warning);
        # normality_of screens constant measures out before this.
        return 1.0, 1.0
    a = _weights(n)
    # The weight of each order statistic: -a[i] from the bottom, +a[i]
    # from the top, 0 for the middle of an odd sample.
    signed = [-weight for weight in a] + [0.0] * (n % 2) + a[::-1]
    scaled = [value / span for value in x]
    # Plain loops, not sum() (compensated since Python 3.12): the
    # summation order is part of the result.
    sa = sx = 0.0
    for weight, value in zip(signed, scaled):
        sa += weight
        sx += value
    sa /= n
    sx /= n
    ssa = ssx = sax = 0.0
    for weight, value in zip(signed, scaled):
        asa = weight - sa
        xsx = value - sx
        ssa += asa * asa
        ssx += xsx * xsx
        sax += asa * xsx
    # 1 - W, computed so as not to lose digits when W is close to 1.
    ssassx = math.sqrt(ssa * ssx)
    w1 = (ssassx - sax) * (ssassx + sax) / (ssa * ssx)
    w = 1.0 - w1
    if w1 <= 0.0:
        # A perfect fit (W rounds to 1 or just above): p = 1, as scipy.
        return w, 1.0
    if n == 3:
        # Exact (Shapiro & Wilk 1965); W of three points is >= 3/4.
        if w < 0.75:
            return 0.75, 0.0
        return w, 1.0 - 6.0 / math.pi * math.acos(math.sqrt(w))
    y = math.log(w1)
    if n <= 11:
        # gamma > log(1 - W) for every attainable W once n >= 4, so
        # R94's "y >= gamma" guard cannot fire and is left out.
        y = -math.log(_poly(_G, n) - y)
        mean, sd = _poly(_C3, n), math.exp(_poly(_C4, n))
    else:
        log_n = math.log(n)
        mean, sd = _poly(_C5, log_n), math.exp(_poly(_C6, log_n))
    z = (y - mean) / sd
    return w, 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class NormalityRow:
    """Shapiro–Wilk result for one measure.

    Attributes:
        measure: measure name.
        statistic: the W statistic.
        p_value: the test's p-value.
        histogram: 10-bucket counts over the measure's [min, max] range.
    """

    measure: str
    statistic: float
    p_value: float
    histogram: tuple[int, ...]

    @property
    def is_normal_at_5pct(self) -> bool:
        """True when normality is NOT rejected at the 5 % level."""
        return self.p_value > 0.05


@dataclass(frozen=True)
class NormalityResult:
    """Normality tests over all time-related measures.

    Attributes:
        rows: one per measure, in the canonical order.
    """

    rows: tuple[NormalityRow, ...]

    @property
    def max_p_value(self) -> float:
        """The largest p-value across measures (paper: ~1e-9)."""
        return max(row.p_value for row in self.rows)

    @property
    def all_non_normal(self) -> bool:
        """True when every measure rejects normality at 5 %."""
        return all(not row.is_normal_at_5pct for row in self.rows)


def _histogram(values: Sequence[float], buckets: int = 10) -> tuple[int, ...]:
    lo, hi = min(values), max(values)
    counts = [0] * buckets
    if hi == lo:
        counts[0] = len(values)
        return tuple(counts)
    width = (hi - lo) / buckets
    for value in values:
        index = min(int((value - lo) / width), buckets - 1)
        counts[index] += 1
    return tuple(counts)


def compute_normality(records: Sequence[StudyRecord]) -> NormalityResult:
    """Run Shapiro–Wilk on every time-related measure.

    Raises:
        AnalysisError: when fewer than 3 projects are given (the test's
            minimum sample size).
    """
    return normality_of(measures_of(records), len(records))


def normality_of(measures: Mapping[str, Sequence[float]],
                 total: int) -> NormalityResult:
    """Shapiro–Wilk over already-extracted measure vectors.

    The measure-vector form of :func:`compute_normality`, shared with
    the columnar analysis backend (which holds the vectors as table
    columns and never rebuilds the per-record view).
    """
    if total < 3:
        raise AnalysisError("Shapiro-Wilk needs at least 3 observations")
    rows: list[NormalityRow] = []
    for name in MEASURE_NAMES:
        values = measures[name]
        if len(set(values)) == 1:
            # Constant sample: normality is vacuously rejected.
            rows.append(NormalityRow(measure=name, statistic=0.0,
                                     p_value=0.0,
                                     histogram=_histogram(values)))
            continue
        statistic, p_value = _shapiro(values)
        rows.append(NormalityRow(measure=name, statistic=statistic,
                                 p_value=p_value,
                                 histogram=_histogram(values)))
    return NormalityResult(rows=tuple(rows))
