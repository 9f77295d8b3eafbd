"""The standard-library Shapiro–Wilk test against its oracle, scipy.

:func:`repro.analysis.normality._shapiro` ports the algorithm
:func:`scipy.stats.shapiro` implements (Royston's AS R94). W must agree
to 1e-12 and p to 1e-9, relative, on fixed edge cases (n = 3, the
gamma branch for n <= 11, ties, p-values deep in the normal tail,
n > 5000) and on hypothesis-drawn samples.
"""

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.analysis.normality import _shapiro
from repro.analysis.records import measures_of

W_TOLERANCE = 1e-12
P_TOLERANCE = 1e-9


def assert_matches_scipy(values):
    """Check ``_shapiro(values)`` against scipy; return scipy's (W, p)."""
    with warnings.catch_warnings():
        # scipy warns on zero-range samples and on n > 5000.
        warnings.simplefilter("ignore", UserWarning)
        expected = stats.shapiro(values)
        statistic, p_value = _shapiro(values)
    w, p = float(expected.statistic), float(expected.pvalue)
    assert abs(statistic - w) <= W_TOLERANCE * w, (statistic, w)
    assert abs(p_value - p) <= P_TOLERANCE * p, (p_value, p)
    return w, p


def normal(n, seed):
    rng = random.Random(seed)
    return [rng.gauss(10.0, 3.0) for _ in range(n)]


def skewed(n, seed, power=3):
    rng = random.Random(seed)
    return [rng.expovariate(1.0) ** power for _ in range(n)]


class TestThreePoints:
    def test_evenly_spaced_is_exactly_one(self):
        assert _shapiro([1, 2, 3]) == (1.0, 1.0)
        assert stats.shapiro([1, 2, 3]).pvalue == 1.0

    @pytest.mark.parametrize("values", [
        [0.0, 1.0, 5.0], [3.2, -1.0, 0.4], [1, 1, 2], [7, 2, 7],
        [0, 1, 0],  # W rounds below its 3/4 floor: clamped, p = 0
    ])
    def test_exact_p_value(self, values):
        assert_matches_scipy(values)


class TestSmallSamples:
    """n <= 11 normalises 1 - W through the gamma branch."""

    @pytest.mark.parametrize("n", range(4, 12))
    def test_normal_sample(self, n):
        assert_matches_scipy(normal(n, seed=n))

    @pytest.mark.parametrize("n", range(4, 12))
    def test_extreme_outlier(self, n):
        _, p = assert_matches_scipy([0] * (n - 1) + [1e6])
        assert p < 0.01

    @pytest.mark.parametrize("n", range(4, 12))
    def test_two_values(self, n):
        assert_matches_scipy([0] * (n // 2) + [1] * (n - n // 2))


class TestLargerSamples:
    @pytest.mark.parametrize("n", [12, 151, 604])
    @pytest.mark.parametrize("shape", ["normal", "skewed"])
    def test_sample(self, n, shape):
        values = normal(n, seed=n) if shape == "normal" \
            else skewed(n, seed=n)
        assert_matches_scipy(values)

    @pytest.mark.parametrize("n", [12, 151, 604])
    def test_integer_ties(self, n):
        rng = random.Random(n)
        assert_matches_scipy([rng.randint(0, 4) for _ in range(n)])

    @pytest.mark.parametrize("n", [151, 604, 2000])
    def test_p_value_deep_in_the_tail(self, n):
        _, p = assert_matches_scipy(skewed(n, seed=7, power=4))
        assert 0.0 < p < 1e-16

    def test_unsorted_input_is_shifted_like_scipy(self):
        # The shift is the element at n // 2 of the input as given.
        values = skewed(151, seed=3)
        assert_matches_scipy(values)
        assert_matches_scipy(sorted(values))
        assert_matches_scipy(sorted(values, reverse=True))

    def test_over_5000_warns_like_scipy(self):
        values = normal(5001, seed=1)
        with pytest.warns(UserWarning) as ours:
            _shapiro(values)
        with pytest.warns(UserWarning) as theirs:
            stats.shapiro(values)
        assert str(ours[0].message) == "For N > 5000, computed p-value " \
            "may not be accurate. Current N is 5001."
        assert str(theirs[0].message).endswith(str(ours[0].message))
        assert_matches_scipy(values)


def test_paper_corpus_measures(full_study):
    """The study's eight §3.4.1 tests on the paper corpus."""
    measures = measures_of(full_study.records)
    for row in full_study.normality.rows:
        w, p = assert_matches_scipy(measures[row.measure])
        assert abs(row.statistic - w) <= W_TOLERANCE * w
        assert abs(row.p_value - p) <= P_TOLERANCE * p
    assert full_study.normality.all_non_normal
    assert min(row.p_value for row in full_study.normality.rows) < 1e-16


samples = st.one_of(
    st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
             min_size=3, max_size=2000),
    st.lists(st.integers(min_value=-10**6, max_value=10**6),
             min_size=3, max_size=2000),
)


@settings(deadline=None)
@given(samples)
def test_matches_scipy_property(values):
    assert_matches_scipy(values)
