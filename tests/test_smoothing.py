"""Unit and property tests for the smoothing kernel.

Expected values were fixed ahead of the implementation: closed forms by hand,
the non-trivial loss value with a 50-digit Decimal evaluation of
(5/6)*(-ln 0.8) + (1/6)*(-(ln 0.2 + ln 0.8)/2).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glsmooth.errors import ConfigError
from glsmooth.smoothing import (
    DEFAULT_K,
    SCORE_LEVELS,
    SmoothingParams,
    batch_loss,
    batch_targets,
    effective_label,
    effective_labels,
    gls_loss,
    gls_loss_gradient,
    gls_target,
    gls_target_exact,
    score_rate_table,
    smoothing_rate,
    smoothing_rate_exact,
    softmax,
    softmax_pair,
)

# Frozen ahead of the build (50-digit Decimal arithmetic, rounded to float64).
LOSS_P28_Y1_R16 = 0.33866808140753397


class TestSmoothingRate:
    def test_default_levels(self):
        """Default params give exactly {-1/4, 1/6, 7/12, 1} across |u|."""
        assert smoothing_rate(0) == 1.0
        assert smoothing_rate(3) == -0.25
        assert smoothing_rate(-3) == -0.25
        assert smoothing_rate_exact(-2) == Fraction(1, 6)
        assert smoothing_rate_exact(1) == Fraction(7, 12)
        assert smoothing_rate(1) == pytest.approx(0.583333333, abs=1e-9)

    def test_exact_rational_not_decimal(self):
        """5/12 reproduces -0.25 at |u|=3; the rounded 0.417 would give -0.251."""
        assert smoothing_rate_exact(3) == Fraction(-1, 4)
        off = SmoothingParams(k=Fraction("0.417"))
        assert smoothing_rate(3, off) == pytest.approx(-0.251)

    def test_monotone_in_magnitude(self):
        rates = [smoothing_rate(u) for u in range(0, 4)]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        # sign pattern required of the defaults
        assert smoothing_rate(3) < 0 < smoothing_rate(2)

    def test_symmetric_in_sign(self):
        for s in (1, 2, 3):
            assert smoothing_rate_exact(s) == smoothing_rate_exact(-s)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            SmoothingParams(k=0)
        with pytest.raises(ConfigError):
            SmoothingParams(k=Fraction(-1, 2))

    def test_r0_above_one_rejected_at_construction(self):
        # u = 0 has r = r0, so no record set makes an intercept over 1 valid
        with pytest.raises(ConfigError, match="r0"):
            SmoothingParams(k=Fraction(1, 2), r0=Fraction(3, 2))
        assert smoothing_rate(0, SmoothingParams(r0=1)) == 1.0

    def test_rates_past_the_float_range_rejected_at_construction(self):
        # each is valid alone; together the lowest rate r0 - 3k overflows a float
        k, r0 = Fraction("3e307"), Fraction("-1.7e308")
        assert smoothing_rate(3, SmoothingParams(k=k)) == float(1 - 3 * k)
        assert smoothing_rate(3, SmoothingParams(r0=r0)) == float(r0 - 3 * DEFAULT_K)
        with pytest.raises(ConfigError, match="k and intercept r0"):
            SmoothingParams(k=k, r0=r0)
        for params in ({"k": Fraction("1e400")}, {"r0": Fraction("-1e400")}):
            with pytest.raises(ConfigError, match="overflow"):
                SmoothingParams(**params)

    @pytest.mark.parametrize("params, message", [
        ({"k": -Fraction(10) ** 5000}, "slope k must be positive, got -1e+5000"),
        ({"k": Fraction(-(10**3000) - 1, 3 * 10**3000)}, "got -3.33333e-1"),
        ({"r0": Fraction(10) ** 5000}, "intercept r0 must not exceed 1, got 1e+5000"),
        ({"k": Fraction(-1, 10**40)}, "got -1e-40"),
        ({"k": -Fraction(10) ** 1_000_000 * 7}, "got -7e+1000000"),
        ({"r0": Fraction(10) ** 4999 * 99999999}, "got 1e+5007"),
        ({"k": Fraction(-1, 10**40 - 1)}, f"got -1/{10**40 - 1}"),
    ])
    def test_long_rationals_give_short_messages(self, params, message):
        # An exact rational of over 4300 digits cannot be made a string at
        # all; the message prints one with long terms to 6 significant digits.
        with pytest.raises(ConfigError) as raised:
            SmoothingParams(**params)
        assert str(raised.value).endswith(message)
        assert len(str(raised.value)) < 200

    def test_invalid_score(self):
        for bad in (4, -4, 0.5, "2"):
            with pytest.raises(ValueError):
                smoothing_rate(bad)


class TestEffectiveLabel:
    def test_non_negative_preserves(self):
        assert effective_label(1, 2) == 1
        assert effective_label(0, 0) == 0
        assert effective_label(1, 0) == 1

    def test_negative_flips(self):
        assert effective_label(1, -3) == 0
        assert effective_label(0, -1) == 1

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            effective_label(2, 1)


class TestGlsTarget:
    def test_reference_rows(self):
        np.testing.assert_allclose(gls_target(1, -0.25), [-0.125, 1.125], atol=0)
        np.testing.assert_allclose(gls_target(1, 1.0), [0.5, 0.5], atol=0)
        np.testing.assert_allclose(gls_target(1, 0.0), [0.0, 1.0], atol=0)
        np.testing.assert_allclose(
            gls_target(0, 7 / 12), [17 / 24, 7 / 24], atol=1e-15
        )

    def test_components_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            r = rng.uniform(-2.0, 1.0)
            y = int(rng.integers(0, 2))
            t = gls_target(y, r)
            assert abs(t.sum() - 1.0) < 1e-12

    def test_uniform_limit(self):
        np.testing.assert_array_equal(gls_target(0, 1.0), [0.5, 0.5])
        np.testing.assert_array_equal(gls_target(1, 1.0), [0.5, 0.5])

    def test_negative_rate_exits_unit_interval(self):
        t = gls_target(1, -0.25)
        assert t[0] < 0 and t[1] > 1

    def test_rate_above_one_rejected(self):
        with pytest.raises(ValueError):
            gls_target(1, 1.0000001)

    def test_exact_matches_float(self):
        for y in (0, 1):
            for r in (Fraction(-1, 4), Fraction(1, 6), Fraction(7, 12), Fraction(1)):
                exact = gls_target_exact(y, r)
                np.testing.assert_allclose(
                    gls_target(y, float(r)), [float(exact[0]), float(exact[1])], atol=1e-15
                )


class TestGlsLoss:
    def test_uniform_prediction_is_rate_independent(self):
        """At p = [0.5, 0.5] both loss terms equal ln 2, so r drops out."""
        for r in (-0.25, 0.0, 1 / 6, 7 / 12, 1.0):
            assert gls_loss([0.5, 0.5], 1, r) == pytest.approx(math.log(2), rel=1e-15)

    def test_zero_rate_recovers_cross_entropy(self):
        assert gls_loss([0.2, 0.8], 1, 0.0) == -math.log(0.8)
        assert gls_loss([0.2, 0.8], 0, 0.0) == -math.log(0.2)

    def test_high_precision_oracle_value(self):
        assert gls_loss([0.2, 0.8], 1, 1 / 6) == pytest.approx(
            LOSS_P28_Y1_R16, rel=1e-14
        )

    def test_matches_cross_entropy_against_target(self):
        """The two-term form equals CE against the smoothed target, r < 0 included."""
        rng = np.random.default_rng(42)
        for _ in range(1000):
            p1 = rng.uniform(1e-6, 1 - 1e-6)
            p = np.array([1.0 - p1, p1])
            r = rng.uniform(-0.25, 1.0)
            y = int(rng.integers(0, 2))
            direct = gls_loss(p, y, r)
            via_target = -float(np.dot(gls_target(y, r), np.log(p)))
            assert direct == pytest.approx(via_target, rel=1e-12, abs=1e-15)

    def test_flip_symmetry(self):
        """Score -s on label y is the component swap of score +s on label y."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            p1 = rng.uniform(1e-4, 1 - 1e-4)
            p = np.array([1.0 - p1, p1])
            y = int(rng.integers(0, 2))
            s = int(rng.integers(1, 4))
            r = smoothing_rate(s)
            lhs = gls_loss(p, effective_label(y, -s), r)
            rhs = gls_loss(p[::-1], effective_label(1 - y, -s), r)
            assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_rejects_non_positive_probability(self):
        with pytest.raises(ValueError):
            gls_loss([0.0, 1.0], 1, 0.0)
        with pytest.raises(ValueError):
            gls_loss([-0.1, 1.1], 1, 0.0)

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError):
            gls_loss([0.3, 0.8], 1, 0.0)


class TestGradient:
    def test_uniform_target_uniform_prediction(self):
        np.testing.assert_array_equal(gls_loss_gradient([0.0, 0.0], 1, 1.0), [0.0, 0.0])

    def test_hard_target(self):
        np.testing.assert_allclose(
            gls_loss_gradient([0.0, 0.0], 1, 0.0), [0.5, -0.5], atol=1e-15
        )

    def test_matches_finite_differences(self):
        """Central differences at h=1e-5, including negative rates."""
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(500):
            logits = rng.uniform(-3.0, 3.0, size=2)
            y = int(rng.integers(0, 2))
            r = rng.uniform(-0.25, 1.0)
            grad = gls_loss_gradient(logits, y, r)
            fd = np.zeros(2)
            for i in range(2):
                hi, lo = logits.copy(), logits.copy()
                hi[i] += h
                lo[i] -= h
                fd[i] = (
                    gls_loss(softmax_pair(hi), y, r) - gls_loss(softmax_pair(lo), y, r)
                ) / (2 * h)
            denom = max(np.abs(fd).max(), 1e-12)
            assert np.abs(grad - fd).max() / denom < 1e-6

    def test_components_sum_to_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            logits = rng.uniform(-6.0, 6.0, size=2)
            y = int(rng.integers(0, 2))
            r = rng.uniform(-0.25, 1.0)
            assert abs(gls_loss_gradient(logits, y, r).sum()) < 1e-10

    def test_rejects_non_finite_logits(self):
        with pytest.raises(ValueError):
            gls_loss_gradient([np.inf, 0.0], 1, 0.0)
        with pytest.raises(ValueError):
            gls_loss_gradient([np.nan, 0.0], 1, 0.0)


class TestBatchKernelConsistency:
    def test_batch_loss_matches_scalar_kernel(self):
        rng = np.random.default_rng(23)
        P = rng.dirichlet([1.0, 1.0], size=64)
        y_eff = rng.integers(0, 2, size=64)
        r = rng.uniform(-0.25, 1.0, size=64)
        batched = batch_loss(P, y_eff, r)
        for i in range(64):
            assert batched[i] == gls_loss(P[i], int(y_eff[i]), float(r[i]))

    def test_batch_targets_rows_sum_to_one(self):
        rng = np.random.default_rng(29)
        y_eff = rng.integers(0, 2, size=100)
        r = rng.uniform(-1.0, 1.0, size=100)
        np.testing.assert_allclose(batch_targets(y_eff, r).sum(axis=1), 1.0, atol=1e-12)


@given(
    y_eff=st.integers(0, 1),
    u=st.sampled_from(SCORE_LEVELS),
    r=st.floats(-3.0, 1.0),
    p1=st.floats(1e-300, 1.0, exclude_max=True),
    logits=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
)
def test_scalar_api_is_row_zero_of_the_batch_kernel(y_eff, u, r, p1, logits):
    """Bit for bit, negative rates included: the scalar API adds only checks."""
    p = np.array([1.0 - p1, p1])
    z = np.array(logits)
    assert effective_label(y_eff, u) == effective_labels(np.array([y_eff]), np.array([u]))[0]
    assert gls_target(y_eff, r).tobytes() == batch_targets([y_eff], [r])[0].tobytes()
    loss = batch_loss(p[None], [y_eff], [r])[0]
    assert np.float64(gls_loss(p, y_eff, r)).tobytes() == loss.tobytes()
    assert softmax_pair(z).tobytes() == softmax(z[None])[0].tobytes()


def oracle_softmax(logits):
    """softmax with the row max and row sum as ``axis=1`` reductions."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def oracle_batch_loss(P, y_eff, r):
    """batch_loss with the uniform part's row sum as an ``axis=1`` reduction."""
    P = np.asarray(P, dtype=np.float64)
    y_eff = np.asarray(y_eff, dtype=np.int64)
    r = np.asarray(r, dtype=np.float64)
    log_p = np.log(P)
    ce = -log_p[np.arange(len(y_eff)), y_eff]
    uniform = -0.5 * log_p.sum(axis=1)
    return (1.0 - r) * ce + r * uniform


def assert_same_bits(got, expected):
    """Bitwise equal, except that any NaN matches any NaN."""
    assert got.shape == expected.shape and got.dtype == expected.dtype
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 1.0, -1.0]
edge_floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL))
# A row is two independent values or one value twice (a tie).
two_columns = st.one_of(
    st.tuples(edge_floats, edge_floats), edge_floats.map(lambda x: (x, x))
)
two_column_arrays = st.lists(two_columns, min_size=1, max_size=12).map(
    lambda pairs: np.array(pairs, dtype=np.float64).reshape(-1, 2)
)


class TestTwoColumnKernels:
    """The column-wise kernels against their axis=1 forms, on IEEE edge values."""

    @settings(max_examples=300, deadline=None)
    @given(logits=two_column_arrays)
    def test_softmax_matches_axis_reductions(self, logits):
        before = logits.tobytes()
        with np.errstate(all="ignore"):
            expected = oracle_softmax(logits)
            got = softmax(logits)
        assert_same_bits(got, expected)
        assert logits.tobytes() == before

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), P=two_column_arrays)
    def test_batch_loss_matches_axis_reductions(self, data, P):
        n = len(P)
        y_eff = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        r = data.draw(st.lists(edge_floats, min_size=n, max_size=n))
        with np.errstate(all="ignore"):
            expected = oracle_batch_loss(P, y_eff, r)
            got = batch_loss(P, y_eff, r)
        assert_same_bits(got, expected)


class TestScoreRateTable:
    def test_seven_rows_descending(self):
        rows = score_rate_table()
        assert [row.u for row in rows] == [3, 2, 1, 0, -1, -2, -3]

    def test_reference_numbers(self):
        by_u = {row.u: row for row in score_rate_table()}
        assert float(by_u[2].r) == pytest.approx(0.167, abs=5e-4)
        assert [round(float(x), 4) for x in by_u[2].target] == [0.0833, 0.9167]
        assert float(by_u[0].r) == 1.0
        assert [float(x) for x in by_u[0].target] == [0.5, 0.5]
        assert float(by_u[-3].r) == -0.25
        assert [float(x) for x in by_u[-3].target] == [1.125, -0.125]

    def test_flip_symmetry_exact(self):
        by_u = {row.u: row for row in score_rate_table()}
        for s in (1, 2, 3):
            assert by_u[-s].target == tuple(reversed(by_u[s].target))

    def test_custom_slope(self):
        rows = score_rate_table(SmoothingParams(k=Fraction(1)))
        by_u = {row.u: row for row in rows}
        assert by_u[1].r == 0

    def test_every_level_present(self):
        assert {row.u for row in score_rate_table()} == set(SCORE_LEVELS)


# What each row's parenthesis says its rate does, by the rate's sign against 0 and 1.
RATE_WORDS = {
    "negative smoothing: sharpened past one-hot": lambda r: r < 0,
    "no smoothing: one-hot": lambda r: r == 0,
    "smoothing": lambda r: 0 < r < 1,
    "uniform": lambda r: r == 1,
}


@settings(max_examples=200, deadline=None)
@given(
    k=st.fractions(min_value=Fraction(1, 12), max_value=2, max_denominator=12),
    r0=st.fractions(min_value=-2, max_value=1, max_denominator=12),
)
@example(k=Fraction(1, 3), r0=Fraction(1))  # r = 0 at |u| = 3
@example(k=Fraction(5, 12), r0=Fraction(1, 2))  # no rate of 1, not even at u = 0
def test_table_words_match_each_rows_rate(k, r0):
    default_confidence = [row.interpretation.partition(" (")[0] for row in score_rate_table()]
    for row, confidence in zip(score_rate_table(SmoothingParams(k=k, r0=r0)),
                               default_confidence):
        head, _, words = row.interpretation.partition(" (")
        assert head == confidence and words.endswith(")")
        words = words[:-1]
        assert RATE_WORDS[words](row.r)
        # Only a negative rate sends a target component outside [0, 1].
        leaves = not all(0 <= x <= 1 for x in row.target)
        assert leaves == (words == "negative smoothing: sharpened past one-hot")
        if words == "no smoothing: one-hot":
            assert sorted(row.target) == [0, 1]
        if words == "uniform":
            assert row.target == (Fraction(1, 2), Fraction(1, 2))
