import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacou import specfun
from kacou.errors import DoubleRangeError, OutOfDomainError, ParameterError, SeriesConvergenceError
from kacou.first_passage import FptQuery, laplace_fpt
from kacou.model import KacOuModel
from kacou.specfun import (
    beta_fn,
    gauss_2f1_log,
    gauss_2f1_pair_log,
    kummer_1f1_log,
    log_gamma,
)


def direct_2f1(b0, b1, b2, z, n_terms=4000):
    """Brute-force partial sums of the defining series (the test oracle)."""
    s = t = 1.0
    for n in range(n_terms):
        t *= (b0 + n) * (b1 + n) * z / ((b2 + n) * (n + 1.0))
        s += t
    return s


def direct_1f1(a, b, z, n_terms=400):
    s = t = 1.0
    for n in range(n_terms):
        t *= (a + n) * z / ((b + n) * (n + 1.0))
        s += t
    return s


# --- Gauss series -----------------------------------------------------------


def test_gauss_2f1_at_zero():
    assert gauss_2f1_log(0.7, 4.1, 2.2, 0.0).value() == 1.0


@pytest.mark.parametrize("z", [-0.9, -0.5, -0.1, 0.1, 0.5, 0.9])
def test_gauss_2f1_log_identity(z):
    assert gauss_2f1_log(1.0, 1.0, 2.0, z).value() == pytest.approx(-math.log1p(-z) / z, rel=1e-13)


def test_gauss_2f1_direct_series_oracle_negative():
    got = gauss_2f1_log(1.3, 0.7, 2.1, -0.7).value()
    assert got == pytest.approx(direct_2f1(1.3, 0.7, 2.1, -0.7), abs=1e-12)


def test_gauss_2f1_symmetry():
    assert gauss_2f1_log(0.9, 2.3, 1.4, 0.6).value() == gauss_2f1_log(2.3, 0.9, 1.4, 0.6).value()


@pytest.mark.parametrize("m", [1, 3, 7, 10])
def test_gauss_2f1_terminating_matches_horner(m):
    b1, b2, z = 1.7, 2.4, 1.8  # outside the disc: only the polynomial case reaches it
    coeffs = [1.0]
    for n in range(m):
        coeffs.append(coeffs[-1] * (-m + n) * (b1 + n) / ((b2 + n) * (n + 1.0)))
    horner = 0.0
    for c in reversed(coeffs):
        horner = horner * z + c
    assert gauss_2f1_log(float(-m), b1, b2, z).value() == pytest.approx(horner, rel=1e-13)


@pytest.mark.parametrize("z", [-0.95, -0.6, -0.3, -0.02])
def test_gauss_2f1_pfaff_consistency(z):
    # the implementation transforms z<0; the direct series is the oracle
    for b0, b1, b2 in [(1.3, 0.7, 2.1), (0.4, 2.9, 1.1), (2.2, 2.2, 3.5)]:
        assert gauss_2f1_log(b0, b1, b2, z).value() == pytest.approx(
            direct_2f1(b0, b1, b2, z), abs=1e-11
        )


def test_gauss_2f1_at_unit_argument():
    # closed form at z=1: F(a,b;c;1) = G(c)G(c-a-b) / (G(c-a)G(c-b))
    val = gauss_2f1_log(0.3, 0.4, 2.0, 1.0).value()
    ref = math.exp(
        log_gamma(2.0) + log_gamma(2.0 - 0.7) - log_gamma(2.0 - 0.3) - log_gamma(2.0 - 0.4)
    )
    assert val == pytest.approx(ref, rel=1e-13)
    with pytest.raises(OutOfDomainError):
        gauss_2f1_log(1.5, 1.6, 2.0, 1.0)


def test_gauss_2f1_domain_errors():
    with pytest.raises(OutOfDomainError):
        gauss_2f1_log(0.5, 0.6, 1.5, 1.2)
    with pytest.raises(ParameterError):
        gauss_2f1_log(0.5, 0.6, -2.0, 0.3)


def test_gauss_2f1_pair_matches_real_roots():
    b0, b1, b2, z = 2.7, 0.4, 1.9, 0.55
    pair = gauss_2f1_pair_log(b0 + b1, b0 * b1, b2, z).value()
    assert pair == pytest.approx(gauss_2f1_log(b0, b1, b2, z).value(), rel=1e-14)


def test_gauss_2f1_pair_conjugate_roots_real_sum():
    # sum/product with negative discriminant: (sum, product) = (1.0, 2.0)
    val = gauss_2f1_pair_log(1.0, 2.0, 1.5, 0.4).value()
    # oracle: complex-arithmetic direct series
    b0 = complex(0.5, math.sqrt(2.0 - 0.25))
    b1 = b0.conjugate()
    s = t = complex(1.0)
    for n in range(500):
        t *= (b0 + n) * (b1 + n) * 0.4 / ((1.5 + n) * (n + 1.0))
        s += t
    assert abs(s.imag) < 1e-15
    assert val == pytest.approx(s.real, rel=1e-13)
    with pytest.raises(OutOfDomainError):
        gauss_2f1_pair_log(1.0, 2.0, 1.5, 1.2)


def test_gauss_2f1_reports_term_cap():
    # z=1 with a small convergence exponent and one Gamma argument negative:
    # the series converges like k^-0.8 and reached the term cap after about
    # 0.3 s; Gauss's theorem gives the value without summing a term
    got = gauss_2f1_log(2.6, -1.9, 0.9, 1.0)
    assert got.terms_used == 0
    assert got.value() == pytest.approx(1.1640351919463965, rel=1e-13)


def _best_seconds(fn, repeats=5):
    """The shortest of a few calls' wall times."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


UNIT_GRID = [
    (0.3, 0.4, 2.0),  # every Gamma argument positive
    (-2.3, -1.7, -0.4),  # c < 0
    (0.7, -3.2, -0.4),  # c < 0 and c - a < 0
    (1.5, -2.5, 0.3),  # c - a < 0
    (-1.9, 2.6, 0.9),  # c - b < 0
    (-2.2, -1.9, -3.5),  # c, c - a and c - b < 0
    (1.5, -2.5, 0.5),  # c - a = -1, a pole of Gamma(c - a)
    (-2.5, 1.5, 0.5),  # c - b = -1, a pole of Gamma(c - b)
    (-2.5, -1.5, -3.5),  # both denominator poles
]


@pytest.mark.parametrize("a, b, c", UNIT_GRID)
def test_gauss_2f1_at_unit_is_gauss_theorem(a, b, c):
    # where a Gamma argument was negative, the series was summed at z = 1
    # for about 0.3 s, to the term cap
    import mpmath

    got = gauss_2f1_log(a, b, c, 1.0)
    assert got.terms_used == 0
    assert _best_seconds(lambda: gauss_2f1_log(a, b, c, 1.0)) < 1e-3
    with mpmath.workdps(50):
        want = float(mpmath.hyp2f1(a, b, c, 1))
    if want == 0.0:
        assert got.sign == 0.0 and got.value() == 0.0
    else:
        assert got.value() == pytest.approx(want, rel=1e-13)


def test_gauss_2f1_unit_divergence_is_error():
    with pytest.raises(OutOfDomainError):
        gauss_2f1_log(0.5, 0.9, 0.7, 1.0)


@pytest.mark.parametrize("z", [1.0 - 2.0**-53, 1.0 - 1e-9])
def test_gauss_2f1_divergent_series_next_to_unit_fails_at_once(z):
    # closer to 1 than one over the whole term budget the series cannot
    # settle; it used to sum 65M terms before giving up.  With b2 - b0 - b1
    # = -1 an integer, no connection formula applies, so only the series is
    # left, and it must fail before summing a term
    with mock.patch.object(specfun, "_sum_series", side_effect=AssertionError("summed")):
        with pytest.raises(OutOfDomainError, match="diverges at z = 1"):
            gauss_2f1_log(0.5, 1.5, 1.0, z)


@pytest.mark.parametrize("z", [1.0 - 2.0**-53, 1.0 - 1e-9])
def test_gauss_2f1_divergent_series_next_to_unit_by_connection(z):
    # b2 - b0 - b1 = -0.7: the 1 - z connection reaches the value the direct
    # series never settles on
    got = gauss_2f1_log(0.5, 0.9, 0.7, z)
    assert got.terms_used <= 100
    assert got.sign * math.exp(got.log - _mp_log_2f1(0.5, 0.9, 0.7, z)) == pytest.approx(1.0, rel=1e-13)


def _mp_log_2f1(a, b, c, z):
    """log F(a, b; c; z) at 50 digits, for a positive F."""
    import mpmath

    with mpmath.workdps(50):
        value = mpmath.hyp2f1(a, b, c, z)
        assert value > 0
        return float(mpmath.log(value))


# --- Kummer series -----------------------------------------------------------


def test_kummer_identities():
    assert kummer_1f1_log(0.8, 1.9, 0.0).value() == 1.0
    assert kummer_1f1_log(1.3, 1.3, 0.9).value() == pytest.approx(math.exp(0.9), rel=1e-13)
    assert kummer_1f1_log(2.0, 3.0, -1.5).value() == pytest.approx(direct_1f1(2.0, 3.0, -1.5), abs=1e-12)


def test_kummer_negative_matches_direct_series():
    for a, b, z in [(0.7, 1.2, -4.0), (2.5, 5.5, -0.3)]:
        assert kummer_1f1_log(a, b, z).value() == pytest.approx(direct_1f1(a, b, z), rel=1e-11)


def test_kummer_pole_error():
    with pytest.raises(ParameterError):
        kummer_1f1_log(1.0, 0.0, 0.5)


# --- log-gamma / beta ---------------------------------------------------------


def test_log_gamma_factorial():
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
    for x in np.linspace(0.05, 30.0, 40):
        assert log_gamma(float(x)) == pytest.approx(math.lgamma(x), rel=1e-13)


def test_beta_examples():
    assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    # frozen from adaptive quadrature of t^1.5 (1-t)^2.5 on (0,1)
    assert beta_fn(2.5, 3.5) == pytest.approx(0.036815538909255385, abs=1e-10)


def test_beta_quadrature_oracle():
    from scipy.integrate import quad

    val, err = quad(lambda t: t**1.5 * (1.0 - t) ** 2.5, 0.0, 1.0)
    assert beta_fn(2.5, 3.5) == pytest.approx(val, abs=max(1e-10, 10 * err))


def test_log_gamma_domain():
    with pytest.raises(ParameterError):
        log_gamma(0.0)
    with pytest.raises(ParameterError):
        beta_fn(-1.0, 2.0)


def test_log_value_arithmetic():
    from kacou.specfun import LogValue

    a = LogValue(math.log(3.0), 1.0)
    b = LogValue(math.log(2.0), -1.0)
    assert a.value() == pytest.approx(3.0)
    assert b.value() == pytest.approx(-2.0)
    assert a.ratio(b) == pytest.approx(-1.5)
    assert a.add(b).value() == pytest.approx(1.0)
    assert a.scaled(-2.0).value() == pytest.approx(-6.0)
    assert a.add(a.scaled(-1.0)).sign == 0.0
    huge = LogValue(5000.0, 1.0)
    with pytest.raises(Exception):
        huge.value()
    assert huge.ratio(LogValue(5000.5, 1.0)) == pytest.approx(math.exp(-0.5))


def test_log_value_past_double_range_is_a_double_range_error():
    # a result past the range of a double, not a query outside a closed
    # form's domain: these raised OutOfDomainError
    from kacou.specfun import LogValue

    huge = LogValue(710.0, 1.0)
    with pytest.raises(DoubleRangeError, match="magnitude overflows double precision"):
        huge.value()
    with pytest.raises(DoubleRangeError, match="ratio overflows double precision"):
        huge.ratio(LogValue(0.5, -1.0))
    assert huge.ratio(LogValue(1.0, -1.0)) == -math.exp(709.0)


def test_log_scaled_series_survives_huge_parameters():
    from kacou.specfun import gauss_2f1_log

    big = gauss_2f1_log(2e6, 5e5, 1e6 + 1.0, 0.25)
    assert big.sign == 1.0 and big.log > 709.0  # value itself overflows double


@pytest.mark.parametrize(
    "args",
    [
        (1e200, 1e200, 1e200, 0.25),  # the product 1e400: it returned log = inf after 3 terms
        (1.0, 2.0, math.inf, 1.0),  # the Gamma closed form at z = 1
        (-1.0, math.inf, 2.0, 0.5),  # a terminating series
    ],
)
def test_parameters_past_double_range_raise_a_typed_error(args):
    with pytest.raises(DoubleRangeError):
        gauss_2f1_log(*args)


def test_kummer_parameter_past_double_range_raises_a_typed_error():
    with pytest.raises(DoubleRangeError):
        kummer_1f1_log(math.inf, 1.5, 0.5)


def test_series_whose_terms_grow_past_the_budget_is_refused_before_summing():
    # at q = 1e9 the terms of F(b0, b1; beta1 + 1; 1/4) grow up to term
    # 3.3e8, past the 6.5e7 the cap and the long tail may sum: that ground
    # for 2.5 s before the same error
    q = 1e9
    args = (1.0, 2.0 * q + 2.0, q * (q + 2.0), q + 1.0, 0.25)
    assert specfun._stop_floor(*args) >= specfun._TERM_BUDGET
    with pytest.raises(SeriesConvergenceError) as err:
        specfun._sum_series(*args)
    assert err.value.terms_used == 0


def test_gauss_2f1_log_matches_mpmath_at_large_parameters():
    import mpmath

    for a, b, c, z in [(2000.0, 500.0, 1001.0, 0.25), (300.0, 70.0, 150.0, 0.6)]:
        mine = gauss_2f1_log(a, b, c, z)
        ref = float(mpmath.log(mpmath.hyp2f1(a, b, c, z)))
        assert mine.sign == 1.0
        assert mine.log == pytest.approx(ref, abs=1e-11)


# --- the summation loop against an independent referee ------------------------


def reference_sum_series(c2, c1, c0, b2, z):
    """The one-term-at-a-time loop, written out apart from ``_sum_series``:
    the bitwise referee for every term count and result.  A multiply that
    would carry the term past double range is preceded by a rescale, found
    by trying the product itself rather than by a bound on the ratio.  A
    series whose numerator has no zero at k >= 0 and whose stop floor is
    past the terms its kind may sum is refused before any term: a Gauss
    series may sum the cap and the long tail, Kummer's the cap alone."""
    floor = specfun._stop_floor(c2, c1, c0, b2, z)
    budget = specfun._TERM_BUDGET if c2 else specfun.SERIES_CAP
    if floor >= budget and (specfun._largest_root(c2, c1, c0) if c2 else -c0) < 0.0:
        raise SeriesConvergenceError(
            f"hypergeometric series cannot stop within {budget} terms: its terms "
            f"may grow again up to term {floor:.3g} (z={z})",
            terms_used=0,
        )
    total = 1.0
    term = 1.0
    log_scale = 0.0
    small_run = 0
    single_signed = z > 0.0
    rtol = specfun.SERIES_RTOL * (1.0 - abs(z)) if c2 and abs(z) < 1.0 else specfun.SERIES_RTOL
    k = 0.0
    for n in range(1, specfun.SERIES_CAP + 1):
        factor = (c2 * k * k + c1 * k + c0) * z / ((b2 + k) * (k + 1.0))
        k += 1.0
        if factor <= 0.0:
            single_signed = False
        if math.isinf(term * factor):
            term /= specfun._RESCALE_AT
            total /= specfun._RESCALE_AT
            log_scale += specfun._RESCALE_LOG
        term *= factor
        total += term
        if term == 0.0:
            return specfun._finish(total, log_scale, n + 1)
        mag = abs(term)
        if mag > specfun._RESCALE_AT or abs(total) > specfun._RESCALE_AT:
            term /= specfun._RESCALE_AT
            total /= specfun._RESCALE_AT
            log_scale += specfun._RESCALE_LOG
            mag = abs(term)
        if mag <= rtol * abs(total) + specfun.SERIES_FLOOR and n > floor:
            small_run += 1
            if small_run >= 2:
                return specfun._finish(total, log_scale, n + 1)
        else:
            small_run = 0
    if c2 and single_signed and total > 0.0 and term > 0.0:
        return specfun._long_tail_positive(c1, c0, b2, z, total, term, log_scale)
    raise SeriesConvergenceError(
        f"hypergeometric series did not converge in {specfun.SERIES_CAP} terms (z={z})",
        terms_used=specfun.SERIES_CAP,
    )


def _outcome(fn, args):
    """A LogValue's bits, or an error's type, text and term count."""
    try:
        v = fn(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc), getattr(exc, "terms_used", None)
    return v.log.hex(), v.sign.hex(), v.terms_used


def assert_same_as_loop(args):
    assert _outcome(specfun._sum_series, args) == _outcome(reference_sum_series, args)


# Each family draws its parameters through u(lo, hi), a uniform float on
# [lo, hi]: hypothesis and a seeded generator drive the same families.


def _lower(u):
    b2 = u(0.1, 40.0)
    return b2 if b2 != math.floor(b2) else b2 + 0.5


def _disc(u):
    # |z| from 0 to 0.999, a third of them negative (alternating terms)
    z = 1.0 - 10.0 ** -u(0.0, 3.0)
    return -z if u(0.0, 3.0) < 1.0 else z


def _real_pair(u):
    b0, b1 = u(-5.0, 40.0), u(-5.0, 40.0)
    return 1.0, b0 + b1, b0 * b1, _lower(u), _disc(u)


def _conjugate_pair(u):
    s = u(-10.0, 30.0)
    return 1.0, s, 0.25 * s * s + u(0.01, 100.0), _lower(u), _disc(u)


def _kummer(u):
    # z past about 650 pushes the terms over the rescale threshold
    return 0.0, 1.0, u(-5.0, 30.0), _lower(u), u(0.01, 1500.0)


def _terminating(u):
    # b0 = -m: the ratio at k = m is zero; z of either sign, terms change sign
    m = math.floor(u(1.0, 2000.0))
    b1 = u(-3.0, 3.0)
    return 1.0, b1 - m, -m * b1, u(0.1, 5.0), u(-3.0, 3.0)


def _next_to_unit(u):
    # convergent at z = 1 (b2 - b0 - b1 > 0), so only z^k ends the sum:
    # thousands of terms
    b0, b1 = u(0.1, 5.0), u(0.1, 5.0)
    return 1.0, b0 + b1, b0 * b1, b0 + b1 + u(0.2, 3.0), 1.0 - 10.0 ** -u(1.0, 3.5)


def _large_q(u):
    # the Gauss series of a killing rate q: it rescales along the way
    q = 10.0 ** u(3.0, 4.5)
    return 1.0, 2.0 * q + 2.0, q * (q + 2.0), q + math.floor(u(1.0, 3.0)), u(0.05, 0.9)


FAMILIES = [_real_pair, _conjugate_pair, _kummer, _terminating, _next_to_unit, _large_q]


def _drawn(data, family):
    return family(lambda lo, hi: data.draw(st.floats(lo, hi)))


@given(st.sampled_from(FAMILIES), st.data())
@settings(max_examples=150, deadline=None)
def test_blocks_are_bitwise_the_scalar_loop(family, data):
    assert_same_as_loop(_drawn(data, family))


@pytest.mark.parametrize("family", FAMILIES)
def test_seeded_draws_are_bitwise_the_scalar_loop(family):
    # hypothesis favours short series; uniform draws reach the long ones
    rng = np.random.default_rng(8)
    for _ in range(25):
        assert_same_as_loop(family(lambda lo, hi: float(rng.uniform(lo, hi))))


@pytest.mark.parametrize("last", [255, 256, 257, 768, 769, 770, 1792, 1793])
def test_terminating_stop_on_default_block_boundaries(last):
    # b0 = 1 - last makes term `last` the first zero one
    m = last - 1.0
    assert_same_as_loop((1.0, 0.5 - m, -m * 0.5, 1.5, 0.9))
    assert_same_as_loop((1.0, 0.5 - m, -m * 0.5, 1.5, -2.5))


def test_ratio_sign_past_a_cut_block_is_not_read():
    # upper parameters -700.5 and -699.7: the ratio at k = 700 is negative,
    # but the stop comes at term 414, before it
    assert_same_as_loop((1.0, -1400.2, 700.5 * 699.7, 0.5, 0.9))


CAP_AND_TAIL = [
    (1.0, 0.7, -4.94, 0.9, 1.0),  # Gauss at z = 1 that never settles: the cap
    (0.0, 1.0, 0.5, 1.5, 1e30),  # terms that grow up to k = 1e30: refused before summing
    (0.0, 1.0, -2000.0, 1.5, 1e30),  # a rescale every ten terms, then a zero term
    (1.0, 2e6 + 2.0, 1e6 * (1e6 + 2.0), 1e6 + 1.0, 0.6),  # q = 1e6: the long tail
    (0.0, 1.0, -20000.0, 1.5, 1e30),  # ratios past 1e28: a rescale before the multiply
    (0.0, 1.0, -2e6 - 0.5, 1.5, 1e30),  # a rescale every eight to eleven terms, up to the cap
]


@pytest.mark.parametrize("args", CAP_AND_TAIL)
def test_cap_and_long_tail_match_the_loop(args):
    assert_same_as_loop(args)


def test_blocks_after_dense_rescales_stay_narrow():
    # a rescale every eight to eleven terms, up to the cap: the numerator's
    # zero near k = 2e6 keeps the series from being refused up front
    args = (0.0, 1.0, -2e6 - 0.5, 1.5, 1e30)
    got = _outcome(specfun._sum_series, args)
    assert got == _outcome(reference_sum_series, args)
    assert got[2] == specfun.SERIES_CAP


def test_no_warning_escapes_the_blocks():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in CAP_AND_TAIL + [(1.0, 2e5 + 2.0, 1e5 * (1e5 + 2.0), 1e5 + 1.0, 0.3)]:
            _outcome(specfun._sum_series, args)
        assert gauss_2f1_log(2.6, -1.9, 0.9, 1.0).terms_used == 0
        assert gauss_2f1_log(2e6, 5e5, 1e6 + 1.0, 0.25).log > 709.0


def test_kummer_whose_terms_grow_to_the_cap_raises_at_once():
    # a Kummer series whose stop floor passes the cap, with no numerator zero
    # to end it, could only sum to the cap (a million terms at z = 1e7, 1.5e6
    # and 5e6) or overflow (at z = 1e300 it once returned log = inf): the
    # loop refuses it before the first term, as the referee does
    for z in (1.5e6, 5e6, 1e7, 1e30, 1e300):
        expected = _outcome(reference_sum_series, (0.0, 1.0, 0.5, 1.5, z))
        assert expected[0] is SeriesConvergenceError and expected[2] == 0
        with mock.patch.object(specfun, "_finish", side_effect=AssertionError("summed")):
            assert _outcome(kummer_1f1_log, (0.5, 1.5, z)) == expected
    # below the floor the series is summed as before
    assert kummer_1f1_log(0.5, 1.5, 700.0) == specfun._sum_series(0.0, 1.0, 0.5, 1.5, 700.0)


def test_series_that_would_grind_to_the_cap_are_refused_within_a_millisecond():
    # each summed a million terms, for about 0.3 s, before it raised
    non_strict = KacOuModel.from_values(1, 1, 0, 1, 0, 0, 1, 0)
    for call in (
        lambda: kummer_1f1_log(0.5, 1.5, 1.5e6),
        lambda: kummer_1f1_log(0.5, 1.5, 5e6),
        lambda: laplace_fpt(FptQuery(3e5, 5.0, 6.0, 1), non_strict),
    ):
        with pytest.raises(SeriesConvergenceError, match="cannot stop within 1000000 terms") as err:
            call()
        assert err.value.terms_used == 0

        def refused():
            with pytest.raises(SeriesConvergenceError):
                call()

        assert _best_seconds(refused) < 1e-3


def _mp_terminating_1f1(a, b, z):
    """The polynomial 1F1(a; b; z), a a nonpositive integer, summed term by
    term in 50-digit arithmetic."""
    import mpmath

    with mpmath.workdps(50):
        term = total = mpmath.mpf(1)
        z = mpmath.mpf(z)
        for k in range(-int(a)):
            term *= (k + a) * z / ((k + b) * (k + 1))
            total += term
        return mpmath.log(abs(total)), int(mpmath.sign(total))


@pytest.mark.parametrize(
    "a, b, z",
    [(-20000.0, 1.5, 1e30), (-30.0, 1.5, 1e30), (-10.0, 1.5, 1e40), (-20.0, 0.5, 1e300), (-7.0, -2.5, 1e100)],
)
def test_terminating_kummer_whose_terms_would_overflow(a, b, z):
    # ratios past 1e28 carry a term over double range before the rescale
    # test sees it; a loop without a rescale before the multiply raised at
    # the cap, and the referee, which has one, gives the same bits
    args = (0.0, 1.0, a, b, z)
    assert _outcome(reference_sum_series, args) == _outcome(specfun._sum_series, args)
    got = kummer_1f1_log(a, b, z)
    log, sign = _mp_terminating_1f1(a, b, z)
    assert got.sign == sign
    assert got.log == pytest.approx(float(log), rel=1e-13)
    assert got.terms_used == -a + 2


# --- the form selector ------------------------------------------------------------


def _mp_2f1(a, b, c, z):
    import mpmath

    with mpmath.workdps(50):
        return mpmath.hyp2f1(a, b, c, z)


def _assert_near_mpmath(value, ref, rel):
    import mpmath

    with mpmath.workdps(50):
        got = value.sign * mpmath.exp(value.log)
        assert abs(got - ref) <= rel * abs(ref), (got, ref)


# (a, b, c, z) per form: every one within 1e-10 of 50-digit mpmath
FORMS = {
    # the last one after Euler's form, preferred by sign, missed its bound
    "direct": [(0.3, 1.7, 2.2, 0.3), (12.5, 12.5, 9.1, 0.3), (-0.4, 0.3, -5.5, 0.3), (1.0, 1.0, 2.0, 0.9), (-7.3, -2.6, 9.1, 0.97)],
    # the direct terms change sign over the first 7 (a = -6.7), Euler's share one sign
    "euler": [(-6.7, 4.2, 9.1, 0.3), (0.7, -5.3, 3.1, 0.4), (-3.4, 2.5, 1.2, 0.4)],
    "pfaff a": [(1.3, 0.7, 2.1, -0.7), (0.3, 1.7, 2.2, -0.6), (1.0, 1.0, 2.0, -5.0)],
    "pfaff b": [(-0.4, 4.2, 2.2, -0.6), (-7.3, 12.5, 0.6, -0.6), (-7.3, 4.2, -5.5, -3.0)],
    "connection": [(0.5, 0.7, 2.0, 1.0 - 1e-5), (0.3, 4.2, 2.2, 0.8), (-0.4, 12.5, -5.5, 0.97), (1.7, -2.6, 0.6, 0.97)],
    "pfaff connection": [(-0.4, 1.7, 2.2, -3.0), (0.3, 1.7, -5.5, -3.0), (-0.4, 12.5, -5.5, -3.0)],
    # no form passes its bound, and the value is still right to 1e-10
    "fallback": [(-2.6, -2.6, 2.2, -3.0), (-7.3, -2.6, 2.2, -3.0), (2.3, -1.4, 0.6, 0.9)],
}


@pytest.mark.parametrize("form, args", [(f, a) for f, cases in FORMS.items() for a in cases])
def test_selector_reaches_every_form(form, args):
    name, value = specfun._selected(*args)
    assert name == form
    _assert_near_mpmath(value, _mp_2f1(*args), 1e-10)
    assert gauss_2f1_log(*args) == value


def test_fallback_past_its_bound_raises():
    # no form keeps its bound: the best candidate's is 1.06e-4, and its
    # value was 1.2e-7 off 50-digit mpmath
    with pytest.raises(SeriesConvergenceError, match="rounding bound is 0.000106"):
        gauss_2f1_log(12.5, 12.5, -5.5, -3.0)


def test_connection_next_to_unit_in_few_terms():
    # the direct series took 683,826 terms here and ended 8.1e-10 off
    got = gauss_2f1_log(0.5, 0.7, 2.0, 1.0 - 1e-5)
    assert got.terms_used <= 100
    _assert_near_mpmath(got, _mp_2f1(0.5, 0.7, 2.0, 1.0 - 1e-5), 1e-13)


def test_connection_bound_catches_a_sign_changing_inner_series():
    # c - a - b = -41.8: the second inner series F(c - a, c - b; -40.8; s)
    # has a negative lower parameter, its terms change sign and the two
    # parts cancel; the bound sends the value to the direct series
    args = (48.20198117453452, 41.759216058139856, 48.128409256944735, 1.0 - 0.4545559290877732)
    _, bound = specfun._connection(*args[:3], 1.0 - args[3], 0.0, math.inf)
    assert bound > specfun._FORM_RTOL
    name, value = specfun._selected(*args)
    assert name == "direct"
    _assert_near_mpmath(value, _mp_2f1(*args), 1e-12)


def test_terms_that_dip_and_grow_again_are_all_summed():
    # the terms fall below 1e-14 of the sum inside the first 40, then grow
    # past 1e4 once c + k > 0; the stop used to come in the dip and return
    # 1.005 for 12549.7
    a, b, c, z = -0.07357191758978132, 6.369193198804879, -40.83278797572964, 0.4545559290877732
    got = specfun._sum_series(1.0, a + b, a * b, c, z)
    assert got.terms_used > 42
    _assert_near_mpmath(got, _mp_2f1(a, b, c, z), 1e-11)


def test_slow_tail_next_to_unit_is_summed_to_the_tolerance():
    # terms fall off like 0.97^k: a term of 1e-14 of the sum leaves a tail 33
    # times larger unless the stop scales with 1 - z
    args = (12.5, 12.5, 0.6, 0.97)
    got = specfun._sum_series(1.0, 25.0, 156.25, 0.6, 0.97)
    _assert_near_mpmath(got, _mp_2f1(*args), 5e-14)


@pytest.mark.parametrize("x", [1e-6, 1e-8, 1e-12, 1e-300, 5e-324])
def test_log_gamma_near_zero_matches_mpmath(x):
    import mpmath

    with mpmath.workdps(40):
        ref = float(mpmath.loggamma(x))
    assert log_gamma(x) == pytest.approx(ref, rel=1e-14)


def test_log_gamma_past_double_range_is_typed():
    from kacou.errors import DoubleRangeError

    with pytest.raises(DoubleRangeError):
        log_gamma(1e306)
