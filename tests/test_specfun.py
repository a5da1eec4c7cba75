import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacou.errors import OutOfDomainError, ParameterError, SeriesConvergenceError
from kacou.specfun import (
    beta_fn,
    gauss_2f1_log,
    gauss_2f1_pair_log,
    kummer_1f1_log,
    log_gamma,
    pochhammer,
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


# --- pochhammer -------------------------------------------------------------


def test_pochhammer_examples():
    assert pochhammer(5.0, 0) == 1.0
    assert pochhammer(3.0, 4) == 360.0
    assert pochhammer(0.0, 2) == 0.0


@given(st.floats(-5, 5, allow_nan=False), st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_pochhammer_recurrence(b, n):
    assert pochhammer(b, n + 1) == pochhammer(b, n) * (b + n)


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
    # z=1 with a small convergence exponent and no Gamma closed form (one
    # Gamma argument negative): the series is too slow and must say so
    with pytest.raises(SeriesConvergenceError) as err:
        gauss_2f1_log(2.6, -1.9, 0.9, 1.0)
    assert err.value.terms_used == 1_000_000


def test_gauss_2f1_unit_divergence_is_error():
    with pytest.raises(OutOfDomainError):
        gauss_2f1_log(0.5, 0.9, 0.7, 1.0)


@pytest.mark.parametrize("z", [1.0 - 2.0**-53, 1.0 - 1e-9])
def test_gauss_2f1_divergent_series_next_to_unit_fails_at_once(z):
    # closer to 1 than one over the whole term budget the series cannot
    # settle; it used to sum 65M terms before giving up
    with pytest.raises(OutOfDomainError, match="diverges at z = 1"):
        gauss_2f1_log(0.5, 0.9, 0.7, z)


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


def test_log_scaled_series_survives_huge_parameters():
    from kacou.specfun import gauss_2f1_log

    big = gauss_2f1_log(2e6, 5e5, 1e6 + 1.0, 0.25)
    assert big.sign == 1.0 and big.log > 709.0  # value itself overflows double


def test_gauss_2f1_log_matches_mpmath_at_large_parameters():
    import mpmath

    for a, b, c, z in [(2000.0, 500.0, 1001.0, 0.25), (300.0, 70.0, 150.0, 0.6)]:
        mine = gauss_2f1_log(a, b, c, z)
        ref = float(mpmath.log(mpmath.hyp2f1(a, b, c, z)))
        assert mine.sign == 1.0
        assert mine.log == pytest.approx(ref, abs=1e-11)
