import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacou.errors import DoubleRangeError, ParameterError
from kacou.model import KacOuModel, SwitchRates, stationary_state_dist
from kacou.scaling import (
    LimitSde,
    ScaledPair,
    ScalingKind,
    ScalingSpec,
    convergence_check,
    limit_moments,
    limiting_sde,
    scaled_model,
    sigma_combine,
)
from kacou.simulate import terminal_values

BASE = KacOuModel.from_values(1.0, 1.0, 0.0, 2.0, 1.0, 1.0, 1.0, 3.0)


def _ou_exact(t, x0, a, gamma, b):
    """Mean and variance of dX = (a - gamma X) dt + b dW from x0 at time t,
    in closed form at 50 digits."""
    with mpmath.workdps(50):
        t, x0, a, g, b = (mpmath.mpf(v) for v in (t, x0, a, gamma, b))
        if g == 0:
            return float(x0 + a * t), float(b * b * t)
        mean = a / g + (x0 - a / g) * mpmath.exp(-g * t)
        return float(mean), float(-b * b * mpmath.expm1(-2 * g * t) / (2 * g))


# --- sigma combination ----------------------------------------------------------


def test_sigma_combine_values():
    assert sigma_combine(2.0, 2.0) == pytest.approx(2.0, rel=1e-15)
    assert sigma_combine(3.0, 4.0) == pytest.approx(12.0 / math.sqrt(12.5), rel=1e-15)
    with pytest.raises(ParameterError):
        sigma_combine(0.0, 1.0)


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e155, 1e200, 1e300])
def test_sigma_combine_extreme_amplitudes(scale):
    # sigma0*sigma1 and the mean square leave double range here (they
    # underflowed to 0/0 or overflowed to inf/inf); scaling by the larger
    # amplitude keeps the result homogeneous
    for s0, s1 in [(1.0, 1.0), (3.0, 4.0), (1.0, 1.0 / math.sqrt(7.0))]:
        assert sigma_combine(scale * s0, scale * s1) == pytest.approx(scale * sigma_combine(s0, s1), rel=1e-15)
    with pytest.raises(ParameterError):
        sigma_combine(scale, math.inf)
    with pytest.raises(ParameterError):
        sigma_combine(math.nan, scale)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_limit_sde_amplitudes_must_be_finite_and_nonnegative(bad):
    with pytest.raises(ParameterError, match="additive_noise must be finite and >= 0"):
        LimitSde(0.0, 1.0, bad, 0.0)
    with pytest.raises(ParameterError, match="multiplicative_noise must be finite and >= 0"):
        LimitSde(0.0, 1.0, 0.5, bad)


def test_normal_cdf_is_bitwise_the_loop():
    from kacou.scaling import _normal_cdf

    rng = np.random.default_rng(3)
    z = np.concatenate([rng.standard_normal(5000) * 3.0, [0.0, -0.0, 40.0, -40.0, 1e-300, 8.5, -8.5]])
    loop = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z])
    assert _normal_cdf(z).tobytes() == loop.tobytes()


@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0))
@settings(max_examples=100, deadline=None)
def test_sigma_combine_symmetric_and_homogeneous(s0, s1, k):
    assert sigma_combine(s0, s1) == pytest.approx(sigma_combine(s1, s0), rel=1e-12)
    assert sigma_combine(k * s0, k * s1) == pytest.approx(k * sigma_combine(s0, s1), rel=1e-12)


# --- limiting coefficients -------------------------------------------------------


def test_fast_switching_limit_coefficients():
    spec = ScalingSpec(ScalingKind.FAST_SWITCHING, nu=1.0, base=BASE)
    limit = limiting_sde(spec)
    assert (limit.drift_const, limit.drift_lin, limit.additive_noise) == (1.0, 2.0, 1.0)
    assert limit.multiplicative_noise == 0.0


def test_pi_star_star_limit():
    # the chain's stationary law under rate ratio nu = lambda0/lambda1 is
    # (1, nu) / (1 + nu), and the limit weights the base's coefficients by it
    for nu in (1e-8, 0.3, 1.0, 7.0, 1e8):
        assert stationary_state_dist(SwitchRates(nu, 1.0)) == pytest.approx((1 / (1 + nu), nu / (1 + nu)), rel=1e-15)
    p = stationary_state_dist(SwitchRates(1e6, 1.0))
    assert p[0] == pytest.approx(0.0, abs=2e-6) and p[1] == pytest.approx(1.0, abs=2e-6)
    limit = limiting_sde(ScalingSpec(ScalingKind.FAST_SWITCHING, nu=3.0, base=BASE))
    assert (limit.drift_const, limit.drift_lin, limit.additive_noise) == (1.5, 2.5, 1.0)


def test_case_a_additive_quadrature():
    spec = ScalingSpec(
        ScalingKind.CASE_A, nu=1.0, base=BASE, drift=ScaledPair(sigma0=0.8, delta=0.4)
    )
    limit = limiting_sde(spec)
    sigma_a = sigma_combine(0.8, 0.8)
    assert limit.drift_const == 0.4
    assert limit.additive_noise == pytest.approx(math.hypot(sigma_a, 1.0), rel=1e-14)
    assert limit.multiplicative_noise == 0.0


def test_case_b_and_c_coefficients():
    rev = ScaledPair(sigma0=1.0, delta=1.0)
    drift = ScaledPair(sigma0=0.5, delta=0.2)
    b_spec = ScalingSpec(ScalingKind.CASE_B, nu=1.0, base=BASE, reversion=rev)
    lb = limiting_sde(b_spec)
    assert (lb.drift_const, lb.drift_lin) == (1.0, 1.0)
    assert lb.multiplicative_noise == pytest.approx(1.0)
    assert lb.noise_offset == 0.0
    c_spec = ScalingSpec(ScalingKind.CASE_C, nu=1.0, base=BASE, drift=drift, reversion=rev)
    lc = limiting_sde(c_spec)
    assert (lc.drift_const, lc.drift_lin) == (0.2, 1.0)
    assert lc.noise_offset == pytest.approx(0.5)
    assert lc.additive_noise == 1.0  # independent diffusion amplitude stays separate


@given(st.floats(0.01, 100.0), st.floats(0.01, 100.0), st.floats(-5.0, 5.0))
@settings(max_examples=100, deadline=None)
def test_telegraph_limit_is_exactly_a_drifted_brownian_motion(sigma0, nu, delta):
    # the telegraph kinds take the one limit rule on a zero base:
    # hypot(sigma, 0.0) is sigma and every weighted coefficient is 0.0
    spec = ScalingSpec(ScalingKind.KAC_ASYMMETRIC, nu=nu, velocity=ScaledPair(sigma0, delta))
    sigma = sigma_combine(sigma0, sigma0 / math.sqrt(nu))
    assert limiting_sde(spec) == LimitSde(delta, 0.0, sigma, 0.0)


def test_spec_validation():
    with pytest.raises(ParameterError):
        ScalingSpec(ScalingKind.CASE_A, nu=1.0, base=BASE)  # missing drift pair
    with pytest.raises(ParameterError):
        ScalingSpec(ScalingKind.KAC_CLASSIC, nu=2.0, velocity=ScaledPair(1.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_scaling_parameters_must_be_finite(bad):
    # a nan or infinite parameter would pass a plain `<= 0` test and fail
    # later, deep in the model or in sigma_combine
    with pytest.raises(ParameterError, match="nu"):
        ScalingSpec(ScalingKind.FAST_SWITCHING, nu=bad, base=BASE)
    with pytest.raises(ParameterError, match="sigma0"):
        ScaledPair(sigma0=bad, delta=0.0)
    if not math.isfinite(bad):
        with pytest.raises(ParameterError, match="delta"):
            ScaledPair(sigma0=1.0, delta=bad)


# --- scaled families --------------------------------------------------------------


def test_scaled_telegraph_at_n1():
    spec = ScalingSpec(ScalingKind.KAC_ASYMMETRIC, nu=1.0, velocity=ScaledPair(1.0, 0.0))
    model = scaled_model(spec, 1)
    assert (model.coeffs[0].a, model.coeffs[1].a) == (1.0, -1.0)
    assert (model.rates.lambda0, model.rates.lambda1) == (1.0, 1.0)
    # a telegraph integral: no noise and no reversion
    assert all(c.b == 0.0 and c.gamma == 0.0 for c in model.coeffs)


def test_scaled_family_identities_hold_at_every_n():
    spec = ScalingSpec(ScalingKind.KAC_ASYMMETRIC, nu=2.5, velocity=ScaledPair(1.3, 0.3))
    s1 = spec.sigma1_of(spec.velocity)
    for n in (1, 10, 1000, 12345):
        model = scaled_model(spec, n)
        rates, c0, c1 = model.rates, model.coeffs[0].a, model.coeffs[1].a
        # rate ratio identity
        assert rates.lambda0 / rates.lambda1 == pytest.approx(2.5, rel=1e-14)
        # weighted-drift identity, exact at every n
        drift = (rates.lambda1 * c0 + rates.lambda0 * c1) / rates.total
        assert drift == pytest.approx(0.3, rel=1e-12)
    # amplitude ratios become exact when delta = 0
    spec0 = ScalingSpec(ScalingKind.KAC_ASYMMETRIC, nu=2.5, velocity=ScaledPair(1.3, 0.0))
    model = scaled_model(spec0, 77)
    assert model.coeffs[0].a / math.sqrt(model.rates.lambda0) == pytest.approx(1.3, rel=1e-14)
    assert model.coeffs[1].a / math.sqrt(model.rates.lambda1) == pytest.approx(-s1, rel=1e-14)


def test_scaled_cases_move_the_right_coefficients():
    drift = ScaledPair(sigma0=1.0, delta=0.2)
    rev = ScaledPair(sigma0=0.7, delta=0.9)
    a_model = scaled_model(ScalingSpec(ScalingKind.CASE_A, nu=1.0, base=BASE, drift=drift), 100)
    assert a_model.coeffs[0].a == pytest.approx(-10.0 + 0.2)
    assert a_model.coeffs[0].gamma == BASE.coeffs[0].gamma
    b_model = scaled_model(ScalingSpec(ScalingKind.CASE_B, nu=1.0, base=BASE, reversion=rev), 100)
    assert b_model.coeffs[1].gamma == pytest.approx(7.0 + 0.9)
    assert b_model.coeffs[1].a == BASE.coeffs[1].a


# --- moments -----------------------------------------------------------------------


def test_ou_moments_limits():
    # a Gaussian limit's moments at t = 0, at stationarity and with no reversion
    limit = LimitSde(1.0, 2.0, 0.5, 0.0)
    assert limit_moments(limit, 0.0, 0.7) == (0.7, 0.0)
    mean_inf, var_inf = limit_moments(limit, 25.0, 0.7)
    assert mean_inf == pytest.approx(0.5, abs=1e-10)
    assert var_inf == pytest.approx(0.25 / 4.0, abs=1e-10)
    assert limit_moments(LimitSde(0.3, 0.0, 0.5, 0.0), 2.0, 0.0) == (0.6, 0.5)


def test_limit_moment_odes_match_gaussian_case():
    mean, var = limit_moments(LimitSde(1.0, 2.0, 0.8, 0.0), 1.3, 0.4)
    want_mean, want_var = _ou_exact(1.3, 0.4, 1.0, 2.0, 0.8)
    assert mean == pytest.approx(want_mean, rel=1e-14)
    assert var == pytest.approx(want_var, rel=1e-14)


def test_limit_moment_odes_martingale_growth():
    limit = LimitSde(0.0, 0.0, 0.6, 0.0, noise_offset=0.8)
    mean, var = limit_moments(limit, 2.0, 0.3)
    assert mean == pytest.approx(0.3, rel=1e-14)
    assert var == pytest.approx((0.6**2 + 0.8**2) * 2.0, rel=1e-14)


def test_limit_moment_odes_step_refinement():
    limit = LimitSde(0.5, 1.5, 0.4, 0.9, noise_offset=0.2)
    ref = limit_moments(limit, 1.0, 0.1)
    again = limit_moments(limit, 1.0, 0.1)
    assert ref == again  # deterministic


def test_stiff_limit_moments_refine_past_overflowing_passes():
    # t * 2 * drift_lin is 1e4, far too stiff for an explicit step; the
    # moments have reached their stationary values
    limit = LimitSde(0.3, 50.0, 0.2, 0.5, noise_offset=0.1)
    m, v = limit_moments(limit, 100.0, 0.4)
    assert m == pytest.approx(0.3 / 50.0, rel=1e-12)
    # the stationary second moment (2 (c - sg off) m + off^2 + add^2) / (2 l - sg^2)
    assert v == pytest.approx((0.6 * m - 0.1 * m + 0.01 + 0.04) / 99.75 - m * m, rel=1e-12)
    spec = ScalingSpec(ScalingKind.CASE_B, nu=1.0, base=BASE, reversion=ScaledPair(0.5, 50.0))
    (row,) = convergence_check(spec, 100.0, [100], 500, seed=2, x0=0.4)
    assert math.isfinite(row.limit_mean) and row.limit_var > 0.0


@pytest.mark.parametrize(
    "limit, t",
    [(LimitSde(0.0, 0.0, 0.1, 10.0), 10.0), (LimitSde(0.0, 1.0, 0.1, 1e200), 1.0)],
)
def test_moments_beyond_double_range_raise_without_refining(limit, t):
    # s grows like exp(100 t) here, or its rate overflows
    with pytest.raises(DoubleRangeError):
        limit_moments(limit, t, 0.4)


def _explicit_moments(limit, t, x0):
    """Mean and variance s - m^2 from the moment equations solved by hand at
    50 digits: with m_inf = c / l, the second moment is
    s(t) = x0^2 e^{rt} + (k m_inf + d)(e^{rt} - 1) / r
           + k (x0 - m_inf)(e^{rt} - e^{-lt}) / (r + l)."""
    with mpmath.workdps(50):
        c, l, sg, off = (mpmath.mpf(v) for v in (limit.drift_const, limit.drift_lin,
                                                  limit.multiplicative_noise, limit.noise_offset))
        t, x0 = mpmath.mpf(t), mpmath.mpf(x0)
        k, r = 2 * (c - sg * off), sg * sg - 2 * l
        d = off * off + mpmath.mpf(limit.additive_noise) ** 2
        m_inf = c / l
        m = m_inf + (x0 - m_inf) * mpmath.exp(-l * t)
        s = (x0 * x0 * mpmath.exp(r * t) + (k * m_inf + d) * mpmath.expm1(r * t) / r
             + k * (x0 - m_inf) * (mpmath.exp(r * t) - mpmath.exp(-l * t)) / (r + l))
        return float(m), float(s - m * m)


@pytest.mark.parametrize("x0", [0.3, 1e3, 1e4])
@pytest.mark.parametrize(
    "limit, t",
    [
        (LimitSde(1.0, 1.0, 0.5, 0.8, 0.2), 1.0),
        (LimitSde(-0.7, 2.5, 0.3, 1.4, -0.6), 3.0),
        (LimitSde(0.5, 0.25, 0.0, 0.4), 10.0),
        (LimitSde(2.0, 0.1, 1.0, 0.3, 0.5), 100.0),
        (LimitSde(0.2, 0.1, 0.3, 1.0, 0.4), 10.0),  # s grows like e^{0.8 t}
        (LimitSde(0.3, 50.0, 0.2, 0.5, noise_offset=0.1), 100.0),  # stiff
    ],
)
def test_limit_moments_match_the_explicit_solution(limit, t, x0):
    m, v = limit_moments(limit, t, x0)
    want_m, want_v = _explicit_moments(limit, t, x0)
    assert m == pytest.approx(want_m, rel=1e-12)
    assert v == pytest.approx(want_v, rel=1e-12)


@pytest.mark.parametrize(
    "limit, t, x0, exact",
    [
        (LimitSde(0.5, 1e-9, 0.7, 0.0), 1.0, 1000.0, _ou_exact),  # 1 - e^{-2 gamma t} cancels
        (LimitSde(1.0, 2.0, 0.8, 0.0), 1e-6, 0.4, _ou_exact),  # a short horizon
        (LimitSde(0.2, 1.0, 0.3, 0.1, 0.4), 1.0, 300.0, _explicit_moments),  # s - m^2 cancels
        (LimitSde(1.0, 2.0, 0.8, 0.0), 1.0, 1e200, _ou_exact),  # x0^2 overflows
    ],
)
def test_limit_moments_are_accurate_where_differences_cancel(limit, t, x0, exact):
    if exact is _ou_exact:
        want = _ou_exact(t, x0, limit.drift_const, limit.drift_lin, limit.additive_noise)
    else:
        want = _explicit_moments(limit, t, x0)
    assert limit_moments(limit, t, x0) == pytest.approx(want, rel=1e-14)


def test_identically_zero_moments_stay_zero():
    # r t = 880 puts e^{rt} past double range, but nothing drives m or v
    assert limit_moments(LimitSde(0.0, 0.1, 0.0, 3.0), 100.0, 0.0) == (0.0, 0.0)


# --- convergence tables --------------------------------------------------------------


def test_telegraph_convergence_trend():
    spec = ScalingSpec(ScalingKind.KAC_ASYMMETRIC, nu=1.0, velocity=ScaledPair(1.0, 0.3))
    rows = convergence_check(spec, 1.0, [10, 100], 20_000, seed=4)
    assert rows[0].limit_mean == pytest.approx(0.3)
    assert rows[0].limit_var == pytest.approx(1.0)
    assert rows[-1].var_gap < rows[0].var_gap + 2.0 * (rows[0].var_stderr + rows[-1].var_stderr)
    assert all(r.cdf_dist is not None for r in rows)


def test_fast_switching_convergence_moments():
    spec = ScalingSpec(ScalingKind.FAST_SWITCHING, nu=1.0, base=BASE)
    rows = convergence_check(spec, 1.0, [300], 30_000, seed=5, x0=0.5)
    row = rows[0]
    assert row.mean_gap <= 4.0 * row.mean_stderr + 1e-3
    assert row.var_gap <= 4.0 * row.var_stderr + 2e-3


def test_fast_switching_zero_limit_variance_has_no_cdf_distance():
    # b0 = b1 = 0: the limit is deterministic, so a KS distance to it is undefined
    quiet = KacOuModel.from_values(1.0, 1.0, 0.0, 2.0, 0.0, 0.0, 1.0, 3.0)
    spec = ScalingSpec(ScalingKind.FAST_SWITCHING, nu=1.0, base=quiet)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = convergence_check(spec, 1.0, [10, 50], 2_000, seed=5, x0=0.5)
    assert [row.limit_var for row in rows] == [0.0, 0.0]
    assert [row.cdf_dist for row in rows] == [None, None]


def test_case_b_moments_match_stratonovich_limit():
    # the scaled switching process is a colored-noise approximation, so its
    # weak limit solves the displayed SDE in the Stratonovich sense; the
    # convergence table applies the drift correction internally
    from kacou.scaling import stratonovich_adjusted

    rev = ScaledPair(sigma0=1.0, delta=1.0)
    spec = ScalingSpec(ScalingKind.CASE_B, nu=1.0, base=BASE, reversion=rev)
    rows = convergence_check(spec, 1.0, [2000], 40_000, seed=6, x0=0.3)
    row = rows[0]
    assert row.cdf_dist is None  # moments only for multiplicative limits
    assert row.mean_gap <= 4.0 * row.mean_stderr + 5e-3
    assert row.var_gap <= 4.0 * row.var_stderr + 3e-2
    # the uncorrected (Ito-read) moments are decisively different
    limit = limiting_sde(spec)
    ito_mean, _ = limit_moments(limit, 1.0, 0.3)
    assert abs(row.emp_mean - ito_mean) > 10.0 * row.mean_stderr
    corrected = stratonovich_adjusted(limit)
    assert corrected.drift_lin == pytest.approx(limit.drift_lin - 0.5)


def test_case_a_variance_quadrature_law():
    # at n = 1000 the empirical variance matches the additive prediction in
    # which the scaled-drift noise and the frozen diffusion add in quadrature
    spec = ScalingSpec(
        ScalingKind.CASE_A, nu=1.0, base=BASE, drift=ScaledPair(sigma0=0.8, delta=0.4)
    )
    rows = convergence_check(spec, 1.0, [1000], 40_000, seed=9, x0=0.2)
    row = rows[0]
    sigma_a = sigma_combine(0.8, 0.8)
    _, var_ref = _ou_exact(1.0, 0.2, 0.4, 2.0, math.hypot(sigma_a, 1.0))
    assert row.limit_var == pytest.approx(var_ref, rel=1e-12)
    assert row.var_gap <= 3.0 * row.var_stderr + 2e-3
    assert row.mean_gap <= 3.0 * row.mean_stderr + 1e-3


def test_convergence_check_requires_increasing_n():
    spec = ScalingSpec(ScalingKind.FAST_SWITCHING, nu=1.0, base=BASE)
    with pytest.raises(ParameterError):
        convergence_check(spec, 1.0, [100, 10], 1_000, seed=0)


@pytest.mark.parametrize("n_paths", [1, 0])
def test_convergence_check_needs_two_paths(n_paths):
    # one draw has no sample variance
    spec = ScalingSpec(ScalingKind.FAST_SWITCHING, nu=1.0, base=BASE)
    with pytest.raises(ParameterError, match="n_paths"):
        convergence_check(spec, 1.0, [10], n_paths, seed=0)


def test_stderr_scaling_with_path_count():
    spec = ScalingSpec(ScalingKind.KAC_ASYMMETRIC, nu=1.0, velocity=ScaledPair(1.0, 0.0))
    r1 = convergence_check(spec, 1.0, [50], 10_000, seed=8)[0]
    r2 = convergence_check(spec, 1.0, [50], 40_000, seed=8)[0]
    assert r2.mean_stderr / r1.mean_stderr == pytest.approx(0.5, rel=0.15)


def test_telegraph_model_roundtrip():
    spec = ScalingSpec(ScalingKind.KAC_ASYMMETRIC, nu=1.0, velocity=ScaledPair(1.0, 0.0))
    model = scaled_model(spec, 10)
    assert (model.b_vec == 0.0).all() and (model.gamma_vec == 0.0).all()
    sample = terminal_values(model, 0.0, 1.0, 5_000, seed=3, initial_state="stationary")
    se = sample.values.std(ddof=1) / math.sqrt(sample.values.size)
    assert abs(float(np.mean(sample.values))) < 4.0 * se


def test_ou_moments_match_exact_simulator_recursion():
    # frozen-state transition: the simulator's one-step law reproduces the
    # constant-coefficient moments at any horizon
    from kacou.model import interval_variance, pattern_phi

    model = KacOuModel.from_values(1.0, 1.0, 0.7, 0.0, 0.6, 0.0, 1.3, 1.0)
    for t in (0.2, 1.0, 4.0):
        mean_ref, var_ref = _ou_exact(t, 0.4, 0.7, 1.3, 0.6)
        assert pattern_phi(0, t, 0.4, model) == pytest.approx(mean_ref, rel=1e-14)
        assert interval_variance(0, t, model) == pytest.approx(var_ref, rel=1e-14)


def test_case_c_moments_match_stratonovich_limit():
    spec = ScalingSpec(
        ScalingKind.CASE_C,
        nu=1.0,
        base=BASE,
        drift=ScaledPair(0.6, 0.3),
        reversion=ScaledPair(0.9, 1.2),
    )
    rows = convergence_check(spec, 1.0, [2000], 40_000, seed=77, x0=0.2)
    row = rows[0]
    assert row.mean_gap <= 4.0 * row.mean_stderr + 5e-3
    assert row.var_gap <= 4.0 * row.var_stderr + 2e-2
