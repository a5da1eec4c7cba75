import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kacou.errors import DoubleRangeError, ParameterError
from kacou.model import (
    KacOuModel,
    RegimeTag,
    SwitchRates,
    classify_regime,
    hitting_time,
    hyper_args,
    interval_variance,
    pattern_map,
    pattern_phi,
    stationary_state_dist,
    transition_matrix,
    xi0,
    xi1,
)


def make(lambda0=1.0, lambda1=1.0, a0=0.0, a1=1.0, b0=0.0, b1=0.0, gamma0=1.0, gamma1=1.0):
    return KacOuModel.from_values(lambda0, lambda1, a0, a1, b0, b1, gamma0, gamma1)


# --- classification -------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, tag",
    [
        (dict(gamma0=1.0, gamma1=2.0, a0=0.0, a1=2.0), RegimeTag.ATTRACTING_STRICT),
        (dict(gamma0=1.0, gamma1=-1.0), RegimeTag.ATTRACTION_REPULSION_01),
        (dict(gamma0=-1.0, gamma1=1.0), RegimeTag.ATTRACTION_REPULSION_10),
        (dict(gamma0=1.0, a0=2.0, gamma1=2.0, a1=4.0), RegimeTag.DEGENERATE_EQUAL_RHO),
        (dict(gamma0=-1.0, gamma1=-2.0, a0=0.0, a1=1.0), RegimeTag.REPULSION_ONLY),
        (dict(gamma0=1.0, gamma1=0.0, a1=1.0), RegimeTag.NON_STRICT_ATTRACTING),
        (dict(gamma0=0.0, gamma1=1.0, a0=-2.0, a1=0.0), RegimeTag.NON_STRICT_ATTRACTING),
        (dict(gamma0=1.0, gamma1=0.0, a1=0.0), RegimeTag.NULL_NON_STRICT),
        (dict(gamma0=-1.0, gamma1=0.0, a1=1.0), RegimeTag.NON_STRICT_REPELLING),
        (dict(gamma0=0.0, gamma1=0.0, a0=1.0, a1=-1.0), RegimeTag.PURE_DRIFT),
    ],
)
def test_classify_regime_table(kwargs, tag):
    assert classify_regime(make(**kwargs)).tag is tag


def test_classify_non_strict_payload():
    regime = classify_regime(make(gamma0=2.0, gamma1=0.0, a1=-3.0))
    assert regime.zero_state == 1


def test_degenerate_takes_precedence_over_repulsion():
    m = make(gamma0=-1.0, a0=-2.0, gamma1=-3.0, a1=-6.0)
    assert classify_regime(m).tag is RegimeTag.DEGENERATE_EQUAL_RHO


@given(
    st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]),
    st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]),
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_classify_regime_is_total(g0, g1, a0, a1):
    regime = classify_regime(make(a0=a0, a1=a1, gamma0=g0, gamma1=g1))
    assert regime.tag in RegimeTag


# --- deterministic patterns -----------------------------------------------


def test_pattern_phi_examples():
    m = make()
    assert pattern_phi(0, math.log(2.0), 2.0, m) == pytest.approx(1.0, abs=1e-14)
    assert pattern_phi(1, 0.0, 0.3, m) == 0.3
    lin = make(gamma1=0.0, a1=1.0)
    assert pattern_phi(1, 0.25, 0.5, lin) == pytest.approx(0.75, abs=0.0)


@given(
    st.floats(0.0, 5.0),
    st.floats(0.0, 5.0),
    st.floats(-3.0, 3.0),
    st.sampled_from([(-1.5, 0.7), (2.0, 1.3), (1.0, 0.0), (0.0, 0.0)]),
)
@settings(max_examples=200, deadline=None)
def test_pattern_phi_semigroup(t, s, x, coeff):
    a, g = coeff
    m = make(a0=a, gamma0=g)
    direct = pattern_phi(0, t + s, x, m)
    composed = pattern_phi(0, t, pattern_phi(0, s, x, m), m)
    assert composed == pytest.approx(direct, abs=1e-12, rel=1e-12)


def test_hitting_time_examples():
    m = make()
    assert hitting_time(0, 2.0, 1.0, m) == pytest.approx(math.log(2.0))
    assert hitting_time(0, 1.0, 2.0, m) == math.inf
    lin = make(gamma1=0.0, a1=1.0)
    assert hitting_time(1, 0.0, 3.0, lin) == 3.0
    with pytest.raises(ParameterError):
        hitting_time(0, 1.0, 1.0, m)


@given(
    st.sampled_from([(-1.0, 0.8), (2.0, 1.5), (0.0, -0.9), (1.0, 0.0), (-2.0, 0.0)]),
    st.floats(-4.0, 4.0),
    st.floats(-4.0, 4.0),
)
@settings(max_examples=300, deadline=None)
@example(coeff=(0.0, -0.9), x=-5e-324, y=-0.75)
def test_hitting_time_consistency(coeff, x, y):
    a, g = coeff
    if x == y:
        return
    m = make(a0=a, gamma0=g)
    t = hitting_time(0, x, y, m)
    if math.isfinite(t):
        assert pattern_phi(0, t, x, m) == pytest.approx(y, abs=1e-10, rel=1e-10)


@pytest.mark.parametrize(
    "gamma, x, y",
    [
        (-0.9, -5e-324, -0.75),  # (x - rho) / (y - rho) is subnormal
        (-0.9, 5e-324, 4.0),  # ... and underflows to +0
        (-0.9, 1e-310, 1e-300),
        (0.9, 1.0, 5e-324),  # ... and overflows
        (0.9, 1e300, 1e-300),
    ],
)
def test_hitting_time_keeps_a_ratio_outside_the_normal_range(gamma, x, y):
    m = make(a0=0.0, gamma0=gamma)  # rho = 0
    want = float((mpmath.log(abs(mpmath.mpf(x))) - mpmath.log(abs(mpmath.mpf(y)))) / gamma)
    assert hitting_time(0, x, y, m) == pytest.approx(want, rel=1e-14, abs=0.0)
    assert hitting_time(np.array([0, 0]), np.array([x, 2.0 * x]), y, m)[0] == hitting_time(0, x, y, m)


def test_pattern_phi_contract():
    rep = make(a1=0.0, gamma1=-1.0)  # state 1 repels from rho1 = 0
    assert pattern_phi(0, 0.0, 0.3, rep) == 0.3
    assert pattern_phi(1, 0.0, -0.0, rep) == 0.0 and math.copysign(1.0, pattern_phi(1, 0.0, -0.0, rep)) == -1.0
    with pytest.raises(ParameterError):
        pattern_phi(0, -1e-3, 0.3, rep)
    with pytest.raises(ParameterError):
        pattern_phi(0, np.array([1.0, -1e-3]), 0.3, rep)
    assert pattern_phi(1, 800.0, 1.0, rep) == math.inf
    assert pattern_phi(1, 800.0, -1.0, rep) == -math.inf
    assert pattern_phi(1, 800.0, 0.0, rep) == 0.0  # no 0 * inf at the repelling level
    # growth past exp's range whose result is still a double
    grown = pattern_phi(1, 720.0, 1e-6, rep)
    assert math.isfinite(grown) and math.log(grown) == pytest.approx(720.0 + math.log(1e-6), rel=1e-14)
    assert interval_variance(1, 800.0, make(b1=0.5, gamma1=-1.0)) == math.inf
    assert interval_variance(1, 800.0, rep) == 0.0


def test_flat_state_without_drift_stays_put_over_an_infinite_time():
    # a t would be 0 * inf = nan
    flat = KacOuModel.from_values(1, 1, 0, 0, 0, 0, 1, 0)
    assert pattern_phi(1, math.inf, 0.3, flat) == 0.3
    assert np.array_equal(pattern_phi(np.array([1, 1]), np.array([2.0, math.inf]), 0.3, flat), [0.3, 0.3])
    assert np.array_equal(pattern_phi(1, np.array([2.0, math.inf]), 0.3, flat), [0.3, 0.3])


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_flow_kernel_on_arrays_equals_scalar_calls():
    rng = np.random.default_rng(5)
    models = [
        make(a0=0.4, gamma0=1.3, a1=1.0, gamma1=-0.7),  # attracting and repelling
        make(a0=0.4, gamma0=0.9, a1=-1.5, gamma1=0.0),  # attracting and straight line
    ]
    for m in models:
        states = rng.integers(0, 2, 400)
        ts = rng.exponential(1.0, 400)
        ts[::7] = 0.0
        ts[3::11] = 1200.0  # repelling growth past double range
        levels = np.array([0.4 / m.coeffs[0].gamma, m.coeffs[1].rho if m.coeffs[1].gamma else 0.0])
        xs = rng.uniform(-2.0, 2.0, 400)
        xs[1::5] = levels[states[1::5]]  # x = rho
        xs[2::13] = 1e-7 + levels[states[2::13]]
        phi = pattern_phi(states, ts, xs, m)
        ref = [pattern_phi(int(s), float(t), float(x), m) for s, t, x in zip(states, ts, xs)]
        assert np.array_equal(_bits(phi), _bits(ref))
        var = interval_variance(states, ts, m)
        assert np.array_equal(_bits(var), _bits([interval_variance(int(s), float(t), m) for s, t in zip(states, ts)]))
        ys = np.where(xs == 0.7, 0.8, 0.7)
        hit = hitting_time(states, xs, ys, m)
        ref = [hitting_time(int(s), float(x), float(y), m) for s, x, y in zip(states, xs, ys)]
        assert np.array_equal(_bits(hit), _bits(ref))
        assert np.isfinite(hit).any() and np.isinf(hit).any()


@pytest.mark.parametrize("gamma", [1e-310, 1e-17, 1e-12, 1e-8, 1.0, -1.0])
def test_interval_variance_matches_mpmath_at_small_gamma_t(gamma):
    # 1 - exp(-2 gamma t) cancels for small gamma t; expm1 does not
    with mpmath.workdps(50):
        g = mpmath.mpf(gamma)
        want = float(-mpmath.expm1(-2 * g) / (2 * g))
    assert interval_variance(0, 1.0, make(b0=1.0, gamma0=gamma)) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("t", [0.3, 1e-10, 1.0])
def test_interval_variance_at_subnormal_gamma(t):
    # 2 gamma t sits on the coarse subnormal grid or underflows to 0; the
    # variance is still b^2 t to rounding
    gamma = 1e-320
    with mpmath.workdps(50):
        x = 2 * mpmath.mpf(gamma) * mpmath.mpf(t)
        want = float(mpmath.mpf(t) * -mpmath.expm1(-x) / x)
    assert interval_variance(0, t, make(b0=1.0, gamma0=gamma)) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("t", [-1.0, np.array([0.5, -1e-3]), math.nan, math.inf])
def test_interval_variance_rejects_negative_and_infinite_times(t):
    # -1.0 used to give a negative variance; phi(2 gamma t) has no value at t = inf
    with pytest.raises(ParameterError, match="interval time"):
        interval_variance(0, t, make(b0=1.0))


def _mp_interval_variance(gamma, t):
    with mpmath.workdps(50):
        x = 2 * mpmath.mpf(gamma) * mpmath.mpf(t)
        return float(mpmath.mpf(t) * -mpmath.expm1(-x) / x)


@pytest.mark.parametrize("gamma", [1e300, -1e300])
@pytest.mark.parametrize("t", [1e10, 1e8, 1.0])
def test_interval_variance_where_2_gamma_t_overflows(gamma, t):
    # 2 gamma t = +inf gave 0.0 for b^2 / (2 gamma) = 5e-301, and -inf gave
    # nan for repelling growth past double range
    m = make(b0=1.0, b1=1.0, gamma0=gamma)
    want = _mp_interval_variance(gamma, t)
    got = interval_variance(0, t, m)
    if math.isinf(want):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    lanes = interval_variance(np.array([0, 1, 0]), np.array([t, t, 1e-3]), m)
    assert lanes[0] == got
    assert np.array_equal(lanes[1:], [interval_variance(1, t, m), interval_variance(0, 1e-3, m)])


def _mp_flow(a, gamma, t, x):
    """x exp(-gamma t) + (a / gamma)(1 - exp(-gamma t)), to 50 digits."""
    with mpmath.workdps(50):
        a, g, t, x = map(mpmath.mpf, (a, gamma, t, x))
        return float(x * mpmath.exp(-g * t) - a * mpmath.expm1(-g * t) / g)


@pytest.mark.parametrize("gamma", [1e-310, 1e-17, 1e-12, 1e-8, -1e-12, -1e-310])
def test_pattern_phi_keeps_the_drift_at_tiny_reversion(gamma):
    # rho = a / gamma lost the drift: 2.3 came out nan at 1e-310, 0.0 at
    # 1e-17 and 2.300048828125 at 1e-12
    m = make(a0=1.0, a1=-0.5, b0=1.0, b1=1.0, gamma0=gamma, gamma1=gamma)
    assert pattern_phi(0, 2.0, 0.3, m) == pytest.approx(_mp_flow(1.0, gamma, 2.0, 0.3), rel=1e-14, abs=0.0)
    states = np.array([0, 1, 0, 1, 0])
    ts = np.array([1e-300, 1e-6, 2.0, 50.0, 0.0])
    xs = np.array([-1.0, 0.0, 0.3, 2.0, 0.7])
    lanes = pattern_phi(states, ts, xs, m)
    for s, t, x, got in zip(states, ts, xs, lanes):
        assert got == pattern_phi(int(s), float(t), float(x), m)
        assert got == pytest.approx(_mp_flow(m.coeffs[s].a, gamma, t, x), rel=1e-14, abs=0.0)


def _mp_hitting_time(a, gamma, x, y):
    """log((a - gamma x) / (a - gamma y)) / gamma when positive, else inf,
    to 50 digits: the ratio is 1 + O(gamma), so it carries 350 more."""
    with mpmath.workdps(400):
        a, g, x, y = map(mpmath.mpf, (a, gamma, x, y))
        ratio = (a - g * x) / (a - g * y)
        t = mpmath.log(ratio) / g if ratio > 0 else mpmath.inf
        return float(t) if t > 0 else math.inf


@pytest.mark.parametrize("gamma", [1e-310, 1e-17, 1e-12, 1e-8, -1e-8, -1e-12, -1e-310])
def test_hitting_time_keeps_the_drift_at_tiny_reversion(gamma):
    # rho = a / gamma lost the drift: the hit from 0 to 1 at a = 1 came out
    # 1.0000889 at gamma = 1e-12 and inf at 1e-17 and 1e-310
    m = make(a0=1.0, a1=-0.5, gamma0=gamma, gamma1=gamma)
    assert hitting_time(0, 0.0, 1.0, m) == pytest.approx(_mp_hitting_time(1.0, gamma, 0.0, 1.0), rel=1e-13, abs=0.0)
    states = np.array([0, 0, 1, 1, 0, 1])
    xs = np.array([0.3, 1.0, 1.0, -2.0, 2.3, 0.5])
    ys = np.array([2.3, 0.0, -2.0, 1.0, 2.3, 0.5 - 1e-9])
    lanes = hitting_time(states, xs, ys, m)
    for s, x, y, got in zip(states, xs, ys, lanes):
        want = 0.0 if x == y else _mp_hitting_time(m.coeffs[s].a, gamma, x, y)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        if x != y:
            assert got == hitting_time(int(s), float(x), float(y), m)


@pytest.mark.parametrize("gamma, x, y", [(1e-8, 1.0, 0.5), (-1e-8, 0.5, 1.0), (1e-12, 3.0, 1e-6), (1e-12, -1.0, -0.5)])
def test_hitting_time_at_tiny_reversion_without_drift(gamma, x, y):
    # with a = 0 the slow state still relaxes toward 0, over times near 1 / gamma
    m = make(a0=0.0, gamma0=gamma)
    assert hitting_time(0, x, y, m) == pytest.approx(_mp_hitting_time(0.0, gamma, x, y), rel=1e-13, abs=0.0)


def test_hitting_time_of_a_fast_state_beside_a_slow_one_keeps_its_log_form():
    m = make(a0=1.0, gamma0=1e-12, a1=0.4, gamma1=1.3)
    rho = 0.4 / 1.3
    xs = np.array([2.0, -1.0, 0.9])
    ys = np.array([0.5, 0.0, 0.31])
    want = np.log((xs - rho) / (ys - rho)) / 1.3
    assert np.array_equal(hitting_time(1, xs, ys, m), want)
    assert np.array_equal(hitting_time(np.array([1, 0, 1]), xs, ys, m)[::2], want[::2])


@pytest.mark.parametrize("gamma, t", [(1.0, 1e-7), (1.0, 2.0), (-0.7, 1e-9), (1e-8, 1e3), (-1e-8, 1e4)])
def test_pattern_phi_keeps_the_level_form(gamma, t):
    # a state that relaxes within its holding times, and any state past
    # |gamma| t = 5e-6, flows through its level exactly as before
    m = make(a0=0.4, gamma0=gamma)
    rho = 0.4 / gamma
    assert pattern_phi(0, t, 0.3, m) == rho + (0.3 - rho) * np.exp(-gamma * t)


# gamma = 0, slow (both signs), attracting, repelling, and repelling fast
# enough that growth over t <= 40 leaves double range
_MAP_GAMMAS = [0.0, 1e-12, -1e-12, 0.7, -0.7, -30.0]


@given(
    st.sampled_from(_MAP_GAMMAS),
    st.sampled_from(_MAP_GAMMAS),
    st.floats(-3.0, 3.0),
    st.integers(0, 1),
    st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 40.0)), min_size=1, max_size=6),
    st.sampled_from(["scalar", "row", "column"]),
    st.floats(-5.0, 5.0),
)
@settings(max_examples=300, deadline=None)
def test_pattern_map_from_an_int_state_is_bitwise_the_array_state_map(g0, g1, a, state, ts, shape, x):
    m = make(a0=a, a1=-0.5 * a, gamma0=g0, gamma1=g1)
    t = {"scalar": np.array(ts[0]), "row": np.array(ts), "column": np.array(ts)[:, None]}[shape]
    scalar_map = pattern_map(state, t, m)
    array_map = pattern_map(np.full(t.shape, state), t, m)
    for base, shift, factor in (scalar_map, array_map):
        assert np.broadcast_shapes(np.shape(base), np.shape(shift), np.shape(factor), t.shape) == t.shape
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = (
            np.broadcast_to(base + (x - shift) * factor, t.shape) for base, shift, factor in (scalar_map, array_map)
        )
    assert got.tobytes() == want.tobytes()


# --- chain algebra ---------------------------------------------------------


def _expm_oracle(mat, t, squarings=8):
    """Scaling-and-squaring matrix exponential, independent of the closed form."""
    a = mat * (t / 2.0**squarings)
    term = np.eye(2)
    out = np.eye(2)
    for k in range(1, 20):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def test_transition_matrix_closed_form():
    rates = SwitchRates(1.0, 1.0)
    assert np.allclose(transition_matrix(0.0, rates), np.eye(2))
    p = transition_matrix(math.log(2.0) / 2.0, rates)
    assert p[0, 1] == pytest.approx(0.25, abs=1e-15)
    far = transition_matrix(100.0, rates)
    assert np.max(np.abs(far - 0.5)) < 1e-12
    assert np.array_equal(transition_matrix(math.inf, SwitchRates(1.0, 3.0)), [[0.75, 0.25], [0.75, 0.25]])


@pytest.mark.parametrize("rates", [SwitchRates(1.0, 1.0), SwitchRates(2.0, 5.0), SwitchRates(0.3, 4.0)])
@pytest.mark.parametrize("t", [0.05, 0.7, 3.0])
def test_transition_matrix_vs_expm_oracle(rates, t):
    gen = np.array([[-rates.lambda0, rates.lambda0], [rates.lambda1, -rates.lambda1]])
    assert np.max(np.abs(transition_matrix(t, rates) - _expm_oracle(gen, t))) < 1e-12


@pytest.mark.parametrize("t", [-1.0, math.nan, -math.inf])
def test_transition_matrix_rejects_times_not_at_least_0(t):
    # nan used to return the stationary matrix
    with pytest.raises(ParameterError, match="time must be >= 0"):
        transition_matrix(t, SwitchRates(2.0, 5.0))


def test_transition_matrix_chapman_kolmogorov_and_rows():
    rates = SwitchRates(2.0, 5.0)
    for s, t in [(0.3, 0.9), (0.01, 5.0)]:
        lhs = transition_matrix(s + t, rates)
        rhs = transition_matrix(s, rates) @ transition_matrix(t, rates)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        assert np.max(np.abs(lhs.sum(axis=1) - 1.0)) < 1e-12


def test_stationary_state_dist():
    assert stationary_state_dist(SwitchRates(1.0, 1.0)) == (0.5, 0.5)
    assert stationary_state_dist(SwitchRates(1.0, 3.0)) == (0.75, 0.25)
    pi = np.array(stationary_state_dist(SwitchRates(2.0, 5.0)))
    assert np.max(np.abs(pi @ transition_matrix(0.7, SwitchRates(2.0, 5.0)) - pi)) < 1e-12


# --- hypergeometric arguments ----------------------------------------------


def test_hyper_args_hand_value():
    hp = hyper_args(1.0, make())
    assert (hp.beta0, hp.beta1) == (2.0, 2.0)
    assert (hp.b0, hp.b1) == (3.0, 1.0)


def test_hyper_args_q0_root_collapses():
    m = make(lambda0=1.7, lambda1=0.4, a0=-1.0, a1=3.0, gamma0=2.0, gamma1=0.8)
    hp = hyper_args(0.0, m)
    # beta0 beta1 equals beta0(0) beta1(0) exactly, so the roots are {0, sum}
    assert hp.beta0 * hp.beta1 == (1.7 / 2.0) * (0.4 / 0.8)
    assert hp.b1 == 0.0
    assert hp.b0 == hp.beta0 + hp.beta1


def test_hyper_args_vieta():
    m = make(lambda0=0.9, lambda1=2.2, a0=0.5, a1=2.0, gamma0=1.4, gamma1=0.6)
    hp = hyper_args(0.37, m)
    assert hp.b0 + hp.b1 == pytest.approx(hp.beta0 + hp.beta1, abs=1e-12)
    assert hp.b0 * hp.b1 == pytest.approx(hp.beta0 * hp.beta1 - (0.9 / 1.4) * (2.2 / 0.6), abs=1e-12)
    assert hp.b0 >= hp.b1


def test_hyper_args_rejects_zero_gamma():
    with pytest.raises(ParameterError):
        hyper_args(1.0, make(gamma1=0.0))


@pytest.mark.parametrize(
    "model",
    [
        make(lambda0=1e300, a0=0.0, a1=1.0),  # (beta0 - beta1)^2 overflows
        make(lambda0=1e300, lambda1=1e300, gamma1=-1.0),  # beta0 - beta1 overflows
        make(lambda0=1e200, lambda1=2e200, gamma1=2.0),  # beta0 = beta1, and 4 beta0(0) beta1(0) overflows
        make(lambda0=1e300, lambda1=0.7, gamma1=-0.5),  # opposite signs
    ],
)
def test_hyper_args_past_double_range_matches_mpmath(model):
    # float ** raised OverflowError here; the discriminant is now formed
    # scaled by the larger |beta|
    hp = hyper_args(0.5, model)
    mpmath.mp.dps = 50
    (l0, l1), (g0, g1) = (model.rates.lambda0, model.rates.lambda1), (model.coeffs[0].gamma, model.coeffs[1].gamma)
    b0, b1 = (mpmath.mpf(0.5) + l0) / g0, (mpmath.mpf(0.5) + l1) / g1
    root = mpmath.sqrt((b0 - b1) ** 2 + 4 * (mpmath.mpf(l0) / g0) * (mpmath.mpf(l1) / g1))
    want = ((b0 + b1 + root) / 2, (b0 + b1 - root) / 2)
    size = max(abs(b0), abs(b1))
    for got, exact in zip((hp.b0, hp.b1), want):
        assert math.isfinite(got)
        assert abs(got - exact) <= 1e-14 * size


def test_hyper_args_past_double_range_small_root_keeps_relative_accuracy():
    # the root of smaller magnitude comes from the roots' product, not from a
    # difference that cancels
    hp = hyper_args(0.5, make(lambda0=1e300))
    mpmath.mp.dps = 50
    b0, b1, alpha = mpmath.mpf(hp.beta0), mpmath.mpf(hp.beta1), mpmath.mpf(1e300)  # alpha = beta0(0) beta1(0)
    exact = (b0 * b1 - alpha) / ((b0 + b1 + mpmath.sqrt((b0 - b1) ** 2 + 4 * alpha)) / 2)
    assert abs(hp.b1 - exact) <= 1e-14 * abs(exact)


def test_hyper_args_upper_parameters_beyond_double_range_raise():
    # beta0 itself is inf: a typed error, not OverflowError or an inf root
    with pytest.raises(DoubleRangeError):
        hyper_args(0.5, make(lambda0=1e300, gamma0=1e-10))


@pytest.mark.parametrize("lambda0", [1.2345e8, 1.2345e12])
def test_hyper_args_small_root_keeps_relative_accuracy(lambda0):
    # |beta0| >> |beta1| on the ordinary path: 0.5 (s - root) cancelled and
    # lost 1.5e-8 and 9.6e-5 of b1; it now comes from the roots' product
    model = KacOuModel.from_values(lambda0, 0.7, 0.0, 1.0, 0.0, 0.0, 1.3, 0.9)
    hp = hyper_args(0.37, model)
    with mpmath.workdps(60):
        q, l0, l1, g0, g1 = map(mpmath.mpf, (0.37, lambda0, 0.7, 1.3, 0.9))
        s = (q + l0) / g0 + (q + l1) / g1
        p = (q + l0) / g0 * (q + l1) / g1 - l0 / g0 * l1 / g1
        exact = (s - mpmath.sqrt(s * s - 4 * p)) / 2
        assert abs(hp.b1 - exact) <= 1e-14 * abs(exact)


def test_hyper_args_small_root_next_to_a_huge_rate_gives_the_oracle_transform():
    # b1 came out 0.0 for a true 0.5, and the closed form returned 1.0
    from kacou.first_passage import FptQuery, fpt_integral_oracle, laplace_fpt

    model = KacOuModel.from_values(1e100, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0)
    assert hyper_args(0.5, model).b1 == pytest.approx(0.5, rel=1e-14)
    query = FptQuery(0.5, 0.25, 0.75, 1)
    assert laplace_fpt(query, model) == pytest.approx(fpt_integral_oracle(query, model), abs=1e-6)


# --- affine coordinates -----------------------------------------------------


@given(st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_xi_complement_exact_inside_band(x):
    # xi1 = 1 - xi0 by construction; the sum re-rounds to exactly 1 whenever
    # xi0 lies in [0, 1]
    assert xi0(x, 0.0, 1.0) + xi1(x, 0.0, 1.0) == 1.0


@given(st.floats(-5.0, 5.0))
@settings(max_examples=100, deadline=None)
def test_xi_complement_one_ulp_everywhere(x):
    s = xi0(x, 0.0, 1.0) + xi1(x, 0.0, 1.0)
    assert abs(s - 1.0) <= 2.3e-16 * max(1.0, abs(xi0(x, 0.0, 1.0)))


def test_xi_rejects_equal_levels():
    with pytest.raises(ParameterError):
        xi0(0.3, 1.0, 1.0)


@given(
    st.floats(0.2, 3.0), st.floats(0.2, 3.0),
    st.floats(0.3, 3.0), st.floats(0.3, 3.0),
    st.floats(0.0, 5.0), st.sampled_from([1.0, -1.0]),
)
@settings(max_examples=200, deadline=None)
def test_mixed_sign_roots_are_always_real(lam0, lam1, g0, g1, q, sign):
    # with opposite reversion signs the discriminant is bounded below by
    # (alpha0 + alpha1)^2, with alpha_i = lambda_i / gamma_i, and with equal
    # signs 4 alpha0 alpha1 > 0 is added to a square, so for q >= 0 the roots
    # are real and satisfy Vieta's relations
    m = make(lambda0=lam0, lambda1=lam1, a0=0.0, a1=-1.0, gamma0=g0, gamma1=sign * g1)
    hp = hyper_args(q, m)
    assert math.isfinite(hp.b0) and math.isfinite(hp.b1)
    a0a1 = (lam0 / g0) * (lam1 / (sign * g1))
    size = abs(hp.beta0) + abs(hp.beta1)
    assert abs(hp.b0 + hp.b1 - (hp.beta0 + hp.beta1)) <= 1e-12 * size
    assert abs(hp.b0 * hp.b1 - (hp.beta0 * hp.beta1 - a0a1)) <= 1e-12 * max(abs(hp.beta0 * hp.beta1), abs(a0a1))


def test_rho_equality_tolerance():
    base = dict(gamma0=1.0, a0=2.0, gamma1=2.0)
    assert classify_regime(make(a1=4.0, **base)).tag is RegimeTag.DEGENERATE_EQUAL_RHO
    assert classify_regime(make(a1=4.0 * (1.0 + 1e-13), **base)).tag is RegimeTag.DEGENERATE_EQUAL_RHO
    assert classify_regime(make(a1=4.0 * (1.0 + 1e-9), **base)).tag is RegimeTag.ATTRACTING_STRICT
