import math
import sys
import warnings
from fractions import Fraction

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
    # growth whose exponent -gamma t itself overflows (a RuntimeWarning,
    # which pyproject's filter makes an error here)
    far = KacOuModel.from_values(1e-8, 1.0, 0.0, -1e300, 0.0, 0.0, -1e300, 1.0)
    assert pattern_phi(0, np.array([1e10]), np.array([1e-8]), far).tolist() == [math.inf]


@pytest.mark.parametrize("state", [-1, 2, np.int64(-1), np.int8(2), np.array([-1, 1]), np.array([[0, 1], [1, 2]])])
def test_a_chain_state_other_than_0_or_1_is_refused(state):
    # as an index, a -1 read state 1's coefficients and a 2 raised a bare
    # IndexError
    bad = -1 if np.any(np.asarray(state) == -1) else 2
    model = make(b1=0.5)
    calls = [
        lambda: pattern_phi(state, 1.0, 0.3, model),
        lambda: pattern_map(state, 1.0, model),
        lambda: hitting_time(state, 0.3, 0.6, model),
        lambda: interval_variance(state, 1.0, model),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match=f"state must be 0 or 1, got {bad}$"):
            call()


@pytest.mark.parametrize("state", [1 + 0j, np.complex128(0), np.array([0, 1 + 0j])])
def test_a_complex_chain_state_is_refused(state):
    # 1+0j == 1 passed the check, and int() then raised a bare TypeError
    model = make(b1=0.5)
    for call in (pattern_map, interval_variance):
        with pytest.raises(ParameterError, match="state must be 0 or 1, got"):
            call(state, 1.0, model)
    with pytest.raises(ParameterError, match="state must be 0 or 1, got"):
        hitting_time(state, 0.3, 0.6, model)


def test_flat_state_without_drift_stays_put_over_an_infinite_time():
    # a t would be 0 * inf = nan
    flat = KacOuModel.from_values(1, 1, 0, 0, 0, 0, 1, 0)
    assert pattern_phi(1, math.inf, 0.3, flat) == 0.3
    assert np.array_equal(pattern_phi(np.array([1, 1]), np.array([2.0, math.inf]), 0.3, flat), [0.3, 0.3])
    assert np.array_equal(pattern_phi(1, np.array([2.0, math.inf]), 0.3, flat), [0.3, 0.3])


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _assert_entrywise(call, *args):
    """call on arrays gives, per output, each entry of their broadcast
    shape bit for bit as call on that entry's scalars alone."""
    got = call(*args)
    outs = got if isinstance(got, tuple) else (got,)
    shape = np.broadcast_shapes(*map(np.shape, (*args, *outs)))
    refs = [call(*entry) for entry in zip(*(np.broadcast_to(v, shape).reshape(-1).tolist() for v in args))]
    for k, out in enumerate(outs):
        want = [ref[k] for ref in refs] if isinstance(got, tuple) else refs
        assert np.array_equal(_bits(np.broadcast_to(out, shape)).reshape(-1), _bits(want))
    return got


def test_flow_kernel_on_arrays_equals_scalar_calls():
    # an array of states runs both states' laws on every entry and keeps
    # each entry's own: no entry may differ from its scalar call, and no
    # law run on the other state's entries may warn, or refuse (a state
    # whose level is past double range beside times up to 1e9)
    rng = np.random.default_rng(5)
    models = [
        make(a0=0.4, gamma0=1.3, a1=1.0, gamma1=-0.7),  # attracting and repelling
        make(a0=0.4, gamma0=0.9, a1=-1.5, gamma1=0.0),  # attracting and straight line
        *(LEVEL_PAST_RANGE[name] for name in sorted(LEVEL_PAST_RANGE)),
    ]
    n = 400
    layouts = {
        "alternating": np.arange(n) % 2,
        "runs": np.arange(n) // 7 % 2,
        "all 0": np.zeros(n, dtype=int),
        "all 1": np.ones(n, dtype=int),
    }
    for m in models:
        past_range = not math.isfinite(m.coeffs[0].a / m.coeffs[0].gamma)
        layouts["mixed"] = rng.integers(0, 2, n)
        ts = rng.exponential(1.0, n)
        ts[::7] = 0.0
        ts[3::11] = 1200.0  # repelling growth past double range
        levels = np.array([c.a / c.gamma if c.gamma and not past_range else 0.0 for c in m.coeffs])
        xs = rng.uniform(-2.0, 2.0, n)
        xs[1::5] = levels[layouts["mixed"][1::5]]  # x = rho
        xs[2::13] = 1e-7 + levels[layouts["mixed"][2::13]]
        ys = np.where(xs == 0.7, 0.8, 0.7)
        for name, states in layouts.items():
            # the ordinary state's times reach 1e9 beside the one past double range
            at = np.where((states == 1) & (np.arange(n) % 3 == 0), 1e9, ts) if past_range else ts
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _assert_entrywise(lambda s, t: pattern_map(s, t, m), states, at)
                _assert_entrywise(lambda s, t, x: pattern_phi(s, t, x, m), states, at, xs)
                _assert_entrywise(lambda s, t: interval_variance(s, t, m), states, at)
                hit = _assert_entrywise(lambda s, x, y: hitting_time(s, x, y, m), states, xs, ys)
            if name == "mixed" and not past_range:
                assert np.isfinite(hit).any() and np.isinf(hit).any()
        # a row of states against a column of times and points
        row, col = layouts["alternating"][:20], ts[:20, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_entrywise(lambda s, t: pattern_map(s, t, m), row, col)
            _assert_entrywise(lambda s, t, x: pattern_phi(s, t, x, m), row, col, xs[:20])
            _assert_entrywise(lambda s, t: interval_variance(s, t, m), row, col)
            _assert_entrywise(lambda s, x, y: hitting_time(s, x, y, m), row, xs[:20, None], ys[:20])


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
    with pytest.raises(ParameterError, match="t must be finite and >= 0"):
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


@pytest.mark.parametrize("a, gamma", [(1.0, 1.0), (0.3, 2.5), (-0.5, -0.9), (1e-3, 1e-4)])
@pytest.mark.parametrize("offset", [1e-300, 1e-16, 1e-12, 1e-5, 0.3])
@pytest.mark.parametrize("y", [0.0, 0.1, -0.7])
def test_hitting_time_next_to_the_target_keeps_its_digits(a, gamma, offset, y):
    # log((x - rho) / (y - rho)) rounded the ratio to 1 where x - y is below
    # eps |y - rho|: from x = -1e-16 to 0 under a = gamma = 1 the time was
    # inf, and from -1e-15 it was 11% off
    m = make(a0=a, gamma0=gamma)
    gap = a / gamma - y
    # a start the flow carries to y, offset times the gap to rho away (at
    # least one ulp): beyond y from an attractor, short of it from a repeller
    toward = math.copysign(math.inf, -gap if gamma > 0.0 else gap)
    x = y + math.copysign(offset * abs(gap), toward)
    if x == y:
        x = math.nextafter(y, toward)
    want = _mp_hitting_time(a, gamma, x, y)
    assert math.isfinite(want)
    assert hitting_time(0, x, y, m) == pytest.approx(want, rel=1e-14, abs=0.0)
    assert hitting_time(np.array([0, 0]), np.array([x, 2.0 * x]), y, m)[0] == hitting_time(0, x, y, m)
    assert hitting_time(0, -1e-16, 0.0, make(a0=1.0)) == pytest.approx(1e-16, rel=1e-14)
    assert hitting_time(0, -1e-15, 0.0, make(a0=1.0)) == pytest.approx(1e-15, rel=1e-14)


@pytest.mark.parametrize(
    "a, gamma, x, y",
    [(1e-3, 1e-4, -5e-324, 0.0), (-1e-3, -1e-4, 5e-324, 0.0), (2e-3, 1e-4, -1.5e-323, 5e-324), (5e-3, 1e-3, -1e-323, 0.0)],
)
def test_hitting_time_from_a_start_whose_ratio_to_the_target_underflows(a, gamma, x, y):
    # (x - y) / (y - rho) underflowed to 0 before its log1p, so the time read
    # as inf: from -5e-324 to 0 under a = 1e-3, gamma = 1e-4 the flow takes
    # 4.94e-321.  The time is subnormal, so it is right to the last subnormal
    m = make(a0=a, gamma0=gamma)
    want = _mp_hitting_time(a, gamma, x, y)
    assert 0.0 < want < math.inf
    assert hitting_time(0, x, y, m) == pytest.approx(want, rel=1e-14, abs=5e-324)
    lanes = hitting_time(np.array([0, 0, 0]), np.array([x, y, 1.0]), y, m)
    assert lanes[0] == hitting_time(0, x, y, m)
    assert lanes[1] == 0.0
    assert hitting_time(0, np.array([x, y]), y, m).tobytes() == lanes[:2].tobytes()


@pytest.mark.parametrize(
    "model, ahead",
    [(make(a0=2.0, gamma0=0.0), 1.0), (make(a0=-3.0, gamma0=1.0), -1.0), (KacOuModel.from_values(1, 1, -3, 1, 0, 0, 1e-7, 1), -1.0)],
    ids=["straight", "log ratio", "slow series"],
)
def test_hitting_time_reaches_a_target_one_subnormal_ahead(model, ahead):
    # the time to a target 5e-324 ahead rounds to 0, which each branch read
    # as never; reachability comes from signs, so it is reached at once, and
    # a target 5e-324 behind is still never reached
    y = ahead * 5e-324
    assert 0.0 <= hitting_time(0, 0.0, y, model) < 1e-300
    assert hitting_time(0, 0.0, -y, model) == math.inf
    ys = np.array([y, -y, 1e3 * y])
    for states in (0, np.zeros(3, dtype=int)):
        lanes = hitting_time(states, np.zeros(3), ys, model)
        assert 0.0 <= lanes[0] < 1e-300 and lanes[1] == math.inf
        assert lanes[0] == hitting_time(0, 0.0, y, model)


@pytest.mark.parametrize("gamma, x, y", [(1e-8, 1.0, 0.5), (-1e-8, 0.5, 1.0), (1e-12, 3.0, 1e-6), (1e-12, -1.0, -0.5)])
def test_hitting_time_at_tiny_reversion_without_drift(gamma, x, y):
    # with a = 0 the slow state still relaxes toward 0, over times near 1 / gamma
    m = make(a0=0.0, gamma0=gamma)
    assert hitting_time(0, x, y, m) == pytest.approx(_mp_hitting_time(0.0, gamma, x, y), rel=1e-13, abs=0.0)


def test_hitting_time_of_a_fast_state_beside_a_slow_one_keeps_its_digits():
    # both states take the one law: the fast state (gamma 1.3) as well as
    # the slow one (gamma 1e-12) is within a few ulps of 50-digit mpmath
    m = make(a0=1.0, gamma0=1e-12, a1=0.4, gamma1=1.3)
    xs = np.array([2.0, -1.0, 0.9, 1e-3])
    ys = np.array([0.5, 0.0, 0.31, 0.3])
    for s in (0, 1):
        want = [_mp_hitting_time(m.coeffs[s].a, m.coeffs[s].gamma, x, y) for x, y in zip(xs, ys)]
        assert hitting_time(s, xs, ys, m) == pytest.approx(want, rel=2.0**-49, abs=0.0)
    # an array of states gives each entry the bits of a call with its own state
    states = np.array([1, 0, 1, 0])
    each = [np.float64(hitting_time(int(s), float(x), float(y), m)) for s, x, y in zip(states, xs, ys)]
    assert hitting_time(states, xs, ys, m).tobytes() == np.array(each).tobytes()


# attracting, repelling, flat, slow (both signs) and subnormal reversion
_HIT_GAMMAS = [0.9, -0.9, 0.0, 1e-12, -1e-12, 1e-310]
# starts and targets near the levels, on them, subnormal, huge, and a pair
# next to each other, where a log of their ratio would lose its digits
_HIT_POINTS = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1.0, 1.0 + 2.0**-52, 0.5 / 0.9]),
)


@given(
    st.sampled_from(_HIT_GAMMAS),
    st.sampled_from(_HIT_GAMMAS),
    st.sampled_from([0.0, 0.5, -1.0, 1e-300]),
    st.integers(0, 1),
    st.lists(_HIT_POINTS, min_size=1, max_size=6),
    _HIT_POINTS,
    st.lists(st.integers(0, 1), min_size=6, max_size=6),
)
@settings(max_examples=300, deadline=None)
@example(g0=0.9, g1=0.0, a=0.5, state=0, xs=[5e-324, 1.0], y=-5e-324, mix=[0, 1] * 3)  # the lost-digit rescue
@example(g0=0.0, g1=0.9, a=0.0, state=0, xs=[1.0, 0.0], y=2.0, mix=[0, 1] * 3)  # flat and still
@example(g0=1e-4, g1=0.9, a=1e-3, state=0, xs=[-5e-324, 1.0], y=0.0, mix=[0, 1] * 3)  # (x - y) / (y - rho) underflows
def test_hitting_time_from_an_int_state_is_bitwise_the_array_state_time(g0, g1, a, state, xs, y, mix):
    m = make(a0=a, a1=-0.5 * a, gamma0=g0, gamma1=g1)
    xs = np.array(xs)
    scalar = hitting_time(state, xs, y, m)
    lanes = hitting_time(np.full(xs.shape, state), xs, y, m)
    assert scalar.tobytes() == lanes.tobytes()
    # an array that mixes the states gives each entry its own state's time
    states = np.array(mix[: xs.size])
    each = np.choose(states, [hitting_time(s, xs, y, m) for s in (0, 1)])
    assert hitting_time(states, xs, y, m).tobytes() == each.tobytes()
    for x, t in zip(xs.tolist(), scalar.tolist()):
        if x != y:  # and one point at a time
            assert np.float64(hitting_time(state, x, y, m)).tobytes() == np.float64(t).tobytes()


# a state that is not slow (its rate is tinier still) with rho = a / gamma
# past double range, beside an ordinary one
LEVEL_PAST_RANGE = {
    "attracting": KacOuModel.from_values(1e-300, 1.0, 1e300, 0.0, 0.0, 0.0, 1e-10, 1.0),
    "repelling": KacOuModel.from_values(1e-300, 1.0, -1e300, 0.0, 0.0, 0.0, -1e-10, 1.0),
}


@pytest.mark.parametrize("name", sorted(LEVEL_PAST_RANGE))
def test_flow_of_a_state_whose_level_is_past_double_range(name):
    # rho = +-inf gave nan: pattern_phi(0, 1.0, 0.0) on the attracting model
    # was nan where the flow reaches about 1e300
    m = LEVEL_PAST_RANGE[name]
    a, gamma = m.coeffs[0].a, m.coeffs[0].gamma
    for t in (1e-300, 1e-6, 1.0, 1e3, 1e8):
        for x in (0.0, 2.5, -1e299, 1e299):
            want = _mp_flow(a, gamma, t, x)
            assert pattern_phi(0, t, x, m) == pytest.approx(want, rel=1e-14, abs=0.0)
            assert pattern_phi(np.array([0, 1]), t, x, m)[0] == pattern_phi(0, t, x, m)
    assert pattern_phi(1, 1.0, 0.0, m) == 0.0  # the other state keeps its level form
    # the state past double range sees only its own times, not the other state's
    pattern_map(np.array([0, 1]), np.array([1.0, 1e9]), m)
    with pytest.raises(DoubleRangeError, match="leaves double range"):
        pattern_map(np.array([1, 0]), np.array([1.0, 1e9]), m)
    # past double range the flow itself is no number
    for t in (1e9, math.inf):
        with pytest.raises(DoubleRangeError, match="leaves double range"):
            pattern_phi(0, t, 0.0, m)
        with pytest.raises(DoubleRangeError, match="leaves double range"):
            pattern_map(np.array([1, 0]), t, m)
    # and the hitting time avoids rho too
    y = math.copysign(1e299, a)
    assert hitting_time(0, 0.0, y, m) == pytest.approx(_mp_hitting_time(a, gamma, 0.0, y), rel=1e-13, abs=0.0)
    assert hitting_time(np.array([0]), np.array([0.0]), y, m)[0] == hitting_time(0, 0.0, y, m)


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
    st.lists(st.integers(0, 1), min_size=6, max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_pattern_map_from_an_int_state_is_bitwise_the_array_state_map(g0, g1, a, state, ts, shape, x, mix):
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
    # an array that mixes the states gives each entry its own state's map
    states = np.array(mix[: t.size]).reshape(t.shape)
    per_state = [pattern_map(s, t, m) for s in (0, 1)]
    for k, part in enumerate(pattern_map(states, t, m)):
        each = np.choose(states, [np.broadcast_to(maps[k], t.shape) for maps in per_state])
        assert np.shape(part) == t.shape and np.asarray(part).tobytes() == each.tobytes()


def _same_bits(got, want):
    """Equal types, shapes and bits, entry by entry in tuples."""
    if isinstance(want, tuple):
        return len(got) == len(want) and all(_same_bits(g, w) for g, w in zip(got, want))
    same_type = type(got) is type(want) and np.shape(got) == np.shape(want)
    return same_type and np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_bool_states_read_as_their_int():
    # True == 1 passed the state check but indexed as a mask: pattern_phi,
    # hitting_time and interval_variance raised TypeError, and pattern_map
    # gave state 0's map in a (1, 2) array
    m = KacOuModel.from_values(1, 1, 0, 1, 0.3, 0.2, 1, 2)
    t, xs = np.array([0.7, 0.0]), np.array([0.2, 0.9])
    for flag, state in ((True, 1), (False, 0), (np.array([True, False]), np.array([1, 0]))):
        for f, args in (
            (pattern_map, (t,)),
            (pattern_phi, (t, xs)),
            (pattern_phi, (0.7, 0.3)),
            (hitting_time, (xs, 0.4)),
            (hitting_time, (0.2, 0.4)),
            (interval_variance, (t,)),
            (interval_variance, (0.7,)),
        ):
            assert _same_bits(f(flag, *args, m), f(state, *args, m)), (f.__name__, flag, args)


# --- stationary law --------------------------------------------------------


def test_stationary_state_dist():
    assert stationary_state_dist(SwitchRates(1.0, 1.0)) == (0.5, 0.5)
    assert stationary_state_dist(SwitchRates(1.0, 3.0)) == (0.75, 0.25)
    pi = np.array(stationary_state_dist(SwitchRates(2.0, 5.0)))
    assert np.max(np.abs(pi @ [[-2.0, 2.0], [5.0, -5.0]])) < 1e-15  # pi Q = 0 for the generator Q


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


def test_hyper_args_product_past_double_range_keeps_finite_roots():
    # beta0 beta1 overflows while the discriminant stays finite: the smaller
    # root came out as inf / 1e200 = inf; the true roots are 1e200 +- 1
    hp = hyper_args(1e200, make())
    assert (hp.b0, hp.b1) == (1e200, 1e200)


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


def ordinary_roots(q, model):
    """The root pair as formed unscaled, a copy of the parent design's first
    path, or None where its sum, product or discriminant left double range
    (there a second path redid the algebra in units of the larger |beta|):
    the bitwise referee of the one scaled formula wherever it returns."""
    c0, c1 = model.coeffs
    l0, l1 = model.rates.lambda0, model.rates.lambda1
    beta0, beta1 = (q + l0) / c0.gamma, (q + l1) / c1.gamma
    s = beta0 + beta1
    p = q * (q + l0 + l1) / c0.gamma / c1.gamma
    if p == 0.0:
        return max(s, 0.0), min(s, 0.0)
    if p < 0.0:
        disc = s * s - 4.0 * p
    else:
        disc = (beta0 - beta1) * (beta0 - beta1) + 4.0 * (l0 / c0.gamma) * (l1 / c1.gamma)
    if not (math.isfinite(disc) and math.isfinite(s) and math.isfinite(p)):
        return None
    big = 0.5 * (s + math.copysign(math.sqrt(max(disc, 0.0)), s))
    small = p / big if big else 0.0
    return max(big, small), min(big, small)


@pytest.mark.parametrize("decades, q_decades", [(3.0, (-6.0, 4.0)), (30.0, (-20.0, 20.0))])
def test_hyper_args_is_bitwise_the_unscaled_formula(decades, q_decades):
    # the roots are formed in units of a power of two, which rounds each step
    # as the unscaled formula does wherever that formula stays in range
    rng = np.random.default_rng(50)
    compared = 0
    for _ in range(10_000):
        l0, l1 = 10.0 ** rng.uniform(-decades, decades, 2)
        g0, g1 = 10.0 ** rng.uniform(-decades, decades, 2) * rng.choice([-1.0, 1.0], 2)
        q = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(*q_decades)
        model = KacOuModel.from_values(l0, l1, 0.0, 0.0, 0.0, 0.0, g0, g1)
        want = ordinary_roots(float(q), model)
        if want is not None:
            hp = hyper_args(float(q), model)
            assert (hp.b0.hex(), hp.b1.hex()) == tuple(w.hex() for w in want), (q, l0, l1, g0, g1)
            compared += 1
    assert compared >= 9_000


@pytest.mark.parametrize(
    "q, l0, l1, g0, g1",
    [
        (1e-10, 1.0, 1.5, 1e-160, 2e-160),
        (1e-10, 1.0, 1.5, 1e-160, -2e-160),
        (1e-6, 2.0, 0.5, 3e-155, 7e-156),
        (2.9920432648349703e-33, 2.9982126769472274e87, 3.045468461641413e-69, -1.316500536393193e-66, 5.431013842372592e139),
    ],
)
def test_hyper_args_past_double_range_keeps_the_small_root(q, l0, l1, g0, g1):
    # the product past double range sent the first three through a second
    # path that formed it as u0 u1 - w0 w1, which cancels: the small root was
    # 1.9e-6, 1.9e-6 and 5.7e-11 off; the one formula then lost the last,
    # 5.5e-173, to 0.0, since p in units of m^2 went below the least double
    hp = hyper_args(q, KacOuModel.from_values(l0, l1, 0.0, 0.0, 0.0, 0.0, g0, g1))
    with mpmath.workdps(60):
        q, l0, l1, g0, g1 = map(mpmath.mpf, (q, l0, l1, g0, g1))
        beta0, beta1 = (q + l0) / g0, (q + l1) / g1
        s = beta0 + beta1
        root = mpmath.sqrt((beta0 - beta1) ** 2 + 4 * (l0 / g0) * (l1 / g1))
        big = (s + mpmath.sign(s) * root) / 2
        small = q * (q + l0 + l1) / (g0 * g1) / big
        for got, exact in zip((hp.b0, hp.b1), (max(big, small), min(big, small))):
            assert abs(got - exact) <= 1e-15 * abs(exact)


DECADES = st.floats(-150.0, 150.0).map(lambda d: 10.0**d)
SIGNED = st.tuples(DECADES, st.sampled_from([-1.0, 1.0])).map(lambda t: t[0] * t[1])


def exact_roots(q, l0, l1, g0, g1):
    """The upper-parameter roots of the doubles q, lambda and gamma as given,
    and the magnitude that cancels in their sum s: s, p and s^2 - 4p formed
    exactly, the square root at 60 digits, the small root as p over the
    large one."""
    q, l0, l1, g0, g1 = map(Fraction, (q, l0, l1, g0, g1))
    beta0, beta1 = (q + l0) / g0, (q + l1) / g1
    s, p = beta0 + beta1, q * (q + l0 + l1) / (g0 * g1)
    cancelled = min(abs(beta0), abs(beta1)) if g0 * g1 < 0 else Fraction(0)
    with mpmath.workdps(60):
        s_mp, p_mp, disc, cancelled = (
            mpmath.mpf(v.numerator) / v.denominator for v in (s, p, s * s - 4 * p, cancelled)
        )
        if p == 0:  # the roots 0 and s, both 0 where s is
            return max(s_mp, 0), min(s_mp, 0), cancelled / abs(s_mp) if s else 0
        big = (s_mp + mpmath.sqrt(disc) if s >= 0 else s_mp - mpmath.sqrt(disc)) / 2
        return max(big, p_mp / big), min(big, p_mp / big), cancelled / abs(big)


@given(q=st.just(0.0) | DECADES, l0=DECADES, l1=DECADES, g0=SIGNED, g1=SIGNED)
@example(q=1e-10, l0=1.0, l1=1.5, g0=1e-160, g1=2e-160)
@example(q=1e-10, l0=1.0, l1=1.5, g0=1e-160, g1=-2e-160)
@example(q=1e-6, l0=2.0, l1=0.5, g0=3e-155, g1=7e-156)
@example(q=2.9920432648349703e-33, l0=2.9982126769472274e87, l1=3.045468461641413e-69,
         g0=-1.316500536393193e-66, g1=5.431013842372592e139)
# q + lambda0 + lambda1 passes the largest double, though the roots are 2e307 and 0.1
@example(q=1.0, l0=1e308, l1=1e308, g0=10.0, g1=10.0)
# betas of opposite sign that cancel in s: 4.8 ulps off the large root
@example(q=0.01, l0=1.0, l1=10.0, g0=-1.0, g1=10.0)
# equal betas far above the rates: s^2 - 4p cancels to 4e-226
@example(q=1e31, l0=1.0, l1=1.0, g0=-1e113, g1=-1e113)
@settings(max_examples=500, deadline=None)
def test_hyper_args_roots_hold_to_a_few_ulps_over_300_decades(q, l0, l1, g0, g1):
    # every root that is a normal double comes out within 4 ulps of the
    # roots of the exact inputs, times the condition of s where betas of
    # opposite sign cancel in it (each beta is rounded before the sum, so s
    # carries a unit of 2^-53 of the smaller |beta| into the large root);
    # hyper_args refuses only a root past double range
    *want, cancel = exact_roots(q, l0, l1, g0, g1)
    model = KacOuModel.from_values(l0, l1, 0.0, 0.0, 0.0, 0.0, g0, g1)
    if max(abs(w) for w in want) > sys.float_info.max:
        with pytest.raises(DoubleRangeError):
            hyper_args(q, model)
        return
    hp = hyper_args(q, model)
    for got, exact in zip((hp.b0, hp.b1), want):
        if abs(exact) >= 2.0**-1022:
            assert abs(got - exact) <= 4 * math.ulp(float(exact)) * (1 + cancel), (got, exact)


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
# lambda0/gamma0 = -lambda1/gamma1: the discriminant vanishes at q = 0, and
# forming it from products of order 1 broke Vieta's sum by 8.5e-10 relative
@example(1.5, 1.0, 1.5, 1.0, 1e-14, -1.0)
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
