import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kacou import first_passage as fp
from kacou.errors import (
    DegenerateModelError,
    DoubleRangeError,
    KacOuError,
    OracleError,
    OutOfDomainError,
    ParameterError,
    SeriesConvergenceError,
    UnsupportedRegimeError,
)
from kacou.first_passage import (
    FptQuery,
    fpt_integral_oracle,
    fpt_ode_residual,
    fpt_oracle_curve,
    laplace_fpt,
    running_extremum_prob,
)
from kacou.model import KacOuModel, hitting_time, pattern_phi, rescale, swap_states
from kacou.rng import stream
from kacou.simulate import SimCaps, fpt_samples

ATTRACTING = KacOuModel.from_values(1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0)
ATTRACT_REPEL = KacOuModel.from_values(0.3, 1.0, 0.0, -1.0, 0.0, 0.0, 1.0, -1.0)
NON_STRICT = KacOuModel.from_values(1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0)
DEGENERATE = KacOuModel.from_values(1.0, 1.0, 1.0, 2.0, 0.0, 0.0, 1.0, 2.0)
REPELLING = KacOuModel.from_values(1.0, 1.0, 1.0, 4.0, 0.0, 0.0, -1.0, -2.0)


def test_attracting_hand_value():
    # lam = gam = 1, rho = (0, 1), q = 1: b = (3, 1), beta0 = 2 and
    # l1 = F(3,1;2;x) / F(3,1;2;y) = ((1-x)^-2 - 1)/(2x) ratio = 7/45
    val = laplace_fpt(FptQuery(1.0, 0.25, 0.75, 1), ATTRACTING)
    assert val == pytest.approx(7.0 / 45.0, rel=1e-12)


def test_q0_is_one_and_monotone_in_q():
    for state in (0, 1):
        assert laplace_fpt(FptQuery(0.0, 0.25, 0.75, state), ATTRACTING) == pytest.approx(
            1.0, abs=1e-10
        )
    values = [laplace_fpt(FptQuery(q, 0.25, 0.75, 1), ATTRACTING) for q in (0.5, 1.0, 2.0, 4.0)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 for v in values)


def test_boundary_attainment():
    assert laplace_fpt(FptQuery(1.0, 0.75 - 1e-8, 0.75, 1), ATTRACTING) == pytest.approx(
        1.0, abs=1e-6
    )
    # attraction-repulsion: state 0 reaches the threshold from below
    assert laplace_fpt(FptQuery(0.7, -0.5 - 1e-8, -0.5, 0), ATTRACT_REPEL) == pytest.approx(
        1.0, abs=1e-6
    )


@pytest.mark.parametrize(
    "model, q, x, y",
    [
        (ATTRACTING, 1.0, 0.25, 0.75),
        (ATTRACTING, 0.5, 0.9, 0.4),
        (ATTRACT_REPEL, 0.7, -0.9, -0.5),
        (ATTRACT_REPEL, 0.7, 0.4, -0.5),
        (NON_STRICT, 0.7, 0.2, 0.8),
        (NON_STRICT, 1.5, -0.5, 0.4),
    ],
)
def test_closed_form_matches_integral_oracle(model, q, x, y):
    for state in (0, 1):
        closed = laplace_fpt(FptQuery(q, x, y, state), model)
        oracle = fpt_integral_oracle(FptQuery(q, x, y, state), model, tol=1e-7)
        assert closed == pytest.approx(oracle, abs=1e-4)


def test_oracle_reproduces_boundary():
    e0, e1 = fpt_oracle_curve(ATTRACTING, 1.0, 0.75, np.array([0.75 - 1e-8]), tol=1e-7)
    assert e1[0] == pytest.approx(1.0, abs=1e-5)


def test_oracle_monotone_in_q():
    v1 = fpt_integral_oracle(FptQuery(1.0, 0.25, 0.75, 1), ATTRACTING)
    v2 = fpt_integral_oracle(FptQuery(2.0, 0.25, 0.75, 1), ATTRACTING)
    assert v2 < v1


def test_oracle_handles_degenerate_and_matches_mc():
    q = FptQuery(1.0, 2.0, 1.5, 0)
    oracle = fpt_integral_oracle(q, DEGENERATE, tol=1e-7)
    from kacou.simulate import mc_laplace_fpt

    est = mc_laplace_fpt(q, DEGENERATE, 100_000, seed=42)
    assert abs(oracle - est.mean) <= max(3.0 * est.stderr, 1e-3)


def test_oracle_requires_positive_q():
    with pytest.raises(ParameterError):
        fpt_integral_oracle(FptQuery(0.0, 0.25, 0.75, 1), ATTRACTING)
    # non-finite rates, points and tolerances fail at once instead of running
    # every sweep
    for q, y, xs, tol in [
        (math.nan, 0.75, [0.25], 1e-6),
        (math.inf, 0.75, [0.25], 1e-6),
        (1.0, 0.75, [0.25], 0.0),
        (1.0, 0.75, [0.25], math.nan),
        (1.0, 0.75, [0.25], math.inf),
        (1.0, math.nan, [0.25], 1e-6),
        (1.0, 0.75, [-math.inf], 1e-6),
        (1.0, 0.75, [math.inf], 1e-6),
    ]:
        with pytest.raises(ParameterError):
            fpt_oracle_curve(ATTRACTING, q, y, np.array(xs), tol)


def test_oracle_rejects_straddling_queries():
    with pytest.raises(ParameterError):
        fpt_oracle_curve(ATTRACTING, 1.0, 0.5, np.array([0.25, 0.75]))


# --- the oracle's operator against the per-element reference ---------------------


def _reference_state_setup(model, q, y, nodes, state):
    """Every quadrature point of every row kept on its own: positions,
    weights and the cell each point is interpolated in."""
    lam = model.rates.rate(state)
    t_hit = hitting_time(state, nodes, y, model)
    tau_max = fp.KERNEL_CUT / (q + lam)
    T = np.minimum(t_hit, tau_max)
    first = np.where(np.isfinite(t_hit), np.exp(-(q + lam) * np.minimum(t_hit, 700.0)), 0.0)

    tau = T[:, None] * fp._QUAD_X[None, :]
    weight = T[:, None] * fp._QUAD_W[None, :] * lam * np.exp(-(q + lam) * tau)
    pos = pattern_phi(state, tau, nodes[:, None], model)

    idx = np.searchsorted(nodes, pos, side="right") - 1
    np.clip(idx, 0, nodes.size - 2, out=idx)
    gap = nodes[idx + 1] - nodes[idx]
    frac = np.clip((pos - nodes[idx]) / gap, 0.0, 1.0)
    weight = np.where(pos < nodes[0], 0.0, weight)
    return first, weight, idx, frac


def _interp_rows(values, idx, frac):
    return values[idx] * (1.0 - frac) + values[idx + 1] * frac


def _reference_apply(setup, values):
    """first + A values, every quadrature point interpolated on its own."""
    first, weight, idx, frac = setup
    return first + np.sum(weight * _interp_rows(values, idx, frac), axis=1)


def _oriented_grid(model, q, y, xs):
    """The (model, y, lowest point) the oracle solves xs on: the reflected
    problem when they lie above y."""
    xs = np.asarray(xs, dtype=float)
    if np.all(xs > y):
        return rescale(model, -1.0), -y, float(np.min(-xs))
    return model, y, float(np.min(xs))


def assert_operator_matches_reference(model, q, y, xs):
    """_apply_operator against the element-by-element referee, both states,
    on every iterate of the referee's plain Gauss-Seidel sweeps and on
    random vectors in [0, 1]."""
    m, y_side, lo = _oriented_grid(model, q, y, xs)
    nodes, cell = fp._oracle_nodes(m, q, y_side, lo)
    ops = [fp._oracle_operator(m, q, y_side, nodes, cell, s) for s in (0, 1)]
    refs = [_reference_state_setup(m, q, y_side, nodes, s) for s in (0, 1)]
    buf = np.empty(max(op[2].size for op in ops))

    def check(state, values):
        want = _reference_apply(refs[state], values)
        np.testing.assert_allclose(fp._apply_operator(ops[state], values, buf), want, rtol=0.0, atol=1e-14)
        return want

    ell0 = ell1 = np.zeros(nodes.size)
    for _ in range(fp.ORACLE_MAX_ITER):
        new0 = check(0, ell1)
        new1 = check(1, new0)
        delta = max(np.max(np.abs(new0 - ell0)), np.max(np.abs(new1 - ell1)))
        ell0, ell1 = new0, new1
        if delta < 1e-7:
            break
    else:
        raise OracleError("reference did not contract")
    rng = stream(11, "oracle-operator", nodes.size)
    for _ in range(3):
        for s in (0, 1):
            check(s, rng.random(nodes.size))


class _Applications:
    """Counts the oracle's operator applications while in a with block."""

    def __enter__(self):
        self.count, self._apply = 0, fp._apply_operator

        def counted(*args):
            self.count += 1
            return self._apply(*args)

        fp._apply_operator = counted
        return self

    def __exit__(self, *exc):
        fp._apply_operator = self._apply


def plain_sweep_curve(model, q, y, xs, tol):
    """``fpt_oracle_curve``'s grid and operators, solved by plain
    Gauss-Seidel sweeps from ell1 = 0 until no value changes by 0.1 * tol;
    returns the curve and the applications used (the first sweep's is free:
    first + A 0 is first)."""
    m, y_side, lo = _oriented_grid(model, q, y, xs)
    xs = np.asarray(xs, dtype=float) * (1.0 if m is model else -1.0)
    nodes, cell = fp._oracle_nodes(m, q, y_side, lo)
    op0, op1 = (fp._oracle_operator(m, q, y_side, nodes, cell, s) for s in (0, 1))
    buf = np.empty(max(op0[2].size, op1[2].size))
    ell0 = ell1 = np.zeros(nodes.size)
    applications = -1
    for _ in range(fp.ORACLE_MAX_ITER):
        new0 = fp._apply_operator(op0, ell1, buf)
        new1 = fp._apply_operator(op1, new0, buf)
        applications += 2
        delta = max(np.max(np.abs(new0 - ell0)), np.max(np.abs(new1 - ell1)))
        ell0, ell1 = new0, new1
        if delta < 0.1 * tol:
            break
    else:
        raise OracleError("plain sweeps did not contract")
    return (np.interp(xs, nodes, ell0), np.interp(xs, nodes, ell1)), applications


def assert_solve_matches_plain_sweeps(model, q, y, xs, tol=1e-12):
    """The accelerated solve against plain sweeps of the same operators,
    both at tol: equal curves within 1e-11, in [0, 1], and no more operator
    applications."""
    with _Applications() as used:
        got = fpt_oracle_curve(model, q, y, np.asarray(xs, dtype=float), tol)
    want, plain = plain_sweep_curve(model, q, y, xs, tol)
    assert used.count <= plain
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-11)
        assert np.all((0.0 <= g) & (g <= 1.0))


# a repelling level below the threshold: its own node and a geometric tail
AR_NODE_BELOW_Y = KacOuModel.from_values(0.6, 1.2, 0.5, 1.0, 0.0, 0.0, 1.0, -2.0)
# equal levels, one attracting and one repelling state
DEGENERATE_MIXED = KacOuModel.from_values(1.0, 0.8, 2.0, -1.0, 0.0, 0.0, 2.0, -1.0)
# the zero-reversion state drifts down: the core grid reaches further below
NON_STRICT_DOWN = KacOuModel.from_values(2.0, 1.0, -3.0, 0.0, 0.0, 0.0, 0.0, 1.0)
# pulled up to 2 and pushed down from 1.5: below y = 1 the repelling state
# carries positions past the grid's geometric tail, onto the far-field zero
PAST_THE_TAIL = KacOuModel.from_values(1.0, 1.0, 6.0, -3.0, 0.0, 0.0, 3.0, -2.0)


# the five closed-form branches, each solved on both sides of y, and grids
# with a node at a repelling level, equal levels and positions past the tail
OPERATOR_CASES = [
    (ATTRACTING, 1.0, 0.75, [0.25, 0.5, 0.7], [0.9, 1.4]),
    (ATTRACTING, 0.5, 0.4, [-0.3, 0.1], [0.6, 0.9]),
    (ATTRACT_REPEL, 0.7, -0.5, [-0.9, -0.6], [0.4, 0.9]),
    (NON_STRICT, 0.7, 0.8, [0.2, 0.5], [1.1, 2.0]),
    (NON_STRICT_DOWN, 0.9, -0.2, [-1.0, -0.5], [0.5, 1.5]),
    (AR_NODE_BELOW_Y, 0.8, 0.9, [-0.2, 0.4], [1.3, 2.0]),
    (AR_NODE_BELOW_Y, 3.0, -0.4, [-1.5, -0.6], [0.1, 0.45, 0.7]),
    (DEGENERATE, 1.0, 0.75, [0.25], [0.95]),
    (DEGENERATE_MIXED, 0.9, 1.3, [0.5, 1.0], [1.8]),
    (DEGENERATE_MIXED, 0.9, 2.5, [1.2], [3.0]),
    (REPELLING, 1.5, 0.2, [-0.5], [0.4, 0.9]),
    (PAST_THE_TAIL, 0.3, 1.0, [-3.0, 0.0], [1.2, 1.4]),
]


@pytest.mark.parametrize("model, q, y, below, above", OPERATOR_CASES)
def test_oracle_operator_matches_element_by_element_reference(model, q, y, below, above):
    assert_operator_matches_reference(model, q, y, below)
    assert_operator_matches_reference(model, q, y, above)


@pytest.mark.parametrize("model, q, y, below, above", OPERATOR_CASES)
def test_oracle_solve_matches_plain_sweeps(model, q, y, below, above):
    assert_solve_matches_plain_sweeps(model, q, y, below)
    assert_solve_matches_plain_sweeps(model, q, y, above)


@pytest.mark.parametrize("model", [ATTRACTING, ATTRACT_REPEL, NON_STRICT, DEGENERATE_MIXED])
def test_oracle_operator_next_to_the_threshold(model):
    for y in (-0.5, 0.75):
        for xs in ([y - 1e-8, y - 1e-3], [y + 1e-8]):
            assert_operator_matches_reference(model, 1.0, y, xs)
            assert_solve_matches_plain_sweeps(model, 1.0, y, xs)


@given(
    rates=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
    gammas=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    levels=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    q=st.floats(0.3, 30.0),
    y=st.floats(-2.0, 2.0),
    d=st.floats(1e-6, 2.0),
    above=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_oracle_operator_matches_reference_on_drawn_models(rates, gammas, levels, q, y, d, above):
    # gamma = 0 draws a linear state with drift `level`; otherwise the level
    # is the state's rho
    a = [lv if g == 0.0 else lv * g for lv, g in zip(levels, gammas)]
    model = KacOuModel.from_values(*rates, *a, 0.0, 0.0, *gammas)
    x = y + d if above else y - d
    assert_operator_matches_reference(model, q, y, [x, x + 0.5 * (y - x)])
    assert_solve_matches_plain_sweeps(model, q, y, [x, x + 0.5 * (y - x)])


def test_accelerated_solve_halves_slow_sweeps():
    # at small q plain sweeps contract slowly (about 0.5-0.8 a sweep); the
    # accelerated solve must need at most half their applications in all
    used = plain = 0
    for model, y, x in ((ATTRACTING, 0.75, 0.25), (ATTRACTING, 0.4, 0.9), (ATTRACT_REPEL, -0.5, -0.9), (NON_STRICT, 0.8, 0.2)):
        with _Applications() as counted:
            fpt_oracle_curve(model, 0.1, y, np.array([x]))
        used += counted.count
        plain += plain_sweep_curve(model, 0.1, y, [x], 1e-6)[1]
    assert used <= 0.5 * plain


def test_oracle_error_names_the_sweeps_spent(monkeypatch):
    monkeypatch.setattr(fp, "ORACLE_MAX_ITER", 2)
    with pytest.raises(OracleError, match=r"did not contract below 1e-08 in 2 sweeps \(last change "):
        fpt_oracle_curve(ATTRACTING, 0.2, 0.75, np.array([0.25]), tol=1e-7)


def test_anderson_step_on_a_repeated_difference_falls_back_to_plain(monkeypatch):
    # x -> x + 0.5 repeats its residual, so every difference is 0 and the
    # normal equations are singular: each step is plain until the sweeps run out
    monkeypatch.setattr(fp, "ORACLE_MAX_ITER", 5)
    with pytest.raises(OracleError, match=r"in 5 sweeps \(last change 0\.5\)"):
        fp._anderson_solve(lambda x: x + 0.5, np.zeros(4), np.full(4, 0.5), 1e-8)


# --- the grid's cell lookup and the shared far rows ---------------------------


@st.composite
def oracle_grids(draw):
    """A model, rate, threshold and lowest query point for _oracle_nodes,
    with both states repelling, a zero-reversion state drifting down and
    equal levels drawn on purpose besides free draws."""
    kind = draw(st.sampled_from(["free", "both_repelling", "non_strict_down", "equal_levels"]))
    rates = draw(st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)))
    gammas = list(draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))))
    levels = list(draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))))
    if kind == "both_repelling":
        gammas = [-0.1 - abs(g) for g in gammas]
    elif kind == "non_strict_down":
        gammas[0], levels[0] = 0.0, -0.1 - abs(levels[0])
    elif kind == "equal_levels":
        gammas = [g if g != 0.0 else 1.0 for g in gammas]
        levels[1] = levels[0]
    a = [lv if g == 0.0 else lv * g for lv, g in zip(levels, gammas)]
    model = KacOuModel.from_values(*rates, *a, 0.0, 0.0, *gammas)
    y = draw(st.floats(-2.0, 2.0))
    return model, draw(st.floats(0.3, 30.0)), y, y - draw(st.floats(1e-6, 2.0))


@given(
    grid=oracle_grids(),
    picks=st.lists(st.integers(0, 10**9), min_size=1, max_size=40),
    u=st.floats(0.0, 1.0),
)
@example(grid=(AR_NODE_BELOW_Y, 0.8, 0.9, -0.2), picks=[0, 5, 10**9], u=0.5)
@example(grid=(REPELLING, 1.5, 0.2, -0.5), picks=[1, 2], u=0.25)
@settings(max_examples=60, deadline=None)
def test_cell_lookup_equals_searchsorted(grid, picks, u):
    nodes, cell = fp._oracle_nodes(*grid)
    at = nodes[[p % nodes.size for p in picks]]
    inside = nodes[:-1] + u * np.diff(nodes)  # one point in every cell
    g = grid[0].gamma_vec
    # geometric steps on both sides of each repelling level, through its dense tail
    levels = [grid[0].a_vec[i] / g[i] for i in range(2) if g[i] < 0.0]
    near = [lv + s * np.geomspace(1e-13, 10.0, 80) * max(1.0, abs(lv)) for lv in levels for s in (-1.0, 1.0)]
    beyond = [nodes[0] - 1.0, nodes[0] - 1e300, nodes[-1] + 1e-12, grid[2], 1e300, -math.inf, math.inf]
    pos = np.concatenate(
        [at, np.nextafter(at, -math.inf), np.nextafter(at, math.inf), inside, *near, beyond]
    )
    want = np.searchsorted(nodes, pos, side="right") - 1
    assert np.array_equal(cell(pos), want)
    # the operator looks up rows x points blocks
    cut = pos.size - pos.size % 3
    assert np.array_equal(cell(pos[:cut].reshape(3, -1)), want[:cut].reshape(3, -1))


@pytest.mark.parametrize(
    "model, q, y, lo",
    [(ATTRACTING, 1.0, 0.75, 0.25), (AR_NODE_BELOW_Y, 3.0, -0.4, -1.5), (PAST_THE_TAIL, 0.3, 1.0, -3.0)],
)
def test_shared_far_rows_equal_a_row_by_row_build(model, q, y, lo, monkeypatch):
    nodes, cell = fp._oracle_nodes(model, q, y, lo)
    shared = [fp._oracle_operator(model, q, y, nodes, cell, s) for s in (0, 1)]
    # the build must have met a block whose rows all run to tau_max
    rows = fp._ORACLE_BLOCK_ROWS
    assert any(
        (hitting_time(s, nodes[b : b + rows], y, model) >= fp.KERNEL_CUT / (q + model.rates.rate(s))).all()
        for s in (0, 1)
        for b in range(0, nodes.size, rows)
    )
    monkeypatch.setattr(fp, "_ORACLE_BLOCK_ROWS", 1)  # every row its own block
    for s in (0, 1):
        rowwise = fp._oracle_operator(model, q, y, nodes, cell, s)
        for got, want in zip(shared[s], rowwise):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("model, q, y, below, above", OPERATOR_CASES)
def test_pair_gather_equals_two_entries_per_run(model, q, y, below, above):
    # the operator keeps each run's lower node; its upper node is that + 1
    for m, y_side, lo in ((model, y, min(below)), (rescale(model, -1.0), -y, -max(above))):
        nodes, cell = fp._oracle_nodes(m, q, y_side, lo)
        values = stream(7, "oracle-values", 0).random(nodes.size)
        for s in (0, 1):
            op = fp._oracle_operator(m, q, y_side, nodes, cell, s)
            first, cols, weights, starts = op
            assert weights.size == 2 * cols.size
            both = np.stack([cols, cols + 1], axis=1).ravel()
            want = first + np.add.reduceat(weights * values.take(both), starts)
            got = fp._apply_operator(op, values, np.empty_like(weights))
            assert got.tobytes() == want.tobytes()
            # the first sweep applies state 0's operator to ell1 = 0, which
            # the sweep skips: first is that application's value exactly
            zero = fp._apply_operator(op, np.zeros(nodes.size), np.empty_like(weights))
            assert zero.tobytes() == first.tobytes()


def test_oracle_rejects_an_empty_query_set():
    # np.all of no points is True, so the x > y reflection called itself
    # until the recursion limit
    with pytest.raises(ParameterError, match="at least one x"):
        fpt_oracle_curve(ATTRACTING, 1.0, 0.6, [])


# --- dispatch errors ----------------------------------------------------------


def test_degenerate_model_redirects_to_oracle():
    with pytest.raises(DegenerateModelError):
        laplace_fpt(FptQuery(1.0, 2.0, 1.5, 0), DEGENERATE)


def test_repulsion_only_has_no_closed_form():
    with pytest.raises(UnsupportedRegimeError):
        laplace_fpt(FptQuery(1.0, 1.0, 2.0, 0), REPELLING)


def test_attracting_domain_errors():
    with pytest.raises(OutOfDomainError):
        laplace_fpt(FptQuery(1.0, 0.5, 1.5, 1), ATTRACTING)  # threshold above rho1
    with pytest.raises(OutOfDomainError):
        laplace_fpt(FptQuery(1.0, -1.5, 0.75, 1), ATTRACTING)  # outside series radius
    with pytest.raises(OutOfDomainError):
        laplace_fpt(FptQuery(1.0, 2.5, 0.5, 0), ATTRACTING)  # beyond 2*rho1 - rho0


def test_attraction_repulsion_domain_errors():
    with pytest.raises(OutOfDomainError):
        laplace_fpt(FptQuery(0.7, -0.2, 0.3, 0), ATTRACT_REPEL)  # threshold above rho0
    with pytest.raises(OutOfDomainError):
        laplace_fpt(FptQuery(0.7, 1.4, -0.5, 0), ATTRACT_REPEL)  # above the repelling level
    # messages quote the bound and the value in the query's own coordinates,
    # not in the swapped and reflected frame the formula works in
    ar10 = KacOuModel.from_values(1.0, 0.3, 1.0, 0.0, 0.0, 0.0, -1.0, 1.0)
    with pytest.raises(OutOfDomainError, match=r"needs -inf < y < 1\.0 \(series radius\), got y=2\.0;"):
        laplace_fpt(FptQuery(0.7, 1.0, 2.0, 0), ar10)
    ar01_mirrored = KacOuModel.from_values(0.3, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, -1.0)
    with pytest.raises(OutOfDomainError, match=r"needs -1\.0 < x < inf .*got x=-2\.0;"):
        laplace_fpt(FptQuery(0.7, -2.0, 0.5, 0), ar01_mirrored)


def test_non_strict_side_restriction():
    with pytest.raises(OutOfDomainError):
        laplace_fpt(FptQuery(0.7, 0.8, 0.2, 1), NON_STRICT)  # against the drift
    with pytest.raises(OutOfDomainError):
        laplace_fpt(FptQuery(0.7, -2.0, -1.0, 1), NON_STRICT)  # threshold below rho
    # zero-reversion state first with negative drift: the threshold must lie
    # below the attractor at -2, and the message says so
    ns_down = KacOuModel.from_values(0.7, 1.1, -0.9, -1.0, 0.0, 0.0, 0.0, 0.5)
    with pytest.raises(OutOfDomainError, match=r"needs -inf < y < -2\.0 .*got y=-2\.0;.*fpt_integral_oracle"):
        laplace_fpt(FptQuery(0.7, -1.0, -2.0, 0), ns_down)
    # ... but the oracle covers both
    val = fpt_integral_oracle(FptQuery(0.7, -2.0, -1.0, 1), NON_STRICT, tol=1e-6)
    assert 0.0 < val <= 1.0


def test_query_validation():
    with pytest.raises(ParameterError):
        FptQuery(1.0, 0.5, 0.5, 0)
    with pytest.raises(ParameterError):
        FptQuery(-1.0, 0.2, 0.5, 0)
    with pytest.raises(ParameterError):
        FptQuery(1.0, 0.2, 0.5, 2)
    for q, x, y in [(math.nan, 0.2, 0.5), (math.inf, 0.2, 0.5), (1.0, math.nan, 0.5), (1.0, 0.2, -math.inf)]:
        with pytest.raises(ParameterError):
            FptQuery(q, x, y, 0)


# --- symmetry reductions -------------------------------------------------------


def test_mirrored_orientations_agree_with_oracle():
    # swap the state labels: AttractionRepulsion10
    ar10 = KacOuModel.from_values(1.0, 0.3, -1.0, 0.0, 0.0, 0.0, -1.0, 1.0)
    q = FptQuery(0.7, -0.9, -0.5, 1)
    assert laplace_fpt(q, ar10) == pytest.approx(
        laplace_fpt(FptQuery(0.7, -0.9, -0.5, 0), ATTRACT_REPEL), rel=1e-12
    )
    # zero-reversion state first, negative drift: swap + rescale reduction
    ns_neg = KacOuModel.from_values(2.0, 1.0, -3.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    q2 = FptQuery(0.9, 0.5, -0.2, 0)
    closed = laplace_fpt(q2, ns_neg)
    oracle = fpt_integral_oracle(q2, ns_neg, tol=1e-7)
    assert closed == pytest.approx(oracle, abs=1e-4)


def _outcome(model, q, x, y, state):
    try:
        return laplace_fpt(FptQuery(q, x, y, state), model)
    except KacOuError as exc:
        return type(exc)


@given(
    kind=st.sampled_from(["attracting", "attraction_repulsion", "non_strict"]),
    rates=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
    gammas=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
    rhos=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    drift_down=st.booleans(),
    q=st.floats(0.0, 5.0),
    x=st.floats(-4.0, 4.0),
    y=st.floats(-4.0, 4.0),
    state=st.sampled_from([0, 1]),
)
# z is exactly 1 on one side and 1 - 2.2e-16 in the mirror, where the divergent
# series must fail at once rather than sum 65M terms
@example(
    kind="attracting", rates=(1.0, 1.0), gammas=(0.3, 1.0), rhos=(0.93, 0.3),
    drift_down=False, q=1.0, x=0.0, y=0.93, state=0,
)
# y one rounding below rho1 = 0.27 / 0.3: z is 1 - 2.2e-16 on one side and
# 1 - 1.1e-16 in the mirror (or exactly 1), where the 1 - z connection gives
# values 10 times apart; such a target is refused on both sides
@example(
    kind="attracting", rates=(1.0, 0.5), gammas=(1.0, 0.3), rhos=(-0.25, 0.9),
    drift_down=False, q=0.5, x=0.0, y=0.9, state=0,
)
@example(
    kind="attracting", rates=(1.0, 0.5), gammas=(1.0, 0.3), rhos=(-1.0, 0.875),
    drift_down=False, q=0.5, x=0.0, y=0.875, state=0,
)
# y 1e-6 from the attractor it approaches: the two branches formed z by
# different roundings, and the values were 2.2e-10 apart
@example(
    kind="attracting", rates=(1.0, 1.0), gammas=(1.0, 1.0), rhos=(1e-06, -1.0),
    drift_down=False, q=1.0, x=-1.0, y=0.0, state=0,
)
@settings(max_examples=300, deadline=None)
def test_relabelling_and_reflection_preserve_transforms(kind, rates, gammas, rhos, drift_down, q, x, y, state):
    assume(x != y)
    g0, g1 = gammas
    a0, a1 = rhos[0] * g0, rhos[1] * g1
    if kind == "attraction_repulsion":
        g1, a1 = -g1, -a1
    elif kind == "non_strict":
        # the linear state drifts at speed gamma1, up or down
        g1, a1 = 0.0, -g1 if drift_down else g1
    model = KacOuModel.from_values(*rates, a0, a1, 0.0, 0.0, g0, g1)
    ref = _outcome(model, q, x, y, state)
    # an out-of-domain draw raises the same error type on every side
    assert _outcome(swap_states(model), q, x, y, 1 - state) == ref
    mirrored = _outcome(rescale(model, -1.0), q, -x, -y, state)
    if kind == "attracting" and isinstance(ref, float):
        # the reflected query runs the other branch, whose coordinate
        # (rho1 - x)/(rho1 - rho0) rounds differently from 1 - xi0
        assert mirrored == pytest.approx(ref, rel=1e-10, abs=0.0)
    else:
        assert mirrored == ref


def test_rho_ordering_swap_in_attracting():
    flipped = KacOuModel.from_values(1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0)  # rho = (1, 0)
    v = laplace_fpt(FptQuery(1.0, 0.25, 0.75, 0), flipped)
    ref = laplace_fpt(FptQuery(1.0, 0.25, 0.75, 1), ATTRACTING)
    assert v == pytest.approx(ref, rel=1e-12)


# --- running extremum -----------------------------------------------------------


def test_running_extremum_equals_laplace():
    v = running_extremum_prob(1.0, 0.25, 0.75, 1, ATTRACTING)
    assert v == laplace_fpt(FptQuery(1.0, 0.25, 0.75, 1), ATTRACTING)
    with pytest.raises(ParameterError):
        running_extremum_prob(0.0, 0.25, 0.75, 1, ATTRACTING)


def test_running_extremum_vanishes_for_fast_killing():
    assert running_extremum_prob(1e6, 0.25, 0.75, 1, ATTRACTING) < 1e-6


@pytest.mark.parametrize("q", [1e9, 1e12])
def test_killing_rate_whose_series_cannot_stop_fails_fast(q):
    # the first series' terms grow up to term q / 3: it summed 6.5e7 terms
    # for 2.5-2.9 s before raising the same error
    t0 = time.perf_counter()
    with pytest.raises(SeriesConvergenceError) as err:
        laplace_fpt(FptQuery(q, 0.25, 0.75, 1), ATTRACTING)
    assert err.value.terms_used == 0
    assert time.perf_counter() - t0 < 1.0


def test_killing_rate_past_double_range_raises_a_typed_error():
    # beta0 beta1 = 1e600: the selector died in math.ceil(-inf) with OverflowError
    with pytest.raises(DoubleRangeError):
        laplace_fpt(FptQuery(1e300, 0.25, 0.75, 1), ATTRACTING)


def test_running_extremum_monte_carlo():
    # fraction of paths whose running maximum passes y before an independent
    # exponential clock
    q, x, y, state, n = 1.0, 0.25, 0.75, 1, 200_000
    batch = fpt_samples(ATTRACTING, x, y, state, n, seed=314, caps=SimCaps(horizon=200.0))
    clocks = stream(315, "killing").exponential(1.0 / q, size=n)
    hit_before_clock = (~batch.censored) & (batch.times < clocks)
    p_hat = float(np.mean(hit_before_clock))
    se = math.sqrt(p_hat * (1.0 - p_hat) / n)
    assert abs(p_hat - running_extremum_prob(q, x, y, state, ATTRACTING)) < 3.0 * se


# --- ODE residuals ---------------------------------------------------------------


@pytest.mark.parametrize(
    "model, q, x, y",
    [
        (ATTRACTING, 1.0, 0.5, 0.75),
        (ATTRACT_REPEL, 0.7, -0.8, -0.4),
        (NON_STRICT, 0.7, 0.1, 0.8),
    ],
)
def test_ode_residual_small_and_second_order(model, q, x, y):
    r = fpt_ode_residual(q, x, y, model, 1e-4)
    r_half = fpt_ode_residual(q, x, y, model, 5e-5)
    assert max(abs(v) for v in r) < 1e-6
    for a, b in zip(r, r_half):
        if abs(a) > 1e-10:
            assert a / b == pytest.approx(4.0, abs=1.0)


def test_ode_residual_rejects_bad_step():
    with pytest.raises(ParameterError):
        fpt_ode_residual(1.0, 0.5, 0.75, ATTRACTING, 0.0)


@pytest.mark.parametrize(
    "model, x, y, state",
    [
        (ATTRACTING, 0.25, 0.75, 0),
        (ATTRACTING, 0.9, 0.4, 1),
        (ATTRACT_REPEL, -0.9, -0.5, 1),
        (ATTRACT_REPEL, 0.4, -0.5, 0),
        (NON_STRICT, 0.2, 0.8, 0),
    ],
)
def test_laplace_strictly_decreasing_in_q(model, x, y, state):
    values = [laplace_fpt(FptQuery(q, x, y, state), model) for q in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(0.0 < v <= 1.0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_oracle_degenerate_mixed_signs_matches_mc():
    # equal levels with one attracting and one repelling rate: the oracle's
    # grid places a node at the repelling level and a geometric tail past it
    from kacou.simulate import mc_laplace_fpt

    dg = KacOuModel.from_values(1.0, 0.8, 2.0, -1.0, 0.0, 0.0, 2.0, -1.0)
    for x, y, s in [(1.8, 1.3, 0), (1.2, 2.5, 1)]:
        q = FptQuery(0.9, x, y, s)
        oracle = fpt_integral_oracle(q, dg, tol=1e-7)
        est = mc_laplace_fpt(q, dg, 60_000, seed=55)
        assert abs(oracle - est.mean) <= max(3.5 * est.stderr, 1e-3)


# --- the mpmath referee -----------------------------------------------------------


def _mp_log_value(value):
    import mpmath

    from kacou.specfun import LogValue

    return LogValue(float(mpmath.log(abs(value))), float(mpmath.sign(value)))


def referee_laplace_fpt(query, model):
    """``laplace_fpt`` through the same frame and formulas, with every Gauss
    and Kummer function taken from mpmath at 50 digits instead of specfun."""
    import mpmath
    from unittest import mock

    def gauss(a, b, c, z):
        with mpmath.workdps(50):
            return _mp_log_value(mpmath.hyp2f1(a, b, c, z))

    def kummer(a, b, z):
        with mpmath.workdps(50):
            return _mp_log_value(mpmath.hyp1f1(a, b, z))

    # no target side summed by specfun serves the referee, and none of the
    # referee's serves a later laplace_fpt
    fp._target.cache_clear()
    try:
        with mock.patch.object(fp, "gauss_2f1_log", gauss), mock.patch.object(fp, "kummer_1f1_log", kummer):
            return laplace_fpt(query, model)
    finally:
        fp._target.cache_clear()


def _oriented(params, x, y, state, swap, reflect):
    """A canonical model's query with the state labels swapped and space
    reflected on request: the same first-passage time."""
    lam0, lam1, a0, a1, b0, b1, g0, g1 = params
    if swap:
        params, state = [lam1, lam0, a1, a0, b1, b0, g1, g0], 1 - state
    if reflect:
        params = list(params)
        params[2], params[3] = -params[2], -params[3]
        x, y = -x, -y
    return KacOuModel.from_values(*params), FptQuery(0.0, x, y, state)


def _assert_matches_referee(params, q, x, y, state, swap=False, reflect=False):
    model, query = _oriented(params, x, y, state, swap, reflect)
    query = FptQuery(q, query.x, query.y, query.initial_state)
    ref = referee_laplace_fpt(query, model)
    assert ref > 0.0
    assert laplace_fpt(query, model) == pytest.approx(ref, rel=1e-10, abs=0.0)


# attracting rho0 = 0.2, repelling rho1 = 1.3; gamma1 < 0 makes b1 about
# -q/|gamma1|, where the direct series F(b0, b1; beta0; z) alternates
AR_CANONICAL = [0.9, 1.4, 0.2, 1.3 * -0.8, 0.0, 0.0, 1.0, -0.8]


@pytest.mark.parametrize("q", [0.5, 5.0, 20.0, 50.0, 100.0])
@pytest.mark.parametrize("swap, reflect", [(False, False), (True, False), (False, True), (True, True)])
def test_attraction_repulsion_above_the_target_matches_referee(q, swap, reflect):
    # x > y below the attractor: the branch regular at rho0, summed by
    # Euler's and Pfaff's forms with single-signed terms
    y = 0.2 - 0.1 * 1.1
    for x in (0.15, 0.5, 1.0, 1.25):
        for state in (0, 1):
            _assert_matches_referee(AR_CANONICAL, q, x, y, state, swap, reflect)


ATTRACTING_CANONICAL = [0.8, 1.7, -0.4, 0.7 * 1.3, 0.0, 0.0, 1.0, 1.3]


@pytest.mark.parametrize("q", [0.1, 1.0, 10.0, 50.0])
@pytest.mark.parametrize("d", [1e-3, 1e-2])
@pytest.mark.parametrize("branch", ["attracting up", "attracting down", "attraction-repulsion up"])
def test_targets_next_to_the_attractor_match_referee(branch, d, q):
    # the target sits d of the gap from an attractor, so a series argument
    # lies next to 1, where the 1 - z connection takes over
    if branch == "attracting up":
        params, gap = ATTRACTING_CANONICAL, 1.1
        y = 0.7 - d * gap
        xs = (y - 0.05 * gap, y - 0.5 * gap, -0.9)
    elif branch == "attracting down":
        params, gap = ATTRACTING_CANONICAL, 1.1
        y = -0.4 + d * gap
        xs = (y + 0.05 * gap, y + 0.5 * gap, 1.4)
    else:
        params, gap = AR_CANONICAL, 1.1
        y = 0.2 - d * gap
        xs = (y - 0.05 * gap, y - 0.5 * gap, y - gap)
    for x in xs:
        for state in (0, 1):
            _assert_matches_referee(params, q, x, y, state)


# --- the target memo ----------------------------------------------------------------


def _bits(model, q, x, y, state):
    """laplace_fpt's value as its bit pattern, or its error's type and message."""
    try:
        return laplace_fpt(FptQuery(q, x, y, state), model).hex()
    except (KacOuError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _cold_bits(model, q, x, y, state):
    fp._target.cache_clear()
    return _bits(model, q, x, y, state)


@st.composite
def interleaved_targets(draw):
    """A model of one regime, possibly relabelled and reflected, and queries
    on a few targets in drawn order, on both sides of each and from both
    states; levels are drawn in units of the gap between the drift levels."""
    kind = draw(st.sampled_from(["attracting", "attraction_repulsion", "non_strict"]))
    l0, l1 = draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))
    g0, g1 = draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))
    r0 = draw(st.floats(-2.0, 2.0))
    gap = draw(st.floats(0.1, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    a0, a1 = r0 * g0, (r0 + gap) * g1
    if kind == "attraction_repulsion":
        g1, a1 = -g1, -a1
    elif kind == "non_strict":
        g1, a1 = 0.0, gap
    model = KacOuModel.from_values(l0, l1, a0, a1, 0.0, 0.0, g0, g1)
    if draw(st.booleans()):
        model = swap_states(model)
    scale = -1.0 if draw(st.booleans()) else 1.0
    model = rescale(model, scale)
    ys = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=3, unique=True))
    picks = st.tuples(st.integers(0, len(ys) - 1), st.floats(-1.2, 2.2), st.sampled_from([0, 1]))
    queries = []
    for k, t, state in draw(st.lists(picks, min_size=4, max_size=12)):
        x, y = (r0 + t * gap) / scale, (r0 + ys[k] * gap) / scale
        if x != y:
            queries.append((x, y, state))
    return model, draw(st.floats(0.0, 60.0)), queries


@given(case=interleaved_targets())
@settings(max_examples=150, deadline=None)
def test_target_memo_changes_no_value_or_error(case):
    model, q, queries = case
    fp._target.cache_clear()
    warm = [_bits(model, q, x, y, state) for x, y, state in queries]
    assert warm == [_cold_bits(model, q, x, y, state) for x, y, state in queries]


SIGNED_ZERO_CASES = [
    "attracting target", "attracting level",
    "attraction-repulsion target", "attraction-repulsion level",
    "non-strict target", "non-strict level",
]


def _signed_zero_case(case, zero):
    """(model parameters, target, starts) with the target or a drift level
    the signed zero `zero`."""
    return {
        "attracting target": ((1.0, 1.0, -0.5, 0.5, 0.0, 0.0, 1.0, 1.0), zero, (-0.3, 0.3)),
        "attracting level": ((1.0, 1.0, zero, 1.0, 0.0, 0.0, 1.0, 1.0), 0.5, (0.0, 0.2, 0.8)),
        "attraction-repulsion target": (AR_CANONICAL, zero, (-0.5, 0.1, 0.5)),
        "attraction-repulsion level": ((0.3, 1.0, zero, -1.0, 0.0, 0.0, 1.0, -1.0), -0.3, (-0.9, -0.1, 0.0, 0.5)),
        "non-strict target": ((1.0, 1.0, -0.5, 1.0, 0.0, 0.0, 1.0, 0.0), zero, (-1.0, -0.3)),
        "non-strict level": ((1.0, 1.0, zero, 1.0, 0.0, 0.0, 1.0, 0.0), 0.5, (-0.5, 0.0, 0.2)),
    }[case]


@pytest.mark.parametrize("case", SIGNED_ZERO_CASES)
@pytest.mark.parametrize("first", [0.0, -0.0])
@pytest.mark.parametrize("scale", [1.0, -1.0])
def test_target_memo_keys_ignore_the_sign_of_zero(case, first, scale):
    # 0.0 == -0.0, so both signs share a memo entry: that is exact only if
    # no target side depends on the sign
    def queries(zero):
        params, y, starts = _signed_zero_case(case, zero)
        model = rescale(KacOuModel.from_values(*params), scale)
        return [(model, 2.0, x / scale, y / scale, state) for x in starts for state in (0, 1)]

    signs = (first, -first)
    cold = {zero: [_cold_bits(*args) for args in queries(zero)] for zero in signs}
    assert all(isinstance(bits, str) for bits in cold[first])  # every query is in its domain
    fp._target.cache_clear()
    for zero in signs:
        assert [_bits(*args) for args in queries(zero)] == cold[zero]


def test_target_memo_is_bounded():
    fp._target.cache_clear()
    n = 3 * fp._TARGET_MEMO_SIZE
    for k in range(n):
        laplace_fpt(FptQuery(1.0, 0.1, 0.2 + 0.5 * k / n, k % 2), ATTRACTING)
        assert fp._target.cache_info().currsize <= fp._TARGET_MEMO_SIZE
    assert fp._target.cache_info().currsize == fp._TARGET_MEMO_SIZE


def _counted(monkeypatch, name):
    """Record the arguments of every call made through fp.<name>."""
    calls = []
    real = getattr(fp, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fp, name, counted)
    return calls


def test_raising_target_side_is_not_cached(monkeypatch):
    # Kummer's series at (y - rho)(q + lambda1) = 3e6 cannot settle within
    # the term cap, so the denominator raises before the start side is summed
    calls = _counted(monkeypatch, "kummer_1f1_log")
    fp._target.cache_clear()
    errors = []
    for x, state in ((0.5, 1), (0.5, 1), (0.25, 0)):
        with pytest.raises(SeriesConvergenceError) as info:
            laplace_fpt(FptQuery(3e6, x, 1.0, state), NON_STRICT)
        errors.append(str(info.value))
        assert len(calls) == len(errors)  # the denominator is summed again every time
    assert len(set(errors)) == 1


@pytest.mark.parametrize(
    "model, y, starts",
    [
        (ATTRACTING, 0.75, (0.25, 0.5, -0.3)),
        (ATTRACTING, 0.25, (0.5, 0.9, 1.3)),
        (ATTRACT_REPEL, -0.3, (-1.5, -0.9, -0.45)),
        (ATTRACT_REPEL, -0.3, (-0.1, 0.4, 0.8)),
        (NON_STRICT, 0.8, (-0.4, 0.2, 0.65)),
    ],
)
def test_repeated_target_sums_only_the_start_side(monkeypatch, model, y, starts):
    gauss = _counted(monkeypatch, "gauss_2f1_log")
    kummer = _counted(monkeypatch, "kummer_1f1_log")
    fp._target.cache_clear()
    counts = []
    for x in starts:
        for state in (0, 1):
            before = len(gauss) + len(kummer)
            laplace_fpt(FptQuery(1.0, x, y, state), model)
            counts.append(len(gauss) + len(kummer) - before)
    # one start-side series a query, and the target's once; below an
    # attraction-repulsion target that is G at x or H at x, and G at y
    assert counts == [2] + [1] * (len(counts) - 1)
