import contextlib
import math
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kacou import first_passage as fp
from kacou.errors import (
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
)
from kacou.model import KacOuModel, hitting_time, rescale, swap_states
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
        oracle = fpt_integral_oracle(FptQuery(q, x, y, state), model)
        assert closed == pytest.approx(oracle, abs=1e-4)


def test_oracle_reproduces_boundary():
    e0, e1 = fpt_oracle_curve(ATTRACTING, 1.0, 0.75, np.array([0.75 - 1e-8]))
    assert e1[0] == pytest.approx(1.0, abs=1e-5)


def test_oracle_monotone_in_q():
    v1 = fpt_integral_oracle(FptQuery(1.0, 0.25, 0.75, 1), ATTRACTING)
    v2 = fpt_integral_oracle(FptQuery(2.0, 0.25, 0.75, 1), ATTRACTING)
    assert v2 < v1


def test_oracle_handles_degenerate_and_matches_mc():
    q = FptQuery(1.0, 2.0, 1.5, 0)
    oracle = fpt_integral_oracle(q, DEGENERATE)
    from kacou.simulate import mc_laplace_fpt

    est = mc_laplace_fpt(q, DEGENERATE, 100_000, seed=42)
    assert abs(oracle - est.mean) <= max(3.0 * est.stderr, 1e-3)


def test_oracle_requires_positive_q():
    with pytest.raises(ParameterError):
        fpt_integral_oracle(FptQuery(0.0, 0.25, 0.75, 1), ATTRACTING)
    # non-finite rates and points fail at once
    for q, y, xs in [
        (math.nan, 0.75, [0.25]),
        (math.inf, 0.75, [0.25]),
        (1.0, math.nan, [0.25]),
        (1.0, 0.75, [-math.inf]),
        (1.0, 0.75, [math.inf]),
    ]:
        with pytest.raises(ParameterError):
            fpt_oracle_curve(ATTRACTING, q, y, np.array(xs))


def test_oracle_rejects_straddling_queries():
    with pytest.raises(ParameterError):
        fpt_oracle_curve(ATTRACTING, 1.0, 0.5, np.array([0.25, 0.75]))


# --- the oracle's operator against a quadrature referee in tau ---------------


def _oracle_side(model, q, y, xs):
    """The (model, y, query points) the oracle solves xs on: the reflected
    problem when they lie above y."""
    xs = np.asarray(xs, dtype=float)
    if np.all(xs > y):
        return rescale(model, -1.0), -y, -xs
    return model, y, xs


def _grids(model, q, y, xs):
    """The oracle's coarse grid and the fine grid halving it, for oriented
    query points."""
    coarse = fp._oracle_nodes(model, q, y, xs)
    return coarse, fp._halved(coarse)


def _drift(model, state, x):
    """-1, 0 or +1: the direction the state's flow moves x."""
    c = model.coeffs[state]
    if c.gamma == 0.0:
        return np.sign(c.a)
    rho = c.a / c.gamma
    return np.sign(-c.gamma * (x - rho) if math.isfinite(rho) else c.a - c.gamma * x)


def _share(model, state):
    """(s, z_a, z_b) -> (phi_s(z_a) - z_a) / (z_b - z_a), the share of the
    cell from z_a to z_b that the state's flow dz/dt = a - gamma z covers in
    time s, in a form that keeps its digits.  Where the level rho is finite
    it is -expm1(-gamma s) times the ratio (z_a - rho) / (z_a - z_b), formed
    first: next to the level both distances can be subnormal, where their
    product with expm1 would round.  The ratio is a Python float, inf for a
    cell far narrower than its distance to rho (the caller holds the share
    to [0, 1]), and no time covers none of the cell.  Where there is no
    level, it is the displacement from the drift over the cell's width."""
    c = model.coeffs[state]
    rho = c.a / c.gamma if c.gamma != 0.0 else math.inf
    if math.isfinite(rho):

        def share(s, za, zb):
            grown = -math.expm1(-c.gamma * s)
            return grown * (float(za - rho) / float(za - zb)) if grown else 0.0

        return share

    def share(s, za, zb):
        # z (e^-gamma s - 1) + a s (1 - e^-gamma s) / (gamma s)
        gs = c.gamma * s
        moved = za * math.expm1(-gs) + c.a * s * (-math.expm1(-gs) / gs if gs else 1.0)
        return moved / (zb - za)

    return share


def _flow_times(model, state, x, zs):
    """Times for the state's flow from x to reach zs (inf where it never
    does): the inverse of z - rho = (x - rho) e^-gamma t, by log1p of the
    distance ratio less 1, which keeps a target a few ulps from x apart
    from x (model.hitting_time rounds the log of that ratio to 0 and calls
    the target unreached), and by the log of the ratio where it is below
    1/2; the distance over the drift where gamma = 0, and the model's
    hitting time where the level overflows."""
    c = model.coeffs[state]
    if c.gamma == 0.0:
        # a constant drift reaches every node ahead: in a cell of one
        # subnormal ulp model.hitting_time rounds the time to 0 and calls the
        # node unreached
        with np.errstate(over="ignore"):  # a time past double range is inf
            return (zs - x) / c.a
    rho = c.a / c.gamma
    if not math.isfinite(rho):
        return hitting_time(state, x, zs, model)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        u = (zs - x) / (x - rho)  # the distance ratio less 1
        t = -np.where(u < -0.5, np.log((zs - rho) / (x - rho)), np.log1p(u)) / c.gamma
    return np.where(t > 0.0, t, math.inf)


def _reference_value(model, q, y, nodes, state, i, values):
    """first + (A values) at nodes[i] by scipy.integrate.quad in tau.

    The flow from the node crosses the nodes downstream of it at the model's
    hitting times; between two crossings the integrand
    lam e^-(q+lam) tau ell(phi_tau(x)) is smooth, with ell linear between
    the two nodes, and each piece is one quad.  The flow ends at y (its
    hit time gives the first-passage term), at a level it approaches
    forever, or past the lowest node, where ell is held at that node's value.
    """
    from scipy.integrate import quad

    lam = model.rates.rate(state)
    k = q + lam
    x = nodes[i]
    direction = _drift(model, state, x)
    if direction == 0:  # at a level, ell stays at the node's value
        return quad(lambda t: lam * math.exp(-k * t) * values[i], 0.0, math.inf, epsabs=1e-15, epsrel=1e-12)[0]
    ahead = np.arange(i + 1, nodes.size) if direction > 0 else np.arange(i - 1, -1, -1)
    times = _flow_times(model, state, x, nodes[ahead])
    reached = np.isfinite(times)
    # a level ends the flow at the first node it never reaches
    stop = int(np.argmin(reached)) + 1 if not reached.all() else ahead.size
    path, times = np.concatenate([[i], ahead[:stop]]), np.concatenate([[0.0], times[:stop]])
    share_of = _share(model, state)

    total = 0.0
    for (a, b), (ta, tb) in zip(zip(path[:-1], path[1:]), zip(times[:-1], times[1:])):
        za, zb, va, vb = nodes[a], nodes[b], values[a], values[b]

        def piece(t):
            # the hit times bound the piece to about 2^-52 of themselves, so
            # in a cell of a few ulps the share covered is held to [0, 1]
            share = min(max(share_of(t - ta, za, zb), 0.0), 1.0)
            return lam * math.exp(-k * t) * (va + (vb - va) * share)

        # past 40 / (q + lam) the piece holds e^-40 of the weight left
        total += quad(piece, ta, min(tb, ta + 40.0 / k), epsabs=1e-15, epsrel=1e-12)[0]
    first = 0.0
    if direction > 0 and path[-1] == nodes.size - 1 and math.isfinite(times[-1]):
        first = math.exp(-k * float(times[-1]))  # the flow hits y
    elif direction < 0 and path[-1] == 0 and math.isfinite(times[-1]):
        # past the lowest node ell is held at its value
        total += quad(lambda t: lam * math.exp(-k * t) * values[0], times[-1], math.inf, epsabs=1e-15, epsrel=1e-12)[0]
    return first + total


def _checked_nodes(nodes, xs, levels, rng):
    """Indices the referee checks: both ends of the grid, the query points,
    the nodes around every level and a few random ones."""
    picks = [0, 1, nodes.size - 2, nodes.size - 1, *np.searchsorted(nodes, xs)]
    picks += [j for lv in levels for j in np.searchsorted(nodes, lv) + np.arange(-2, 2)]
    picks += list(rng.integers(0, nodes.size, 4))
    return sorted({int(np.clip(p, 0, nodes.size - 1)) for p in picks})


@contextlib.contextmanager
def _small_grids():
    """The oracle's grids with few nodes, so that the referee can integrate
    a node's whole flow cell by cell."""
    saved = fp.ORACLE_CORE_NODES, fp.ORACLE_TAIL_NODES
    fp.ORACLE_CORE_NODES, fp.ORACLE_TAIL_NODES = 31, 16
    try:
        yield
    finally:
        fp.ORACLE_CORE_NODES, fp.ORACLE_TAIL_NODES = saved


def assert_operator_matches_reference(model, q, y, xs):
    """The oracle's solution on both grids of small size against the
    quadrature referee: at the checked nodes each state's value is what the
    referee's first + A values gives for the other state's values."""
    m, y_side, xs = _oracle_side(model, q, y, xs)
    with _small_grids():
        grids = _grids(m, q, y_side, xs)
    ells = fp._cyclic_reduction(*fp._oracle_system(m, q, grids))
    rng = stream(11, "oracle-operator", 0)
    levels = [c.a / c.gamma for c in m.coeffs if c.gamma != 0.0 and math.isfinite(c.a / c.gamma)]
    for nodes, ell in zip(grids, np.split(ells, [grids[0].size], axis=1)):
        for s in (0, 1):
            for i in _checked_nodes(nodes, xs, levels, rng):
                want = _reference_value(m, q, y_side, nodes, s, i, ell[1 - s])
                assert ell[s][i] == pytest.approx(want, rel=1e-11, abs=1e-14), (s, i, nodes[i])


# a repelling level below the threshold: its own node and a geometric tail
AR_NODE_BELOW_Y = KacOuModel.from_values(0.6, 1.2, 0.5, 1.0, 0.0, 0.0, 1.0, -2.0)
# equal levels, one attracting and one repelling state
DEGENERATE_MIXED = KacOuModel.from_values(1.0, 0.8, 2.0, -1.0, 0.0, 0.0, 2.0, -1.0)
# the zero-reversion state drifts down: a geometric tail below the core
NON_STRICT_DOWN = KacOuModel.from_values(2.0, 1.0, -3.0, 0.0, 0.0, 0.0, 0.0, 1.0)
# pulled up to 2 and pushed down from 1.5: below y = 1 the repelling state
# carries positions past the grid's geometric tail, onto the closed tail
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


@pytest.mark.parametrize("model", [ATTRACTING, ATTRACT_REPEL, NON_STRICT, DEGENERATE_MIXED])
def test_oracle_operator_next_to_the_threshold(model):
    for y in (-0.5, 0.75):
        for xs in ([y - 1e-8, y - 1e-3], [y + 1e-8]):
            assert_operator_matches_reference(model, 1.0, y, xs)


@given(
    rates=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
    gammas=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    levels=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    q=st.floats(0.3, 30.0),
    y=st.floats(-2.0, 2.0),
    d=st.floats(1e-6, 2.0),
    above=st.booleans(),
)
# state 0 cannot move
@example(rates=(3.0, 2.5), gammas=(0.0, 0.25), levels=(0.0, 0.0), q=0.5, y=1.0, d=1.0, above=True)
# state 0 drifts at the least normal double: the referee's crossing times
# overflowed, a RuntimeWarning
@example(rates=(1.0, 1.0), gammas=(0.0, 0.0), levels=(2.2250738585072014e-308, -1.0), q=1.0, y=0.0, d=1.0, above=False)
# state 0 is pulled to y itself and state 1 barely drifts
@example(rates=(1.0, 2.0), gammas=(1.0, 0.0), levels=(0.0, 5.960464477539063e-08), q=1.0, y=0.0, d=1e-06, above=False)
# both states are pulled to a level 1.7e-15 past y
@example(rates=(1.0, 1.0), gammas=(1.0, 1.0), levels=(0.0, 0.0), q=0.375, y=-1.6992231217259597e-15, d=1.0, above=False)
# state 0 cannot move and state 1 drifts up at 1.4e-32: toward y the fine
# values fall by 1e-29 a node, the coarse ones by 1e-30 a coarse cell
@example(rates=(1.0, 1.0), gammas=(0.0, 0.0), levels=(0.0, 1.3550003943498644e-32), q=1.0, y=0.0, d=1.0, above=False)
# y is one subnormal ulp above state 1's level 0: the referee's share of the
# cell at y rounded in the subnormal range unless it forms its ratio first
@example(rates=(1.0, 1.0), gammas=(0.0, 1.0), levels=(0.0, 0.0), q=1.0, y=5e-324, d=1.0, above=False)
# the cell from y to the level 0 is subnormal, so its distance ratio from the
# other level 1 overflows: the referee's share must hold it to [0, 1]
@example(rates=(1.0, 1.0), gammas=(1.0, 1.0), levels=(0.0, 1.0), q=1.0, y=-2.225073858507203e-309, d=1.0, above=True)
# reflected, state 0 drifts down at speed 2 from y = 5e-324, and the first
# cell, from y to -0.0, is one subnormal ulp wide: the referee must count
# its node as reached
@example(rates=(1.0, 1.0), gammas=(0.0, 1.0), levels=(2.0, 0.0), q=1.0, y=-5e-324, d=1.0, above=True)
@settings(max_examples=25, deadline=None)
def test_oracle_operator_matches_reference_on_drawn_models(rates, gammas, levels, q, y, d, above):
    # gamma = 0 draws a linear state with drift `level`; otherwise the level
    # is the state's rho
    a = [lv if g == 0.0 else lv * g for lv, g in zip(levels, gammas)]
    model = KacOuModel.from_values(*rates, *a, 0.0, 0.0, *gammas)
    x = y + d if above else y - d
    assert_operator_matches_reference(model, q, y, [x, x + 0.5 * (y - x)])


def _sparse_solution(blocks, pair):
    """The system _cyclic_reduction takes, with the unit diagonal of the
    renewal rows in place of the defects, by scipy's sparse LU."""
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import spsolve

    n = blocks.shape[2]
    j = np.arange(n)
    rows, cols, vals = [np.arange(2 * n)], [np.arange(2 * n)], [np.ones(2 * n)]
    for s in (0, 1):
        for o in (0, 1):  # L_j and U_j couple node j to nodes j - 1 and j + 1
            rows += [s * n + j[1:], s * n + j[:-1]]
            cols += [o * n + j[:-1], o * n + j[1:]]
            vals += [-blocks[s, o, 1:], -blocks[s, 2 + o, :-1]]
        rows.append(s * n + j)
        cols.append((1 - s) * n + j)
        vals.append(-pair[s])
    a = csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(2 * n, 2 * n))
    return spsolve(a, blocks[:, 4].ravel()).reshape(2, n)


def _sparse_cases():
    for model, q, y, below, above in OPERATOR_CASES:
        yield model, q, y, below
        yield model, q, y, above
    # at large q (or a huge rate) a run's products of r leave double range
    for q, rate in [(100.0, 1.0), (1e4, 1.0), (0.5, 1e100)]:
        yield KacOuModel.from_values(rate, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0), q, 0.75, [0.05, 0.25]


@pytest.mark.parametrize("model, q, y, xs", list(_sparse_cases()))
def test_cyclic_reduction_matches_sparse_lu(model, q, y, xs):
    # both grids' systems, solved together, against a general sparse solve
    m, y_side, xs = _oracle_side(model, q, y, xs)
    blocks, pair = fp._oracle_system(m, q, _grids(m, q, y_side, xs))
    assert not blocks[:, 0:2, 0].any() and not blocks[:, 2:4, -1].any()
    want = _sparse_solution(blocks, pair)
    before = blocks.copy(), pair.copy()
    got = fp._cyclic_reduction(blocks, pair)
    # the solve leaves its system as it was given
    assert np.array_equal(blocks, before[0]) and np.array_equal(pair, before[1])
    assert np.isfinite(got).all() and np.isfinite(want).all()
    kept = want >= 1e-250
    np.testing.assert_allclose(got[kept], want[kept], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", range(1, 141))
def test_cyclic_reduction_solves_every_size(n):
    # a random diagonally dominant system of each size, every level's odd
    # and even node counts included (past _DIRECT_NODES, a level of
    # reduction and then the direct finish): each row's couplings,
    # off-diagonal and defect are magnitudes that add up to its unit diagonal
    rng = np.random.default_rng(n)
    blocks, pair = rng.uniform(0.0, 1.0, (2, 6, n)), rng.uniform(0.0, 1.0, (2, n))
    blocks[:, 0:2, 0] = blocks[:, 2:4, -1] = 0.0
    blocks[:, 5] += 0.05
    total = blocks[:, :4].sum(axis=1) + blocks[:, 5] + pair
    blocks[:, :4] /= total[:, None]
    blocks[:, 5] /= total
    pair /= total
    np.testing.assert_allclose(fp._cyclic_reduction(blocks, pair), _sparse_solution(blocks, pair), rtol=1e-12, atol=0.0)


def _gth_system(n, rng):
    """A random system of the kind _cyclic_reduction takes, with defects
    from 1e-300 to 1 and only the last node's right side nonzero; each
    node's couplings toward the last are about 10^(-250 / (n - 1)) of those
    away from it, so the solution falls toward 1e-250 at the first node."""
    blocks = np.zeros((2, 6, n))
    blocks[:, 0:2] = rng.uniform(0.1, 1.0, (2, 2, n))
    blocks[:, 2:4] = 10.0 ** (-250.0 / max(n - 1, 1)) * rng.uniform(0.1, 1.0, (2, 2, n))
    blocks[:, 0:2, 0] = blocks[:, 2:4, -1] = 0.0
    blocks[:, 4, -1] = rng.uniform(0.1, 1.0, 2)
    blocks[:, 5] = 10.0 ** rng.uniform(-300.0, 0.0, (2, n))
    return blocks, rng.uniform(0.0, 1.0, (2, n))


def _mp_block_elimination(blocks, pair):
    """The system's solution by node-by-node block elimination at 50 digits,
    each pivot's diagonal formed from its row sums (the row's defect and
    its couplings toward the later nodes), so no step subtracts."""
    import mpmath

    with mpmath.workdps(50):
        (l00, l01, u00, u01, b0, e0), (l10, l11, u10, u11, b1, e1) = (
            [[mpmath.mpf(v) for v in row] for row in state] for state in blocks.tolist()
        )
        p = [[mpmath.mpf(v) for v in state] for state in pair.tolist()]
        w, c, r, solved = [[0, 0], [0, 0]], [0, 0], [0, 0], []
        for j in range(blocks.shape[2]):
            low, up = [[l00[j], l01[j]], [l10[j], l11[j]]], [[u00[j], u01[j]], [u10[j], u11[j]]]
            # x_(j-1) = w x_j + c, with row sums r, taken into node j's rows
            off = [p[s][j] + low[s][0] * w[0][1 - s] + low[s][1] * w[1][1 - s] for s in (0, 1)]
            rhs = [(b0, b1)[s][j] + low[s][0] * c[0] + low[s][1] * c[1] for s in (0, 1)]
            sums = [(e0, e1)[s][j] + low[s][0] * r[0] + low[s][1] * r[1] for s in (0, 1)]
            t = [up[s][0] + up[s][1] + sums[s] for s in (0, 1)]
            det = t[0] * t[1] + t[0] * off[1] + off[0] * t[1]
            inv = [[(t[1] + off[1]) / det, off[0] / det], [off[1] / det, (t[0] + off[0]) / det]]
            w = [[inv[s][0] * up[0][o] + inv[s][1] * up[1][o] for o in (0, 1)] for s in (0, 1)]
            c = [inv[s][0] * rhs[0] + inv[s][1] * rhs[1] for s in (0, 1)]
            r = [inv[s][0] * sums[0] + inv[s][1] * sums[1] for s in (0, 1)]
            solved.append((w, c))
        x, values = [0, 0], []
        for w, c in reversed(solved):
            x = [w[s][0] * x[0] + w[s][1] * x[1] + c[s] for s in (0, 1)]
            values.append([float(v) for v in x])
    return np.array(values[::-1]).T


def test_direct_finish_is_as_close_to_mpmath_as_the_reduction(monkeypatch):
    # GTH systems with defects down to 1e-300 and solutions down to 1e-250,
    # on both sides of _DIRECT_NODES: the finish (alone, or after a level of
    # reduction) against the reduction down to single nodes, which it
    # replaced.  Both keep every value within a few eps, and neither is
    # closer on every draw: over ten seeds of these 50 systems the finish's
    # rms error was 0.83 to 1.23 times the reduction's, and its worst
    # 7.9-13.9 eps against 7.8-13.5 eps
    errors, least = {fp._DIRECT_NODES: [], 1: []}, 1.0
    rng = np.random.default_rng(64)
    for n in (2, 5, 17, 40, 63, 64, 65, 100, 128, 140):
        for _ in range(5):
            blocks, pair = _gth_system(n, rng)
            want = _mp_block_elimination(blocks, pair)
            least = min(least, want.min())
            for finish, errs in errors.items():
                monkeypatch.setattr(fp, "_DIRECT_NODES", finish)
                errs.append((np.abs(fp._cyclic_reduction(blocks, pair) - want) / want).ravel())
    assert least < 1e-240
    eps = np.finfo(float).eps
    direct, reduced = (np.concatenate(errs) for errs in errors.values())
    assert direct.max() < 32.0 * eps and reduced.max() < 32.0 * eps
    assert np.sqrt(np.mean(direct**2)) <= 1.25 * np.sqrt(np.mean(reduced**2))


@pytest.mark.parametrize("n", [1, 2, 64])
def test_direct_finish_guards_its_pivots_as_the_reduction_does(n):
    # a subnormal defect and no other way out of a node: the determinant
    # is not a normal double, so nothing is divided by it
    blocks, pair = np.zeros((2, 6, n)), np.zeros((2, n))
    blocks[:, 4, -1] = 1.0
    blocks[:, 5] = 5e-324
    with pytest.raises(OracleError, match=r"^a pivot of \S+ is below the normal range: q is too small for doubles$"):
        fp._cyclic_reduction(blocks, pair)


# (model values, q, y, xs): two repelling states with a tail below each
# level, 9,011 nodes on both grids, and two upward drifts, 4,505 nodes
LARGE_CURVE = ((1.0, 1.0, 1.0, 4.0, 0.0, 0.0, -1.0, -2.0), 1.5, 0.2, [-0.5])
SMALL_CURVE = ((1.0, 1.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0), 0.4, 0.75, [0.25])


def _curve_bits(values, q, y, xs):
    return [ell.tobytes() for ell in fpt_oracle_curve(KacOuModel.from_values(*values), q, y, np.array(xs))]


def test_curves_keep_no_trace_of_the_workspace():
    # large, small and large again give what each gives in a fresh process,
    # and nothing returned shares the thread's workspace
    got = [_curve_bits(*LARGE_CURVE), _curve_bits(*SMALL_CURVE), _curve_bits(*LARGE_CURVE)]
    assert got[2] == got[0]
    for ell in fpt_oracle_curve(KacOuModel.from_values(*LARGE_CURVE[0]), *LARGE_CURVE[1:]):
        assert not np.shares_memory(ell, fp._WORKSPACE.buffer)
    script = (
        "import sys\n"
        "from test_first_passage import _curve_bits\n"
        "print([bits.hex() for bits in _curve_bits(*eval(sys.argv[1]))])\n"
    )
    path = os.pathsep.join([os.path.dirname(os.path.dirname(fp.__file__)), os.path.dirname(__file__)])
    for curve, bits in zip((LARGE_CURVE, SMALL_CURVE), got):
        fresh = subprocess.run(
            [sys.executable, "-c", script, repr(curve)],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert eval(fresh.stdout) == [b.hex() for b in bits]


def test_curves_in_other_threads_give_the_same_bits():
    # each thread solves in its own workspace, so curves computed at once,
    # in more threads than cores and switching often, give what each gives
    # alone
    curves = [LARGE_CURVE, SMALL_CURVE] * 2
    want = [_curve_bits(*curve) for curve in curves]
    got = [[] for _ in curves]
    threads = [
        threading.Thread(target=lambda c=curve, out=out: out.extend(_curve_bits(*c) for _ in range(10)))
        for curve, out in zip(curves, got)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for bits, runs in zip(want, got):
        assert runs == [bits] * 10


@pytest.mark.parametrize("model, q, y, below, above", OPERATOR_CASES)
def test_joint_solve_keeps_the_grids_apart(model, q, y, below, above):
    # the fine and coarse grids, solved as one system, give what each gives
    # solved alone: no row couples one grid to the other
    for xs in (below, above):
        m, y_side, xs = _oracle_side(model, q, y, xs)
        grids = _grids(m, q, y_side, xs)
        joint = np.split(fp._cyclic_reduction(*fp._oracle_system(m, q, grids)), [grids[0].size], axis=1)
        for nodes, got in zip(grids, joint):
            want = fp._cyclic_reduction(*fp._oracle_system(m, q, (nodes,)))
            kept = want >= 1e-250
            np.testing.assert_allclose(got[kept], want[kept], rtol=1e-12, atol=0.0)


# linear drifts -1 and +0.5 at rates 1: the telegraph process, whose
# transforms are exponential in x - y
TELEGRAPH = KacOuModel.from_values(1.0, 1.0, -1.0, 0.5, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("q", [0.1, 1e-3, 1e-6, 1e-9])
def test_oracle_at_small_q_matches_the_telegraph_transform(q):
    # ell_s = v_s e^(theta (x - y)), theta > 0 the root of
    # theta^2 - (1 + q) theta - 2 q (2 + q) = 0, v_1 = 1 (state 1 hits y)
    # and v_0 = 1 / (1 + q + theta); an iterated solve crawled here and
    # gave up below q = 1e-4
    y, xs = 0.75, np.array([-1.0, 0.25, 0.7])
    theta = 0.5 * (1.0 + q + math.sqrt((1.0 + q) ** 2 + 8.0 * q * (2.0 + q)))
    e1 = np.exp(theta * (xs - y))
    t0 = time.perf_counter()
    got0, got1 = fpt_oracle_curve(TELEGRAPH, q, y, xs)
    assert time.perf_counter() - t0 < 1.0
    np.testing.assert_allclose(got0, e1 / (1.0 + q + theta), rtol=1e-7, atol=0.0)
    np.testing.assert_allclose(got1, e1, rtol=1e-7, atol=0.0)


@pytest.mark.parametrize(
    "values, q, y, xs",
    [
        # both states drift down, away from y above them
        ((1.0, 1.0, -1.0, -0.5, 0.0, 0.0, 0.0, 0.0), 1.0, 0.75, [0.25, -1.0]),
        # both states head for levels far below y: the grid from -1e308 to
        # y = 1e308 left double range (an invalid multiply) before the
        # solve was skipped
        ((1, 1, 0, 1, 0, 0, 1, 1), 0.5, 1e308, [-1e308]),
    ],
    ids=["drifts-down", "far-target"],
)
def test_oracle_gives_0_without_a_solve_where_no_flow_enters_y(monkeypatch, values, q, y, xs):
    monkeypatch.setattr(fp, "_oracle_nodes", None)
    monkeypatch.setattr(fp, "_cyclic_reduction", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ell in fpt_oracle_curve(KacOuModel.from_values(*values), q, y, np.array(xs)):
            assert np.array_equal(ell, np.zeros(len(xs)))


@pytest.mark.parametrize(
    "values, y, ends",
    [
        ((1, 1, 1, 0, 0, 0, 0, 1), 1e308, r"the lowest query point or level, -1e\+308, to y = 1e\+308"),
        ((1, 1, 0, 1, 0, 0, 1, -1), 1e308, r"the lowest query point or level, -1e\+308, to y = 1e\+308"),
        # the mirror images, solved reflected, name the caller's y and x
        ((1, 1, -1, 0, 0, 0, 0, 1), -1e308, r"y = -1e\+308 to the highest query point or level, 1e\+308,"),
        ((1, 1, 0, -1, 0, 0, 1, -1), -1e308, r"y = -1e\+308 to the highest query point or level, 1e\+308,"),
    ],
    ids=["drift-up", "repeller-below", "drift-down", "repeller-above"],
)
def test_oracle_grid_past_double_range_raises_before_any_node(values, y, ends):
    # a state's flow enters y = 1e308 from -1e308, so the curve is solved,
    # but y - (-1e308) is inf: the grid's core was built from it (three
    # RuntimeWarnings), and the solve ended in a misleading pivot error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DoubleRangeError, match=rf"^the oracle's grid from {ends} leaves double range$"):
            fpt_oracle_curve(KacOuModel.from_values(*values), 0.5, y, [-y])


def test_pivot_guard_raises_at_once():
    # q / (q + lam) is subnormal, and so is a pivot: the division would
    # overflow
    q, y, xs = 5e-324, 0.2, np.array([-0.5])
    blocks, pair = fp._oracle_system(REPELLING, q, _grids(REPELLING, q, y, xs))
    t0 = time.perf_counter()
    with pytest.raises(OracleError, match="normal range"):
        fp._cyclic_reduction(blocks, pair)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("q", [1e-16, 1e-50, 5e-324])
def test_oracle_refuses_a_tiny_q_at_once(q):
    # past the lowest node ell is held at its value; where q / (q + lam) is
    # below the rounding of the other row terms nothing kills the paths that
    # leave the grid, and unrefused, state 0 would read 0.342 at q = 1e-16
    # and 1.0 at 1e-50, for a hit probability of 0.303
    t0 = time.perf_counter()
    with pytest.raises(OracleError, match="below 1e-10 of the rate 1 of state 0"):
        fpt_oracle_curve(TELEGRAPH, q, 0.75, np.array([0.25]))
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("a0, y, x", [(-1e300, -1e-300, 0.25), (3.0, 1e8, 1e300)])
def test_oracle_tail_toward_a_far_repelling_level_stays_in_double_range(a0, y, x):
    # state 0 repels at gamma0 = -100: the tail below its level (1e298, or
    # the far start's 1e300 in the reflected frame) ran np.geomspace to inf,
    # the nodes were nan, and the solve refused with "a pivot of nan"
    model = KacOuModel.from_values(1.0, 1.0, a0, 1.0, 0.0, 0.0, -100.0, 1.0)
    for q in (0.5, 2.0):
        curve = fpt_oracle_curve(model, q, y, [x])
        closed = [laplace_fpt(FptQuery(q, x, y, state), model) for state in (0, 1)]
        np.testing.assert_allclose(np.concatenate(curve), closed, rtol=1e-12, atol=1e-14)


def test_oracle_lays_no_tail_where_double_range_leaves_no_room():
    # rho0 = -1.5e308 leaves no room for a tail below it (its far nodes
    # overflowed); at x, state 0's drift of 1.5e298 crosses to y at once
    model = KacOuModel.from_values(1.0, 1.0, 1.5e298, 1.0, 0.0, 0.0, -1e-10, 1.0)
    ell0, ell1 = fpt_oracle_curve(model, 0.5, 0.75, [0.25])
    assert ell0[0] == 1.0 and 0.0 < ell1[0] < 1.0
    # reflected, rho0 = 1e308 lies 2.7e308 above the core's lowest node, so
    # the tail's near end overflowed, and with warnings ignored both values
    # read 0; a path that holds state 1 for log 1.7 reaches y
    model = KacOuModel.from_values(1.0, 1.0, 1e300, 1.0, 0.0, 0.0, -1e-8, 1.0)
    ell0, ell1 = fpt_oracle_curve(model, 0.5, 1e308, [1.7e308])
    assert 0.0 < ell0[0] < ell1[0] < 1.0 and ell1[0] > 1.7**-1.5


# --- the oracle's accuracy against the closed forms ---------------------------------


@pytest.mark.parametrize("q", [0.5, 10.0, 37.4, 100.0])
@pytest.mark.parametrize(
    "model, y, xs",
    [
        (ATTRACTING, 0.75, [0.05, 0.25, 0.5, 0.7]),
        (ATTRACT_REPEL, -0.5, [-1.4, -0.9, -0.7, -0.55]),
        (NON_STRICT, 0.8, [-0.5, 0.2, 0.5, 0.75]),
    ],
    ids=["attracting", "attraction-repulsion", "non-strict"],
)
def test_oracle_is_relatively_accurate(model, y, xs, q):
    # the README model's values reach 2.6e-61 at q = 100; an absolute
    # tolerance would pass any curve there
    curve = fpt_oracle_curve(model, q, y, np.array(xs))
    for state in (0, 1):
        closed = np.array([laplace_fpt(FptQuery(q, x, y, state), model) for x in xs])
        np.testing.assert_allclose(curve[state], closed, rtol=1e-4, atol=0.0)


@pytest.mark.parametrize("q", [10.0, 37.4, 100.0])
@pytest.mark.parametrize("y, xs", [(0.75, [0.05, 0.25, 0.5]), (0.4, [0.6, 0.9])])
def test_grid_difference_estimates_the_fine_grid_error(y, xs, q):
    # ell_h and ell_2h are both O(h^2) off, so (ell_h - ell_2h) / 3 is
    # ell_h's error to leading order
    m, y_side, oriented = _oracle_side(ATTRACTING, q, y, xs)
    fine, coarse = fp._oracle_grid_curves(m, q, y_side, oriented)
    for state in (0, 1):
        closed = np.array([laplace_fpt(FptQuery(q, x, y, state), ATTRACTING) for x in xs])
        estimate = np.abs(fine[state] - coarse[state]) / 3.0
        error = np.abs(fine[state] - closed)
        assert np.all((0.5 * error <= estimate) & (estimate <= 2.0 * error)), (estimate / error)


def test_oracle_rejects_an_empty_query_set():
    # np.all of no points is True, so the x > y reflection called itself
    # until the recursion limit
    with pytest.raises(ParameterError, match="at least one x"):
        fpt_oracle_curve(ATTRACTING, 1.0, 0.6, [])


# --- dispatch errors ----------------------------------------------------------


def test_degenerate_model_redirects_to_oracle():
    # equal levels have no closed form yet: the one refusal names the
    # regime and the oracle
    with pytest.raises(UnsupportedRegimeError, match="DegenerateEqualRho.*fpt_integral_oracle"):
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


@pytest.mark.parametrize("q", [1e-8, 1e-12])
def test_non_strict_upper_parameter_keeps_its_digits_at_small_q(monkeypatch, q):
    # delta was ((q + l0)(q + l1) - l0 l1) / (gamma0 (q + l1)), which cancels:
    # 1.1e-8 relative off at q = 1e-8 and 8.9e-5 at q = 1e-12
    import mpmath

    seen = []
    kummer = fp.kummer_1f1_log
    monkeypatch.setattr(fp, "kummer_1f1_log", lambda a, b, z: seen.append(a) or kummer(a, b, z))
    model = KacOuModel.from_values(0.7, 1.3, 0.2, 0.5, 0.0, 0.0, 1.7, 0.0)
    for state in (0, 1):
        laplace_fpt(FptQuery(q, 0.3, 0.8, state), model)
    with mpmath.workdps(50):
        q_, l0, l1 = mpmath.mpf(q), mpmath.mpf(0.7), mpmath.mpf(1.3)
        want = float(((q_ + l0) * (q_ + l1) - l0 * l1) / (mpmath.mpf(1.7) * (q_ + l1)))
    assert seen and all(a == pytest.approx(want, rel=2.0**-50, abs=0.0) for a in seen)


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
    val = fpt_integral_oracle(FptQuery(0.7, -2.0, -1.0, 1), NON_STRICT)
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
    oracle = fpt_integral_oracle(q2, ns_neg)
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
# x < y with rho0 > rho1: the mirror image, x > y, was summed by a second
# branch, and the two values were one ulp apart
@example(
    kind="attracting", rates=(1.75, 0.5), gammas=(1.75, 0.75), rhos=(2.0, 0.0),
    drift_down=False, q=1.0, x=0.0, y=1.0, state=0,
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
    assert _outcome(rescale(model, -1.0), q, -x, -y, state) == ref


def test_rho_ordering_swap_in_attracting():
    flipped = KacOuModel.from_values(1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0)  # rho = (1, 0)
    v = laplace_fpt(FptQuery(1.0, 0.25, 0.75, 0), flipped)
    ref = laplace_fpt(FptQuery(1.0, 0.25, 0.75, 1), ATTRACTING)
    assert v == pytest.approx(ref, rel=1e-12)


# --- running extremum -----------------------------------------------------------


def test_running_extremum_vanishes_for_fast_killing():
    assert laplace_fpt(FptQuery(1e6, 0.25, 0.75, 1), ATTRACTING) < 1e-6


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
    assert abs(p_hat - laplace_fpt(FptQuery(q, x, y, state), ATTRACTING)) < 3.0 * se


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
        oracle = fpt_integral_oracle(q, dg)
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
    fp._target_side.cache_clear()
    try:
        with mock.patch.object(fp, "gauss_2f1_log", gauss), mock.patch.object(fp, "kummer_1f1_log", kummer):
            return laplace_fpt(query, model)
    finally:
        fp._target_side.cache_clear()


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


@pytest.mark.parametrize("q", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15])
def test_small_q_on_two_attracting_states_matches_referee(q):
    # 1 + d = 1 + (c - a - b) is about -q in the connection formula's second
    # inner series, so the rounding it inherits from d is magnified 1 / q
    model = KacOuModel.from_values(1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0)
    for x, y in ((0.1, 0.75), (0.9, 0.25)):
        for state in (0, 1):
            query = FptQuery(q, x, y, state)
            ref = referee_laplace_fpt(query, model)
            assert laplace_fpt(query, model) == pytest.approx(ref, rel=0.0, abs=1e-14)


# --- the target memo ----------------------------------------------------------------


def _bits(model, q, x, y, state):
    """laplace_fpt's value as its bit pattern, or its error's type and message."""
    try:
        return laplace_fpt(FptQuery(q, x, y, state), model).hex()
    except (KacOuError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _cold_bits(model, q, x, y, state):
    fp._target_side.cache_clear()
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
    fp._target_side.cache_clear()
    warm = [_bits(model, q, x, y, state) for x, y, state in queries]
    assert warm == [_cold_bits(model, q, x, y, state) for x, y, state in queries]


SIGNED_ZERO_CASES = [
    "attracting target", "attracting level",
    "attraction-repulsion target", "attraction-repulsion level",
    "non-strict target", "non-strict level",
]


def _signed_zero_case(case, zero):
    """(model parameters, target, starts, refused (start, target) pairs) with
    the target or a drift level the signed zero `zero`."""
    return {
        "attracting target": ((1.0, 1.0, -0.5, 0.5, 0.0, 0.0, 1.0, 1.0), zero, (-0.3, 0.3), ((-2.0, zero), (2.0, zero))),
        "attracting level": ((1.0, 1.0, zero, 1.0, 0.0, 0.0, 1.0, 1.0), 0.5, (0.0, 0.2, 0.8), ((-1.0, -0.5), (2.0, 1.5))),
        "attraction-repulsion target": (AR_CANONICAL, zero, (-0.5, 0.1, 0.5), ((2.0, zero),)),
        "attraction-repulsion level": (
            (0.3, 1.0, zero, -1.0, 0.0, 0.0, 1.0, -1.0), -0.3, (-0.9, -0.1, 0.0, 0.5), ((-0.2, 0.5), (2.0, 1.5))
        ),
        "non-strict target": ((1.0, 1.0, -0.5, 1.0, 0.0, 0.0, 1.0, 0.0), zero, (-1.0, -0.3), ((0.5, zero), (2.0, zero))),
        "non-strict level": ((1.0, 1.0, zero, 1.0, 0.0, 0.0, 1.0, 0.0), 0.5, (-0.5, 0.0, 0.2), ((-2.0, -1.5), (-1.0, -0.5))),
    }[case]


@pytest.mark.parametrize("case", SIGNED_ZERO_CASES)
@pytest.mark.parametrize("first", [0.0, -0.0])
@pytest.mark.parametrize("scale", [1.0, -1.0])
def test_target_memo_keys_ignore_the_sign_of_zero(case, first, scale):
    # 0.0 == -0.0, so both signs share a memo entry: that is exact only if
    # no target side depends on the sign, and a refusal quotes the same
    # bounds whichever sign filled the entry
    def queries(zero):
        params, y, starts, refused = _signed_zero_case(case, zero)
        model = rescale(KacOuModel.from_values(*params), scale)
        pairs = [(x, y) for x in starts] + list(refused)
        return [(model, 2.0, x / scale, y / scale, state) for x, y in pairs for state in (0, 1)]

    signs = (first, -first)
    # lists, not a dict: 0.0 and -0.0 are one key
    cold = [[_cold_bits(*args) for args in queries(zero)] for zero in signs]
    in_domain = 2 * len(_signed_zero_case(case, first)[2])
    assert all(isinstance(bits, str) for bits in cold[0][:in_domain])  # every start is in its domain
    assert all(isinstance(bits, tuple) for bits in cold[0][in_domain:])  # every refused pair is refused
    fp._target_side.cache_clear()
    for zero, expected in zip(signs, cold):
        assert [_bits(*args) for args in queries(zero)] == expected


def test_target_memo_is_bounded():
    fp._target_side.cache_clear()
    n = 3 * fp._TARGET_MEMO_SIZE
    for k in range(n):
        laplace_fpt(FptQuery(1.0, 0.1, 0.2 + 0.5 * k / n, k % 2), ATTRACTING)
        assert fp._target_side.cache_info().currsize <= fp._TARGET_MEMO_SIZE
    assert fp._target_side.cache_info().currsize == fp._TARGET_MEMO_SIZE


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
    fp._target_side.cache_clear()
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
    fp._target_side.cache_clear()
    counts = []
    for x in starts:
        for state in (0, 1):
            before = len(gauss) + len(kummer)
            laplace_fpt(FptQuery(1.0, x, y, state), model)
            counts.append(len(gauss) + len(kummer) - before)
    # one start-side series a query, and the target's once; below an
    # attraction-repulsion target that is G at x or H at x, and G at y
    assert counts == [2] + [1] * (len(counts) - 1)
