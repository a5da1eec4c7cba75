import math
import re

import numpy as np
import pytest

from kacou import invariant as inv
from kacou import quadrature
from kacou.errors import DoubleRangeError, NoInvariantMeasureError, ParameterError
from kacou.invariant import (
    empirical_invariant_profile,
    invariant_density,
    invariant_density_with_derivative,
    invariant_description,
    invariant_exists,
    invariant_mass,
    stationarity_residual,
    support_cutoff,
)
from kacou.model import KacOuModel, stationary_state_dist

ATTRACTING = KacOuModel.from_values(1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0)
ATTRACTING_GEN = KacOuModel.from_values(1.2, 0.7, 0.0, 2.0, 0.0, 0.0, 1.0, 2.0)
ATTRACT_REPEL = KacOuModel.from_values(0.3, 1.0, 0.0, -1.0, 0.0, 0.0, 1.0, -1.0)
ATTRACT_REPEL_10 = KacOuModel.from_values(1.0, 0.3, 1.0, 0.0, 0.0, 0.0, -1.0, 1.0)
ATTRACT_REPEL_UP = KacOuModel.from_values(0.3, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, -1.0)
NON_STRICT = KacOuModel.from_values(1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0)
NON_STRICT_NEG = KacOuModel.from_values(1.0, 2.0, 3.0, -1.5, 0.0, 0.0, 2.0, 0.0)
REPULSION = KacOuModel.from_values(1.0, 1.0, 1.0, 4.0, 0.0, 0.0, -1.0, -2.0)
NULL_NS = KacOuModel.from_values(1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)


# --- existence ----------------------------------------------------------------


def test_existence_table():
    assert invariant_exists(ATTRACTING) == (True, (0.0, 1.0))
    ok, supp = invariant_exists(ATTRACT_REPEL)
    assert ok and supp == (-math.inf, 0.0)
    ok, supp = invariant_exists(ATTRACT_REPEL_10)
    assert ok and supp == (0.0, math.inf)
    ok, supp = invariant_exists(ATTRACT_REPEL_UP)
    assert ok and supp == (0.0, math.inf)
    ok, supp = invariant_exists(NON_STRICT)
    assert ok and supp == (0.0, math.inf)
    ok, supp = invariant_exists(NON_STRICT_NEG)
    assert ok and supp == (-math.inf, 1.5)
    assert invariant_exists(REPULSION) == (False, None)
    assert invariant_exists(NULL_NS) == (False, None)


def test_existence_requires_negative_alpha_sum():
    # alpha0 + alpha1 = 2 - 1 > 0: no invariant measure
    m = KacOuModel.from_values(2.0, 1.0, 0.0, -1.0, 0.0, 0.0, 1.0, -1.0)
    assert invariant_exists(m) == (False, None)
    with pytest.raises(NoInvariantMeasureError):
        invariant_density(0.0, 0, m)


def test_existence_boundary_sweep():
    for lam0 in np.linspace(0.5, 1.5, 11):
        m = KacOuModel.from_values(lam0, 1.0, 0.0, -1.0, 0.0, 0.0, 1.0, -1.0)
        assert invariant_exists(m)[0] == (lam0 < 1.0)


# --- closed forms --------------------------------------------------------------


def test_linear_density_example():
    xs = np.linspace(0.01, 0.99, 50)
    assert np.max(np.abs(invariant_density(xs, 0, ATTRACTING) - (1.0 - xs))) < 1e-12
    assert np.max(np.abs(invariant_density(xs, 1, ATTRACTING) - xs)) < 1e-12


def test_uniform_mixture_for_matched_rates():
    # equal reversion rates with lambda_i = gamma make both densities linear
    # and the mixture uniform on the support
    m = KacOuModel.from_values(3.0, 3.0, 0.0, 3.0, 0.0, 0.0, 3.0, 3.0)  # rho = (0, 1)
    xs = np.linspace(0.05, 0.95, 20)
    mix = invariant_density(xs, 0, m) + invariant_density(xs, 1, m)
    assert np.max(np.abs(mix - 1.0)) < 1e-12


def test_non_strict_constant_matches_paper_value():
    # alpha = 1, k = lambda1: C = lambda1^(1+alpha) / ((lambda0+lambda1) Gamma(alpha))
    desc = invariant_description(NON_STRICT)
    assert desc.kind == "GammaLike"
    assert desc.constants[0] == pytest.approx(0.5, rel=1e-12)
    # pi0(x) = e^-x / 2, pi1(x) = x e^-x / 2
    assert invariant_density(1.0, 0, NON_STRICT) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)
    assert invariant_density(1.0, 1, NON_STRICT) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)


def test_density_vanishes_outside_support():
    assert invariant_density(1.5, 0, ATTRACTING) == 0.0
    assert invariant_density(0.5, 1, ATTRACT_REPEL) == 0.0
    assert invariant_density(-0.1, 0, NON_STRICT) == 0.0


@pytest.mark.parametrize("state", [2, -1])
def test_density_takes_only_chain_states(state):
    # any state but 0 used to return pi1
    with pytest.raises(ParameterError, match="state must be 0 or 1"):
        invariant_density(0.5, state, ATTRACTING)


def test_nonexistent_description_kind():
    # a regime without a density has no descriptor: invariant_description
    # raises, and invariant_exists answers by catching it
    with pytest.raises(NoInvariantMeasureError, match="no invariant density in regime RepulsionOnly"):
        invariant_description(REPULSION)


@pytest.mark.parametrize(
    "values, part",
    [
        # lambda1 / gamma1 and the level 1 / gamma1 overflow: this wrote nan rows
        ((1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 5e-324), "level a1 / gamma1"),
        # an infinite anchor rho0 = a0 / gamma0: this wrote nan rows
        ((1.0, 1.0, -1e300, 1.0, 0.0, 0.0, 1e-300, 1.0), "level a0 / gamma0"),
        # an exponent past double range between finite levels
        ((1.0, 1e300, 0.0, 1e-100, 0.0, 0.0, 1.0, 1e-100), "exponent lambda1 / gamma1"),
        # a repelling state's exponent, in a density that exists
        ((1.0, 1.0, 1.0, -1e-300, 0.0, 0.0, 1.0, -5e-324), "exponent lambda1 / gamma1"),
        # a gamma-like density's exponential rate
        ((1.0, 1.0, 5e-324, 1.0, 0.0, 0.0, 0.0, 1.0), "exponent lambda0 / |a0|"),
        # finite levels whose gap overflows: this wrote nan rows
        ((1.0, 1.0, -1e308, 1e308, 0.0, 0.0, 1.0, 1.0), "gap between the levels"),
        # the same gap between an attracting and a repelling level
        ((0.3, 1.0, -1e308, -1e308, 0.0, 0.0, 1.0, -1.0), "gap between the levels"),
        # exponents of a nonzero rate that underflow to 0: a math domain
        # error in log(k), and a beta_fn refusal that named no input
        ((1e-300, 1e-300, 1e300, 1.0, 0.0, 0.0, 0.0, 1.0), "exponent lambda0 / |a0|"),
        ((1e-300, 1e-300, 1e-300, 1.0, 0.0, 0.0, 1e300, 1.0), "exponent lambda0 / gamma0"),
        # a gamma-like constant exp(log c) past double range: an OverflowError
        ((1e-300, 1e300, 1e-300, 1.0, 0.0, 0.0, 5e-324, 0.0), "constant exp("),
        # constants past double range from finite exponents and levels: a gap
        # of 1e-300 to the power 2, or 1e300 to the power 1 - 1e300, gave inf
        # and 1e30 to the power 1 + 1e30 gave 0, each with a RuntimeWarning
        ((1.0, 1.0, 0.0, 1e-300, 0.0, 0.0, 1.0, 1.0), "constant of state 0 is inf"),
        ((1.0, 1.0, 0.0, -1e-300, 0.0, 0.0, 1.0, 1.0), "constant of state 0 is inf"),
        ((1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, -1e-300), "constant of state 0 is inf"),
        ((1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1e-30), "constant of state 0 is 0.0"),
        # a gamma-like constant gamma1 / |a0| exp(log c) past double range
        ((1.0, 1.0, 1e-300, 1.0, 0.0, 0.0, 0.0, 1e300), "constant of state 0 is inf"),
    ],
)
def test_descriptor_past_double_range_raises(values, part):
    model = KacOuModel.from_values(*values)
    for query in (invariant_exists, invariant_description):
        with pytest.raises(DoubleRangeError, match=re.escape(part)):
            query(model)


def test_general_drift_scaling_consistency():
    # pi for general a1 equals the unit-drift density mapped through x -> x/a1
    a1 = -1.5
    unit = KacOuModel.from_values(1.0, 2.0, 3.0 / a1, 1.0, 0.0, 0.0, 2.0, 0.0)
    xs = np.linspace(-3.0, 1.4, 15)
    for state in (0, 1):
        got = invariant_density(xs, state, NON_STRICT_NEG)
        ref = invariant_density(xs / a1, state, unit) / abs(a1)
        assert np.allclose(got, ref, rtol=1e-12)


# --- residuals, flux, mass ------------------------------------------------------


ALL_EXISTING = [
    ("attracting", ATTRACTING, np.linspace(0.02, 0.98, 100)),
    ("attracting-general", ATTRACTING_GEN, np.linspace(0.02, 0.98, 100)),
    ("ar01", ATTRACT_REPEL, np.linspace(-4.0, -0.02, 100)),
    ("ar10", ATTRACT_REPEL_10, np.linspace(0.02, 4.0, 100)),
    ("ar-up", ATTRACT_REPEL_UP, np.linspace(0.02, 4.0, 100)),
    ("non-strict", NON_STRICT, np.linspace(0.02, 6.0, 100)),
    ("non-strict-neg", NON_STRICT_NEG, np.linspace(-4.0, 1.48, 100)),
]


@pytest.mark.parametrize("name, model, xs", ALL_EXISTING)
def test_stationarity_residuals(name, model, xs):
    mix = invariant_density(xs, 0, model) + invariant_density(xs, 1, model)
    assert np.min(mix) > 0.0  # the grid actually probes the support
    r0, r1 = stationarity_residual(xs, model)
    assert float(np.max(np.abs(r0))) <= 1e-10
    assert float(np.max(np.abs(r1))) <= 1e-10


@pytest.mark.parametrize("name, model, xs", ALL_EXISTING)
def test_densities_nonnegative(name, model, xs):
    grid = np.linspace(xs[0], xs[-1], 1000)
    assert np.all(invariant_density(grid, 0, model) >= 0.0)
    assert np.all(invariant_density(grid, 1, model) >= 0.0)


@pytest.mark.parametrize("name, model, xs", ALL_EXISTING)
def test_mass_normalization(name, model, xs):
    assert abs(invariant_mass(model) - 1.0) <= 1e-8


@pytest.mark.parametrize("name, model, xs", ALL_EXISTING)
def test_description_is_the_descriptor_the_densities_evaluate(name, model, xs):
    desc = invariant_description(model)
    grid = np.linspace(xs[0] - 1.0, xs[-1] + 1.0, 201)  # lanes outside the support too
    for got, ref in zip(desc.evaluate(grid), invariant_density_with_derivative(grid, model)):
        assert got.tobytes() == ref.tobytes()
    assert desc.support == invariant_exists(model)[1]
    assert desc.bounded == (desc.kind == "BetaLike")


def test_mass_against_scipy_quadrature():
    from scipy.integrate import quad

    # independent route: adaptive quadrature with declared endpoint powers
    desc = invariant_description(ATTRACTING_GEN)
    total = 0.0
    for state in (0, 1):
        val, _ = quad(
            lambda x, s=state: invariant_density(x, s, ATTRACTING_GEN),
            0.0,
            1.0,
            points=[0.0, 1.0],
            limit=200,
        )
        total += val
    assert total == pytest.approx(1.0, abs=1e-8)
    assert desc.kind == "BetaLike"


def test_state_marginals_match_chain_stationary_dist():
    # integrating each state's density recovers the chain's stationary law;
    # scipy's adaptive quadrature takes half-lines out to +-inf
    from scipy.integrate import quad

    for name, model, _ in ALL_EXISTING:
        lo, hi = invariant_exists(model)[1]
        points = [lo, hi] if math.isfinite(lo) and math.isfinite(hi) else None
        pi = stationary_state_dist(model.rates)
        for state in (0, 1):
            mass, _ = quad(
                lambda x, s=state: invariant_density(x, s, model), lo, hi, points=points, limit=200
            )
            assert mass == pytest.approx(pi[state], abs=1e-8), (name, state)


@pytest.mark.parametrize("name, model, xs", ALL_EXISTING)
def test_derivatives_match_central_differences(name, model, xs):
    h = 1e-6
    _, _, d0, d1 = invariant_density_with_derivative(xs, model)
    for state, analytic in ((0, d0), (1, d1)):
        upper = invariant_density(xs + h, state, model)
        lower = invariant_density(xs - h, state, model)
        numeric = (upper - lower) / (2.0 * h)
        assert np.max(np.abs(numeric - analytic) / np.abs(analytic)) <= 1e-6


def test_boundary_flux_vanishes():
    # |a_i - gamma_i x| pi_i(x) decays monotonically into each support edge
    for model, edge, sign in [
        (ATTRACTING_GEN, 0.0, +1.0),
        (ATTRACTING_GEN, 1.0, -1.0),
        (ATTRACT_REPEL, 0.0, -1.0),
    ]:
        for state in (0, 1):
            a, g = model.coeffs[state].a, model.coeffs[state].gamma
            flux = [
                abs((a - g * (edge + sign * eps)) * invariant_density(edge + sign * eps, state, model))
                for eps in (1e-2, 1e-4, 1e-6)
            ]
            assert flux[0] > flux[1] > flux[2]
            assert flux[2] < 0.1 * max(flux[0], 1e-12)


def test_support_cutoff_brackets_density():
    lo, hi = support_cutoff(NON_STRICT)
    assert lo == 0.0 and 20.0 < hi < 80.0
    mix = invariant_density(hi * 1.01, 0, NON_STRICT) + invariant_density(hi * 1.01, 1, NON_STRICT)
    assert mix < 1e-15


# --- empirical validation --------------------------------------------------------


def test_empirical_distance_small_for_linear_example():
    d = empirical_invariant_profile(ATTRACTING, 100_000, 20.0, 50, seed=2026).pooled
    assert d < 0.02


def test_empirical_distance_improves_with_samples():
    d_small = empirical_invariant_profile(ATTRACTING, 2_000, 20.0, 50, seed=7).pooled
    d_large = empirical_invariant_profile(ATTRACTING, 20_000, 20.0, 50, seed=7).pooled
    assert d_large <= d_small + 0.01


def test_empirical_distance_half_line_support():
    d = empirical_invariant_profile(NON_STRICT, 50_000, 25.0, 50, seed=11).pooled
    assert d < 0.04


def test_empirical_per_state_profile():
    fit = empirical_invariant_profile(ATTRACTING, 100_000, 20.0, 50, seed=2026)
    assert fit.per_state is not None
    assert fit.per_state[0] < 0.02 and fit.per_state[1] < 0.02
    small = empirical_invariant_profile(ATTRACTING, 5_000, 20.0, 50, seed=2026)
    assert small.per_state is None  # per-state counts would halve the sample


def test_empirical_distance_requires_measure():
    with pytest.raises(NoInvariantMeasureError):
        empirical_invariant_profile(REPULSION, 1_000, 5.0, 20, seed=0)


def test_empirical_profile_mirrored_half_line():
    fit = empirical_invariant_profile(ATTRACT_REPEL_10, 100_000, 30.0, 50, seed=31)
    assert fit.pooled < 0.02
    assert fit.per_state is not None and max(fit.per_state) < 0.02


# --- the edge search and the quadrature's node tables ------------------------------

HALF_LINE = [(name, model) for name, model, _ in ALL_EXISTING if not inv.invariant_description(model).bounded]


def reference_search_edge(inside, inner, outer, cap, rel_tol, max_iter):
    """_search_edge before it stopped at a bracket of adjacent doubles."""
    while outer < cap and inside(outer):
        inner, outer = outer, 2.0 * outer
    for _ in range(max_iter):
        mid = 0.5 * (inner + outer)
        if inside(mid):
            inner = mid
        else:
            outer = mid
        if outer - inner <= rel_tol * outer:
            break
    return inner, outer


@pytest.mark.parametrize("name, model", HALF_LINE)
def test_search_edge_stops_at_adjacent_doubles_with_the_same_bracket(name, model, monkeypatch):
    search = inv._search_edge
    calls = []

    def compared(inside, *args):
        new, old = [], []
        got = search(lambda d: new.append(d) or inside(d), *args)
        want = reference_search_edge(lambda d: old.append(d) or inside(d), *args)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        # the same points in the same order, only fewer
        assert new == old[: len(new)]
        calls.append((args[3], len(new), len(old)))
        return got

    monkeypatch.setattr(inv, "_search_edge", compared)
    support_cutoff(model)
    cf = inv.invariant_description(model)
    lo, hi = inv._histogram_range(cf)
    empirical_invariant_profile(model, 100, 1.0, 4, seed=3)
    # the profile's median search, at rel_tol = 0 as it once ran
    inv._search_edge(lambda d: inv._tail_mass(cf, d) > 0.5, 1e-6 * cf.scale, hi - lo, hi - lo, 0.0, 80)
    assert [rel_tol for rel_tol, _, _ in calls] == [1e-9, 1e-3, 1e-3, 1e-6, 0.0]
    # rel_tol = 0 bisects until the ends are adjacent doubles, then stopped
    # spending midpoints that rounded to an end
    _, new, old = calls[-1]
    assert new < old


def test_support_cutoff_steps_out_to_a_density_below_the_floor_at_the_anchor():
    # gamma-like with a state-0 exponent of 19: the density is 3.9e-133 at
    # the first probe, so the cutoff doubles its step until it passes 1e-16
    model = KacOuModel.from_values(20.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0)
    cf = invariant_description(model)
    assert float(cf.anchored(np.array([1e-6 * cf.scale]))[0]) < 1e-16
    lo, hi = support_cutoff(model)
    assert lo == cf.anchor

    def mixture(x):
        return invariant_density(x, 0, model) + invariant_density(x, 1, model)

    # 1.00000004e-16 and 9.99999915e-17
    assert mixture(hi * (1 - 1e-9)) >= 1e-16 > mixture(hi * (1 + 1e-9))


class _Started(Exception):
    pass


@pytest.mark.parametrize("name, model", HALF_LINE)
def test_the_profile_start_median_is_bisected_to_one_in_a_million(name, model, monkeypatch):
    # bisected to adjacent doubles, the median took 54 tail-mass quadratures
    # on the montecarlo workload's first half-line profile; each midpoint
    # halves the bracket, so 1e-6 relative needs log2(width / (1e-6 median))
    cf = inv.invariant_description(model)
    lo, hi = inv._histogram_range(cf)
    _, exact = reference_search_edge(lambda d: inv._tail_mass(cf, d) > 0.5, 1e-6 * cf.scale, hi - lo, hi - lo, 0.0, 80)
    quadratures, starts = [], []
    tail_mass = inv._tail_mass
    monkeypatch.setattr(inv, "_tail_mass", lambda *args: quadratures.append(args) or tail_mass(*args))

    def started(model, x0, *args, **kwargs):
        starts.append(x0)
        raise _Started

    monkeypatch.setattr(inv, "terminal_values", started)
    monkeypatch.setattr(inv, "_histogram_range", lambda cf: (lo, hi))
    with pytest.raises(_Started):
        empirical_invariant_profile(model, 100, 1.0, 4, seed=3)
    assert len(quadratures) <= math.ceil(math.log2((hi - lo) / (1e-6 * exact)))
    assert abs(abs(starts[0] - cf.anchor) - exact) <= 1e-6 * exact


def reference_level_nodes(h, only_odd):
    """quadrature._level_nodes before its tables were built once."""
    k = np.arange(1, int(quadrature._DE_TMAX / h) + 1)
    if only_odd:
        k = k[k % 2 == 1]
    t = k * h
    u = 0.5 * math.pi * np.sinh(t)
    e = np.exp(-2.0 * u)
    dist = 0.5 * 2.0 * e / (1.0 + e)
    w = 0.5 * math.pi * np.cosh(t) * 4.0 * e / (1.0 + e) ** 2
    keep = dist > 0.0
    return dist[keep], w[keep]


def _integrals(model):
    cf = inv.invariant_description(model)
    lo, hi = support_cutoff(model)
    edges = np.linspace(max(lo, -6.0), min(hi, 6.0), 7)
    out = [invariant_mass(model), *inv._bin_masses(cf, edges)]
    if not cf.bounded:
        out.append(inv._tail_mass(cf, 0.5 * cf.scale))
    return [float(v).hex() for v in out]


@pytest.mark.parametrize("name, model, xs", ALL_EXISTING)
def test_shared_node_tables_change_no_integral(name, model, xs, monkeypatch):
    shared = _integrals(model)
    monkeypatch.setattr(quadrature, "_level_nodes", reference_level_nodes)
    assert shared == _integrals(model)


def test_node_tables_are_read_only():
    for h, only_odd in ((1.0, False), (0.5, True), (2.0**-12, True)):
        dist, w = quadrature._level_nodes(h, only_odd)
        assert quadrature._level_nodes(h, only_odd)[0] is dist
        for table in (dist, w):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0
