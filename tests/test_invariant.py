import math

import numpy as np
import pytest

from kacou import invariant as inv
from kacou import quadrature
from kacou.errors import NoInvariantMeasureError, ParameterError
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
    assert invariant_description(REPULSION).kind == "None"


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

HALF_LINE = [(name, model) for name, model, _ in ALL_EXISTING if not inv._require(model).bounded]


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
    inv._histogram_range(inv._require(model))
    empirical_invariant_profile(model, 100, 1.0, 4, seed=3)
    assert [rel_tol for rel_tol, _, _ in calls] == [1e-9, 1e-3, 1e-3, 0.0]
    # rel_tol = 0 bisects until the ends are adjacent doubles, then stopped
    # spending midpoints that rounded to an end
    _, new, old = calls[-1]
    assert new < old


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
    cf = inv._require(model)
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
