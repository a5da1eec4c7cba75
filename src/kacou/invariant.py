"""Invariant measures of the pair (position, chain state): existence test,
closed-form densities with analytic derivatives, stationarity residuals,
normalization checks, and a simulation-based histogram distance.

Each regime admitting a stationary law gets one closed form, written for an
arbitrary orientation (the attracting level may sit on either side), so no
coordinate transforms are needed at evaluation time:

* both reversion rates positive: beta-like density on the interval between
  the two levels;
* one attracting, one repelling rate: power-tailed (Pareto-like) density on
  the half-line beyond the attracting level, existing only when the two
  rate ratios sum negative;
* one rate zero with nonzero drift, the other attracting: gamma-like
  density on the half-line in the drift direction.

Mass and bin integrals evaluate the densities from exact distances to the
support endpoints (see :mod:`kacou.quadrature`), which keeps the integrable
endpoint singularities at full double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoInvariantMeasureError, ParameterError
from .model import KacOuModel, RegimeTag, classify_regime, stationary_state_dist
from .quadrature import integrate_de_offsets, integrate_half_line_offsets
from .simulate import terminal_values
from .specfun import beta_fn, log_gamma

__all__ = [
    "InvariantDensity",
    "invariant_exists",
    "invariant_description",
    "invariant_density",
    "invariant_density_with_derivative",
    "stationarity_residual",
    "invariant_mass",
    "EmpiricalFit",
    "empirical_invariant_profile",
    "support_cutoff",
]


@dataclass(frozen=True)
class InvariantDensity:
    """Closed-form descriptor: support, per-state endpoint exponents and
    multiplicative constants, and the qualitative family tag."""

    kind: str  # "BetaLike" | "ParetoLike" | "GammaLike" | "None"
    support: tuple[float, float] | None
    exponents: tuple[tuple[float, float], tuple[float, float]] | None
    constants: tuple[float, float] | None


@dataclass(frozen=True)
class _ClosedForm:
    """One family in an offset frame.  u = direction * (x - anchor) is the
    distance into the support from its finite end; v = far_sign * (x - far)
    is the distance from a second level: the closing end of a bounded
    support, or the repelling level behind a Pareto-like anchor (unused by
    GammaLike).  State i has density c_i u^p_i v^s_i, or c_i u^p_i e^(-s_i u)
    for GammaLike, with (p_i, s_i) and c_i from the public descriptor."""

    desc: InvariantDensity
    anchor: float
    direction: float  # +1: support extends above the anchor
    far: float
    far_sign: float  # dv/dx
    scale: float  # characteristic width for the half-line rational map

    @property
    def bounded(self) -> bool:
        return self.far_sign != self.direction

    def density(self, u, v, state: int | None = None):
        """One state's density, or the mixture for None, at offsets (u, v)."""
        if state is None:
            return self.density(u, v, 0) + self.density(u, v, 1)
        c = self.desc.constants[state]
        p, s = self.desc.exponents[state]
        if self.desc.kind == "GammaLike":
            return c * u**p * np.exp(-s * u)
        return c * u**p * v**s

    def anchored(self, u, state: int | None = None):
        """Density at distance u from the anchor (half-line kinds)."""
        return self.density(u, self.far_sign * (self.anchor - self.far) + u, state)

    def _log_slope(self, u, v, state: int):
        p, s = self.desc.exponents[state]
        if self.desc.kind == "GammaLike":
            return self.direction * p / u - self.direction * s
        return self.direction * p / u + self.far_sign * s / v

    def evaluate(self, x):
        """(pi0, pi1, dpi0/dx, dpi1/dx) at x, zero outside the support."""
        x = np.asarray(x, dtype=float)
        u = self.direction * (x - self.anchor)
        v = self.far_sign * (x - self.far)
        inside = (u > 0.0) & (v > 0.0)
        # lanes outside the support are evaluated at (1, 1) and discarded
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            us = np.where(inside, u, 1.0)
            vs = np.where(inside, v, 1.0)
            p = [np.where(inside, self.density(us, vs, i), 0.0) for i in (0, 1)]
            d = [np.where(inside, p[i] * self._log_slope(us, vs, i), 0.0) for i in (0, 1)]
        return p[0], p[1], d[0], d[1]


def _by_state(state: int, mine, other):
    """(value of state 0, value of state 1) from `state`'s value and the other's."""
    return (mine, other) if state == 0 else (other, mine)


def _closed_form(model: KacOuModel) -> _ClosedForm | None:
    """The regime's closed form, or None when no invariant density exists."""
    regime = classify_regime(model)
    tag = regime.tag
    lam = model.lam_vec
    g = model.gamma_vec

    if tag is RegimeTag.ATTRACTING_STRICT:
        lo_state = 0 if model.coeffs[0].rho <= model.coeffs[1].rho else 1
        hi_state = 1 - lo_state
        rho_lo, rho_hi = model.coeffs[lo_state].rho, model.coeffs[hi_state].rho
        a_lo = lam[lo_state] / g[lo_state]
        a_hi = lam[hi_state] / g[hi_state]
        width = rho_hi - rho_lo
        c = 1.0 / (
            width ** (a_lo + a_hi)
            * (beta_fn(a_lo, a_hi + 1.0) / g[lo_state] + beta_fn(a_lo + 1.0, a_hi) / g[hi_state])
        )
        exps = _by_state(lo_state, (a_lo - 1.0, a_hi), (a_lo, a_hi - 1.0))
        consts = _by_state(lo_state, c / g[lo_state], c / g[hi_state])
        desc = InvariantDensity("BetaLike", (rho_lo, rho_hi), exps, consts)
        return _ClosedForm(desc, rho_lo, 1.0, rho_hi, -1.0, width)

    if tag in (RegimeTag.ATTRACTION_REPULSION_01, RegimeTag.ATTRACTION_REPULSION_10):
        if lam[0] / g[0] + lam[1] / g[1] >= 0.0:
            return None
        s_a = 0 if g[0] > 0.0 else 1
        s_r = 1 - s_a
        rho_a = model.coeffs[s_a].rho
        rho_r = model.coeffs[s_r].rho
        a_a = lam[s_a] / g[s_a]
        a_r = lam[s_r] / g[s_r]
        width = abs(rho_r - rho_a)
        sgn = -1.0 if rho_a < rho_r else 1.0  # support direction away from the repeller
        c = 1.0 / (
            width ** (a_a + a_r)
            * (
                beta_fn(-a_a - a_r, a_a) / g[s_a]
                - beta_fn(-a_a - a_r, 1.0 + a_a) / g[s_r]
            )
        )
        exps = _by_state(s_a, (a_a - 1.0, a_r), (a_a, a_r - 1.0))
        consts = _by_state(s_a, c / g[s_a], c / abs(g[s_r]))
        support = (-math.inf, rho_a) if sgn < 0.0 else (rho_a, math.inf)
        desc = InvariantDensity("ParetoLike", support, exps, consts)
        return _ClosedForm(desc, rho_a, sgn, rho_r, sgn, width)

    if tag is not RegimeTag.NON_STRICT_ATTRACTING:
        # repulsion-only, null non-strict, degenerate levels, and the unnamed
        # zero-gamma corners: no invariant probability density
        return None
    zero = regime.zero_state
    other = 1 - zero
    az = model.coeffs[zero].a
    rho = model.coeffs[other].rho
    alpha = lam[other] / g[other]
    k = lam[zero] / abs(az)
    sgn = 1.0 if az > 0.0 else -1.0
    log_c = alpha * math.log(k) + math.log(lam[zero] / (lam[zero] + lam[other])) - log_gamma(alpha)
    c = math.exp(log_c)
    exps = _by_state(other, (alpha - 1.0, k), (alpha, k))
    consts = _by_state(other, c, g[other] / abs(az) * c)
    support = (rho, math.inf) if sgn > 0.0 else (-math.inf, rho)
    desc = InvariantDensity("GammaLike", support, exps, consts)
    return _ClosedForm(desc, rho, sgn, rho, sgn, 1.0 / k)


def _require(model: KacOuModel) -> _ClosedForm:
    cf = _closed_form(model)
    if cf is None:
        raise NoInvariantMeasureError(
            f"no invariant density in regime {classify_regime(model).tag.value}"
        )
    return cf


def invariant_exists(model: KacOuModel) -> tuple[bool, tuple[float, float] | None]:
    """Whether an invariant probability density exists, and its support."""
    cf = _closed_form(model)
    return (False, None) if cf is None else (True, cf.desc.support)


def invariant_description(model: KacOuModel) -> InvariantDensity:
    cf = _closed_form(model)
    return InvariantDensity("None", None, None, None) if cf is None else cf.desc


def invariant_density(x, state: int, model: KacOuModel):
    """Closed-form stationary density of (X, state) at x (0 outside support)."""
    if state not in (0, 1):
        raise ParameterError(f"state must be 0 or 1, got {state}")
    p0, p1, _, _ = _require(model).evaluate(x)
    out = p0 if state == 0 else p1
    return out if np.ndim(x) else float(out)


def invariant_density_with_derivative(x, model: KacOuModel):
    """(pi0, pi1, dpi0/dx, dpi1/dx) with analytic derivatives."""
    return _require(model).evaluate(x)


def stationarity_residual(x, model: KacOuModel):
    """Relative residuals of the adjoint-generator ODE system at interior x.

    The closed forms and their product-rule derivatives make both equations
    vanish up to roundoff.
    """
    p0, p1, d0, d1 = invariant_density_with_derivative(x, model)
    x = np.asarray(x, dtype=float)
    a0, a1 = model.coeffs[0].a, model.coeffs[1].a
    g0, g1 = model.coeffs[0].gamma, model.coeffs[1].gamma
    l0, l1 = model.rates.lambda0, model.rates.lambda1

    t11 = (g0 * x - a0) * d0
    t12 = (l0 - g0) * p0
    t13 = l1 * p1
    r1 = t11 - t12 + t13
    s1 = np.maximum(np.maximum(np.abs(t11), np.abs(t12)), np.maximum(np.abs(t13), 1e-300))

    t21 = (g1 * x - a1) * d1
    t22 = l0 * p0
    t23 = (l1 - g1) * p1
    r2 = t21 + t22 - t23
    s2 = np.maximum(np.maximum(np.abs(t21), np.abs(t22)), np.maximum(np.abs(t23), 1e-300))

    rel1, rel2 = r1 / s1, r2 / s2
    if np.ndim(x):
        return rel1, rel2
    return float(rel1), float(rel2)


def invariant_mass(model: KacOuModel, tol: float = 1e-11) -> float:
    """Quadrature check of the total mass of pi0 + pi1 (should be 1).

    Bounded supports integrate directly; half-lines go through the rational
    map, so power tails lose no mass to truncation.
    """
    cf = _require(model)
    if cf.bounded:
        return integrate_de_offsets(cf.density, cf.anchor, cf.far, tol=tol)
    return integrate_half_line_offsets(cf.anchored, scale=cf.scale, tol=tol)


def _tail_mass(cf: _ClosedForm, dist: float) -> float:
    """Mass beyond distance `dist` from the finite anchor (half-line kinds)."""
    return integrate_half_line_offsets(lambda d: cf.anchored(dist + d), scale=cf.scale, tol=1e-9)


def _search_edge(inside, inner: float, outer: float, cap: float, rel_tol: float, max_iter: int):
    """Bracket the distance where `inside` turns false: double `outer`
    while it is still inside and below `cap`, then bisect [inner, outer]
    until it is `rel_tol` * outer wide, no double lies strictly inside it
    (the midpoint rounds to an end, so bisection can only repeat that end's
    verdict) or `max_iter` midpoints are spent."""
    while outer < cap and inside(outer):
        inner, outer = outer, 2.0 * outer
    for _ in range(max_iter):
        mid = 0.5 * (inner + outer)
        if mid == inner or mid == outer:
            break
        if inside(mid):
            inner = mid
        else:
            outer = mid
        if outer - inner <= rel_tol * outer:
            break
    return inner, outer


def support_cutoff(model: KacOuModel, floor: float = 1e-16) -> tuple[float, float]:
    """Finite interval outside which the mixture density is below `floor`.

    For half-line supports the cutoff follows the density envelope by
    doubling-and-bisection; for bounded supports it is the support itself.
    """
    cf = _require(model)
    lo, hi = cf.desc.support
    if cf.bounded:
        return lo, hi

    def inside(d):
        return float(cf.anchored(np.asarray([d]))[0]) >= floor

    # the density may start below the floor at the anchor: step out to it first
    start, cap = 1e-6 * cf.scale, 1e15 * cf.scale
    step = start
    while step < cap and not inside(step):
        step *= 2.0
    _, outer = _search_edge(inside, step if step < cap else start, step, cap, 1e-9, 200)
    far = cf.anchor + cf.direction * outer
    return (lo, far) if math.isfinite(lo) else (far, hi)


def _histogram_range(cf: _ClosedForm, tail_mass: float = 5e-4) -> tuple[float, float]:
    """Finite binning window; on half-line supports it leaves `tail_mass`
    outside (that mass is charged to the L1 distance explicitly)."""
    lo, hi = cf.desc.support
    if cf.bounded:
        return lo, hi

    def inside(d):
        return _tail_mass(cf, d) > tail_mass

    start = 1e-3 * cf.scale
    _, outer = _search_edge(inside, start, start, 1e15 * cf.scale, 1e-3, 60)
    far = cf.anchor + cf.direction * outer
    return (lo, far) if math.isfinite(lo) else (far, hi)


def _bin_masses(cf: _ClosedForm, edges: np.ndarray, state: int | None = None) -> np.ndarray:
    """Expected mass per bin (mixture, or one state's density), endpoint
    singularities included."""
    out = np.empty(edges.size - 1)
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        if cf.bounded:
            base_u = max(a - cf.anchor, 0.0)
            base_v = max(cf.far - b, 0.0)
            f2 = lambda dl, dh: cf.density(base_u + dl, base_v + dh, state)
        elif cf.direction > 0:
            base = max(a - cf.anchor, 0.0)
            f2 = lambda dl, dh: cf.anchored(base + dl, state)
        else:
            base = max(cf.anchor - b, 0.0)
            f2 = lambda dl, dh: cf.anchored(base + dh, state)
        out[i] = integrate_de_offsets(f2, a, b, tol=1e-11)
    return out


@dataclass(frozen=True)
class EmpiricalFit:
    pooled: float
    per_state: tuple[float, float] | None  # populated for n_paths >= 1e5


def _l1_against(cf, values, edges, n_paths, expected_total, state=None):
    counts, _ = np.histogram(values, bins=edges)
    outside = values.size - int(np.sum(counts))
    observed = counts / n_paths
    expected = _bin_masses(cf, edges, state=state)
    tail = max(0.0, expected_total - float(np.sum(expected)))
    return float(np.sum(np.abs(observed - expected)) + outside / n_paths + tail)


def empirical_invariant_profile(
    model: KacOuModel,
    n_paths: int,
    t_horizon: float,
    bins: int,
    seed: int,
) -> EmpiricalFit:
    """L1 distances between terminal histograms of simulated paths and the
    closed-form densities integrated bin by bin.

    The pooled comparison always runs; per-state comparisons are added when
    n_paths >= 1e5 (per-state counts halve the sample).  Paths start at the
    median of the invariant mixture with the chain stationary, so t_horizon
    only needs to wash out the spatial transient.  Mass outside the binning
    window (possible for half-line supports) counts toward the distance.
    """
    if bins < 2 or n_paths < 100:
        raise ParameterError("need bins >= 2 and n_paths >= 100")
    cf = _require(model)

    lo, hi = _histogram_range(cf)
    if cf.bounded:
        x0 = 0.5 * (lo + hi)
    else:
        # median distance from the anchor by bisection on the tail mass
        def above_median(d):
            return _tail_mass(cf, d) > 0.5

        d_hi = abs(hi - lo)
        d_lo, d_hi = _search_edge(above_median, 1e-6 * cf.scale, d_hi, d_hi, 0.0, 80)
        x0 = cf.anchor + cf.direction * 0.5 * (d_lo + d_hi)
    sample = terminal_values(
        model, x0, t_horizon, n_paths, seed, with_noise=False,
        initial_state="stationary", purpose="invariant",
    )
    edges = np.linspace(lo, hi, bins + 1)
    pooled = _l1_against(cf, sample.values, edges, n_paths, expected_total=1.0)

    per_state = None
    if n_paths >= 100_000:
        pi = stationary_state_dist(model.rates)
        dists = []
        for state in (0, 1):
            mask = sample.states == state
            dists.append(
                _l1_against(
                    cf, sample.values[mask], edges, n_paths, expected_total=pi[state], state=state
                )
            )
        per_state = (dists[0], dists[1])
    return EmpiricalFit(pooled, per_state)
