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

`invariant_description` returns the one descriptor, :class:`InvariantDensity`,
that every density, derivative, mass, tail and bin integral is evaluated
from: support, exponents, constants, and the offset frame of its anchor,
far level and scale.

Mass and bin integrals evaluate the densities from exact distances to the
support endpoints (see :mod:`kacou.quadrature`), which keeps the integrable
endpoint singularities at full double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DoubleRangeError, NoInvariantMeasureError
from .model import KacOuModel, RegimeTag, _state, _whole, classify_regime, stationary_state_dist
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
    """Closed-form descriptor of one invariant family: its tag, support,
    per-state endpoint exponents and multiplicative constants, and the
    offset frame its densities are evaluated in; a regime without a density has none.

    u = direction * (x - anchor) is the distance into the support from its
    finite end; v = far_sign * (x - far) is the distance from a second
    level: the closing end of a bounded support, or the repelling level
    behind a Pareto-like anchor (unused by GammaLike).  State i has density
    c_i u^p_i v^s_i, or c_i u^p_i e^(-s_i u) for GammaLike, with
    (p_i, s_i) = exponents[i] and c_i = constants[i]."""

    kind: str  # "BetaLike" | "ParetoLike" | "GammaLike"
    support: tuple[float, float]
    exponents: tuple[tuple[float, float], tuple[float, float]]
    constants: tuple[float, float]
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
        c = self.constants[state]
        p, s = self.exponents[state]
        if self.kind == "GammaLike":
            return c * u**p * np.exp(-s * u)
        return c * u**p * v**s

    def anchored(self, u, state: int | None = None):
        """Density at distance u from the anchor (half-line kinds)."""
        return self.density(u, self.far_sign * (self.anchor - self.far) + u, state)

    def _log_slope(self, u, v, state: int):
        p, s = self.exponents[state]
        if self.kind == "GammaLike":
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


def _exponent(rate, speed, name: str) -> float:
    """An endpoint exponent rate / speed of an invariant density, which
    must be finite, and nonzero for a nonzero rate, for the density to have
    a descriptor."""
    with np.errstate(over="ignore"):
        value = rate / speed
    if not math.isfinite(value) or (value == 0.0 and rate != 0.0):
        raise DoubleRangeError(f"the invariant density's exponent {name} = {rate} / {speed} leaves double range")
    return value


def _level(model: KacOuModel, state: int) -> float:
    """State's level rho = a / gamma, an end of the invariant density's
    support, which must be finite for the density to have a descriptor."""
    rho = model.coeffs[state].rho
    if not math.isfinite(rho):
        c = model.coeffs[state]
        raise DoubleRangeError(f"the level a{state} / gamma{state} = {c.a} / {c.gamma} leaves double range")
    return rho


def invariant_description(model: KacOuModel) -> InvariantDensity:
    """The regime's closed form, from which every density, derivative and
    integral of the mean path's invariant measure is evaluated (b0 and b1
    are not read).  No invariant density: NoInvariantMeasureError.  A density
    whose exponents, support ends, width or constants leave double range has
    no finite descriptor: DoubleRangeError.

    Exponents and constants are laid out for the anchor state s first and
    swapped when s = 1."""
    regime = classify_regime(model)
    tag = regime.tag
    lam = model.lam_vec
    g = model.gamma_vec

    if tag is RegimeTag.NON_STRICT_ATTRACTING:
        zero = regime.zero_state
        s = 1 - zero
        az = model.coeffs[zero].a
        rho = _level(model, s)
        alpha = _exponent(lam[s], g[s], f"lambda{s} / gamma{s}")
        k = _exponent(lam[zero], abs(az), f"lambda{zero} / |a{zero}|")
        sgn = 1.0 if az > 0.0 else -1.0
        log_c = alpha * math.log(k) + math.log(lam[zero] / (lam[zero] + lam[s])) - log_gamma(alpha)
        try:
            c = math.exp(log_c)
        except OverflowError:
            raise DoubleRangeError(f"the invariant density's constant exp({log_c:.6g}) leaves double range") from None
        exps, consts = ((alpha - 1.0, k), (alpha, k)), (c, model.coeffs[s].gamma / abs(az) * c)  # inf refused below
        kind, support = "GammaLike", (rho, math.inf) if sgn > 0.0 else (-math.inf, rho)
        frame = (rho, sgn, rho, sgn, 1.0 / k)
    else:
        if tag is RegimeTag.ATTRACTING_STRICT:
            s = 0 if model.coeffs[0].rho <= model.coeffs[1].rho else 1  # the lower level
        else:
            with np.errstate(all="ignore"):  # a zero gamma outside attraction-repulsion
                ratios = lam[0] / g[0] + lam[1] / g[1]
            if tag not in (RegimeTag.ATTRACTION_REPULSION_01, RegimeTag.ATTRACTION_REPULSION_10) or ratios >= 0.0:
                # repulsion-only, null non-strict, degenerate levels, zero-gamma
                # corners, or rate ratios summing >= 0: no invariant density
                raise NoInvariantMeasureError(f"no invariant density in regime {tag.value}")
            s = 0 if g[0] > 0.0 else 1  # the attracting level
        o = 1 - s
        rho_s, rho_o = _level(model, s), _level(model, o)
        a_s = _exponent(lam[s], g[s], f"lambda{s} / gamma{s}")
        a_o = _exponent(lam[o], g[o], f"lambda{o} / gamma{o}")
        # two finite levels of opposite sign can be more than a double apart
        width = abs(rho_o - rho_s)
        if not math.isfinite(width):
            raise DoubleRangeError(f"the gap between the levels {rho_s} and {rho_o} leaves double range")
        with np.errstate(all="ignore"):  # a constant past double range is refused below
            power = width ** (a_s + a_o)
            if tag is RegimeTag.ATTRACTING_STRICT:
                c = 1.0 / (power * (beta_fn(a_s, a_o + 1.0) / g[s] + beta_fn(a_s + 1.0, a_o) / g[o]))
                kind, support, sgn, far_sign = "BetaLike", (rho_s, rho_o), 1.0, -1.0
            else:
                c = 1.0 / (power * (beta_fn(-a_s - a_o, a_s) / g[s] - beta_fn(-a_s - a_o, 1.0 + a_s) / g[o]))
                sgn = far_sign = -1.0 if rho_s < rho_o else 1.0  # away from the repeller
                kind, support = "ParetoLike", (-math.inf, rho_s) if sgn < 0.0 else (rho_s, math.inf)
            exps, consts = ((a_s - 1.0, a_o), (a_s, a_o - 1.0)), (c / g[s], c / abs(g[o]))
        frame = (rho_s, sgn, rho_o, far_sign, width)
    if s == 1:
        exps, consts = exps[::-1], consts[::-1]
    for i, const in enumerate(consts):
        if not 0.0 < const < math.inf:
            raise DoubleRangeError(f"the invariant density's constant of state {i} is {const}, past double range")
    return InvariantDensity(kind, support, exps, consts, *frame)


def invariant_exists(model: KacOuModel) -> tuple[bool, tuple[float, float] | None]:
    """Whether an invariant probability density exists, and its support."""
    try:
        return True, invariant_description(model).support
    except NoInvariantMeasureError:
        return False, None


def invariant_density(x, state: int, model: KacOuModel):
    """Closed-form stationary density of (X, state) at x (0 outside support),
    X the mean path; b0 and b1 are not read."""
    state = _state(state)
    out = invariant_description(model).evaluate(x)[state]
    return out if np.ndim(x) else float(out)


def invariant_density_with_derivative(x, model: KacOuModel):
    """(pi0, pi1, dpi0/dx, dpi1/dx) with analytic derivatives."""
    return invariant_description(model).evaluate(x)


def stationarity_residual(x, model: KacOuModel):
    """Relative residuals of the adjoint-generator ODE system at interior x.

    The closed forms and their product-rule derivatives make both equations
    vanish up to roundoff.
    """
    pi = invariant_density_with_derivative(x, model)  # (pi0, pi1, dpi0/dx, dpi1/dx)
    x = np.asarray(x, dtype=float)
    rel = []
    for i, c in enumerate(model.coeffs):
        # state i's flow term, its outflow less its reversion, and the other
        # state's inflow
        flow = (c.gamma * x - c.a) * pi[2 + i]
        own = (model.rates.rate(i) - c.gamma) * pi[i]
        inflow = model.rates.rate(1 - i) * pi[1 - i]
        size = np.maximum(np.maximum(np.abs(flow), np.abs(own)), np.maximum(np.abs(inflow), 1e-300))
        rel.append((flow - own + inflow) / size)
    if np.ndim(x):
        return tuple(rel)
    return float(rel[0]), float(rel[1])


def invariant_mass(model: KacOuModel) -> float:
    """Quadrature check of the total mass of pi0 + pi1 (should be 1).

    Bounded supports integrate directly; half-lines go through the rational
    map, so power tails lose no mass to truncation.
    """
    cf = invariant_description(model)
    if cf.bounded:
        return integrate_de_offsets(cf.density, cf.anchor, cf.far, tol=1e-11)
    return integrate_half_line_offsets(cf.anchored, scale=cf.scale, tol=1e-11)


def _tail_mass(cf: InvariantDensity, dist: float) -> float:
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


def _window(cf: InvariantDensity, outer: float) -> tuple[float, float]:
    """The half-line support cut at distance `outer` from the anchor."""
    lo, hi = cf.support
    far = cf.anchor + cf.direction * outer
    return (lo, far) if math.isfinite(lo) else (far, hi)


def support_cutoff(model: KacOuModel, floor: float = 1e-16) -> tuple[float, float]:
    """Finite interval outside which the mixture density is below `floor`.

    For half-line supports the cutoff follows the density envelope by
    doubling-and-bisection; for bounded supports it is the support itself.
    """
    cf = invariant_description(model)
    if cf.bounded:
        return cf.support

    def inside(d):
        return float(cf.anchored(np.asarray([d]))[0]) >= floor

    # the density may start below the floor at the anchor: step out to it first
    start, cap = 1e-6 * cf.scale, 1e15 * cf.scale
    step = start
    while step < cap and not inside(step):
        step *= 2.0
    _, outer = _search_edge(inside, step if step < cap else start, step, cap, 1e-9, 200)
    return _window(cf, outer)


def _histogram_range(cf: InvariantDensity) -> tuple[float, float]:
    """Finite binning window; on half-line supports it leaves a mass of 5e-4
    outside (that mass is charged to the L1 distance explicitly)."""
    if cf.bounded:
        return cf.support

    def inside(d):
        return _tail_mass(cf, d) > 5e-4

    start = 1e-3 * cf.scale
    _, outer = _search_edge(inside, start, start, 1e15 * cf.scale, 1e-3, 60)
    return _window(cf, outer)


def _bin_masses(cf: InvariantDensity, edges: np.ndarray, state: int | None = None) -> np.ndarray:
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
    n_paths, bins = _whole(n_paths, "n_paths", least=100), _whole(bins, "bins", least=2)
    cf = invariant_description(model)

    lo, hi = _histogram_range(cf)
    if cf.bounded:
        x0 = 0.5 * (lo + hi)
    else:
        # median distance from the anchor by bisection on the tail mass, to
        # 1e-6 relative: the start need only be near the median
        def above_median(d):
            return _tail_mass(cf, d) > 0.5

        d_hi = abs(hi - lo)
        d_lo, d_hi = _search_edge(above_median, 1e-6 * cf.scale, d_hi, d_hi, 1e-6, 80)
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
