"""End-to-end acceptance checks.

Ten criteria, each pinned to a fixed model set, fixed seeds, and a stated
tolerance.  Every closed form is cross-examined against an independent
route: the renewal integral oracle, Monte Carlo, finite differences,
quadrature, or a classical identity.  `run_all` powers both the pytest
acceptance module and the CLI `validate` subcommand.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .first_passage import FptQuery, fpt_ode_residual, fpt_oracle_curve, laplace_fpt
from .invariant import (
    empirical_invariant_profile,
    invariant_density,
    invariant_exists,
    invariant_mass,
    stationarity_residual,
)
from .model import KacOuModel
from .scaling import ScaledPair, ScalingKind, ScalingSpec, convergence_check
from .simulate import mc_laplace_fpt
from .specfun import gauss_2f1_log, kummer_1f1_log

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

# fixed cross-check models, one per closed-form regime
ATTRACTING = KacOuModel.from_values(1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0)
ATTRACT_REPEL = KacOuModel.from_values(0.3, 1.0, 0.0, -1.0, 0.0, 0.0, 1.0, -1.0)
NON_STRICT = KacOuModel.from_values(1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0)
ATTRACT_REPEL_10 = KacOuModel.from_values(1.0, 0.3, 1.0, 0.0, 0.0, 0.0, -1.0, 1.0)
NON_STRICT_NEG = KacOuModel.from_values(1.0, 2.0, 3.0, -1.5, 0.0, 0.0, 2.0, 0.0)
EXAMPLE_41 = ATTRACTING  # rho = (0, 1): pi0 = 1-x, pi1 = x

SEED = 20260810


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _random_attracting(rng):
    lam0, lam1 = rng.uniform(0.5, 3.0, size=2)
    g0, g1 = rng.uniform(0.5, 3.0, size=2)
    rho0 = rng.uniform(-1.0, 1.0)
    rho1 = rho0 + rng.uniform(0.5, 2.0)
    return KacOuModel.from_values(lam0, lam1, rho0 * g0, rho1 * g1, 0.0, 0.0, g0, g1)


def criterion_1():
    """q=0 degeneracy of the Laplace transforms on random attracting models."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(20):
        m = _random_attracting(rng)
        r0 = m.coeffs[0].rho
        r1 = m.coeffs[1].rho
        for _ in range(5):
            y = r0 + rng.uniform(0.05, 0.95) * (r1 - r0)
            state = int(rng.integers(0, 2))
            if rng.random() < 0.5:
                x = (2 * r0 - r1) + rng.uniform(0.02, 0.98) * (y - (2 * r0 - r1))
            else:
                x = y + rng.uniform(0.02, 0.98) * ((2 * r1 - r0) - y)
            val = laplace_fpt(FptQuery(0.0, x, y, state), m)
            worst = max(worst, abs(val - 1.0))
    return worst <= 1e-10, f"max |l(0)-1| = {worst:.2e} over 100 queries (tol 1e-10)"


def _oracle_grid_gap(model, qs, ys, xs):
    worst = 0.0
    for q in qs:
        for y in ys:
            for side in (-1, 1):
                sub = np.array([x for x in xs if (x - y) * side > 0])
                if sub.size == 0:
                    continue
                e0, e1 = fpt_oracle_curve(model, q, y, sub)
                for i, x in enumerate(sub):
                    for state, oracle in ((0, e0[i]), (1, e1[i])):
                        closed = laplace_fpt(FptQuery(q, x, y, state), model)
                        worst = max(worst, abs(closed - oracle))
    return worst


def criterion_2():
    """Closed forms against the renewal integral oracle on (x, y, q) grids."""
    qs = (0.5, 1.0, 2.0)
    gap_att = _oracle_grid_gap(
        ATTRACTING, qs, np.linspace(0.2, 0.8, 5), [-0.61, -0.17, 0.33, 0.57, 0.93]
    )
    gap_ar = _oracle_grid_gap(
        ATTRACT_REPEL, qs, np.linspace(-0.8, -0.2, 5), list(np.linspace(-1.6, -0.9, 5))
    )
    gap_ns = _oracle_grid_gap(
        NON_STRICT, qs, np.linspace(0.4, 1.2, 5), list(np.linspace(-0.5, 0.3, 5))
    )
    worst = max(gap_att, gap_ar, gap_ns)
    detail = (
        f"max |closed - oracle|: attracting {gap_att:.2e}, "
        f"attraction-repulsion {gap_ar:.2e}, non-strict {gap_ns:.2e} (tol 1e-4)"
    )
    return worst <= 1e-4, detail


MC_POINTS = (
    (ATTRACTING, 0.5, 0.25, 0.75, 1),
    (ATTRACTING, 1.0, 0.9, 0.4, 0),
    (ATTRACT_REPEL, 0.7, -0.9, -0.5, 0),
    (ATTRACT_REPEL, 0.7, 0.4, -0.5, 1),
    (NON_STRICT, 0.5, 0.2, 0.8, 1),
    (NON_STRICT, 1.0, -0.5, 0.4, 0),
)


def criterion_3():
    """Monte Carlo consistency of the closed forms at 6 parameter points."""
    worst_ratio = 0.0
    for i, (model, q, x, y, state) in enumerate(MC_POINTS):
        closed = laplace_fpt(FptQuery(q, x, y, state), model)
        est = mc_laplace_fpt(FptQuery(q, x, y, state), model, 200_000, seed=SEED + i)
        tol = max(3.0 * est.stderr, 1e-3)
        worst_ratio = max(worst_ratio, abs(closed - est.mean) / tol)
    return worst_ratio <= 1.0, f"max |closed - mc| / max(3se, 1e-3) = {worst_ratio:.2f}"


ODE_POINTS = (
    ("attracting x<y", ATTRACTING, 1.0, 0.75, np.linspace(-0.5, 0.65, 10)),
    ("attracting x>y", ATTRACTING, 1.0, 0.25, np.linspace(0.35, 1.6, 10)),
    ("attr-repulsion x<y", ATTRACT_REPEL, 0.7, -0.3, np.linspace(-1.5, -0.45, 10)),
    ("non-strict x<y", NON_STRICT, 0.7, 0.8, np.linspace(-0.4, 0.65, 10)),
)


def criterion_4():
    """First-order system residuals of the closed forms, with h-refinement."""
    h = 1e-4
    worst = 0.0
    ratios = []
    for _, model, q, y, xs in ODE_POINTS:
        for x in xs:
            r = fpt_ode_residual(q, float(x), y, model, h)
            r2 = fpt_ode_residual(q, float(x), y, model, h / 2.0)
            worst = max(worst, max(abs(v) for v in r))
            for a, b in zip(r, r2):
                if abs(a) > 1e-10:
                    ratios.append(a / b)
    ratios = np.asarray(ratios)
    order_ok = bool(np.all((ratios > 2.5) & (ratios < 5.5)))
    passed = worst < 1e-6 and order_ok
    return passed, (
        f"max |residual| = {worst:.2e} at h=1e-4 (tol 1e-6); "
        f"halving ratios in [{ratios.min():.2f}, {ratios.max():.2f}] (target ~4)"
    )


INVARIANT_MODELS = (
    ("attracting", ATTRACTING, np.linspace(0.02, 0.98, 100)),
    ("attr-repulsion 01", ATTRACT_REPEL, np.linspace(-4.0, -0.02, 100)),
    ("attr-repulsion 10", ATTRACT_REPEL_10, np.linspace(0.02, 4.0, 100)),
    ("non-strict", NON_STRICT, np.linspace(0.02, 6.0, 100)),
    ("non-strict a1<0", NON_STRICT_NEG, np.linspace(-4.0, 1.48, 100)),
)


def criterion_5():
    """Stationarity residuals and quadrature mass for every closed form."""
    worst_res = 0.0
    worst_mass = 0.0
    for name, model, xs in INVARIANT_MODELS:
        mix = invariant_density(xs, 0, model) + invariant_density(xs, 1, model)
        assert float(np.min(mix)) > 0.0, f"{name}: residual grid must probe the support"
        r0, r1 = stationarity_residual(xs, model)
        worst_res = max(worst_res, float(np.max(np.abs(r0))), float(np.max(np.abs(r1))))
        worst_mass = max(worst_mass, abs(invariant_mass(model) - 1.0))
    passed = worst_res <= 1e-10 and worst_mass <= 1e-8
    return passed, (
        f"max residual {worst_res:.2e} (tol 1e-10), max |mass-1| {worst_mass:.2e} (tol 1e-8)"
    )


def criterion_6():
    """Linear-density example: exact closed form and simulated histogram."""
    xs = np.linspace(0.01, 0.99, 99)
    p0 = invariant_density(xs, 0, EXAMPLE_41)
    p1 = invariant_density(xs, 1, EXAMPLE_41)
    exact_gap = max(float(np.max(np.abs(p0 - (1.0 - xs)))), float(np.max(np.abs(p1 - xs))))
    dist = empirical_invariant_profile(EXAMPLE_41, 100_000, 20.0, 50, seed=SEED).pooled
    passed = exact_gap <= 1e-12 and dist < 0.02
    return passed, f"density gap {exact_gap:.2e} (tol 1e-12), histogram L1 {dist:.4f} (tol 0.02)"


def criterion_7():
    """Existence boundary of the attraction-repulsion invariant measure."""
    ok = True
    for lam0 in np.linspace(0.5, 1.5, 11):
        m = KacOuModel.from_values(lam0, 1.0, 0.0, -1.0, 0.0, 0.0, 1.0, -1.0)
        exists, _ = invariant_exists(m)
        ok = ok and (exists == (lam0 - 1.0 < 0.0))
    return ok, "exists iff alpha0 + alpha1 < 0 across 11-point sweep of lambda0"


def _gaps_non_increasing(rows, attr):
    for a, b in zip(rows[:-1], rows[1:]):
        band = 2.0 * math.hypot(getattr(a, attr + "_stderr"), getattr(b, attr + "_stderr"))
        if getattr(b, attr + "_gap") > getattr(a, attr + "_gap") + band:
            return False
    return True


def criterion_8():
    """Telegraph integral against its drifted Brownian limit."""
    spec = ScalingSpec(ScalingKind.KAC_ASYMMETRIC, nu=1.0, velocity=ScaledPair(1.0, 0.3))
    rows = convergence_check(spec, 1.0, [10, 100, 1000], 100_000, seed=SEED)
    last = rows[-1]
    mean_ok = last.mean_gap <= 3.0 * last.mean_stderr
    var_ok = last.var_gap <= 0.05
    trend_ok = _gaps_non_increasing(rows, "mean") and _gaps_non_increasing(rows, "var")
    passed = mean_ok and var_ok and trend_ok
    return passed, (
        f"n=1000: mean gap {last.mean_gap:.2e} (3se {3 * last.mean_stderr:.2e}), "
        f"var gap {last.var_gap:.2e} (tol 0.05); trends non-increasing: {trend_ok}"
    )


def criterion_9():
    """Fast-switching limit of the modulated diffusion at n = 1000."""
    base = KacOuModel.from_values(1.0, 1.0, 0.0, 2.0, 1.0, 1.0, 1.0, 3.0)
    spec = ScalingSpec(ScalingKind.FAST_SWITCHING, nu=1.0, base=base)
    rows = convergence_check(spec, 1.0, [1000], 100_000, seed=SEED, x0=0.5)
    row = rows[0]
    # the limit dM = (1 - 2M) dt + dW starts at its rest level 1/2
    mean_ref, var_ref = 0.5, -math.expm1(-4.0) / 4.0
    assert abs(row.limit_mean - mean_ref) < 1e-12 and abs(row.limit_var - var_ref) < 1e-12
    mean_ok = row.mean_gap <= 3.0 * row.mean_stderr
    var_ok = row.var_gap <= 3.0 * row.var_stderr
    return mean_ok and var_ok, (
        f"mean gap {row.mean_gap:.2e} (3se {3 * row.mean_stderr:.2e}), "
        f"var gap {row.var_gap:.2e} (3se {3 * row.var_stderr:.2e})"
    )


def criterion_10():
    """Special-function identities."""
    worst_log = 0.0
    for z in np.arange(-0.9, 0.95, 0.1):
        z = float(round(z, 10))
        val = gauss_2f1_log(1.0, 1.0, 2.0, z).value()
        ref = 1.0 if z == 0.0 else -math.log1p(-z) / z
        worst_log = max(worst_log, abs(val - ref))

    worst_exp = 0.0
    for a, z in ((1.3, 0.9), (0.7, -2.0), (2.5, 3.0), (1.1, -0.4)):
        worst_exp = max(worst_exp, abs(kummer_1f1_log(a, a, z).value() - math.exp(z)))

    def direct_series(b0, b1, b2, z):
        s = t = 1.0
        for n in range(2000):
            t *= (b0 + n) * (b1 + n) * z / ((b2 + n) * (n + 1.0))
            s += t
            if abs(t) < 1e-17 * abs(s):
                break
        return s

    worst_pfaff = 0.0
    for b0, b1, b2 in ((1.3, 0.7, 2.1), (0.5, 2.5, 1.7), (0.9, 1.9, 3.2)):
        for z in (-0.9, -0.5, -0.25, -0.05):
            direct = direct_series(b0, b1, b2, z)
            worst_pfaff = max(worst_pfaff, abs(gauss_2f1_log(b0, b1, b2, z).value() - direct))

    passed = worst_log <= 1e-12 and worst_exp <= 1e-12 and worst_pfaff <= 1e-11
    return passed, (
        f"log identity {worst_log:.2e} (1e-12), exp identity {worst_exp:.2e} (1e-12), "
        f"Pfaff-vs-direct {worst_pfaff:.2e} (1e-11)"
    )


CRITERIA = (
    ("q=0 degeneracy of first-passage transforms", criterion_1),
    ("closed form vs integral oracle", criterion_2),
    ("closed form vs Monte Carlo", criterion_3),
    ("first-passage ODE residuals", criterion_4),
    ("invariant stationarity and mass", criterion_5),
    ("linear-density example reproduction", criterion_6),
    ("invariant existence boundary", criterion_7),
    ("telegraph Kac limit", criterion_8),
    ("fast-switching OU limit", criterion_9),
    ("special-function identities", criterion_10),
)


def run_all(indices=None) -> list[CriterionResult]:
    results = []
    for i, (name, fn) in enumerate(CRITERIA, start=1):
        if indices is not None and i not in indices:
            continue
        t0 = time.perf_counter()
        passed, detail = fn()
        dt = time.perf_counter() - t0
        results.append(CriterionResult(i, name, bool(passed), detail, dt))
        status = "PASS" if passed else "FAIL"
        print(f"{status} criterion {i:2d} - {name} ({dt:.1f}s): {detail}")
    return results
