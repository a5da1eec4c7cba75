"""`transforms` workload: closed-form first-passage transforms against the
renewal-integral oracle.

Inputs are groups sharing (model, q, target y, side).  Each group runs one
``fpt_oracle_curve`` over its start points, then ``laplace_fpt`` at every
start point for both initial states.  This is the only workload where
``specfun`` and ``first_passage`` do the work and ``simulate`` does none.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

import kacou.first_passage as fp
from kacou import FptQuery, KacOuModel

from common import Outcome, error_text, log_strata, log_uniform, rng_for, spread_points

NAME = "transforms"

# criterion-2 tolerance of the acceptance suite
ORACLE_ATOL = 1e-4

Q_RANGE = (0.1, 100.0)
# target distance from its attractor, as a share of the attractor gap
D_RANGE = (1e-3, 0.5)
# q and d are each stratified into GROUPS log-width strata per pass, one
# draw per stratum.  Group i takes branch i % 5, q stratum i and d stratum
# (PAIR_STEP*i + PAIR_OFFSET) % GROUPS, a fixed rank-1 lattice pairing.  The
# lattice was picked so that per-group cost, which grows like q/d on the
# slow branches, is balanced: the slowest 1% of queries then come from
# several groups per pass instead of one extreme (q ~ 100, d ~ 1e-3) cell
# that costs ~10x any other, and p99 does not hang on a single draw.  The
# seed moves each draw within its stratum, the models, the start points and
# the orientation.
GROUPS = 30
PASSES = 16
# two passes give 1200 laplace_fpt latencies, so at least 12 lie beyond p99
MIN_PASSES = 2
# nominal seconds of one untraced pass on a 2-vCPU host; sets the pass count
PASS_S = 6.0
PAIR_STEP = 19
PAIR_OFFSET = 11
START_POINTS = 10
# start points keep this share of the gap away from the target: closer in,
# the oracle's piecewise-linear grid misses the kink at y by more than the
# tolerance while the closed form is still right
START_MARGIN = 0.05
# Known program defect: at large q the hypergeometric series cancels, so
# laplace_fpt raises on a negative weight or returns a wrong value.  It hits
# the attraction-repulsion x > y branch broadly, and any branch where the
# true transform is about 0.  Such failures count in `failed`; any other
# failure makes the run incorrect.
KNOWN_DEFECT_Q = 10.0

# (regime, side): the five closed-form branches
SIDES = (
    ("attracting", "up"),
    ("attracting", "down"),
    ("attraction_repulsion", "up"),
    ("attraction_repulsion", "down"),
    ("non_strict", "up"),
)


def _group(rng, regime, side, q, d):
    """One group in canonical orientation, then relabelled and reflected at
    random so that every dispatch path of ``laplace_fpt`` runs."""
    lam0, lam1 = log_uniform(rng, 0.5, 2.0), log_uniform(rng, 0.5, 2.0)
    # time is measured in units of the attracting state's relaxation time:
    # the transforms depend on q, the rates and gamma1 only through their
    # ratios to gamma0, so fixing it loses no generality and keeps the cost
    # of a (q, d) cell from swinging with gamma0
    g0 = 1.0
    rho0 = float(rng.uniform(-1.0, 1.0))
    if regime == "non_strict":
        a1 = log_uniform(rng, 0.5, 2.0)
        g1, gap = 0.0, a1 / g0
        a0 = rho0 * g0
        y = rho0 + d * gap
        lo, hi = rho0 - gap, y - START_MARGIN * gap
    else:
        gap = float(rng.uniform(0.5, 2.0))
        rho1 = rho0 + gap
        g1 = log_uniform(rng, 0.7, 1.5)
        if regime == "attraction_repulsion":
            g1 = -g1
        a0, a1 = rho0 * g0, rho1 * g1
        if regime == "attracting" and side == "up":
            y = rho1 - d * gap
            lo, hi = 2.0 * rho0 - rho1 + START_MARGIN * gap, y - START_MARGIN * gap
        elif regime == "attracting":
            y = rho0 + d * gap
            lo, hi = y + START_MARGIN * gap, 2.0 * rho1 - rho0 - START_MARGIN * gap
        elif side == "up":
            y = rho0 - d * gap
            lo, hi = y - gap, y - START_MARGIN * gap
        else:
            y = rho0 - d * gap
            lo, hi = y + START_MARGIN * gap, rho0 + 0.5 * gap
    xs = spread_points(rng, lo, hi, START_POINTS)
    params = [lam0, lam1, a0, a1, 0.0, 0.0, g0, g1]
    if rng.uniform() < 0.5:  # swap state labels
        params = [lam1, lam0, a1, a0, 0.0, 0.0, g1, g0]
    if rng.uniform() < 0.5:  # reflect space
        params[2], params[3] = -params[2], -params[3]
        y, xs = -y, [-x for x in reversed(xs)]
    return {
        "regime": regime,
        "side": side,
        "model": params,
        "q": q,
        "d": d,
        "y": y,
        "xs": xs,
    }


def generate(seed: int) -> list[dict]:
    """Inputs for PASSES passes; every pass gets fresh draws, so no pass
    repeats another's queries and a cache across passes gains nothing."""
    rng = rng_for(NAME, seed)
    passes = []
    for _ in range(PASSES):
        qs = log_strata(rng, *Q_RANGE, GROUPS)
        ds = log_strata(rng, *D_RANGE, GROUPS)
        groups = []
        for i, q in enumerate(qs):
            regime, side = SIDES[i % len(SIDES)]
            d = ds[(PAIR_STEP * i + PAIR_OFFSET) % GROUPS]
            groups.append(_group(rng, regime, side, q, d))
        passes.append({"groups": groups})
    return passes


def describe(passes) -> dict:
    groups = [g for p in passes for g in p["groups"]]
    queries = sum(2 * len(g["xs"]) for g in groups)
    return {
        "groups": len(groups),
        "queries": queries,
        "share_q_gt_10": sum(2 * len(g["xs"]) for g in groups if g["q"] > 10.0) / queries,
        "share_d_lt_1e-2": sum(2 * len(g["xs"]) for g in groups if g["d"] < 1e-2) / queries,
    }


def references(inputs) -> None:
    """The oracle runs inside the workload, so there is nothing to precompute."""
    return None


def run_pass(inputs, tracer, work_dir):
    """Returns per-group (curve or exception, [value or exception]) and, per
    group, the latency of every ``laplace_fpt`` call in ms."""
    results = []
    latencies = []
    for gi, g in enumerate(inputs["groups"]):
        model = KacOuModel.from_values(*g["model"])
        q, y = g["q"], g["y"]
        with tracer.op(f"group{gi}"):
            try:
                curve = fp.fpt_oracle_curve(model, q, y, np.asarray(g["xs"]))
            except Exception as exc:  # recorded as a failed operation
                curve = exc
            values = []
            group_latencies = []
            for x in g["xs"]:
                for state in (0, 1):
                    query = FptQuery(q, x, y, state)
                    t0 = perf_counter()
                    try:
                        value = fp.laplace_fpt(query, model)
                    except Exception as exc:  # recorded as a failed operation
                        value = exc
                    group_latencies.append((perf_counter() - t0) * 1e3)
                    values.append(value)
        results.append((curve, values))
        latencies.append(group_latencies)
    return results, latencies


def _known_defect(g, ref: float) -> bool:
    ar_down = g["regime"] == "attraction_repulsion" and g["side"] == "down"
    return g["q"] >= KNOWN_DEFECT_Q and (ar_down or ref < ORACLE_ATOL)


def check(inputs, refs, results, work_dir) -> list[Outcome]:
    outcomes = []
    for gi, (g, (curve, values)) in enumerate(zip(inputs["groups"], results)):
        oracle = Outcome(f"group{gi}.oracle")
        if isinstance(curve, Exception):
            oracle.fail(error_text(curve))
        else:
            e0, e1 = (np.asarray(c, dtype=float) for c in curve)
            if not (np.all(np.isfinite(e0)) and np.all(np.isfinite(e1))):
                oracle.fail("oracle curve is not finite")
            elif min(e0.min(), e1.min()) < -ORACLE_ATOL or max(e0.max(), e1.max()) > 1 + ORACLE_ATOL:
                oracle.fail("oracle curve leaves [0, 1]")
        outcomes.append(oracle)
        for k, value in enumerate(values):
            j, state = divmod(k, 2)
            out = Outcome(f"group{gi}.x{j}.s{state}")
            if isinstance(value, Exception):
                out.fail(error_text(value))
            elif not oracle.ok:
                out.fail("no oracle reference")
            else:
                ref = float((e0, e1)[state][j])
                if not (math.isfinite(value) and abs(value - ref) <= ORACLE_ATOL):
                    out.fail(f"closed form {value!r} vs oracle {ref!r} ({g['regime']} {g['side']}, q={g['q']:.3g})")
            out.known = not out.ok and oracle.ok and _known_defect(g, float((e0, e1)[state][j]))
            outcomes.append(out)
    return outcomes
