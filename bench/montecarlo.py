"""`montecarlo` workload: the simulation chunk kernels.

Three kinds of operation, all of which spend nearly all their time in
``simulate``: ``convergence_check`` rows (terminal draws through
``terminal_values``), ``mc_laplace_fpt`` estimates (first-passage draws
through ``fpt_samples``) and ``empirical_invariant_profile`` (terminal
draws plus quadrature).  Sizes put roughly half the work in each kernel, so a
fast path for one class of terminal run shows on that class and any cost it
adds to the other classes shows too.
"""

from __future__ import annotations

import math
from time import perf_counter

import kacou.invariant as inv
import kacou.scaling as sc
import kacou.simulate as sim
from kacou import FptQuery, KacOuModel, fpt_integral_oracle

from common import Outcome, error_text, log_uniform, rng_for
from reference import histogram_l1_tolerance, switching_moments

NAME = "montecarlo"
PASSES = 12
# three passes, so a per-slot median over passes outvotes one slowed pass
MIN_PASSES = 3
# nominal seconds of one untraced pass on a 2-vCPU host; sets the pass count
PASS_S = 8.0

SCALING_T = 1.0
SCALING_PATHS = 20_000
MC_PATHS = 1_200_000
PROFILE_PATHS = 100_000
PROFILE_BINS = 40
PROFILE_T = 15.0
# tolerances: Monte Carlo within 5 standard errors; the oracle itself is
# accurate to the criterion-2 tolerance
SIGMAS = 5.0
ORACLE_ATOL = 1e-4


def _seed(rng) -> int:
    return int(rng.integers(1, 2**31))


def _spec_inputs(rng, kind, ns):
    nu = 1.0
    if kind in ("kac_unequal", "case_a", "case_b"):
        nu = log_uniform(rng, 1.8, 2.2)
    spec = {"kind": kind, "nu": nu, "n_list": ns, "seed": _seed(rng)}
    if kind in ("kac_equal", "kac_unequal"):
        delta = 0.0 if kind == "kac_equal" else float(rng.uniform(-0.5, 0.5))
        spec["pair"] = [log_uniform(rng, 0.5, 2.0), delta]
        spec["x0"] = 0.0
        return spec
    # attracting base model with noise in both states
    g0, g1 = log_uniform(rng, 0.7, 1.5), log_uniform(rng, 1.5, 3.0)
    rho0 = float(rng.uniform(-0.5, 0.5))
    rho1 = rho0 + float(rng.uniform(0.5, 2.0))
    b0, b1 = log_uniform(rng, 0.3, 1.2), log_uniform(rng, 0.3, 1.2)
    spec["base"] = [1.0, 1.0, rho0 * g0, rho1 * g1, b0, b1, g0, g1]
    spec["x0"] = float(rng.uniform(rho0, rho1))
    if kind == "case_a":
        spec["pair"] = [log_uniform(rng, 0.3, 1.0), float(rng.uniform(-0.5, 0.5))]
    elif kind == "case_b":
        spec["pair"] = [log_uniform(rng, 0.2, 0.6), log_uniform(rng, 0.5, 2.0)]
    return spec


def _mc_inputs(rng, regime, side):
    # narrow ranges keep the number of switches before the hit, and so the
    # cost of an estimate, close from seed to seed
    lam0, lam1 = log_uniform(rng, 0.7, 1.4), log_uniform(rng, 0.7, 1.4)
    g0 = log_uniform(rng, 0.8, 1.25)
    rho0 = float(rng.uniform(-1.0, 1.0))
    gap = float(rng.uniform(0.8, 1.2))
    if regime == "non_strict":
        params = [lam0, lam1, rho0 * g0, gap * g0, 0.0, 0.0, g0, 0.0]
        y = rho0 + float(rng.uniform(0.2, 0.4)) * gap
        x = y - float(rng.uniform(0.4, 0.8)) * gap
    else:
        g1 = log_uniform(rng, 0.8, 1.25)
        if regime == "attraction_repulsion":
            g1 = -g1
        params = [lam0, lam1, rho0 * g0, (rho0 + gap) * g1, 0.0, 0.0, g0, g1]
        if regime == "attracting":
            y = rho0 + float(rng.uniform(0.4, 0.6)) * gap
            x = y + (-1.0 if side == "up" else 1.0) * float(rng.uniform(0.15, 0.25)) * gap
        else:
            y = rho0 - float(rng.uniform(0.2, 0.4)) * gap
            x = y + float(rng.uniform(0.3, 0.7)) * (rho0 - y)
    return {
        "regime": regime,
        "model": params,
        "q": log_uniform(rng, 0.2, 2.0),
        "x": x,
        "y": y,
        "state": int(rng.integers(0, 2)),
        "seed": _seed(rng),
    }


def _profile_inputs(rng, support):
    lam0, lam1 = log_uniform(rng, 0.5, 2.0), log_uniform(rng, 0.5, 2.0)
    g0 = log_uniform(rng, 0.7, 1.5)
    rho0 = float(rng.uniform(-1.0, 1.0))
    if support == "bounded":
        g1 = log_uniform(rng, 0.7, 1.5)
        params = [lam0, lam1, rho0 * g0, (rho0 + float(rng.uniform(0.5, 2.0))) * g1, 0.0, 0.0, g0, g1]
    else:  # gamma-like density on a half-line
        params = [lam0, lam1, rho0 * g0, log_uniform(rng, 0.5, 2.0), 0.0, 0.0, g0, 0.0]
    return {"support": support, "model": params, "seed": _seed(rng)}


SPEC_KINDS = (
    ("kac_equal", [100, 300]),
    ("kac_unequal", [100, 300]),
    ("fast_noise", [100, 300]),
    ("case_a", [100, 300]),
    ("case_b", [100, 300]),
)
# Attraction-repulsion starts stay between the target and the attracting
# level: from below the target a long spell in the repelling state sends a
# path off to -inf, where it runs to the censoring horizon.
MC_CASES = (
    ("attracting", "up"),
    ("attracting", "down"),
    ("attraction_repulsion", "down"),
    ("non_strict", "up"),
) * 2


def generate(seed: int) -> list[dict]:
    rng = rng_for(NAME, seed)
    passes = []
    for _ in range(PASSES):
        passes.append(
            {
                "scaling": [_spec_inputs(rng, kind, ns) for kind, ns in SPEC_KINDS],
                "mc": [_mc_inputs(rng, regime, side) for regime, side in MC_CASES],
                "profiles": [_profile_inputs(rng, s) for s in ("bounded", "half_line")],
            }
        )
    return passes


def describe(passes) -> dict:
    return {
        "convergence_rows": sum(len(s["n_list"]) for p in passes for s in p["scaling"]),
        "mc_estimates": sum(len(p["mc"]) for p in passes),
        "profiles": sum(len(p["profiles"]) for p in passes),
    }


_KINDS = {
    "kac_equal": sc.ScalingKind.KAC_CLASSIC,
    "kac_unequal": sc.ScalingKind.KAC_ASYMMETRIC,
    "fast_noise": sc.ScalingKind.FAST_SWITCHING,
    "case_a": sc.ScalingKind.CASE_A,
    "case_b": sc.ScalingKind.CASE_B,
}


def _spec(s) -> sc.ScalingSpec:
    kind = _KINDS[s["kind"]]
    if s["kind"] in ("kac_equal", "kac_unequal"):
        return sc.ScalingSpec(kind, nu=s["nu"], velocity=sc.ScaledPair(*s["pair"]))
    base = KacOuModel.from_values(*s["base"])
    if s["kind"] == "case_a":
        return sc.ScalingSpec(kind, nu=s["nu"], base=base, drift=sc.ScaledPair(*s["pair"]))
    if s["kind"] == "case_b":
        return sc.ScalingSpec(kind, nu=s["nu"], base=base, reversion=sc.ScaledPair(*s["pair"]))
    return sc.ScalingSpec(kind, nu=s["nu"], base=base)


def _ops(pass_inputs):
    """(op id, zero-argument call) in workload order."""
    ops = []
    for i, s in enumerate(pass_inputs["scaling"]):
        def call(s=s):
            return sc.convergence_check(_spec(s), SCALING_T, s["n_list"], SCALING_PATHS, s["seed"], x0=s["x0"])
        ops.append((f"scaling{i}.{s['kind']}", call))
    for i, m in enumerate(pass_inputs["mc"]):
        def call(m=m):
            query = FptQuery(m["q"], m["x"], m["y"], m["state"])
            return sim.mc_laplace_fpt(query, KacOuModel.from_values(*m["model"]), MC_PATHS, m["seed"])
        ops.append((f"mc{i}.{m['regime']}", call))
    for i, p in enumerate(pass_inputs["profiles"]):
        def call(p=p):
            model = KacOuModel.from_values(*p["model"])
            return inv.empirical_invariant_profile(model, PROFILE_PATHS, PROFILE_T, PROFILE_BINS, p["seed"])
        ops.append((f"profile{i}.{p['support']}", call))
    return ops


def run_pass(pass_inputs, tracer, work_dir):
    """Returns {op id: result or exception} and, per operation, a one-item
    list with its latency in ms."""
    results = {}
    latencies = []
    for op_id, call in _ops(pass_inputs):
        with tracer.op(op_id):
            t0 = perf_counter()
            try:
                results[op_id] = call()
            except Exception as exc:  # recorded as a failed operation
                results[op_id] = exc
            latencies.append([(perf_counter() - t0) * 1e3])
    return results, latencies


def references(pass_inputs) -> dict:
    """Exact finite-n moments per convergence row and oracle transforms per
    Monte Carlo estimate."""
    moments = []
    for s in pass_inputs["scaling"]:
        spec = _spec(s)
        rows = []
        for n in s["n_list"]:
            model = sc.scaled_model(spec, n)
            if isinstance(model, sc.TelegraphParams):
                model = sc.telegraph_to_model(model)
            l0, l1 = model.rates.lambda0, model.rates.lambda1
            rows.append(
                switching_moments(
                    (l0, l1), model.a_vec, model.b_vec, model.gamma_vec,
                    s["x0"], SCALING_T, (l1 / (l0 + l1), l0 / (l0 + l1)),
                )
            )
        moments.append(rows)
    oracle = []
    for m in pass_inputs["mc"]:
        query = FptQuery(m["q"], m["x"], m["y"], m["state"])
        oracle.append(fpt_integral_oracle(query, KacOuModel.from_values(*m["model"])))
    return {"moments": moments, "oracle": oracle}


def _check_rows(out, s, rows, exact):
    if len(rows) != len(s["n_list"]):
        out.fail(f"{len(rows)} rows for {len(s['n_list'])} scales")
        return
    for row, n, (mean, var) in zip(rows, s["n_list"], exact):
        fields = (row.emp_mean, row.emp_var, row.mean_stderr, row.var_stderr)
        if row.n != n or not all(math.isfinite(v) for v in fields):
            out.fail(f"row n={row.n}: malformed {fields}")
            return
        mean_tol = SIGMAS * math.sqrt(var / SCALING_PATHS)
        if abs(row.emp_mean - mean) > mean_tol:
            out.fail(f"n={n}: mean {row.emp_mean!r} vs exact {mean!r} (tol {mean_tol:.3g})")
        if abs(row.emp_var - var) > SIGMAS * row.var_stderr:
            out.fail(f"n={n}: variance {row.emp_var!r} vs exact {var!r} (tol {SIGMAS * row.var_stderr:.3g})")


def check(pass_inputs, refs, results, work_dir) -> list[Outcome]:
    outcomes = []
    n_scaling = len(pass_inputs["scaling"])
    n_mc = len(pass_inputs["mc"])
    for k, (op_id, _) in enumerate(_ops(pass_inputs)):
        out = Outcome(op_id)
        result = results[op_id]
        outcomes.append(out)
        if isinstance(result, Exception):
            out.fail(error_text(result))
        elif k < n_scaling:
            _check_rows(out, pass_inputs["scaling"][k], result, refs["moments"][k])
        elif k < n_scaling + n_mc:
            ref = refs["oracle"][k - n_scaling]
            tol = SIGMAS * result.stderr + ORACLE_ATOL
            if result.n != MC_PATHS or not (0.0 <= result.mean <= 1.0):
                out.fail(f"malformed estimate {result}")
            elif abs(result.mean - ref) > tol:
                out.fail(f"MC {result.mean!r} vs oracle {ref!r} (tol {tol:.3g})")
        else:
            tol = histogram_l1_tolerance(PROFILE_BINS, PROFILE_PATHS)
            dists = (result.pooled,) + tuple(result.per_state or (math.inf, math.inf))
            if not all(0.0 <= d <= tol for d in dists):
                out.fail(f"histogram L1 distances {dists} exceed {tol:.3g}")
    return outcomes
