"""`cli_files` workload: ``kacou.cli.main`` in-process on generated configs.

The only workload where the CLI's own code (config parsing, 17-digit
formatting, atomic writes) and the scalar per-path functions
(``sample_switch_sequence``, ``evaluate_x``, ``sample_m_path``) do the work.
Every output file is parsed back and checked.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from time import perf_counter

import numpy as np

import kacou.cli as cli
from kacou import FptQuery, KacOuModel, fpt_integral_oracle

from common import Outcome, error_text, log_uniform, rng_for

NAME = "cli_files"
PASSES = 16
# three passes, so a per-slot median over passes outvotes one slowed pass
MIN_PASSES = 3
# nominal seconds of one untraced pass on a 2-vCPU host; sets the pass count
PASS_S = 4.0

# Path mode costs (switch rate * horizon)^2: the stationary switch rate is
# held at 1 and the horizons vary little, so cost matches from seed to seed.
# The shorter path still costs clearly more than the fpt command, so the
# median command is the same one under every seed.
PATH_HORIZONS = ((1300.0, 1400.0), (1900.0, 2000.0))
FPT_SAMPLE_ROWS = 200_000
FPT_MC_SAMPLES = 200_000
Q_GRID = (0.5, 1.0, 2.0)
SAMPLE_Q = 1.0
INVARIANT_POINTS = 401
SIGMAS = 5.0
ORACLE_ATOL = 1e-4
# Criterion 5 bounds mass by 1e-8 and the relative stationarity residual by
# 1e-10 on an interior grid.  The CLI grid reaches within 1e-6 of the width
# of each endpoint singularity, where the residual of sampled configs reaches
# 2.4e-10 from rounding alone; 1e-9 leaves room for that and no more.
MASS_ATOL = 1e-8
RESIDUAL_MAX = 1e-9
# flowing the previous row forward reproduces a row up to rounding
FLOW_ATOL = 1e-9


def _config(rng):
    lam0 = log_uniform(rng, 0.8, 1.25)
    lam1 = lam0 / (2.0 * lam0 - 1.0)  # stationary switch rate 2 l0 l1 / (l0 + l1) = 1
    g0, g1 = log_uniform(rng, 0.7, 1.5), log_uniform(rng, 0.7, 1.5)
    rho0 = float(rng.uniform(-1.0, 1.0))
    rho1 = rho0 + float(rng.uniform(0.5, 1.5))
    b0, b1 = log_uniform(rng, 0.2, 0.6), log_uniform(rng, 0.2, 0.6)
    y = rho0 + float(rng.uniform(0.4, 0.8)) * (rho1 - rho0)
    x = rho0 + float(rng.uniform(0.05, 0.3)) * (rho1 - rho0)
    return {
        "model": [lam0, lam1, rho0 * g0, rho1 * g1, b0, b1, g0, g1],
        "seed": int(rng.integers(1, 2**31)),
        "x": x,
        "y": y,
        "state": int(rng.integers(0, 2)),
        "x0": float(rng.uniform(rho0, rho1)),
        "horizons": [float(rng.uniform(lo, hi)) for lo, hi in PATH_HORIZONS],
    }


def generate(seed: int) -> list[dict]:
    rng = rng_for(NAME, seed)
    return [_config(rng) for _ in range(PASSES)]


def describe(passes) -> dict:
    return {"commands_per_pass": len(_commands(passes[0], ".")), "horizons": [p["horizons"] for p in passes]}


def _fmt(v: float) -> str:
    return format(v, ".17g")


def config_text(c, out_dir: str) -> str:
    names = ("lambda0", "lambda1", "a0", "a1", "b0", "b1", "gamma0", "gamma1")
    lines = ["[model]"] + [f"{k} = {_fmt(v)}" for k, v in zip(names, c["model"])]
    lines += ["", "[run]", f"seed = {c['seed']}", f"out_dir = {out_dir}"]
    lines += [
        "",
        "[fpt]",
        "q_grid = " + ", ".join(_fmt(q) for q in Q_GRID),
        f"x = {_fmt(c['x'])}",
        f"y = {_fmt(c['y'])}",
        f"state = {c['state']}",
        f"mc_samples = {FPT_MC_SAMPLES}",
        "",
        "[invariant]",
        f"grid_points = {INVARIANT_POINTS}",
        "",
        "[simulate]",
        f"x0 = {_fmt(c['x0'])}",
        f"x = {_fmt(c['x'])}",
        f"y = {_fmt(c['y'])}",
        f"state0 = {c['state']}",
        "eval_points = 201",
        "with_noise = true",
    ]
    return "\n".join(lines) + "\n"


def _commands(c, work_dir):
    """(op id, argv, output directory) for the pass."""
    cfg = os.path.join(work_dir, "run.cfg")
    cmds = []
    for i, h in enumerate(c["horizons"]):
        out = os.path.join(work_dir, f"path{i}")
        cmds.append((f"simulate_path{i}", ["simulate", "--config", cfg, "--set", f"simulate.horizon={_fmt(h)}",
                                            "--set", f"run.out_dir={out}"], out))
    out = os.path.join(work_dir, "fpt_samples")
    cmds.append(("simulate_fpt", ["simulate", "--config", cfg, "--set", "simulate.mode=fpt",
                                  "--set", f"simulate.n_paths={FPT_SAMPLE_ROWS}", "--set", f"run.out_dir={out}"], out))
    out = os.path.join(work_dir, "fpt")
    cmds.append(("fpt", ["fpt", "--config", cfg, "--set", f"run.out_dir={out}"], out))
    out = os.path.join(work_dir, "invariant")
    cmds.append(("invariant", ["invariant", "--config", cfg, "--set", f"run.out_dir={out}"], out))
    return cmds


def run_pass(pass_inputs, tracer, work_dir):
    """Writes the config, runs every command; returns {op id: exit code or
    exception} and, per command, a one-item list with its latency in ms."""
    with open(os.path.join(work_dir, "run.cfg"), "w", encoding="utf-8") as fh:
        fh.write(config_text(pass_inputs, os.path.join(work_dir, "out")))
    results = {}
    latencies = []
    for op_id, argv, _ in _commands(pass_inputs, work_dir):
        with tracer.op(op_id), contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            try:
                results[op_id] = cli.main(argv)
            except Exception as exc:  # recorded as a failed operation
                results[op_id] = exc
            latencies.append([(perf_counter() - t0) * 1e3])
    return results, latencies


def references(pass_inputs) -> dict:
    """Oracle transforms for the fpt sample file and the fpt command."""
    model = KacOuModel.from_values(*pass_inputs["model"])
    c = pass_inputs
    return {
        "sample": fpt_integral_oracle(FptQuery(SAMPLE_Q, c["x"], c["y"], c["state"]), model),
        "grid": [fpt_integral_oracle(FptQuery(q, c["x"], c["y"], c["state"]), model) for q in Q_GRID],
    }


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def output_sizes(out_dir: str) -> tuple[int, int]:
    """(CSV data rows, bytes) of every file a command wrote."""
    rows = size = 0
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        size += os.path.getsize(path)
        if name.endswith(".csv"):
            with open(path, "rb") as fh:
                rows += sum(1 for _ in fh) - 1
    return rows, size


def pass_sizes(pass_inputs, work_dir) -> dict:
    rows = size = 0
    for _, _, out_dir in _commands(pass_inputs, work_dir):
        r, b = output_sizes(out_dir)
        rows, size = rows + r, size + b
    return {"cli.rows_written": rows, "cli.bytes_written": size}


def _flow(a, g, dt, x):
    if g == 0.0:
        return x + a * dt
    rho = a / g
    return rho + (x - rho) * math.exp(-g * dt)


def _check_path(out, c, out_dir):
    header, rows = _read_csv(os.path.join(out_dir, "paths.csv"))
    if header != ["path", "t", "state", "x", "m"] or not rows:
        out.fail(f"unexpected path header {header}")
        return
    data = np.array([[float(v) for v in r[1:]] for r in rows])
    t, state, x, m = data.T
    lam0, lam1, a0, a1, b0, b1, g0, g1 = c["model"]
    lo, hi = sorted((a0 / g0, a1 / g1))
    if not np.all(np.isfinite(data)):
        out.fail("non-finite path values")
    elif not (np.all(np.diff(t) > 0.0) and t[0] == 0.0):
        out.fail("path times are not strictly increasing from 0")
    elif not np.all((state == 0) | (state == 1)):
        out.fail("states outside {0, 1}")
    elif not (np.all(x >= lo - FLOW_ATOL) and np.all(x <= hi + FLOW_ATOL)):
        out.fail(f"mean path leaves its trapping set [{lo}, {hi}]")
    else:
        a, g = (a0, a1), (g0, g1)
        for k in range(1, len(t)):
            s = int(state[k - 1])
            expect = _flow(a[s], g[s], t[k] - t[k - 1], x[k - 1])
            if abs(expect - x[k]) > FLOW_ATOL:
                out.fail(f"row {k}: x={x[k]!r} but the flow from the previous row gives {expect!r}")
                break


def _check_fpt_samples(out, c, out_dir, ref):
    """Streams the sample file, so checking it adds little to peak memory."""
    n = total = total2 = 0.0
    with open(os.path.join(out_dir, "fpt_samples.csv"), encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        for line in fh:
            _, outcome, t_text, _ = line.split(",")
            t = float(t_text)
            if not (math.isfinite(t) and t >= 0.0) or outcome not in ("hit", "censored"):
                out.fail(f"malformed sample row {line!r}")
                return
            w = math.exp(-SAMPLE_Q * t) if outcome == "hit" else 0.0
            n, total, total2 = n + 1, total + w, total2 + w * w
    if header != ["sample", "outcome", "time", "reason"] or n != FPT_SAMPLE_ROWS:
        out.fail(f"unexpected sample file: header {header}, {n:.0f} rows")
        return
    mean = total / n
    tol = SIGMAS * math.sqrt(max(total2 / n - mean * mean, 0.0) / (n - 1)) + ORACLE_ATOL
    if abs(mean - ref) > tol:
        out.fail(f"sample mean of exp(-qT) {mean!r} vs oracle {ref!r} (tol {tol:.3g})")


def _check_fpt(out, c, out_dir, refs):
    header, rows = _read_csv(os.path.join(out_dir, "fpt.csv"))
    if len(rows) != len(Q_GRID):
        out.fail(f"{len(rows)} fpt rows for {len(Q_GRID)} rates")
        return
    col = {name: i for i, name in enumerate(header)}
    for row, q, ref in zip(rows, Q_GRID, refs):
        closed = float(row[col["closed_form"]])
        oracle = float(row[col["oracle"]])
        mc, se = float(row[col["mc_mean"]]), float(row[col["mc_stderr"]])
        if float(row[col["q"]]) != q:
            out.fail(f"row for q={row[col['q']]} where {q} was asked")
        elif abs(closed - ref) > ORACLE_ATOL or abs(oracle - ref) > ORACLE_ATOL:
            out.fail(f"q={q}: closed {closed!r}, oracle column {oracle!r}, reference {ref!r}")
        elif abs(mc - ref) > SIGMAS * se + ORACLE_ATOL:
            out.fail(f"q={q}: MC {mc!r} +- {se!r} vs reference {ref!r}")


def _check_invariant(out, c, out_dir):
    header, rows = _read_csv(os.path.join(out_dir, "invariant.csv"))
    with open(os.path.join(out_dir, "invariant_summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    data = np.array([[float(v) for v in r] for r in rows])
    if header != ["x", "pi0", "pi1"] or data.shape != (INVARIANT_POINTS, 3):
        out.fail(f"unexpected invariant grid: header {header}, shape {data.shape}")
    elif not (np.all(np.isfinite(data)) and np.all(data[:, 1:] >= 0.0)):
        out.fail("invariant densities are not finite and non-negative")
    elif not summary.get("exists"):
        out.fail("no invariant density reported for an attracting model")
    elif abs(summary["mass_check"] - 1.0) > MASS_ATOL:
        out.fail(f"mass {summary['mass_check']!r} differs from 1 by more than {MASS_ATOL}")
    elif summary["residual_max"] > RESIDUAL_MAX:
        out.fail(f"stationarity residual {summary['residual_max']!r} above {RESIDUAL_MAX}")


def check(pass_inputs, refs, results, work_dir) -> list[Outcome]:
    outcomes = []
    for op_id, _, out_dir in _commands(pass_inputs, work_dir):
        out = Outcome(op_id)
        outcomes.append(out)
        code = results[op_id]
        if isinstance(code, Exception):
            out.fail(error_text(code))
            continue
        if code != 0:
            out.fail(f"exit code {code}")
            continue
        try:
            if op_id.startswith("simulate_path"):
                _check_path(out, pass_inputs, out_dir)
            elif op_id == "simulate_fpt":
                _check_fpt_samples(out, pass_inputs, out_dir, refs["sample"])
            elif op_id == "fpt":
                _check_fpt(out, pass_inputs, out_dir, refs["grid"])
            else:
                _check_invariant(out, pass_inputs, out_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            out.fail(f"unreadable output: {error_text(exc)}")
    return outcomes
