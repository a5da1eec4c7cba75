#!/usr/bin/env python3
"""kacou benchmark runner: one seeded workload in one fresh process.

    python3 bench/run.py --workload transforms --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 25

A run imports kacou from ``src/`` of the checkout it sits in, generates the
workload's inputs from the seed, and runs as many passes of the workload as
fill about ``--seconds`` of timed work on the reference host (see
pass_count).  Every pass gets fresh inputs.
Reference values and output checks run between passes, outside the timed
region.  With ``--trace 1`` each pass runs twice, untraced and traced in
alternating order, and the traced run yields the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
report with sample counts, failures, the inputs digest and the environment.
``--all`` runs every workload untraced and traced, each in its own process,
and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("transforms", "montecarlo", "cli_files")
# fresh processes that repeat the set-up, so setup_s is a median of nine
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 170
# On a shared host the CPU speed can drift by 2x within seconds (seen on a
# 2-vCPU virtual machine), moving interpreter and numpy code alike.  A fixed
# calibration kernel, independent of kacou, is timed right next to what it
# scales: a short one before each pass and after every operation, the full
# one after every set-up.  Each operation's time is scaled by
# CALIBRATION_REF_S over the mean of the calibrations around it, each set-up
# by CALIBRATION_REF_S over the calibration after it.  Times are thus seconds
# on a host where the full kernel takes CALIBRATION_REF_S; the raw times are
# in the report line.  Only a calibration adjacent in time tracks the drift
# (evidence in README.md, "Measurement noise on a shared host").
CALIBRATION_REF_S = 0.1
# share of the full kernel timed after each operation (about 25 ms)
OP_CALIBRATION = 0.25
# below this many latency samples p99 has fewer than 10 beyond it (see
# latency_samples)
POOLED_LATENCY_MIN = 1000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def setup(workload: str, seed: int):
    """Import kacou and the workload, generate its inputs: the timed set-up."""
    t0 = perf_counter()
    kacou = importlib.import_module("kacou")
    module = importlib.import_module(workload)
    inputs = module.generate(seed)
    elapsed = perf_counter() - t0
    if os.path.dirname(os.path.abspath(kacou.__file__)) != os.path.join(SRC, "kacou"):
        raise SystemExit(f"error: kacou was imported from {kacou.__file__}, not from {SRC}")
    return module, inputs, elapsed


def probe_setup(workload: str, seed: int) -> tuple[float, float, str]:
    """Set-up time, the calibration timed right after it, and the inputs
    digest, from a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    body = json.loads(proc.stdout.strip().splitlines()[-1])
    return body["setup_s"], body["calibration_s"], body["inputs_sha256"]


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "kacou")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree (read without git)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "KACOU_THREADS": os.environ.get("KACOU_THREADS", "unset (1 worker)"),
    }


def percentile(values, pct: float) -> float:
    import numpy

    return float(numpy.percentile(numpy.asarray(values), pct))


def calibrate(share: float = 1.0) -> float:
    """Seconds for a fixed interpreter loop plus a fixed numpy kernel, or for
    `share` of both, divided by `share`."""
    import numpy

    t0 = perf_counter()
    acc = 0
    for i in range(round(1_000_000 * share)):
        acc += i * i
    x = numpy.linspace(0.0, 1.0, 16384)
    for _ in range(round(600 * share)):
        x = numpy.exp(-x) * 0.5 + numpy.sqrt(x)
    return (perf_counter() - t0) / share


class CalibratingClock:
    """Tracing off, with a short calibration after every operation; the
    calibrations are timed inside the pass and taken out of it again by
    scale_pass."""

    def __init__(self):
        self.marks = []  # (operation end, calibration, resume) per operation

    @contextlib.contextmanager
    def op(self, op_id):
        yield
        end = perf_counter()
        cal = calibrate(OP_CALIBRATION)
        self.marks.append((end, cal, perf_counter()))


def scale_pass(t0, t1, first_cal, marks, latencies):
    """Raw and calibrated pass time, and calibrated latencies, from a pass
    run between t0 and t1 with a CalibratingClock.  The pass splits into one
    stretch per operation, from the previous resume to the operation's end,
    plus the tail after the last; each stretch and the operation's latencies
    are scaled by the mean of the calibrations around the operation."""
    if len(marks) != len(latencies):
        raise RuntimeError(f"{len(latencies)} latency lists for {len(marks)} operations")
    cals = [first_cal] + [cal for _, cal, _ in marks]
    factors = [2.0 * CALIBRATION_REF_S / (a + b) for a, b in zip(cals, cals[1:])]
    starts = [t0] + [resume for _, _, resume in marks]
    ends = [end for end, _, _ in marks] + [t1]
    stretches = [end - start for start, end in zip(starts, ends)]
    wall = sum(stretches)
    scaled = sum(d * f for d, f in zip(stretches, factors + factors[-1:]))
    lats = [[x * f for x in op_lats] for op_lats, f in zip(latencies, factors)]
    return wall, scaled, lats


def latency_samples(per_pass) -> list[float]:
    """Latencies pooled over passes when there are enough for p99 to have
    ten samples beyond it.  Otherwise (a few heavy operations per pass) one
    value per operation slot, its median over passes, so that a single pass
    slowed by the host does not set the tail."""
    pooled = [x for lats in per_pass for x in lats]
    if len(pooled) >= POOLED_LATENCY_MIN:
        return pooled
    return [statistics.median(slot) for slot in zip(*per_pass)]


def timed_pass(module, pass_inputs, work_dir, tracer=None):
    """(raw wall, calibrated wall, results, raw and calibrated latencies per
    operation).  Without a tracer the pass is calibrated.  With one (a
    Tracer, or a NullTracer for the untraced twin of a traced pass) it is
    not: both walls are raw and the latencies are None."""
    from tracing import Tracer, install

    if tracer is not None:
        restore = install(tracer) if isinstance(tracer, Tracer) else None
        try:
            t0 = perf_counter()
            results, _ = module.run_pass(pass_inputs, tracer, work_dir)
            wall = perf_counter() - t0
        finally:
            if restore is not None:
                restore()
        return wall, wall, results, None, None
    clock = CalibratingClock()
    first_cal = calibrate(OP_CALIBRATION)
    t0 = perf_counter()
    results, latencies = module.run_pass(pass_inputs, clock, work_dir)
    t1 = perf_counter()
    wall, scaled, lats = scale_pass(t0, t1, first_cal, clock.marks, latencies)
    return wall, scaled, results, latencies, lats


def pass_count(module, seconds: float, trace: bool) -> int:
    """Passes in a run: the workload's nominal pass length divided into
    `seconds` (twice the length when each pass also runs traced), at least
    MIN_PASSES and at most the PASSES generated.  The count depends on the
    arguments only, never on elapsed time, so every run with one seed attempts
    the same operations and fails the same ones."""
    per_pass = module.PASS_S * (2 if trace else 1)
    return min(module.PASSES, max(module.MIN_PASSES, int(seconds // per_pass)))


def measure(module, inputs, seconds: float, trace: bool) -> dict:
    """The passes that pass_count gives for `seconds`."""
    from tracing import NullTracer, Tracer, layer_metrics, self_total

    walls, scaled_walls, latencies, scaled_latencies, outcomes, traced = [], [], [], [], [], []
    traced_unexpected = 0
    for k, pass_inputs in enumerate(inputs[: pass_count(module, seconds, trace)]):
        order = (False, True) if k % 2 == 0 else (True, False)
        for with_trace in (order if trace else (False,)):
            # the untraced twin of a traced pass runs as plainly as the
            # traced one, so trace.overhead_s compares like with like
            tracer = Tracer() if with_trace else (NullTracer() if trace else None)
            # an empty directory per pass: no output of an earlier pass can
            # stand in for a missing one
            work_dir = tempfile.mkdtemp(prefix="pass-", dir=OUT)
            try:
                wall, scaled, results, lats, scaled_lats = timed_pass(module, pass_inputs, work_dir, tracer)
                refs = module.references(pass_inputs)
                checked = module.check(pass_inputs, refs, results, work_dir)
                sizes = module.pass_sizes(pass_inputs, work_dir) if hasattr(module, "pass_sizes") else {}
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            if not with_trace:
                walls.append(wall)
                scaled_walls.append(scaled)
                outcomes.extend(checked)
                if lats is not None:
                    latencies.append([x for op in lats for x in op])
                    scaled_latencies.append([x for op in scaled_lats for x in op])
            else:
                traced.append((wall, tracer, layer_metrics(tracer.spans, sizes), self_total(tracer.spans)))
                traced_unexpected += sum(1 for o in checked if not o.ok and not o.known)
    return {"walls": walls, "scaled_walls": scaled_walls, "latencies": latencies,
            "scaled_latencies": scaled_latencies, "outcomes": outcomes, "traced": traced,
            "traced_unexpected": traced_unexpected, "passes": len(walls)}


def run_workload(args) -> int:
    module, inputs, setup_main = setup(args.workload, args.seed)
    setup_cal = calibrate()
    from common import inputs_digest

    digest = inputs_digest(inputs)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_main, "calibration_s": setup_cal, "inputs_sha256": digest}))
        return 0

    setups, setup_cals = [setup_main], [setup_cal]
    digests_agree = True
    for _ in range(0 if args.trace else SETUP_PROBES):
        seconds, cal, other = probe_setup(args.workload, args.seed)
        setups.append(seconds)
        setup_cals.append(cal)
        digests_agree &= other == digest

    os.makedirs(OUT, exist_ok=True)
    run = measure(module, inputs, args.seconds, bool(args.trace))

    outcomes = run["outcomes"]
    failed = [o for o in outcomes if not o.ok]
    unexpected = [o for o in failed if not o.known]
    correct = digests_agree and not unexpected
    raw = {}
    if args.trace:
        metrics = trace_metrics(run["traced"], run["walls"])
        sums_ok = all(total <= w for w, _, _, total in run["traced"])
        correct = correct and sums_ok and run["traced_unexpected"] == 0
        dump_spans(args, run["traced"])
        samples = []
    else:
        samples = latency_samples(run["scaled_latencies"])
        raw_samples = latency_samples(run["latencies"])
        metrics = {
            "wall_s": (statistics.median(run["scaled_walls"]), "s"),
            "setup_s": (statistics.median(t * CALIBRATION_REF_S / c for t, c in zip(setups, setup_cals)), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "ok_frac": (1.0 - len(failed) / len(outcomes), "fraction"),
            "query_p50_ms": (percentile(samples, 50), "ms"),
            "query_p99_ms": (percentile(samples, 99), "ms"),
        }
        raw = {
            "wall_s": statistics.median(run["walls"]),
            "setup_s": statistics.median(setups),
            "query_p50_ms": percentile(raw_samples, 50),
            "query_p99_ms": percentile(raw_samples, 99),
            "setup_calibration_s": setup_cals,
        }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": run["passes"],
        "pass_wall_s": run["walls"],
        "pass_wall_calibrated_s": run["scaled_walls"],
        "setup_samples_s": setups,
        "raw": raw,
        "operation_latencies": sum(len(lats) for lats in run["latencies"]),
        "latency_samples": len(samples),
        "attempted": len(outcomes),
        "failed": len(failed),
        "failed_frac": len(failed) / len(outcomes),
        "failed_known_defect": len(failed) - len(unexpected),
        "failures": [f"{o.op}: {o.error}" for o in failed[:20]],
        "inputs": module.describe(inputs[: run["passes"]]),
        "inputs_sha256": digest,
        "inputs_deterministic": digests_agree,
        "environment": environment(),
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<11} {name:<48} {value:>16.6g} {unit}")
    print(json.dumps(report))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def trace_metrics(traced, untraced_walls) -> dict:
    """Per-pass means of the per-layer metrics, with the tracing overhead."""
    out = {}
    for name in traced[0][2]:
        unit = traced[0][2][name][1]
        out[name] = (statistics.fmean(m[name][0] for _, _, m, _ in traced), unit)
    traced_walls = [w for w, _, _, _ in traced]
    out["trace.wall_s"] = (statistics.median(traced_walls), "s")
    out["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(untraced_walls), "s")
    return out


def dump_spans(args, traced) -> None:
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    passes = [{"wall_s": w, "spans": [s.as_dict() for s in tr.spans]} for w, tr, _, _ in traced]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "passes": passes}, fh)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace} failed:\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            report, result = json.loads(lines[-2]), json.loads(lines[-1])
            print("\n".join(lines[:-2]))
            print(f"{workload:<11} {'(trace=' + str(trace) + ')':<48} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"passes={report['passes']} latency_samples={report['latency_samples']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kacou", "__init__.py")):
        print(f"error: no kacou package under {SRC}; run from a kacou checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
