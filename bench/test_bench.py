"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

import json
import os
import re
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import cli_files  # noqa: E402
import montecarlo  # noqa: E402
import transforms  # noqa: E402
import tracing  # noqa: E402
from common import inputs_digest  # noqa: E402
from reference import expm, switching_moments  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = (transforms, montecarlo, cli_files)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("module", WORKLOADS, ids=lambda m: m.NAME)
def test_generator_is_deterministic(module):
    first, again, other = module.generate(7), module.generate(7), module.generate(8)
    assert json.dumps(first) == json.dumps(again)
    assert inputs_digest(first) == inputs_digest(again)
    assert inputs_digest(first) != inputs_digest(other)
    assert len(first) == module.PASSES


@pytest.mark.parametrize("module", WORKLOADS, ids=lambda m: m.NAME)
def test_pass_count_depends_on_arguments_only(module):
    import run

    untraced = run.pass_count(module, 25, False)
    assert untraced == run.pass_count(module, 25, False)
    assert module.MIN_PASSES <= run.pass_count(module, 25, True) <= untraced <= module.PASSES
    assert run.pass_count(module, 0.5, False) == module.MIN_PASSES
    assert run.pass_count(module, 1e6, False) == module.PASSES


def test_scale_pass_takes_out_calibrations_and_scales_each_operation():
    import run

    ref = run.CALIBRATION_REF_S
    # two operations: 0-2 s and 3-4 s, calibrations 2-3 s and 4-5 s, tail 5-5.5 s
    marks = [(2.0, ref, 3.0), (4.0, 3 * ref, 5.0)]
    wall, scaled, lats = run.scale_pass(0.0, 5.5, ref, marks, [[10.0, 20.0], [30.0]])
    assert wall == pytest.approx(3.5)
    # factors: 1 around the first operation, 1/2 around the second and the tail
    assert scaled == pytest.approx(2.0 + 0.5 + 0.25)
    assert lats == [[pytest.approx(10.0), pytest.approx(20.0)], [pytest.approx(15.0)]]
    with pytest.raises(RuntimeError):
        run.scale_pass(0.0, 5.5, ref, marks, [[10.0]])


def test_every_metric_name_is_well_formed_and_listed():
    spec = _spec()
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    declared += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in declared)
    assert len(declared) == len(set(declared))
    produced = set(tracing.layer_metrics([])) | {"trace.wall_s", "trace.overhead_s"}
    assert produced == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == {m.NAME for m in WORKLOADS}


def _span(sid, name, start, end, parent=None, **counts):
    s = tracing.Span(sid, name, start, parent, "op")
    s.end = end
    s.counts.update(counts)
    return s


def test_self_time_arithmetic_on_synthetic_spans():
    spans = [
        _span(0, tracing.OP_SPAN, 0.0, 10.0),
        _span(1, "first_passage.closed", 1.0, 5.0, 0),
        _span(2, "specfun", 1.5, 2.5, 1, terms=100),
        _span(3, "specfun", 3.0, 4.0, 1, terms=300),
        _span(4, "first_passage.oracle", 6.0, 9.0, 0),
        _span(5, "first_passage.oracle", 6.5, 8.5, 4),  # recursive call
        _span(6, "cli", 9.0, 10.0, 0),
    ]
    spans[6].agg["simulate.path"] = [0.25, 7]
    selfs = tracing.self_times(spans)
    assert selfs["first_passage.closed"] == pytest.approx(2.0)
    assert selfs["specfun"] == pytest.approx(2.0)
    assert selfs["first_passage.oracle"] == pytest.approx(3.0)
    assert selfs["cli"] == pytest.approx(0.75)
    assert selfs["simulate.path"] == pytest.approx(0.25)
    assert selfs[tracing.OP_SPAN] == pytest.approx(2.0)
    assert tracing.self_total(spans) == pytest.approx(10.0)
    assert tracing.busy_time(spans, "first_passage.oracle") == pytest.approx(3.0)
    assert tracing.busy_time(spans, "simulate.path") == pytest.approx(0.25)
    m = tracing.layer_metrics(spans)
    assert m["first_passage.oracle.calls"][0] == 1
    assert m["first_passage.oracle.ms_per_curve"][0] == pytest.approx(3000.0)
    assert m["specfun.terms"][0] == 400
    assert m["specfun.ns_per_term"][0] == pytest.approx(2.0 / 400 * 1e9)
    assert m["simulate.path.evaluate_x_calls"][0] == 7


def test_install_wraps_caller_names_and_restores():
    import kacou.cli
    import kacou.first_passage

    original = kacou.first_passage.gauss_2f1_log
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert kacou.first_passage.gauss_2f1_log is not original
        assert kacou.specfun.gauss_2f1_log is original
        with tracer.op("probe"):
            kacou.first_passage.laplace_fpt(
                kacou.FptQuery(1.0, 0.25, 0.75, 1),
                kacou.KacOuModel.from_values(1, 1, 0, 1, 0, 0, 1, 1),
            )
    finally:
        restore()
    assert kacou.first_passage.gauss_2f1_log is original
    names = [s.name for s in tracer.spans]
    assert names[:2] == [tracing.OP_SPAN, "first_passage.closed"] and "specfun" in names
    assert all(s.op == "probe" for s in tracer.spans)


def _small_transforms_pass():
    """One attracting group at moderate q and target distance."""
    return {"groups": [transforms._group(np.random.default_rng(0), "attracting", "up", 1.0, 0.2)]}


def test_injected_failure_raises_failed_frac(monkeypatch, tmp_path):
    pass_inputs = _small_transforms_pass()
    results, _ = transforms.run_pass(pass_inputs, tracing.NullTracer(), str(tmp_path))
    clean = transforms.check(pass_inputs, None, results, str(tmp_path))
    assert len(clean) == 21 and all(o.ok for o in clean)

    import kacou.first_passage as fp

    real = fp.laplace_fpt
    calls = []

    def flaky(query, model):
        calls.append(query)
        if len(calls) == 3:
            raise ArithmeticError("injected")
        value = real(query, model)
        return value + 0.01 if len(calls) == 5 else value

    monkeypatch.setattr(fp, "laplace_fpt", flaky)
    results, _ = transforms.run_pass(pass_inputs, tracing.NullTracer(), str(tmp_path))
    outcomes = transforms.check(pass_inputs, None, results, str(tmp_path))
    failed = [o for o in outcomes if not o.ok]
    assert len(failed) == 2 and not any(o.known for o in failed)
    assert "injected" in failed[0].error
    assert len(failed) / len(outcomes) > sum(not o.ok for o in clean) / len(clean)


def test_expm_and_exact_moments():
    gen = np.array([[-3.0, 2.0, 0.0], [1.0, -2.0, 5.0], [2.0, 0.0, -5.0]]) * 40.0
    scipy_linalg = pytest.importorskip("scipy.linalg")
    assert np.allclose(expm(gen), scipy_linalg.expm(gen), rtol=1e-10, atol=1e-13)
    # no switching effect when both states share their coefficients: plain OU
    a, b, g, x0, t = 0.7, 0.4, 1.3, 0.2, 0.9
    mean, var = switching_moments((3.0, 5.0), (a, a), (b, b), (g, g), x0, t, (0.4, 0.6))
    decay = np.exp(-g * t)
    assert mean == pytest.approx(a / g + (x0 - a / g) * decay, rel=1e-12)
    assert var == pytest.approx(b * b * (1 - decay**2) / (2 * g), rel=1e-10)


def test_config_text_round_trips_through_the_cli_parser(tmp_path):
    from kacou.config import load_config

    c = cli_files.generate(5)[0]
    cfg = load_config(None, text=cli_files.config_text(c, str(tmp_path)))
    assert [cfg.model.rates.lambda0, cfg.model.rates.lambda1] == c["model"][:2]
    assert cfg.get("simulate", "x0") == c["x0"] and cfg.seed == c["seed"]


def test_known_defect_class_is_narrow():
    rng = np.random.default_rng(1)
    ar_down = transforms._group(rng, "attraction_repulsion", "down", 50.0, 0.1)
    attracting = transforms._group(rng, "attracting", "up", 50.0, 0.1)
    curve = (np.full(10, 0.5), np.full(10, 0.5))
    wrong = [0.9] + [0.5] * 19
    outcomes = transforms.check({"groups": [ar_down, attracting]}, None,
                                [(curve, wrong), (curve, wrong)], ".")
    failed = [o for o in outcomes if not o.ok]
    assert [o.op for o in failed] == ["group0.x0.s0", "group1.x0.s0"]
    assert [o.known for o in failed] == [True, False]


def test_run_refuses_without_program_sources(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "transforms", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
