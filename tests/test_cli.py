import json
import math
import os
import stat
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacou.cli import _CSV_BLOCK, _conversion, _csv_blocks, _fmt, main
from kacou.config import ConfigError, config_hash, load_config

BASE_CFG = """
[model]
lambda0 = 1.0
lambda1 = 1.0
a0 = 0.0
a1 = 1.0
b0 = 0.0
b1 = 0.0
gamma0 = 1.0
gamma1 = 1.0

[run]
seed = 77
out_dir = {out}

[fpt]
q_grid = 0.5, 1.0
x = 0.25
y = 0.75
state = 1
mc_samples = 20000

[invariant]
grid_points = 21

[simulate]
mode = fpt
n_paths = 500
x = 0.25
y = 0.75
state0 = 1

[scaling]
kind = telegraph
nu = 1.0
sigma0 = 1.0
delta = 0.3
t = 1.0
n_list = 10, 50
n_paths = 5000
"""


def write_cfg(tmp_path, name="run.cfg", out=None):
    out = out or str(tmp_path / "out")
    path = tmp_path / name
    path.write_text(BASE_CFG.format(out=out))
    return str(path), out


# --- config layer -------------------------------------------------------------


def test_load_config_roundtrip(tmp_path):
    path, out = write_cfg(tmp_path)
    cfg = load_config(path)
    assert cfg.seed == 77
    assert cfg.model.rates.lambda0 == 1.0
    assert cfg.get_list("fpt", "q_grid") == [0.5, 1.0]
    assert len(config_hash(cfg.raw_text)) == 64


def test_invalid_rate_names_key(tmp_path):
    path, _ = write_cfg(tmp_path)
    with pytest.raises(ConfigError) as err:
        load_config(path, overrides=["model.lambda0=-1"])
    assert "lambda0" in str(err.value)


def test_missing_model_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[model]\nlambda0 = 1.0\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "lambda1" in str(err.value)


def test_boolean_spellings(tmp_path):
    path, _ = write_cfg(tmp_path)
    for raw, value in (("1", True), ("TRUE", True), ("Yes", True), (" on ", True),
                       ("0", False), ("False", False), ("NO", False), ("off", False)):
        cfg = load_config(path, overrides=[f"simulate.with_noise={raw}"])
        assert cfg.get("simulate", "with_noise", cast=bool) is value
    cfg = load_config(path, overrides=["simulate.with_noise=ture"])
    with pytest.raises(ConfigError) as err:
        cfg.get("simulate", "with_noise", cast=bool)
    assert err.value.key == "simulate.with_noise"


def test_misspelled_boolean_exits_2(tmp_path, capsys):
    path, out = write_cfg(tmp_path)
    code = main(["simulate", "--config", path, "--set", "simulate.mode=path", "--set", "simulate.with_noise=ture"])
    assert code == 2
    assert "simulate.with_noise" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "paths.csv"))


def test_override_changes_hash(tmp_path):
    path, _ = write_cfg(tmp_path)
    a = load_config(path)
    b = load_config(path, overrides=["fpt.x=0.3"])
    assert config_hash(a.raw_text) != config_hash(b.raw_text)


# --- subcommands ----------------------------------------------------------------


def test_cli_exit_codes(tmp_path, capsys):
    path, _ = write_cfg(tmp_path)
    assert main(["fpt", "--config", path, "--set", "model.lambda0=-2"]) == 2
    err = capsys.readouterr().err
    assert "lambda0" in err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("simulate", "simulate.n_paths", "0"),
        ("simulate", "simulate.n_paths", "-5"),
        ("simulate", "simulate.n_paths", "inf"),
        ("simulate", "simulate.n_paths", "nan"),
        ("simulate", "simulate.eval_points", "-3"),
        # grid counts past MAX_GRID_POINTS are refused before any allocation
        ("simulate", "simulate.eval_points", "1e9"),
        ("simulate", "simulate.eval_points", "1e300"),
        ("invariant", "invariant.grid_points", "0"),
        ("invariant", "invariant.grid_points", "1e9"),
        ("invariant", "invariant.grid_points", "1e300"),
        ("scaling", "scaling.n_paths", "-1"),
        ("scaling", "scaling.n_list", "0.5"),
        ("scaling", "scaling.n_list", "10, 0"),
        ("fpt", "fpt.mc_samples", "999"),
        ("simulate", "simulate.cap_switches", "nan"),
    ],
)
def test_counts_below_minimum_exit_2(tmp_path, capsys, command, key, value):
    path, out = write_cfg(tmp_path)
    argv = [command, "--config", path, "--set", f"{key}={value}"]
    if key == "simulate.eval_points":
        argv += ["--set", "simulate.mode=path"]
    assert main(argv) == 2
    assert key in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, key, value, mode",
    [
        ("simulate", "simulate.horizon", "nan", "path"),
        ("simulate", "simulate.horizon", "inf", "path"),
        ("simulate", "simulate.horizon", "0", "path"),
        ("simulate", "simulate.cap_horizon", "nan", "fpt"),
        ("simulate", "simulate.cap_horizon", "-1", "fpt"),
        ("fpt", "fpt.oracle_tol", "0", None),
        ("scaling", "scaling.nu", "0", None),
        ("scaling", "scaling.nu", "inf", None),
        ("scaling", "scaling.nu", "nan", None),
        ("scaling", "scaling.sigma0", "nan", None),
        ("scaling", "scaling.sigma0", "-1", None),
    ],
)
def test_horizons_and_tolerances_must_be_positive(tmp_path, capsys, command, key, value, mode):
    path, out = write_cfg(tmp_path)
    argv = [command, "--config", path, "--set", f"{key}={value}"]
    if mode:
        argv += ["--set", f"simulate.mode={mode}"]
    assert main(argv) == 2
    assert key in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, key, value, mode",
    [
        ("simulate", "simulate.state0", "2", "fpt"),
        ("simulate", "simulate.state0", "-1", "fpt"),
        ("simulate", "simulate.state0", "2", "path"),
        ("fpt", "fpt.state", "nan", None),
        ("fpt", "fpt.state", "0.5", None),
    ],
)
def test_chain_state_must_be_0_or_1(tmp_path, capsys, command, key, value, mode):
    path, out = write_cfg(tmp_path)
    argv = [command, "--config", path, "--set", f"{key}={value}"]
    if mode:
        argv += ["--set", f"simulate.mode={mode}"]
    assert main(argv) == 2
    assert key in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, key, value, mode",
    [
        ("simulate", "simulate.x0", "nan", "path"),
        ("simulate", "simulate.x", "nan", "fpt"),
        ("simulate", "simulate.y", "inf", "fpt"),
        ("fpt", "fpt.x", "nan", None),
        ("fpt", "fpt.y", "-inf", None),
        ("fpt", "fpt.q_grid", "0.5, nan", None),
        ("scaling", "scaling.t", "inf", None),
        ("scaling", "scaling.t", "nan", None),
        ("scaling", "scaling.t", "-1", None),
        ("scaling", "scaling.x0", "nan", None),
        ("scaling", "scaling.delta", "nan", None),
        ("scaling", "scaling.n_list", "10, nan", None),
        ("scaling", "scaling.n_list", "10, inf", None),
        ("invariant", "model.a0", "inf", None),
        ("invariant", "model.lambda0", "nan", None),
        ("invariant", "model.b1", "nan", None),
        ("invariant", "model.gamma1", "-inf", None),
    ],
)
def test_points_and_times_must_be_finite(tmp_path, capsys, command, key, value, mode):
    # a nan point would censor every sample or write nan columns, and an
    # infinite scaling time would never finish
    path, out = write_cfg(tmp_path)
    argv = [command, "--config", path, "--set", f"{key}={value}"]
    if mode:
        argv += ["--set", f"simulate.mode={mode}"]
    assert main(argv) == 2
    assert key in capsys.readouterr().err
    assert not os.path.exists(out)


def test_censoring_counts_in_manifests(tmp_path):
    path, out = write_cfg(tmp_path)
    caps = ["--set", "simulate.cap_horizon=1.5", "--set", "simulate.cap_switches=2"]
    assert main(["simulate", "--config", path] + caps) == 0
    manifest = json.load(open(os.path.join(out, "simulate_manifest.json")))
    rows = open(os.path.join(out, "fpt_samples.csv")).read().splitlines()[1:]
    reasons = [line.rsplit(",", 1)[1] for line in rows]
    counts = {name: reasons.count(name) for name in ("horizon", "switch_cap")}
    assert manifest["censoring"] == counts and min(counts.values()) > 0
    assert main(["fpt", "--config", path]) == 0
    assert json.load(open(os.path.join(out, "fpt_manifest.json")))["censoring"] == {"count": 0}


def test_fpt_csv_contract(tmp_path):
    path, out = write_cfg(tmp_path)
    assert main(["fpt", "--config", path]) == 0
    lines = open(os.path.join(out, "fpt.csv")).read().strip().splitlines()
    assert lines[0] == "q,x,y,state,closed_form,oracle,mc_mean,mc_stderr"
    assert len(lines) == 3
    for line in lines[1:]:
        for tok in line.split(","):
            assert math.isfinite(float(tok))


def test_outputs_byte_identical_across_runs_and_threads(tmp_path):
    # Monte Carlo chunks run in index order in the calling thread, so two runs
    # of one config and seed write the same bytes
    path, out = write_cfg(tmp_path)
    assert main(["fpt", "--config", path]) == 0
    first = open(os.path.join(out, "fpt.csv"), "rb").read()
    assert main(["fpt", "--config", path]) == 0
    second = open(os.path.join(out, "fpt.csv"), "rb").read()
    assert first == second


def test_manifest_contents(tmp_path):
    path, out = write_cfg(tmp_path)
    assert main(["simulate", "--config", path]) == 0
    manifest = json.load(open(os.path.join(out, "simulate_manifest.json")))
    assert manifest["seed"] == 77
    assert manifest["regime"] == "AttractingStrict"
    assert len(manifest["config_hash"]) == 64
    assert "censoring" in manifest and "wall_clock_s" in manifest
    cfg = load_config(path)
    assert manifest["config_hash"] == config_hash(cfg.raw_text)


def test_simulate_fpt_samples_finite(tmp_path):
    path, out = write_cfg(tmp_path)
    assert main(["simulate", "--config", path]) == 0
    rows = open(os.path.join(out, "fpt_samples.csv")).read().strip().splitlines()
    assert rows[0] == "sample,outcome,time,reason"
    assert len(rows) == 501
    for line in rows[1:]:
        time_field = line.split(",")[2]
        assert math.isfinite(float(time_field))


def test_path_csv_with_noise(tmp_path):
    path, out = write_cfg(tmp_path)
    code = main(
        [
            "simulate",
            "--config",
            path,
            "--set",
            "simulate.mode=path",
            "--set",
            "simulate.with_noise=true",
            "--set",
            "simulate.n_paths=2",
            "--set",
            "simulate.horizon=3.0",
            "--set",
            "simulate.eval_points=7",
            "--set",
            "model.b0=0.5",
            "--set",
            "model.b1=0.5",
        ]
    )
    assert code == 0
    rows = open(os.path.join(out, "paths.csv")).read().strip().splitlines()
    assert rows[0] == "path,t,state,x,m"
    vals = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert np.all(np.isfinite(vals))
    assert set(vals[:, 0]) == {0.0, 1.0}


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
def test_outputs_take_their_mode_from_the_umask(tmp_path, umask, mode):
    # the writer's temporary becomes the output, so it must be created as a
    # plain open would create it, not private to its owner
    path, out = write_cfg(tmp_path)
    report = str(tmp_path / "report.json")
    argv = ["simulate", "--config", path, "--set", "simulate.mode=path", "--set", "simulate.n_paths=2"]
    old = os.umask(umask)
    try:
        assert main(argv + ["--set", "simulate.eval_points=11"]) == 0
        assert main(["validate", "--only", "1", "--report", report]) == 0
    finally:
        os.umask(old)
    assert sorted(os.listdir(out)) == ["paths.csv", "simulate_manifest.json"]
    for name in (os.path.join(out, "paths.csv"), os.path.join(out, "simulate_manifest.json"), report):
        assert stat.S_IMODE(os.stat(name).st_mode) == mode


def test_failed_write_leaves_the_old_output(tmp_path):
    import kacou.cli as cli

    target = str(tmp_path / "out.csv")
    cli._atomic_write(target, ["old\n"])

    def parts():
        yield "new\n"
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        cli._atomic_write(target, parts())
    assert os.listdir(tmp_path) == ["out.csv"]
    assert open(target).read() == "old\n"


def test_path_rows_reach_the_writer_one_path_at_a_time(tmp_path, monkeypatch):
    # each path's rows are written as that path is made, so no block holds
    # more than one path and memory does not grow with n_paths
    import kacou.cli as cli

    path, out = write_cfg(tmp_path)
    made, written = [], []
    sample, write = cli.sample_switch_sequence, cli._atomic_write

    def counted_sample(*args):
        made.append(args)
        return sample(*args)

    def recording_write(target, parts):
        def seen():
            for part in parts:
                if target.endswith("paths.csv"):
                    written.append((part, len(made)))
                yield part

        write(target, seen())

    monkeypatch.setattr(cli, "sample_switch_sequence", counted_sample)
    monkeypatch.setattr(cli, "_atomic_write", recording_write)
    argv = ["simulate", "--config", path, "--set", "simulate.mode=path", "--set", "simulate.n_paths=20"]
    assert main(argv + ["--set", "simulate.eval_points=11"]) == 0
    assert written[0] == ("path,t,state,x\n", 0)
    assert len(written) == 21
    for path_id, (part, paths_made) in enumerate(written[1:]):
        assert {line.split(",")[0] for line in part.splitlines()} == {str(path_id)}
        assert paths_made == path_id + 1


def test_typed_columns_format_like_single_fields():
    floats = np.array([0.1, -0.0, 1e-300, 2.5e17, math.pi, math.inf, -math.inf, math.nan])
    ints = np.array([0, 7, -3, 2**40])
    small = np.array([0, 255], dtype=np.uint8)
    texts = np.array(["hit", "censored", ""])
    for column, conv in ((floats, "%.17g"), (ints, "%d"), (small, "%d"), (texts, "%s")):
        got, values = _conversion(column)
        assert got == conv and len(values) == len(column)
        assert [conv % v for v in values] == [_fmt(v) for v in column]
    # any other sequence or dtype goes field by field through _fmt
    assert _conversion([3, 0.5, None, "x"]) == ("%s", ["3", "0.5", "", "x"])
    assert _conversion(np.array([True, False])) == ("%s", ["1", "0"])


def _reference_fields(column):
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiuU":
        items = column.tolist()
        if column.dtype.kind == "f":
            return [format(v, ".17g") for v in items]
        return list(map(str, items))
    return [_fmt(v) for v in column]


def reference_csv_blocks(header, blocks):
    """The writer's referee: each field formatted on its own by its column's
    dtype (floats by format(v, ".17g"), any other sequence through _fmt),
    and each part's rows joined field by field, _CSV_BLOCK rows a part."""
    yield ",".join(header) + "\n"
    for columns in blocks:
        n = len(columns[0]) if columns else 0
        for lo in range(0, n, _CSV_BLOCK):
            fields = [_reference_fields(c[lo : lo + _CSV_BLOCK]) for c in columns]
            yield "\n".join(map(",".join, zip(*fields))) + "\n"


EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1e-300, -1e-300]
INT64_MAX = 2**63 - 1
BLOCK_ROWS = [0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1]

_POOLS = {
    "float": (st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()), float),
    "int64": (st.one_of(st.sampled_from([INT64_MAX, -INT64_MAX, 0]), st.integers(-INT64_MAX, INT64_MAX)), np.int64),
    "uint8": (st.integers(0, 255), np.uint8),
    "bool": (st.booleans(), bool),
    "text": (st.one_of(st.sampled_from(["", "hit", "censored"]), st.text(max_size=5)), str),
    "list": (st.one_of(st.none(), st.integers(-INT64_MAX, INT64_MAX), st.floats(), st.text(max_size=5)), None),
}


@st.composite
def csv_column(draw, rows):
    """A column of `rows` fields: an array of one dtype, or a list that may
    hold None, cycling through a few drawn values."""
    values, dtype = _POOLS[draw(st.sampled_from(sorted(_POOLS)))]
    pool = draw(st.lists(values, min_size=1, max_size=6))
    items = [pool[i % len(pool)] for i in range(rows)]
    return items if dtype is None else np.array(items, dtype=dtype)


@st.composite
def csv_blocks(draw):
    width = draw(st.integers(1, 4))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.sampled_from(BLOCK_ROWS + [2, 7]))
        blocks.append([draw(csv_column(rows)) for _ in range(width)])
    return [f"c{i}" for i in range(width)], blocks


@given(csv_blocks())
@settings(max_examples=25, deadline=None)
def test_csv_blocks_match_the_per_field_referee(case):
    header, blocks = case
    got = list(_csv_blocks(header, (columns for columns in blocks)))
    assert got == list(reference_csv_blocks(header, iter(blocks)))


@pytest.mark.parametrize("rows", BLOCK_ROWS)
def test_csv_blocks_match_the_referee_at_block_edges(rows):
    floats = np.resize(np.array(EDGE_FLOATS + [0.1, math.pi]), rows)
    columns = [
        np.arange(rows),
        floats,
        np.resize(np.array([INT64_MAX, -INT64_MAX]), rows),
        np.resize(np.array(["hit", "", "censored"]), rows),
        [None if i % 3 else float(i) for i in range(rows)],
    ]
    header = ["i", "f", "big", "text", "list"]
    blocks = [columns, [c[: rows // 2] for c in columns]]
    assert list(_csv_blocks(header, iter(blocks))) == list(reference_csv_blocks(header, iter(blocks)))


def test_invariant_summary(tmp_path):
    path, out = write_cfg(tmp_path)
    assert main(["invariant", "--config", path]) == 0
    summary = json.load(open(os.path.join(out, "invariant_summary.json")))
    assert summary["exists"] is True
    assert summary["kind"] == "BetaLike"
    assert abs(summary["mass_check"] - 1.0) < 1e-8
    assert summary["residual_max"] < 1e-10
    rows = open(os.path.join(out, "invariant.csv")).read().strip().splitlines()
    assert rows[0] == "x,pi0,pi1"
    assert len(rows) == 22


def test_invariant_nonexistent(tmp_path):
    path, out = write_cfg(tmp_path)
    code = main(
        ["invariant", "--config", path, "--set", "model.gamma0=-1", "--set", "model.gamma1=-2", "--set", "model.a0=1"]
    )
    assert code == 0
    summary = json.load(open(os.path.join(out, "invariant_summary.json")))
    assert summary["exists"] is False


def test_invariant_beta_past_double_range_exits_1(tmp_path, capsys):
    # subnormal rates and a tiny gap make B(a_lo, a_hi + 1) overflow
    path, out = write_cfg(tmp_path)
    argv = ["invariant", "--config", path, "--set", "model.lambda0=5e-324", "--set", "model.lambda1=5e-324"]
    assert main(argv + ["--set", "model.a0=1e-300"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: beta_fn(") and "double range" in err and err.count("\n") == 1


def test_scaling_csv(tmp_path):
    path, out = write_cfg(tmp_path)
    assert main(["scaling", "--config", path]) == 0
    rows = open(os.path.join(out, "scaling.csv")).read().strip().splitlines()
    assert rows[0].startswith("n,emp_mean,emp_var,limit_mean,limit_var")
    assert len(rows) == 3


SCALING_KEYS = {
    "telegraph": "nu=2 sigma0=1.0 delta=0.3",
    "kac_classic": "sigma0=1.2 delta=0",
    "fast_switching": "nu=1.5",
    "case_a": "sigma0_a=0.8 delta_a=0.4",
    "case_b": "sigma0_g=0.5 delta_g=1.0",
    "case_c": "sigma0_a=0.6 delta_a=0.3 sigma0_g=0.9 delta_g=1.2",
}


@pytest.mark.parametrize("kind", sorted(SCALING_KEYS))
def test_scaling_every_kind_reads_its_pair_keys(tmp_path, kind):
    path, out = write_cfg(tmp_path)
    argv = ["scaling", "--config", path, "--set", f"scaling.kind={kind}", "--set", "scaling.n_paths=2000"]
    for item in SCALING_KEYS[kind].split():
        argv += ["--set", f"scaling.{item}"]
    assert main(argv) == 0
    rows = open(os.path.join(out, "scaling.csv")).read().splitlines()
    assert rows[0].split(",") == [
        "n", "emp_mean", "emp_var", "limit_mean", "limit_var",
        "mean_gap", "var_gap", "mean_stderr", "var_stderr", "cdf_dist",
    ]
    assert len(rows) == 3


def test_scaling_tiny_amplitude_runs_to_finite_rows(tmp_path):
    # sigma0*sigma1 and the mean square underflow to 0 here: this was a
    # ZeroDivisionError traceback
    path, out = write_cfg(tmp_path)
    assert main(["scaling", "--config", path, "--set", "scaling.sigma0=1e-200"]) == 0
    rows = open(os.path.join(out, "scaling.csv")).read().splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        assert all(math.isfinite(float(v)) for v in row.split(",") if v)


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("telegraph", "scaling.sigma0", "1e200"),
        ("case_a", "scaling.sigma0_a", "1e200"),
        ("case_b", "scaling.sigma0_g", "1e200"),
        ("fast_switching", "scaling.x0", "1e200"),
    ],
)
def test_scaling_moments_beyond_double_range_exit_2(tmp_path, capsys, kind, key, value):
    # the limit's or the sample's moments overflow: each of these used to
    # exit 0 and write inf or nan
    path, out = write_cfg(tmp_path)
    argv = ["scaling", "--config", path, "--set", f"scaling.kind={kind}", "--set", f"{key}={value}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "out of double range" in err
    assert "scaling.t, scaling.x0" in err and key in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, overrides, keys",
    [
        # about 1e10 switches a path: this ran for minutes
        ("scaling", ["scaling.t=1e9"], "scaling.n_paths, scaling.t, scaling.n_list and scaling.nu"),
        ("scaling", ["scaling.n_list=1e9"], "scaling.n_paths, scaling.t, scaling.n_list and scaling.nu"),
        ("simulate", ["simulate.mode=path", "simulate.horizon=1e12"], "simulate.n_paths, simulate.horizon"),
        (
            "simulate",
            ["model.lambda0=1e12", "simulate.cap_horizon=1e9", "simulate.n_paths=1e5"],
            "simulate.n_paths, simulate.cap_horizon, simulate.cap_switches",
        ),
    ],
)
def test_runaway_monte_carlo_is_refused_up_front(tmp_path, capsys, command, overrides, keys):
    path, out = write_cfg(tmp_path)
    argv = [command, "--config", path]
    for item in overrides:
        argv += ["--set", item]
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and keys in err and "lane-segments" in err
    assert not os.path.exists(out)


def test_path_mode_rows_are_refused_up_front(tmp_path, capsys):
    # one path at rate 1 expects horizon + eval_points + 1 rows, walked by
    # scalar code and held whole: 1e9 was accepted and allocated until killed
    path, out = write_cfg(tmp_path)
    argv = ["simulate", "--config", path, "--set", "simulate.mode=path", "--set", "simulate.n_paths=1"]
    t0 = time.perf_counter()
    assert main(argv + ["--set", "simulate.horizon=1e9"]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "simulate.horizon, simulate.eval_points and the [model] rates" in err
    assert "rows" in err
    assert not os.path.exists(out)


def test_fpt_killing_rate_past_double_range_exits_1(tmp_path, capsys):
    # hyper_args returned an inf root at q = 1e300 and the series selector
    # died in math.ceil(-inf): a traceback
    path, out = write_cfg(tmp_path)
    assert main(["fpt", "--config", path, "--set", "fpt.q_grid=1e300"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "double range" in err and err.count("\n") == 1
    assert not os.path.exists(os.path.join(out, "fpt.csv"))


def test_fpt_with_upper_parameters_past_double_range_runs(tmp_path, capsys):
    # hyper_args raised a bare OverflowError here, a traceback
    path, out = write_cfg(tmp_path)
    argv = ["fpt", "--config", path, "--set", "model.lambda0=1e300", "--set", "fpt.x=5e-324"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    rows = [line.split(",") for line in open(os.path.join(out, "fpt.csv")).read().splitlines()[1:]]
    assert len(rows) == 2
    for row in rows:
        closed, oracle = float(row[4]), float(row[5])
        assert math.isfinite(closed) and abs(closed - oracle) < 1e-5


def test_scaling_parameter_errors_keep_exit_1(tmp_path, capsys):
    # only out-of-range moments become config errors; the library's other
    # checks keep their own text and exit code
    path, out = write_cfg(tmp_path)
    assert main(["scaling", "--config", path, "--set", "scaling.n_list=50, 10"]) == 1
    assert "n_list must be increasing" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_scaling_one_path_exits_2_naming_the_key(tmp_path, capsys):
    # one draw has no sample variance: this used to warn from numpy and then
    # blame scaling.t and scaling.x0 for a nan variance
    path, out = write_cfg(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["scaling", "--config", path, "--set", "scaling.n_paths=1"]) == 2
    assert "scaling.n_paths" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_scaling_missing_pair_key_exits_2(tmp_path, capsys):
    path, out = write_cfg(tmp_path)
    argv = ["scaling", "--config", path, "--set", "scaling.kind=case_b", "--set", "scaling.delta_g=1.0"]
    assert main(argv) == 2
    assert "scaling.sigma0_g" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_validate_subset(tmp_path, capsys):
    report = str(tmp_path / "report.json")
    assert main(["validate", "--only", "1,7,10", "--report", report]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3 and "criterion  1" in out
    body = json.load(open(report))
    assert [r["index"] for r in body] == [1, 7, 10]
    assert all(r["passed"] for r in body)


@pytest.mark.parametrize("only, token", [("11", "'11'"), ("0", "'0'"), ("2,x", "'x'"), ("1,,2", "''")])
def test_validate_rejects_bad_criterion_indices(only, token, capsys):
    # a usage error: nothing runs, exit 2, and the message names the token
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--only", only])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--only" in captured.err and token in captured.err
    assert "criterion" not in captured.out


def test_config_inline_comments_and_lists(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "[model]\nlambda0 = 2.0  # fast\nlambda1 = 1.0\na0 = 0\na1 = 1\n"
        "b0 = 0\nb1 = 0\ngamma0 = 1\ngamma1 = 1\n[x]\nvals = 1 2,3\n"
    )
    cfg = load_config(str(path))
    assert cfg.model.rates.lambda0 == 2.0
    assert cfg.get_list("x", "vals") == [1.0, 2.0, 3.0]
