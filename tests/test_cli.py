import json
import math
import os
import re
import stat
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kacou.cli
from kacou.cli import _CSV_BLOCK, Labels, _csv_blocks, main
from kacou.config import KEYS, ConfigError, RunConfig, config_hash, load_config
from kacou.first_passage import FptQuery
from kacou.simulate import SimCaps, fpt_samples, mc_laplace_fpt

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


def assert_refusal_names_once(capsys, key):
    """The refusal is one line on stderr that names key once."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.count(key) == 1, err


# --- config layer -------------------------------------------------------------


def test_load_config_roundtrip(tmp_path):
    path, out = write_cfg(tmp_path)
    cfg = load_config(path)
    assert cfg.seed == 77
    assert cfg.model.rates.lambda0 == 1.0
    assert cfg["fpt.q_grid"] == [0.5, 1.0]
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
        assert cfg["simulate.with_noise"] is value
    cfg = load_config(path, overrides=["simulate.with_noise=ture"])
    with pytest.raises(ConfigError) as err:
        cfg["simulate.with_noise"]
    assert err.value.key == "simulate.with_noise"


def test_misspelled_boolean_exits_2(tmp_path, capsys):
    path, out = write_cfg(tmp_path)
    code = main(["simulate", "--config", path, "--set", "simulate.mode=path", "--set", "simulate.with_noise=ture"])
    assert code == 2
    assert "simulate.with_noise" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "paths.csv"))


@pytest.mark.parametrize(
    "key, raw",
    [
        ("fpt.x", "nan"),  # finite
        ("simulate.x0", "-inf"),
        ("model.b0", "-1e-300"),  # finite, at least 0
        ("scaling.nu", "0"),  # finite and positive
        ("simulate.horizon", "inf"),
        ("simulate.n_paths", "0.5"),  # a count
        ("scaling.n_paths", "1"),  # a count of at least 2
        ("invariant.grid_points", "1000001"),  # a count of at most 1e6
        ("simulate.cap_switches", "inf"),
        ("fpt.state", "0.5"),  # a chain state
        ("simulate.state0", "nan"),
        ("fpt.q_grid", "1, nan"),  # a list of positive numbers
        ("fpt.q_grid", "1, -0"),
        ("scaling.n_list", "3, 0"),  # a list of counts
        ("scaling.n_list", "3, inf"),
    ],
)
def test_value_readers_name_the_key_they_read(tmp_path, key, raw):
    path, _ = write_cfg(tmp_path)
    with pytest.raises(ConfigError) as err:
        load_config(path, overrides=[f"{key}={raw}"])[key]
    assert err.value.key == key and str(err.value).startswith(f"{key}: ")
    assert str(err.value).count(key) == 1


def test_value_readers_return_parsed_values_and_defaults(tmp_path):
    path, _ = write_cfg(tmp_path)
    cfg = load_config(path, overrides=["scaling.n_list=3, 7.9", "simulate.state0=1.0", "model.b0=-0"])
    # a count is a whole number: 7.9 is refused, not truncated to 7
    with pytest.raises(ConfigError, match=r"^scaling\.n_list: must be a whole number of at least 1, got 7\.9$"):
        cfg["scaling.n_list"]
    assert cfg["simulate.state0"] == 1 and cfg["model.b0"] == 0.0
    assert cfg["fpt.q_grid"] == [0.5, 1.0] and cfg["fpt.mc_samples"] == 20000
    # absent keys read as the table's defaults, and a required one is refused
    assert cfg["simulate.cap_switches"] == SimCaps.max_switches and cfg["simulate.horizon"] == 10.0
    with pytest.raises(ConfigError) as err:
        cfg["scaling.sigma0_a"]
    assert err.value.key == "scaling.sigma0_a"


@pytest.mark.parametrize("raw, seed", [("1e3", 1000), ("-5", -5), ("123456789012345678901", 123456789012345678901)])
def test_seed_reads_as_a_whole_number_of_any_sign(tmp_path, raw, seed):
    # an integer's text keeps every digit: no two long seeds alias
    path, _ = write_cfg(tmp_path)
    assert load_config(path, overrides=[f"run.seed={raw}"]).seed == seed


@pytest.mark.parametrize("key, value", [("model.b0", "-1"), ("model.b1", "-1e-300"), ("run.seed", "1.5"), ("run.seed", "x")])
def test_model_amplitude_and_seed_refusals_exit_2(tmp_path, capsys, key, value):
    path, out = write_cfg(tmp_path)
    with pytest.raises(ConfigError) as err:
        load_config(path, overrides=[f"{key}={value}"])
    assert err.value.key == key
    assert main(["invariant", "--config", path, "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert not os.path.exists(out)


def test_override_changes_hash(tmp_path):
    path, _ = write_cfg(tmp_path)
    a = load_config(path)
    b = load_config(path, overrides=["fpt.x=0.3"])
    assert config_hash(a.raw_text) != config_hash(b.raw_text)


@pytest.mark.parametrize("pad", [" ", "\t", "  "])
def test_padded_override_names_read_as_stripped(tmp_path, pad):
    # the section was tested and added under its padded name but set under
    # the stripped one: a new section raised NoSectionError, and an existing
    # one gained an empty padded twin
    path, _ = write_cfg(tmp_path)
    text = open(path).read()
    open(path, "w").write(text.replace("[invariant]\ngrid_points = 21\n", ""))
    plain = ["scaling.kind=kac_classic", "invariant.grid_points=3"]
    padded = [f"{pad}scaling{pad}.{pad}kind{pad}=kac_classic", f"{pad}invariant.grid_points{pad}=3"]
    want, got = load_config(path, overrides=plain), load_config(path, overrides=padded)
    assert got.sections == want.sections
    assert config_hash(got.raw_text) == config_hash(want.raw_text)


def test_padded_override_adds_a_missing_section(tmp_path):
    path, out = write_cfg(tmp_path)
    text = open(path).read()
    bare = tmp_path / "bare.cfg"
    bare.write_text(text[: text.index("[scaling]")])
    argv = ["scaling", "--config", str(bare), "--set", " scaling.kind=telegraph"]
    for line in text[text.index("[scaling]") :].splitlines()[2:]:
        if line:
            argv += ["--set", " scaling." + line.replace(" = ", "=")]
    assert main(argv) == 0
    assert open(os.path.join(out, "scaling.csv")).read() == _scaling_csv(path, tmp_path / "full")


@pytest.mark.parametrize("target", ["DEFAULT.x", " DEFAULT .model.a0"])
def test_an_override_of_the_default_section_is_refused(tmp_path, capsys, target):
    # add_section('DEFAULT') raised ValueError: a traceback with exit 1
    path, out = write_cfg(tmp_path)
    key = ".".join(part.strip() for part in target.split(".", 1))
    with pytest.raises(ConfigError) as err:
        load_config(path, overrides=[f"{target}=1"])
    assert err.value.key == key
    assert main(["fpt", "--config", path, "--set", f"{target}=1"]) == 2
    assert capsys.readouterr().err == f"config error: {key}: override section must not be DEFAULT\n"
    assert not os.path.exists(out)


def _scaling_csv(path, out):
    """kacou scaling's CSV on the config at path, written under out."""
    assert main(["scaling", "--config", path, "--set", f"run.out_dir={out}"]) == 0
    return open(os.path.join(out, "scaling.csv")).read()


@pytest.mark.parametrize("command, key", [("fpt", "fpt.q_grid"), ("scaling", "scaling.n_list")])
@pytest.mark.parametrize("raw", ["", " ", ",", " , "])
def test_an_empty_list_is_refused_up_front(tmp_path, capsys, monkeypatch, command, key, raw):
    # an empty q grid drew the whole Monte Carlo batch and wrote a
    # header-only fpt.csv, and an empty n_list a header-only scaling.csv
    path, out = write_cfg(tmp_path)
    monkeypatch.setattr(kacou.cli, "fpt_samples", None)  # refused before any draw
    with pytest.raises(ConfigError, match=f"^{key}: must list at least one value$"):
        load_config(path, overrides=[f"{key}={raw}"])[key]
    assert main([command, "--config", path, "--set", f"{key}={raw}"]) == 2
    assert_refusal_names_once(capsys, key)
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "override, key, near",
    [
        ("fpt.qgrid=5", "fpt.qgrid", "fpt.q_grid"),
        ("model.lamda0=3", "model.lamda0", "model.lambda0"),
        ("fpt.mc_sample=10", "fpt.mc_sample", "fpt.mc_samples"),
        ("nosuch.key=1", "nosuch.key", None),
        (None, "model.gama1", "model.gamma1"),  # a line of the config file
    ],
)
def test_a_key_no_command_reads_is_refused_with_the_nearest_known_key(tmp_path, capsys, override, key, near):
    # each was ignored, and the command exited 0
    path, out = write_cfg(tmp_path)
    if override is None:
        open(path, "w").write(BASE_CFG.format(out=out).replace("gamma1 = 1.0\n", "gamma1 = 1.0\ngama1 = 5\n"))
    overrides = [override] if override else []
    message = f"{key}: unknown key" + (f" (nearest known key: {near})" if near else "")
    with pytest.raises(ConfigError) as err:
        load_config(path, overrides=overrides)
    assert err.value.key == key and str(err.value) == message
    argv = ["fpt", "--config", path] + [arg for item in overrides for arg in ("--set", item)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not os.path.exists(out)


# the [scaling] overrides that give each kind its pairs at a small size
SCALING_KINDS = {
    "telegraph": [],
    "kac_classic": ["scaling.delta=0"],
    "fast_switching": [],
    "case_a": ["scaling.sigma0_a=0.8", "scaling.delta_a=0.4"],
    "case_b": ["scaling.sigma0_g=0.5", "scaling.delta_g=0.2"],
    "case_c": ["scaling.sigma0_a=0.8", "scaling.delta_a=0.4", "scaling.sigma0_g=0.5", "scaling.delta_g=0.2"],
}


def test_every_command_reads_only_table_keys_and_every_key_is_read(tmp_path, monkeypatch):
    path, _ = write_cfg(tmp_path)
    runs = {
        "path mode": ["simulate", "simulate.mode=path", "simulate.n_paths=2", "simulate.horizon=1"],
        "fpt mode": ["simulate", "simulate.n_paths=50"],
        "fpt": ["fpt", "fpt.mc_samples=1000"],
        "invariant": ["invariant"],
    }
    for kind, extra in SCALING_KINDS.items():
        runs[kind] = ["scaling", f"scaling.kind={kind}", "scaling.n_paths=200", *extra]
    read = {}
    getitem = RunConfig.__getitem__

    def recording(cfg, name):
        names.add(name)
        return getitem(cfg, name)

    monkeypatch.setattr(RunConfig, "__getitem__", recording)
    for run, (command, *overrides) in runs.items():
        names = read[run] = set()
        argv = [command, "--config", path, "--set", f"run.out_dir={tmp_path / run}"]
        assert main(argv + [arg for item in overrides for arg in ("--set", item)]) == 0, run
        assert names <= set(KEYS), (run, names - set(KEYS))
    assert set().union(*read.values()) == set(KEYS)


def _readme_table():
    """The README's key table: {key: (read as, default, bounds)}."""
    text = open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8").read()
    table = text[text.index("| key | read as | default | bounds |") :].split("\n\n", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()[2:]]
    return {key.strip("`"): tuple(cells) for key, *cells in rows}


def test_the_readme_key_table_is_config_keys():
    def number(v):
        return f"{v:g}".replace("e+0", "e")

    def bounds(key):
        if isinstance(key.kind, dict):
            return ", ".join(key.kind)
        if key.kind == "state":
            return "0 or 1"
        if key.rule.get("positive"):
            return "> 0"
        least = key.rule.get("least")
        if key.most < math.inf:
            return f"{number(least)} to {number(key.most)}"
        return "" if least is None else f"≥ {number(least)}"

    table = _readme_table()
    assert list(table) == list(KEYS)
    for name, key in KEYS.items():
        read_as, default, rule = table[name]
        kind = "choice" if isinstance(key.kind, dict) else key.kind
        assert read_as == kind + (" list" if key.many else ""), name
        assert rule == bounds(key), name
        # the default as config text, read by the key itself
        assert (key.default is None) == (default == "required"), name
        if key.default is not None:
            assert key.read(default, name) == key.default, name


def _readme_config(tmp_path):
    """The README's ini blocks as one config file, its path."""
    text = open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8").read()
    path = tmp_path / "readme.cfg"
    path.write_text("\n".join(re.findall(r"```ini\n(.*?)```", text, re.S)))
    return str(path)


def test_the_mean_path_answers_read_no_amplitude(tmp_path):
    # kacou fpt, kacou invariant and simulate's first-passage samples are of
    # the mean path: b0 and b1 change no byte, and each manifest says so
    path = _readme_config(tmp_path)
    runs = {
        "fpt": (["fpt", "--set", "fpt.mc_samples=2000"], ["fpt.csv"]),
        "invariant": (["invariant", "--set", "invariant.grid_points=41"], ["invariant.csv", "invariant_summary.json"]),
        "simulate": (
            ["simulate", "--set", "simulate.mode=fpt", "--set", "simulate.x=0.25", "--set", "simulate.y=0.75",
             "--set", "simulate.n_paths=2000"],
            ["fpt_samples.csv"],
        ),
    }
    for command, (argv, files) in runs.items():
        outputs = []
        for amplitudes in ([], ["--set", "model.b0=1", "--set", "model.b1=1"]):
            out = tmp_path / f"{command}{len(amplitudes)}"
            assert main(argv + ["--config", path, "--set", f"run.out_dir={out}"] + amplitudes) == 0
            assert json.load(open(out / f"{command}_manifest.json"))["process"] == "mean path"
            outputs.append([(out / name).read_bytes() for name in files])
        assert outputs[0] == outputs[1], command
    # a path with noise is of the modulated diffusion
    for noise, process in (("false", "mean path"), ("true", "modulated diffusion")):
        out = tmp_path / f"path_{noise}"
        argv = ["simulate", "--config", path, "--set", f"run.out_dir={out}", "--set", f"simulate.with_noise={noise}"]
        assert main(argv) == 0
        assert json.load(open(out / "simulate_manifest.json"))["process"] == process


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
        # grid counts past their 1e6 cap are refused before any allocation
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
    assert_refusal_names_once(capsys, key)
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, key, value",
    [("fpt", "fpt.mc_samples", "1000.9"), ("simulate", "simulate.n_paths", "2.5"), ("scaling", "scaling.n_list", "3, 7.9")],
)
def test_fractional_counts_exit_2(tmp_path, capsys, command, key, value):
    # a count is a whole number, read by the library's rule: these were
    # truncated to 1000, 2 and (3, 7) and ran
    path, out = write_cfg(tmp_path)
    assert main([command, "--config", path, "--set", f"{key}={value}"]) == 2
    assert_refusal_names_once(capsys, key)
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, key, value, mode",
    [
        ("simulate", "simulate.horizon", "nan", "path"),
        ("simulate", "simulate.horizon", "inf", "path"),
        ("simulate", "simulate.horizon", "0", "path"),
        ("simulate", "simulate.cap_horizon", "nan", "fpt"),
        ("simulate", "simulate.cap_horizon", "-1", "fpt"),
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
    assert_refusal_names_once(capsys, key)
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
    assert_refusal_names_once(capsys, key)
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
        ("fpt", "fpt.q_grid", "0.5, inf", None),
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
    assert_refusal_names_once(capsys, key)
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


def _fpt_rows(out):
    return [[float(v) for v in line.split(",")] for line in open(os.path.join(out, "fpt.csv")).read().splitlines()[1:]]


def test_fpt_draws_one_batch_for_its_q_grid(tmp_path, monkeypatch):
    # one batch seeded by run.seed serves every q: each row's Monte Carlo
    # columns are the estimator's at that q on that batch, bit for bit
    path, out = write_cfg(tmp_path)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fpt_samples(*args, **kwargs)

    monkeypatch.setattr(kacou.cli, "fpt_samples", counted)
    assert main(["fpt", "--config", path, "--set", "fpt.q_grid=0.25, 1, 3"]) == 0
    assert len(calls) == 1
    cfg = load_config(path)
    rows = _fpt_rows(out)
    assert [row[0] for row in rows] == [0.25, 1.0, 3.0]
    for q, _, _, _, _, _, mc_mean, mc_stderr in rows:
        want = mc_laplace_fpt(FptQuery(q, 0.25, 0.75, 1), cfg.model, 20_000, seed=cfg.seed)
        assert (mc_mean, mc_stderr) == (want.mean, want.stderr)


def test_fpt_manifest_counts_the_censored_paths_of_its_batch(tmp_path):
    # y next to state 1's level: most paths are censored at the horizon; the
    # count used to sum one batch a q
    path, out = write_cfg(tmp_path)
    argv = ["fpt", "--config", path, "--set", "fpt.y=0.9999", "--set", "fpt.mc_samples=1000"]
    assert main(argv) == 0
    cfg = load_config(path)
    batch = fpt_samples(cfg.model, 0.25, 0.9999, 1, 1000, cfg.seed)
    censored = json.load(open(os.path.join(out, "fpt_manifest.json")))["censoring"]["count"]
    assert censored == int(batch.censored.sum()) > 0


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


def test_sample_file_writer_holds_no_more_than_the_sampler(tmp_path):
    # the outcome and reason columns are written from the batch's codes: no
    # array of the batch's length holds their text, so the command's traced
    # peak is the sampler's own (at 200,000 rows the str arrays took 12 MiB)
    path, out = write_cfg(tmp_path)
    argv = ["simulate", "--config", path, "--set", "simulate.n_paths=200000"]
    cfg = load_config(path)
    assert main(argv[:3]) == 0  # warm caches and lazy imports untraced
    tracemalloc.start()
    try:
        fpt_samples(cfg.model, 0.25, 0.75, 1, 200_000, cfg.seed)
        _, sampler = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert main(argv) == 0
        _, command = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert command <= sampler + 2 * 2**20


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
    cli._atomic_write(target, [b"old\n"])

    def parts():
        yield b"new\n"
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        cli._atomic_write(target, parts())
    assert os.listdir(tmp_path) == ["out.csv"]
    assert open(target, "rb").read() == b"old\n"


def test_csv_parts_are_bytes_and_reach_the_file_unchanged(tmp_path):
    import kacou.cli as cli

    rows = _CSV_BLOCK + 3
    columns = [np.linspace(-1.0, 1.0, rows), np.arange(rows), Labels(np.arange(rows, dtype=np.uint8) % 2, ("a", ""))]
    parts = list(_csv_blocks(["x", "i", "label"], [columns, [c[:5] for c in columns]]))
    assert len(parts) == 4 and all(type(part) is bytes for part in parts)
    # a part is written as given: no newline is translated
    parts.append(b"\r\n")
    target = str(tmp_path / "out.csv")
    cli._atomic_write(target, iter(parts))
    assert open(target, "rb").read() == b"".join(parts)


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
    assert written[0] == (b"path,t,state,x\n", 0)
    assert len(written) == 21
    for path_id, (part, paths_made) in enumerate(written[1:]):
        assert {line.split(b",")[0] for line in part.splitlines()} == {str(path_id).encode()}
        assert paths_made == path_id + 1


def _written_fields(column):
    """The writer's fields of a one-column CSV, one per row."""
    return b"".join(_csv_blocks(["c"], [[column]])).decode("ascii").split("\n")[1:-1]


def test_typed_columns_format_like_single_fields():
    floats = np.array([0.1, -0.0, 1e-300, 2.5e17, math.pi, math.inf, -math.inf, math.nan])
    ints = np.array([0, 7, -3, 2**40])
    small = np.array([0, 255], dtype=np.uint8)
    texts = np.array(["hit", "censored", ""])
    assert _written_fields(floats) == [format(v, ".17g") for v in floats.tolist()]
    for column in (ints, small, texts, np.array(["", ""])):
        assert _written_fields(column) == list(map(str, column.tolist()))
    assert _written_fields(Labels(np.array([2, 0, 2], np.uint8), ("hit", "unused", ""))) == ["", "hit", ""]
    # a column is a float, integer or ASCII text array, or Labels with ASCII names
    non_ascii = [np.array(["\u00e9"]), Labels(np.zeros(2, np.uint8), ("hit", "\u00e9"))]
    for column in ([3, 0.5], np.array([True, False]), np.array([None]), *non_ascii):
        with pytest.raises(TypeError, match="CSV column"):
            _written_fields(column)


def _exact_ties(rng, per_exponent):
    """Doubles a * 2^-(k+1), a odd, whose 17-digit scaling a * 5^k / 2 lies
    in [1e16, 1e17): each is halfway between two 17-digit decimals."""
    ties = []
    for k in range(1, 21):
        lo, hi = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
        odd = rng.integers(lo // 2, hi // 2, per_exponent) * 2 + 1
        ties.append(odd.astype(np.float64) * 2.0 ** -(k + 1))
    return np.concatenate(ties)


def test_float_and_integer_cells_match_python_formatting():
    # the float cells' digits come from an exact numpy kernel on [1e-4, 1e17)
    # and from Python's % elsewhere; each must be format(v, ".17g")
    rng = np.random.default_rng(20261019)
    tens = 10.0 ** np.arange(-7, 19)
    edges = np.array([1e-4, 1e17])
    near_2_53 = 2.0**53 + np.arange(-4.0, 5.0)
    odd = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310])
    chosen = np.concatenate(
        [
            *(np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, math.inf)]) for x in (tens, edges)),
            near_2_53,
            _exact_ties(rng, 50),
            odd,
        ]
    )
    floats = np.concatenate(
        [
            rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64),
            10.0 ** rng.uniform(-4.5, 17.5, 20_000) * rng.choice([-1.0, 1.0], 20_000),
            chosen,
            -chosen,
        ]
    )
    assert _written_fields(floats) == [format(v, ".17g") for v in floats.tolist()]
    signed = np.concatenate([rng.integers(-(2**63), 2**63, 10_000, dtype=np.int64), [-(2**63), 2**63 - 1, 0, -1, 9, -10]])
    unsigned = np.concatenate([rng.integers(0, 2**64, 10_000, dtype=np.uint64), np.array([2**64 - 1, 0, 10**19], np.uint64)])
    for column in (signed, unsigned, np.arange(100_001)):
        assert _written_fields(column) == list(map(str, column.tolist()))


def _reference_fields(column):
    if isinstance(column, Labels):
        return [column.names[code] for code in column.codes.tolist()]
    items = column.tolist()
    if column.dtype.kind == "f":
        return [format(v, ".17g") for v in items]
    return list(map(str, items))


def reference_csv_blocks(header, blocks):
    """The writer's referee: each field formatted on its own by its column's
    dtype (floats by format(v, ".17g"), integers and text by str, labels by
    their names), and each part's rows joined field by field, _CSV_BLOCK
    rows a part, as ASCII bytes."""
    yield (",".join(header) + "\n").encode("ascii")
    for columns in blocks:
        n = len(columns[0]) if columns else 0
        for lo in range(0, n, _CSV_BLOCK):
            fields = [_reference_fields(c[lo : lo + _CSV_BLOCK]) for c in columns]
            yield ("\n".join(map(",".join, zip(*fields))) + "\n").encode("ascii")


EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1e-300, -1e-300]
INT64_MAX = 2**63 - 1
BLOCK_ROWS = [0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1]
LABEL_NAMES = ("", "hit", "censored", "a name longer than any used")

_POOLS = {
    "float": (st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()), float),
    "int64": (st.one_of(st.sampled_from([INT64_MAX, -INT64_MAX, 0]), st.integers(-INT64_MAX, INT64_MAX)), np.int64),
    "uint8": (st.integers(0, 255), np.uint8),
    "text": (st.one_of(st.sampled_from(["", "hit", "censored"]), st.text(st.characters(max_codepoint=127), max_size=5)), str),
    # the codes of a label column, whose names are drawn apart
    "labels": (st.integers(0, 3), np.uint8),
}
ASCII_NAMES = st.lists(st.text(st.characters(max_codepoint=127), max_size=9), min_size=4, max_size=4)


@st.composite
def csv_column(draw, rows):
    """A column of `rows` fields: an array of one dtype, cycling through a
    few drawn values."""
    kind = draw(st.sampled_from(sorted(_POOLS)))
    values, dtype = _POOLS[kind]
    pool = draw(st.lists(values, min_size=1, max_size=6))
    column = np.array([pool[i % len(pool)] for i in range(rows)], dtype=dtype)
    return Labels(column, tuple(draw(ASCII_NAMES))) if kind == "labels" else column


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
        floats,
        np.arange(rows),
        # a block's float columns are formatted in one pass, each here with
        # cells that Python's % writes, and one float32 among them
        np.roll(-floats, 5),
        # no row uses the longest name, and the rows past the first block
        # use only the empty one, a block of width 0
        Labels(np.where(np.arange(rows) < _CSV_BLOCK, np.arange(rows) % 3, 0).astype(np.uint8), LABEL_NAMES),
        np.resize(np.array([1e300, 2.5, 0.0, math.nan, -1e-300, 1e-5, math.inf, 123456.789]), rows),
        np.resize(np.array([0.0, 1e30, math.nan, -1e-30, 0.1, -math.inf], np.float32), rows),
        np.resize(np.array([INT64_MAX, -INT64_MAX]), rows),
        np.resize(np.array(["hit", "", "censored"]), rows),
    ]
    header = ["f", "i", "g", "label", "h", "f32", "big", "text"]
    blocks = [columns, [c[: rows // 2] for c in columns]]
    assert list(_csv_blocks(header, iter(blocks))) == list(reference_csv_blocks(header, iter(blocks)))


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path):
    # the parser is cached for the process: one call's --set must not reach
    # the next, and a refused argument still exits 2
    import kacou.cli as cli

    assert cli._parser() is cli._parser()
    path, out = write_cfg(tmp_path)
    manifest = os.path.join(out, "simulate_manifest.json")

    def simulate_hash(*overrides):
        assert main(["simulate", "--config", path, *overrides]) == 0
        return json.load(open(manifest))["config_hash"]

    changed = simulate_hash("--set", "simulate.horizon=3")
    plain = simulate_hash()
    with pytest.raises(SystemExit) as refused:
        main(["validate", "--only", "99"])
    assert refused.value.code == 2
    cli._parser.cache_clear()
    assert plain == simulate_hash() == config_hash(load_config(path).raw_text) != changed


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


@pytest.mark.parametrize(
    "overrides",
    [
        ["model.gamma1=5e-324"],
        ["model.a0=-1e300", "model.gamma0=1e-300"],
        ["model.a0=-1e308", "model.a1=1e308"],
        ["model.lambda0=1e-300", "model.lambda1=1e-300", "model.a0=1e300", "model.gamma0=0"],
        ["model.lambda0=1e-300", "model.lambda1=1e-300", "model.a0=1e-300", "model.gamma0=1e300"],
        ["model.lambda0=1e-300", "model.lambda1=1e300", "model.a0=1e-300", "model.gamma0=5e-324", "model.gamma1=0"],
        ["model.a1=1e-300"],
        ["model.a1=-1e-300"],
        ["model.gamma1=-1e-300"],
        ["model.gamma1=1e-30"],
    ],
)
def test_invariant_without_finite_descriptor_exits_1(tmp_path, capsys, overrides):
    # an exponent lambda / gamma, a level a / gamma, the gap between two
    # finite levels or a constant past double range: each exited 0 and wrote
    # nan or inf rows; an exponent that underflows to 0 or a gamma-like
    # constant that overflows ended in a traceback or a refusal that named
    # no input
    path, out = write_cfg(tmp_path)
    argv = ["invariant", "--config", path]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "double range" in err and err.count("\n") == 1
    assert not os.path.exists(os.path.join(out, "invariant.csv"))


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


SCALING_WORK_KEYS = "scaling.n_paths, scaling.t, scaling.n_list and scaling.nu"


@pytest.mark.parametrize(
    "command, overrides, keys",
    [
        # about 1e10 switches a path: this ran for minutes (at nu = 2, since
        # an equal-rate telegraph integral draws each path in one step)
        ("scaling", ["scaling.nu=2", "scaling.t=1e9"], SCALING_WORK_KEYS),
        ("scaling", ["scaling.nu=2", "scaling.n_list=1e9"], SCALING_WORK_KEYS),
        ("simulate", ["simulate.mode=path", "simulate.horizon=1e12"], "simulate.n_paths, simulate.horizon"),
        (
            "simulate",
            ["model.lambda0=1e12", "simulate.cap_horizon=1e9", "simulate.n_paths=1e5"],
            "simulate.n_paths, simulate.cap_horizon, simulate.cap_switches",
        ),
        # ran the closed forms and the oracle, then died allocating 8e15 bytes
        ("fpt", ["fpt.mc_samples=1e15"], "fpt.mc_samples and the [model] rates"),
        # counted as 1e10 lane-segments this was accepted, yet it takes about
        # 1e9 rounds of the lane pool: hours
        (
            "simulate",
            ["simulate.mode=fpt", "simulate.n_paths=10", "model.lambda0=1e8", "model.lambda1=1e8"]
            + ["simulate.cap_switches=1e9", "simulate.x=0.2", "simulate.y=5"],
            "simulate.n_paths, simulate.cap_horizon, simulate.cap_switches",
        ),
        # 2.1e10 lane-segments at the default caps: four to five minutes
        (
            "simulate",
            ["simulate.mode=fpt", "simulate.n_paths=50", "model.lambda0=1e8", "model.lambda1=1e8"],
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


TELEGRAPH_LONG = ["scaling.kind=kac_classic", "scaling.delta=0", "scaling.t=1e9", "scaling.n_list=10, 1000"]


def test_equal_rate_telegraph_scaling_counts_one_lane_segment_a_path(tmp_path):
    # about 1e12 switches a path at n = 1000: refused as 1e16 lane-segments
    # while the telegraph integral was walked switch by switch
    path, out = write_cfg(tmp_path)
    argv = ["scaling", "--config", path]
    for item in TELEGRAPH_LONG:
        argv += ["--set", item]
    t0 = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - t0 < 10.0
    rows = [line.split(",") for line in open(os.path.join(out, "scaling.csv")).read().splitlines()[1:]]
    assert [row[0] for row in rows] == ["10", "1000"]
    assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_telegraph_switch_count_past_the_poisson_sampler_exits_1(tmp_path, capsys):
    # lambda t = 1e20 switches: numpy's Poisson sampler raised a bare ValueError
    path, out = write_cfg(tmp_path)
    argv = ["scaling", "--config", path]
    for item in TELEGRAPH_LONG[:-2] + ["scaling.t=1e17", "scaling.n_list=1000"]:
        argv += ["--set", item]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Poisson" in err and err.count("\n") == 1
    assert not os.path.exists(os.path.join(out, "scaling.csv"))


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


def test_work_bounds_count_switches_at_the_stationary_rate(tmp_path, monkeypatch):
    # a path alternates its states, so one fast state cannot make it switch
    # faster than twice the slow state's rate: at lambda0 = 1e8 these were
    # refused as 1e12 lane-segments and as a path of 1e9 rows, for about 20
    # switches a path
    path, out = write_cfg(tmp_path)
    for overrides in (
        ["simulate.mode=fpt", "simulate.n_paths=100000"],
        ["simulate.mode=path", "simulate.horizon=10", "simulate.n_paths=1"],
    ):
        argv = ["simulate", "--config", path, "--set", "model.lambda0=1e8"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 0
    # at nu = 1e6 and n = 1e4 the rates are 1e10 and 1e4: about 2e4
    # switches a path, where the larger rate counted 1e10
    monkeypatch.setattr(kacou.cli, "convergence_check", lambda *args, **kwargs: [])
    assert main(["scaling", "--config", path, "--set", "scaling.nu=1e6", "--set", "scaling.n_list=1e4"]) == 0


@pytest.mark.parametrize(
    "command, overrides",
    [
        # -gamma0 t overflowed outside pattern_phi's errstate
        (
            "simulate",
            ["simulate.n_paths=50", "simulate.x=1e-8", "simulate.y=-0.0", "simulate.state0=0"]
            + ["model.gamma0=-1e300", "model.a1=-1e300", "model.lambda0=1e-8"],
        ),
        # the oracle's tail toward a level (or, reflected, a start) near
        # 1e300 ran np.geomspace to inf, and its nodes were nan
        ("fpt", ["model.a0=-1e300", "model.gamma0=-100", "fpt.x=0.25", "fpt.y=-1e-300"]),
        ("fpt", ["model.a0=3", "model.gamma0=-100", "fpt.x=1e300", "fpt.y=1e8"]),
    ],
)
def test_far_repelling_draws_run_without_a_warning(tmp_path, command, overrides):
    path, out = write_cfg(tmp_path)
    argv = [command, "--config", path]
    for item in overrides:
        argv += ["--set", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    if command == "fpt":
        values = [v for row in _fpt_rows(out) for v in row]
    else:
        values = [float(line.split(",")[2]) for line in open(os.path.join(out, "fpt_samples.csv")).readlines()[1:]]
    assert values and all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("q_grid", ["0, 1", "1, -0.5", "-0, 2"])
def test_fpt_refuses_a_q_of_0_or_less_up_front(tmp_path, capsys, monkeypatch, q_grid):
    # the integral oracle needs q > 0: a q of 0 ran the whole Monte Carlo
    # batch and then exited 1 from the oracle
    path, out = write_cfg(tmp_path)
    monkeypatch.setattr(kacou.cli, "fpt_samples", None)  # no batch is drawn
    assert main(["fpt", "--config", path, "--set", f"fpt.q_grid={q_grid}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "fpt.q_grid" in err and "positive" in err
    assert not os.path.exists(out)


def test_fpt_closed_form_refuses_before_the_batch_is_drawn(tmp_path, capsys):
    # paths from 1e-8 toward y = 1e300 switch at lambda0 = 1e8 until the
    # horizon: the batch took 9.9 s, and then the closed form refused
    path, out = write_cfg(tmp_path)
    argv = ["fpt", "--config", path, "--set", "model.gamma0=3", "--set", "model.lambda0=1e8"]
    argv += ["--set", "model.lambda1=100", "--set", "fpt.mc_samples=1000", "--set", "fpt.x=1e-8", "--set", "fpt.y=1e300"]
    t0 = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not os.path.exists(os.path.join(out, "fpt.csv"))


def test_fpt_killing_rate_past_double_range_exits_1(tmp_path, capsys):
    # hyper_args returned an inf root at q = 1e300 and the series selector
    # died in math.ceil(-inf): a traceback
    path, out = write_cfg(tmp_path)
    assert main(["fpt", "--config", path, "--set", "fpt.q_grid=1e300"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "double range" in err and err.count("\n") == 1
    assert not os.path.exists(os.path.join(out, "fpt.csv"))


def test_fpt_with_a_drift_past_double_range_runs(tmp_path):
    # the oracle's drift -gamma1 (x - rho1) overflowed at the grid's nodes,
    # a RuntimeWarning (a traceback under -W error); state 1 crosses every
    # cell at once, so a path started in it hits y at once
    path, out = write_cfg(tmp_path)
    argv = ["fpt", "--config", path, "--set", "model.a0=0.5", "--set", "model.gamma0=-1"]
    argv += ["--set", "model.gamma1=1e300", "--set", "fpt.x=1e8", "--set", "fpt.y=1e-8"]
    assert main(argv) == 0
    rows = _fpt_rows(out)
    assert len(rows) == 2
    for row in rows:
        assert row[4:7] == [1.0, 1.0, 1.0]  # closed_form, oracle and mc_mean


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
        "b0 = 0\nb1 = 0\ngamma0 = 1\ngamma1 = 1\n[fpt]\nq_grid = 1 2,3\n"
    )
    cfg = load_config(str(path))
    assert cfg.model.rates.lambda0 == 2.0
    assert cfg["fpt.q_grid"] == [1.0, 2.0, 3.0]
