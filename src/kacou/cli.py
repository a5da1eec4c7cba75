"""Command-line front end.

Subcommands: simulate, fpt, invariant, scaling, validate.  Every run reads a
key=value config (overridable with --set section.key=value), writes CSV/JSON
atomically, and emits a JSON manifest tying the outputs to the seed and the
config hash.  Numeric CSV fields use 17-significant-digit formatting so
reruns with identical (config, seed) are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import dataclasses
from itertools import chain

import numpy as np

from . import __version__
from .acceptance import CRITERIA, run_all
from .config import ConfigError, RunConfig, config_hash, load_config
from .errors import DoubleRangeError, KacOuError
from .first_passage import FptQuery, fpt_integral_oracle, laplace_fpt
from .invariant import (
    invariant_density_with_derivative,
    invariant_description,
    invariant_exists,
    invariant_mass,
    stationarity_residual,
    support_cutoff,
)
from .model import classify_regime
from .rng import stream
from .scaling import SCALED_PAIRS, ConvergenceRow, ScaledPair, ScalingKind, ScalingSpec, convergence_check
from .simulate import (
    CENSOR_HORIZON,
    CENSOR_SWITCH_CAP,
    REASON_NAMES,
    SimCaps,
    evaluate_x,
    fpt_samples,
    mc_laplace_fpt,
    sample_m_path,
    sample_switch_sequence,
)


# the most lane-segments (one path across one holding time) a `kacou
# simulate` or `kacou scaling` run may expect to draw, some ten minutes of
# Monte Carlo, where the README and benchmark configs expect at most 3e8
MAX_LANE_SEGMENTS = 1e11


# the most points `invariant.grid_points` or `simulate.eval_points` may ask
# for: each is a CSV row (a path's row in simulate), and the arrays behind
# them are allocated before any is written; the README and benchmark configs
# use at most 401
MAX_GRID_POINTS = 1e6


# the most rows one `kacou simulate` path may expect, eval_points + 1 +
# lambda * horizon: a path is walked by scalar code and held whole while it
# is written, at about 4.5 us and 200 bytes a row on a 2-vCPU host (7.7 us
# and 580 bytes with noise), so some 9 s and 400 MB; the README and
# benchmark configs expect at most about 2,200
MAX_PATH_ROWS = 2e6


def _check_work(segments: float, keys: str) -> None:
    """Refuse a run expecting more than MAX_LANE_SEGMENTS lane-segments up
    front, naming the keys that set them."""
    if not segments <= MAX_LANE_SEGMENTS:
        raise ConfigError(
            keys, f"the run expects {segments:.3g} lane-segments, above the {MAX_LANE_SEGMENTS:.3g} a run may draw"
        )


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


# the `%` conversion of a numpy column, by dtype kind: floats to 17
# significant digits, integers in decimal, text as given
_CONVERSIONS = {"f": "%.17g", "i": "%d", "u": "%d", "U": "%s"}


def _conversion(column) -> tuple[str, list]:
    """One CSV column's `%` conversion and the values it takes.  A numpy
    column is converted by its dtype (``_CONVERSIONS``); any other sequence,
    or another dtype, goes through ``_fmt`` field by field, None as an empty
    field."""
    conv = _CONVERSIONS.get(column.dtype.kind) if isinstance(column, np.ndarray) else None
    if conv is None:
        return "%s", [_fmt(v) for v in column]
    return conv, column.tolist()


def _atomic_write(path: str, parts) -> None:
    """Write the strings of `parts` to `path`, replacing it only once all are written."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    # a fresh name beside the target, created with mode 0666 so that the
    # umask sets the output's mode as for a plain open
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# rows per formatted block: a large CSV is never held in memory as text whole
_CSV_BLOCK = 1 << 14


def _csv_blocks(header: list[str], blocks):
    """The header line, then the rows of each block of equal-length columns
    in turn, one row per index.  `blocks` may be a generator, so that each
    block is made only as the writer reaches it."""
    yield ",".join(header) + "\n"
    for columns in blocks:
        n = len(columns[0]) if columns else 0
        for lo in range(0, n, _CSV_BLOCK):
            # one `%` formats the whole block: a row of conversions repeated
            # once per row, over the values taken row by row
            convs, values = zip(*(_conversion(c[lo : lo + _CSV_BLOCK]) for c in columns))
            fields = tuple(chain.from_iterable(zip(*values)))
            yield (",".join(convs) + "\n") * (len(fields) // len(convs)) % fields


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write equal-length columns under the header, one row per index."""
    _atomic_write(path, _csv_blocks(header, [columns]))


def _count(cfg: RunConfig, section: str, key: str, default: int, least: int = 1, most: float = math.inf) -> int:
    """A count entry (truncated to an integer) from `least` to `most`."""
    value = cfg.get(section, key, default=default)
    if not least <= value < math.inf:
        raise ConfigError(f"{section}.{key}", f"must be a count of at least {least}, got {value}")
    if value > most:
        raise ConfigError(f"{section}.{key}", f"must be a count of at most {most:.3g}, got {value:.3g}")
    return int(value)


def _positive(cfg: RunConfig, section: str, key: str, default=None) -> float:
    """A finite entry that must be positive."""
    value = cfg.get(section, key, default=default)
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{section}.{key}", f"must be finite and positive, got {value}")
    return value


def _finite(cfg: RunConfig, section: str, key: str, default=None) -> float:
    """A number entry that must be finite."""
    value = cfg.get(section, key, default=default)
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}", f"must be finite, got {value}")
    return value


def _numbers(cfg: RunConfig, section: str, key: str, default=None, count: bool = False) -> list:
    """A list entry whose every entry must be finite, or with `count` a count
    of at least 1 (truncated to an integer)."""
    values = cfg.get_list(section, key, default=default)
    need = "a finite count of at least 1" if count else "finite"
    for value in values:
        if not math.isfinite(value) or (count and value < 1):
            raise ConfigError(f"{section}.{key}", f"every entry must be {need}, got {value}")
    return [int(v) for v in values] if count else values


def _state(cfg: RunConfig, section: str, key: str, default=None) -> int:
    """A chain-state entry, which must be 0 or 1."""
    value = cfg.get(section, key, default=default)
    if value not in (0.0, 1.0):
        raise ConfigError(f"{section}.{key}", f"must be a chain state, 0 or 1, got {value}")
    return int(value)


def _manifest(cfg: RunConfig, command: str, outputs: list[str], t0: float, extra=None) -> str:
    body = {
        "command": command,
        "config_hash": config_hash(cfg.raw_text),
        "seed": cfg.seed,
        "regime": classify_regime(cfg.model).tag.value,
        "versions": {
            "kacou": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_clock_s": round(time.perf_counter() - t0, 3),
        "outputs": outputs,
    }
    if extra:
        body.update(extra)
    path = os.path.join(cfg.out_dir, f"{command}_manifest.json")
    _atomic_write(path, [json.dumps(body, indent=2, sort_keys=True) + "\n"])
    return path


def _cmd_simulate(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    mode = cfg.get("simulate", "mode", default="path", cast=str)
    n_paths = _count(cfg, "simulate", "n_paths", 1)
    x0 = _finite(cfg, "simulate", "x0", default=0.0)
    state0 = _state(cfg, "simulate", "state0", default=0)
    reasons = (CENSOR_HORIZON, CENSOR_SWITCH_CAP)
    extra = {"censoring": {REASON_NAMES[code]: 0 for code in reasons}}

    rate = max(cfg.model.rates.lambda0, cfg.model.rates.lambda1)
    if mode == "path":
        horizon = _positive(cfg, "simulate", "horizon", 10.0)
        _check_work(n_paths * (1.0 + rate * horizon), "simulate.n_paths, simulate.horizon and the [model] rates")
        with_noise = cfg.get("simulate", "with_noise", default=False, cast=bool)
        n_eval = _count(cfg, "simulate", "eval_points", 201, most=MAX_GRID_POINTS)
        rows = n_eval + 1.0 + rate * horizon
        if not rows <= MAX_PATH_ROWS:
            raise ConfigError(
                "simulate.horizon, simulate.eval_points and the [model] rates",
                f"a path expects {rows:.3g} rows, above the {MAX_PATH_ROWS:.3g} one path may write",
            )
        grid = np.linspace(0.0, horizon, n_eval)

        def path_blocks():
            # one path's rows at a time, made as the writer reaches them
            for path_id in range(n_paths):
                seq = sample_switch_sequence(
                    cfg.model.rates, state0, horizon, stream(cfg.seed, "path-switches", path_id)
                )
                times = np.unique(np.concatenate([grid, seq.switch_times]))
                columns = [
                    np.full(times.size, path_id),
                    times,
                    seq.state_at(times),
                    evaluate_x(seq, x0, times, cfg.model),
                ]
                if with_noise:
                    columns.append(
                        sample_m_path(seq, x0, times, cfg.model, stream(cfg.seed, "path-noise", path_id))
                    )
                yield columns

        header = ["path", "t", "state", "x"] + (["m"] if with_noise else [])
        out = os.path.join(cfg.out_dir, "paths.csv")
        _atomic_write(out, _csv_blocks(header, path_blocks()))
    else:
        if mode != "fpt":
            raise ConfigError("simulate.mode", f"unknown mode {mode!r}")
        x = _finite(cfg, "simulate", "x")
        y = _finite(cfg, "simulate", "y")
        caps = SimCaps(
            horizon=_positive(cfg, "simulate", "cap_horizon", 1e3),
            max_switches=_count(cfg, "simulate", "cap_switches", 10_000_000),
        )
        # the caps bound a path's switches
        _check_work(
            n_paths * min(1.0 + rate * caps.horizon, caps.max_switches),
            "simulate.n_paths, simulate.cap_horizon, simulate.cap_switches and the [model] rates",
        )
        batch = fpt_samples(cfg.model, x, y, state0, n_paths, cfg.seed, caps=caps)
        columns = [
            np.arange(batch.times.size),
            np.where(batch.censored, "censored", "hit"),
            batch.times,
            np.array(REASON_NAMES)[batch.reason],
        ]
        out = os.path.join(cfg.out_dir, "fpt_samples.csv")
        _write_csv(out, ["sample", "outcome", "time", "reason"], columns)
        extra["censoring"] = {REASON_NAMES[code]: int(np.sum(batch.reason == code)) for code in reasons}

    manifest = _manifest(cfg, "simulate", [out], t0, extra)
    print(manifest)
    return 0


def _cmd_fpt(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    qs = _numbers(cfg, "fpt", "q_grid")
    x = _finite(cfg, "fpt", "x")
    y = _finite(cfg, "fpt", "y")
    state = _state(cfg, "fpt", "state")
    n_mc = _count(cfg, "fpt", "mc_samples", 200_000, least=1_000)
    tol = _positive(cfg, "fpt", "oracle_tol", 1e-6)

    rows = []
    censored = 0
    for i, q in enumerate(qs):
        query = FptQuery(q, x, y, state)
        closed = laplace_fpt(query, cfg.model)
        oracle = fpt_integral_oracle(query, cfg.model, tol)
        mc = mc_laplace_fpt(query, cfg.model, n_mc, seed=cfg.seed + i)
        censored += mc.censored
        rows.append((q, x, y, state, closed, oracle, mc.mean, mc.stderr))
    out = os.path.join(cfg.out_dir, "fpt.csv")
    _write_csv(
        out,
        ["q", "x", "y", "state", "closed_form", "oracle", "mc_mean", "mc_stderr"],
        list(zip(*rows)),
    )
    manifest = _manifest(cfg, "fpt", [out], t0, {"censoring": {"count": censored}})
    print(manifest)
    return 0


def _cmd_invariant(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    exists, support = invariant_exists(cfg.model)
    grid_points = _count(cfg, "invariant", "grid_points", 401, most=MAX_GRID_POINTS)

    out_csv = os.path.join(cfg.out_dir, "invariant.csv")
    summary = {"exists": exists, "support": None}
    if exists:
        lo, hi = support_cutoff(cfg.model, floor=1e-12)
        margin = 1e-6 * (hi - lo)
        xs = np.linspace(lo + margin, hi - margin, grid_points)
        p0, p1, _, _ = invariant_density_with_derivative(xs, cfg.model)
        _write_csv(out_csv, ["x", "pi0", "pi1"], [xs, p0, p1])
        r0, r1 = stationarity_residual(xs, cfg.model)
        desc = invariant_description(cfg.model)
        summary.update(
            {
                "support": [support[0], support[1]],
                "kind": desc.kind,
                "normalizer": list(desc.constants),
                "mass_check": invariant_mass(cfg.model),
                "residual_max": float(max(np.max(np.abs(r0)), np.max(np.abs(r1)))),
            }
        )
    else:
        _write_csv(out_csv, ["x", "pi0", "pi1"], [])
    out_json = os.path.join(cfg.out_dir, "invariant_summary.json")
    _atomic_write(out_json, [json.dumps(summary, indent=2, sort_keys=True, default=float) + "\n"])
    manifest = _manifest(cfg, "invariant", [out_csv, out_json], t0)
    print(manifest)
    return 0


_SCALING_KINDS = {
    "telegraph": ScalingKind.KAC_ASYMMETRIC,
    "kac_classic": ScalingKind.KAC_CLASSIC,
    "fast_switching": ScalingKind.FAST_SWITCHING,
    "case_a": ScalingKind.CASE_A,
    "case_b": ScalingKind.CASE_B,
    "case_c": ScalingKind.CASE_C,
}


# suffix of each spec field's config keys sigma0<suffix> and delta<suffix>
_PAIR_SUFFIX = {"velocity": "", "drift": "_a", "reversion": "_g"}


def _cmd_scaling(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    kind_name = cfg.get("scaling", "kind", cast=str)
    if kind_name not in _SCALING_KINDS:
        raise ConfigError("scaling.kind", f"unknown kind {kind_name!r}")
    kind = _SCALING_KINDS[kind_name]
    nu = _positive(cfg, "scaling", "nu", 1.0)
    pairs = {
        name: ScaledPair(
            _positive(cfg, "scaling", "sigma0" + _PAIR_SUFFIX[name]),
            _finite(cfg, "scaling", "delta" + _PAIR_SUFFIX[name], default=0.0),
        )
        for name, _, _ in SCALED_PAIRS[kind]
    }
    spec = ScalingSpec(kind, nu, base=cfg.model, **pairs)
    t = _positive(cfg, "scaling", "t", 1.0)
    n_list = _numbers(cfg, "scaling", "n_list", default=[10, 100, 1000], count=True)
    n_paths = _count(cfg, "scaling", "n_paths", 100_000, least=2)
    # the chain at scale index n switches at rates nu n and n
    _check_work(
        sum(n_paths * (1.0 + max(nu, 1.0) * n * t) for n in n_list),
        "scaling.n_paths, scaling.t, scaling.n_list and scaling.nu",
    )
    try:
        rows = convergence_check(spec, t, n_list, n_paths, seed=cfg.seed, x0=_finite(cfg, "scaling", "x0", default=0.0))
    except DoubleRangeError as exc:
        # t, x0, the model and the amplitudes (times sqrt(nu*n)) set the
        # moments together; no one key is to blame
        amplitudes = "".join(f", scaling.sigma0{_PAIR_SUFFIX[name]}" for name in pairs)
        raise ConfigError("scaling", f"{exc}; see scaling.t, scaling.x0{amplitudes} and [model]") from exc
    out = os.path.join(cfg.out_dir, "scaling.csv")
    header = [f.name for f in dataclasses.fields(ConvergenceRow)]
    _write_csv(out, header, [[getattr(r, k) for r in rows] for k in header])
    manifest = _manifest(cfg, "scaling", [out], t0)
    print(manifest)
    return 0


def _criterion_indices(text: str) -> set[int]:
    """The --only list: comma-separated criterion numbers, each 1 to len(CRITERIA)."""
    indices = set()
    for tok in text.split(","):
        if not (tok.strip().isdecimal() and 1 <= int(tok) <= len(CRITERIA)):
            raise argparse.ArgumentTypeError(f"{tok!r} is not a criterion index from 1 to {len(CRITERIA)}")
        indices.add(int(tok))
    return indices


def _cmd_validate(args) -> int:
    results = run_all(indices=args.only, verbose=True)
    failed = [r for r in results if not r.passed]
    if args.report:
        body = [dataclasses.asdict(r) for r in results]
        _atomic_write(args.report, [json.dumps(body, indent=2) + "\n"])
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kacou", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("simulate", "fpt", "invariant", "scaling"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to key=value config file")
        p.add_argument(
            "--set",
            action="append",
            dest="overrides",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a config entry",
        )

    v = sub.add_parser("validate", help="run the acceptance cross-check suite")
    v.add_argument("--only", type=_criterion_indices, help="comma-separated criterion indices")
    v.add_argument("--report", help="write a JSON report to this path")

    args = parser.parse_args(argv)
    if args.command == "validate":
        return _cmd_validate(args)

    try:
        cfg = load_config(args.config, overrides=args.overrides)
        handler = {
            "simulate": _cmd_simulate,
            "fpt": _cmd_fpt,
            "invariant": _cmd_invariant,
            "scaling": _cmd_scaling,
        }[args.command]
        return handler(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KacOuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
