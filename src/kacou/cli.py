"""Command-line front end.

Subcommands: simulate, fpt, invariant, scaling, validate.  Every run reads a
key=value config (overridable with --set section.key=value), writes CSV/JSON
atomically, and emits a JSON manifest tying the outputs to the seed and the
config hash.  Numeric CSV fields use 17-significant-digit formatting so
reruns with identical (config, seed) are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
import dataclasses

import numpy as np

from . import __version__
from .acceptance import CRITERIA, run_all
from .config import ConfigError, RunConfig, config_hash, load_config
from .errors import DoubleRangeError, KacOuError, WorkLimitError
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
from .scaling import (
    SCALED_PAIRS,
    ConvergenceRow,
    ScaledPair,
    ScalingSpec,
    convergence_check,
)
from .simulate import (
    CENSOR_HORIZON,
    CENSOR_SWITCH_CAP,
    REASON_NAMES,
    SimCaps,
    _laplace_estimates,
    check_work,
    evaluate_x,
    fpt_samples,
    sample_m_path,
    sample_switch_sequence,
)


# the most rows one `kacou simulate` path may expect, eval_points + 1 + its
# expected switches: a path is walked by scalar code and held whole while it
# is written, at about 0.8 us and 190 bytes a row on a 2-vCPU host (about
# 1.2 us and 250 bytes with noise), so some 2.5 s and 500 MB; the README and
# benchmark configs expect at most about 2,200
MAX_PATH_ROWS = 2e6


@contextlib.contextmanager
def _work_keys(keys: str):
    """Map the samplers' WorkLimitError to a config error naming the keys that set the work."""
    try:
        yield
    except WorkLimitError as exc:
        raise ConfigError(keys, str(exc)) from exc


def _atomic_write(path: str, parts) -> None:
    """Write the bytes of `parts` to `path` as given, replacing it only once
    all are written."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    # a fresh name beside the target, created with mode 0666 so that the
    # umask sets the output's mode as for a plain open
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# rows per formatted block: a large CSV is never held in memory as text whole
_CSV_BLOCK = 1 << 14

# A block is written as one byte matrix, a row per CSV row, in which each
# column's cells have one width.  A cell shorter than its width is padded
# with _PAD, a byte no UTF-8 text holds, and the block's text is the
# matrix's bytes with every _PAD deleted, so a pad may sit anywhere in a cell.
_PAD = 0xFF
# or-ed onto a digit's value, 0 to 9, it gives the digit's ASCII byte
_DIGIT = ord("0")


def _pad_table(width: int) -> np.ndarray:
    """(width + 1, width) bytes whose row n is _DIGIT before column n and
    _PAD from column n on: or-ed onto digits' values, a row per cell taken
    by its length, it keeps that many digits as ASCII and pads the rest."""
    table = np.full((width + 1, width), _PAD, np.uint8)
    table[np.tri(width + 1, width, -1, dtype=bool)] = _DIGIT
    return table


def _decimal(x, out) -> None:
    """Write the last out.shape[1] decimal digits of the non-negative
    integers x into the rows of out, a digit's value (0 to 9) a byte,
    zero-filled on the left.  Nine digits at a time are split off in x's own
    dtype and taken apart in int32, where division by a constant is cheapest."""
    j = out.shape[1]
    while j > 0:
        if j > 9:
            q = x // 10**9
            part, x, count = (x - q * 10**9).astype(np.int32), q, 9
        else:
            part, count = x.astype(np.int32), j
        for _ in range(count):
            q = part // 10
            j -= 1
            out[:, j] = part - q * 10
            part = q


# 10^k for k = 0 to 22, each an exact double, and its halves by _halves
_POW10 = 10.0 ** np.arange(23)


def _halves(x):
    """Dekker's split of doubles into a high part of at most 26 significant
    bits and the exact rest, so that products of halves are exact."""
    c = 134217729.0 * x  # 2^27 + 1
    high = c - (c - x)
    return high, x - high


_POW10_HIGH, _POW10_LOW = _halves(_POW10)


def _scaled(a, k):
    """a * 10^k rounded to a double p, and the exact error a * 10^k - p, by
    Dekker's two-product (numpy has no fused multiply-add)."""
    p = a * _POW10.take(k)
    a_high, a_low = _halves(a)
    high, low = _POW10_HIGH.take(k), _POW10_LOW.take(k)
    return p, ((a_high * high - p) + a_high * low + a_low * high) + a_low * low


# A float cell holds the sign; "0." and up to three zeros, for a decimal
# exponent X from -4 to -1; then the 17 significant digits, each in a
# little-endian uint16 whose high byte is a slot for the point, which
# follows digit X when X >= 0 and digits are left after it.
_FLOAT_WIDTH = 6 + 2 * 17
# [X + 4, negative]: the sign, then "0." and -1 - X zeros for X < 0
_HEADS = np.frombuffer(
    b"".join(
        sign + (b"0." + b"0" * (-1 - x) if x < 0 else b"").ljust(5, b"\xff")
        for x in range(-4, 17)
        for sign in (b"\xff", b"-")
    ),
    np.uint8,
).reshape(42, 6)
# [digits kept, digit the point follows (17 for none)]: or-ed onto the
# digits' values, the ASCII digits kept, the point and pads elsewhere
_TAILS = (
    np.where(np.arange(17) < np.arange(18)[:, None, None], _DIGIT, _PAD)
    | np.where(np.arange(17) == np.arange(18)[:, None], ord("."), _PAD) << 8
).astype("<u2").reshape(18 * 18, 17)


def _float_cells(column):
    """Width and writer of `%.17g` cells, _FLOAT_WIDTH bytes each.

    For |v| in [1e-4, 1e17) the digits are exact.  With E = floor(log10|v|),
    k = 16 - E is at most 20, so 10^k is an exact double, and |v| * 10^k is
    p + e exactly.  p >= 1e16 > 2^53 is an even integer, so the 17 digits,
    rounded half to even as Python's `%` rounds them, are those of
    p + rint(e).  They never round up to 10^17: no double below a power of
    ten lies within 5e-18 of it.  `%g` writes these exponents in fixed
    notation, without the fraction's trailing zeros.  Zero, inf, nan and
    every other magnitude go through Python's `%` one by one.
    """
    v = column.astype(np.float64, copy=False)
    a = np.abs(v)
    exact = (a >= 1e-4) & (a < 1e17)
    a = np.where(exact, a, 1.0)
    # log10 may be one off next to a power of ten: the product shows it
    e10 = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    p, err = _scaled(a, 16 - e10)
    low = (p < 1e16) | ((p == 1e16) & (err < 0.0))
    high = (p > 1e17) | ((p == 1e17) & (err >= 0.0))
    e10 += high
    e10 -= low
    moved = np.flatnonzero(low | high)
    if moved.size:
        p[moved], err[moved] = _scaled(a[moved], 16 - e10[moved])
    n = p.astype(np.int64) + np.rint(err).astype(np.int64)
    rest = np.flatnonzero(~exact)

    def write(out):
        digits = out[:, 6:].view("<u2")
        _decimal(n, digits)
        # %g drops the fraction's trailing zeros, and the point with them
        kept = np.full(len(v), 17)
        zeros = np.flatnonzero(digits[:, -1] == 0)
        if zeros.size:
            kept[zeros] -= np.argmax(digits[zeros, ::-1] != 0, axis=1)
        kept = np.maximum(kept, e10 + 1)
        point = np.where((e10 >= 0) & (e10 < kept - 1), e10, 17)
        digits |= _TAILS.take(18 * kept + point, axis=0)
        out[:, :6] = _HEADS.take(2 * e10 + 8 + (v < 0.0), axis=0)
        if rest.size:
            text = np.array(["%.17g" % x for x in v[rest].tolist()], "S").view(np.uint8).reshape(rest.size, -1)
            text[text == 0] = _PAD
            out[rest, : text.shape[1]] = text
            out[rest, text.shape[1] :] = _PAD

    return _FLOAT_WIDTH, write


# 10^k for k = 0 to 19 as uint64: every uint64 has at most 20 digits
_TENS = 10 ** np.arange(20, dtype=np.uint64)
_SIGN = np.array([_PAD, ord("-")], np.uint8)  # [negative]


def _integer_cells(column):
    """Width and writer of integer cells: the decimal digits, after a sign
    slot where some value is negative."""
    values = column.astype(np.int64 if column.dtype.kind == "i" else np.uint64)
    negative = values < 0
    signs = int(negative.any())
    size = values.view(np.uint64)
    if signs:
        # int64's least value has no int64 negation, but has a uint64 one
        size = np.where(negative, np.negative(size), size)
    count = len(str(int(size.max())))

    def write(out):
        if signs:
            out[:, 0] = _SIGN.take(negative.view(np.uint8))
        digits = out[:, signs:]
        _decimal(size, digits)
        lengths = np.searchsorted(_TENS[1:count], size, side="right") + 1
        digits |= _pad_table(count).take(lengths, axis=0)[:, ::-1]

    return signs + count, write


@dataclasses.dataclass(frozen=True)
class Labels:
    """A text column held as codes: row i reads names[codes[i]].  The names
    are a few ASCII strings, and a slice slices the codes only."""

    codes: np.ndarray
    names: tuple

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index) -> "Labels":
        return Labels(self.codes[index], self.names)


def _label_cells(column: Labels):
    """Width and writer of label cells: one take of a (names, width) byte
    table, each name padded to the longest name the block uses."""
    names = [name.encode("ascii") for name in column.names]
    width = int(np.array([len(name) for name in names]).take(column.codes).max())
    pad = bytes([_PAD])
    table = np.frombuffer(b"".join(name[:width].ljust(width, pad) for name in names), np.uint8)
    table = table.reshape(len(names), width)

    def write(out):
        out[...] = table.take(column.codes, axis=0)

    return width, write


def _cells(column):
    """Width and writer of one block of a column: writer(out) fills a
    (rows, width) byte view with the column's fields.  A column is Labels or
    a numpy array written by its dtype kind: floats as `%.17g`, integers in
    decimal and ASCII text as given, through its unique values as labels;
    anything else raises TypeError."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    if kind == "f":
        return _float_cells(column)
    if kind in ("i", "u"):
        return _integer_cells(column)
    if kind == "U":
        names, codes = np.unique(column, return_inverse=True)
        column = Labels(codes, tuple(names.tolist()))
    if isinstance(column, Labels) and all(name.isascii() for name in column.names):
        return _label_cells(column)
    raise TypeError(f"a CSV column must be a float, integer or ASCII text array, or Labels, got {column!r:.60}")


def _block_cells(columns):
    """Width and writer of each column of one block, as _cells gives them;
    two or more float columns are formatted by one _float_cells call on them
    joined end to end, since at a few thousand rows a numpy call's fixed cost
    outweighs its work on the values, and each writer copies its part."""
    floats = [i for i, c in enumerate(columns) if isinstance(c, np.ndarray) and c.dtype.kind == "f"]
    if len(floats) < 2:
        return [_cells(c) for c in columns]
    width, write = _float_cells(np.concatenate([columns[i] for i in floats]))
    text = np.empty((len(floats), len(columns[0]), width), np.uint8)
    write(text.reshape(-1, width))
    joined = {i: (width, functools.partial(np.copyto, src=part)) for i, part in zip(floats, text)}
    return [joined.get(i) or _cells(c) for i, c in enumerate(columns)]


def _csv_blocks(header: list[str], blocks):
    """The header line, then the rows of each block of equal-length columns
    in turn, one row per index, each part as ASCII bytes.  `blocks` may be a
    generator, so that each block is made only as the writer reaches it."""
    yield (",".join(header) + "\n").encode()
    # the byte matrix's memory, kept from block to block and grown as needed
    memory = np.empty(0, np.uint8)
    for columns in blocks:
        n = len(columns[0]) if columns else 0
        for lo in range(0, n, _CSV_BLOCK):
            cells = _block_cells([c[lo : lo + _CSV_BLOCK] for c in columns])
            rows = min(n - lo, _CSV_BLOCK)
            size = rows * sum(width + 1 for width, _ in cells)
            if memory.size < size:
                memory = np.empty(size, np.uint8)
            matrix = memory[:size].reshape(rows, -1)
            end = 0
            for width, write in cells:
                write(matrix[:, end : end + width])
                matrix[:, end + width] = ord(",")
                end += width + 1
            matrix[:, -1] = ord("\n")
            yield matrix.tobytes().translate(None, bytes([_PAD]))


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write equal-length columns under the header, one row per index."""
    _atomic_write(path, _csv_blocks(header, [columns]))


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
    _atomic_write(path, [(json.dumps(body, indent=2, sort_keys=True) + "\n").encode()])
    return path


def _cmd_simulate(cfg: RunConfig):
    mode, n_paths, x0, state0 = (cfg[f"simulate.{key}"] for key in ("mode", "n_paths", "x0", "state0"))
    reasons = (CENSOR_HORIZON, CENSOR_SWITCH_CAP)
    extra = {"censoring": {REASON_NAMES[code]: 0 for code in reasons}, "process": "mean path"}

    if mode == "path":
        horizon = cfg["simulate.horizon"]
        with _work_keys("simulate.n_paths, simulate.horizon and the [model] rates"):
            check_work(cfg.model.rates, horizon, n_paths, pooled=False)  # walked one by one, outside the pool
        with_noise, n_eval = cfg["simulate.with_noise"], cfg["simulate.eval_points"]
        rows = n_eval + 1.0 + cfg.model.rates.expected_switches(horizon)
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
        if with_noise:
            extra["process"] = "modulated diffusion"
    else:
        x, y = cfg["simulate.x"], cfg["simulate.y"]
        caps = SimCaps(horizon=cfg["simulate.cap_horizon"], max_switches=cfg["simulate.cap_switches"])
        with _work_keys("simulate.n_paths, simulate.cap_horizon, simulate.cap_switches and the [model] rates"):
            batch = fpt_samples(cfg.model, x, y, state0, n_paths, cfg.seed, caps=caps)
        columns = [
            np.arange(batch.times.size),
            Labels(batch.censored.view(np.uint8), ("hit", "censored")),
            batch.times,
            Labels(batch.reason, REASON_NAMES),
        ]
        out = os.path.join(cfg.out_dir, "fpt_samples.csv")
        _write_csv(out, ["sample", "outcome", "time", "reason"], columns)
        extra["censoring"] = {REASON_NAMES[code]: int(np.sum(batch.reason == code)) for code in reasons}

    return [out], extra


def _cmd_fpt(cfg: RunConfig):
    qs, x, y, state, n_mc = (cfg[f"fpt.{key}"] for key in ("q_grid", "x", "y", "state", "mc_samples"))
    queries = [FptQuery(q, x, y, state) for q in qs]
    # the closed forms and the oracle refuse before the batch is drawn
    exact = [(laplace_fpt(query, cfg.model), fpt_integral_oracle(query, cfg.model)) for query in queries]
    # the law of T does not depend on q, so one batch serves the whole grid
    with _work_keys("fpt.mc_samples and the [model] rates"):
        batch = fpt_samples(cfg.model, x, y, state, n_mc, cfg.seed)
    estimates = _laplace_estimates(batch, qs, np.empty(n_mc))
    rows = [(q, x, y, state, *pair, *mc) for q, pair, mc in zip(qs, exact, estimates)]
    out = os.path.join(cfg.out_dir, "fpt.csv")
    header = ["q", "x", "y", "state", "closed_form", "oracle", "mc_mean", "mc_stderr"]
    columns = [np.array(c, dtype=np.int64 if name == "state" else np.float64) for name, c in zip(header, zip(*rows))]
    _write_csv(out, header, columns)
    return [out], {"censoring": {"count": int(np.count_nonzero(batch.censored))}, "process": "mean path"}


def _cmd_invariant(cfg: RunConfig):
    exists, support = invariant_exists(cfg.model)
    grid_points = cfg["invariant.grid_points"]

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
    _atomic_write(out_json, [(json.dumps(summary, indent=2, sort_keys=True, default=float) + "\n").encode()])
    return [out_csv, out_json], {"process": "mean path"}


# suffix of each spec field's config keys sigma0<suffix> and delta<suffix>
_PAIR_SUFFIX = {"velocity": "", "drift": "_a", "reversion": "_g"}


def _cmd_scaling(cfg: RunConfig):
    kind, nu = cfg["scaling.kind"], cfg["scaling.nu"]
    pairs = {
        name: ScaledPair(cfg["scaling.sigma0" + _PAIR_SUFFIX[name]], cfg["scaling.delta" + _PAIR_SUFFIX[name]])
        for name, _, _ in SCALED_PAIRS[kind]
    }
    spec = ScalingSpec(kind, nu, base=cfg.model, **pairs)
    t, n_list, n_paths = cfg["scaling.t"], cfg["scaling.n_list"], cfg["scaling.n_paths"]
    try:
        with _work_keys("scaling.n_paths, scaling.t, scaling.n_list and scaling.nu"):
            rows = convergence_check(spec, t, n_list, n_paths, seed=cfg.seed, x0=cfg["scaling.x0"])
    except DoubleRangeError as exc:
        # t, x0, the model and the amplitudes (times sqrt(nu*n)) set the
        # moments together; no one key is to blame
        amplitudes = "".join(f", scaling.sigma0{_PAIR_SUFFIX[name]}" for name in pairs)
        raise ConfigError("scaling", f"{exc}; see scaling.t, scaling.x0{amplitudes} and [model]") from exc
    out = os.path.join(cfg.out_dir, "scaling.csv")
    header = [f.name for f in dataclasses.fields(ConvergenceRow)]
    # n as decimal text, since a count may pass int64; a limit of zero
    # variance has no Kolmogorov distance, and its field is empty
    cdf = [r.cdf_dist for r in rows]
    columns = [
        np.array([str(r.n) for r in rows], str),
        *(np.array([getattr(r, k) for r in rows], np.float64) for k in header[1:-1]),
        np.full(len(rows), "") if None in cdf else np.array(cdf, np.float64),
    ]
    _write_csv(out, header, columns)
    return [out], None


def _criterion_indices(text: str) -> set[int]:
    """The --only list: comma-separated criterion numbers, each 1 to len(CRITERIA)."""
    indices = set()
    for tok in text.split(","):
        if not (tok.strip().isdecimal() and 1 <= int(tok) <= len(CRITERIA)):
            raise argparse.ArgumentTypeError(f"{tok!r} is not a criterion index from 1 to {len(CRITERIA)}")
        indices.add(int(tok))
    return indices


def _cmd_validate(args) -> int:
    results = run_all(indices=args.only)
    failed = [r for r in results if not r.passed]
    if args.report:
        body = [dataclasses.asdict(r) for r in results]
        _atomic_write(args.report, [(json.dumps(body, indent=2) + "\n").encode()])
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once a process: main may run many
    times in one process, as in tests and scripts."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
        # each command returns its outputs and its manifest's extra keys
        t0 = time.perf_counter()
        outputs, extra = handler(cfg)
        print(_manifest(cfg, args.command, outputs, t0, extra))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KacOuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
