"""Traced-run mode: spans recorded from outside the program.

``install`` replaces public kacou functions at the module attribute their
callers look up (``kacou.first_passage.gauss_2f1_log`` rather than
``kacou.specfun.gauss_2f1_log``) with wrappers that record one span per call:
name, start, end, parent span and operation id, plus counts such as series
terms or lanes.  Hot scalar calls (``evaluate_x``) get no span of their own;
their time and count are added to the enclosing span.  Spans stay in memory;
the runner writes them out once the run ends.

A layer's self time is its spans' durations minus the part covered by child
spans and aggregated calls; its busy time is the union of its outermost
spans.  Only the benchmark's own files are involved: the program is not
edited and records nothing itself.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from time import perf_counter

# layer -> (module, attribute) pairs, one per caller-visible name
WRAPPED = {
    "specfun": (
        ("kacou.first_passage", "gauss_2f1_log"),
        ("kacou.first_passage", "gauss_2f1_pair_log"),
        ("kacou.first_passage", "kummer_1f1_log"),
    ),
    "first_passage.closed": (
        ("kacou.first_passage", "laplace_fpt"),
        ("kacou.cli", "laplace_fpt"),
    ),
    "first_passage.oracle": (
        ("kacou.first_passage", "fpt_oracle_curve"),
        ("kacou.cli", "fpt_integral_oracle"),
    ),
    "simulate.fpt": (
        ("kacou.simulate", "fpt_samples"),
        ("kacou.cli", "fpt_samples"),
    ),
    "simulate.terminal": (
        ("kacou.scaling", "terminal_values"),
        ("kacou.invariant", "terminal_values"),
    ),
    "simulate.path": (
        ("kacou.cli", "sample_switch_sequence"),
        ("kacou.cli", "sample_m_path"),
    ),
    "scaling": (("kacou.scaling", "convergence_check"),),
    "invariant": (
        ("kacou.invariant", "empirical_invariant_profile"),
        ("kacou.cli", "invariant_exists"),
        ("kacou.cli", "invariant_mass"),
        ("kacou.cli", "support_cutoff"),
        ("kacou.cli", "invariant_density_with_derivative"),
        ("kacou.cli", "stationarity_residual"),
        ("kacou.cli", "invariant_description"),
    ),
    "quadrature": (
        ("kacou.invariant", "integrate_de_offsets"),
        ("kacou.invariant", "integrate_half_line_offsets"),
    ),
    "cli": (("kacou.cli", "main"),),
}
# hot scalar calls: time and count folded into the enclosing span
AGGREGATED = {"simulate.path": (("kacou.cli", "evaluate_x"),)}

OP_SPAN = "bench.op"


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "counts", "agg")

    def __init__(self, sid, name, start, parent, op):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.counts = {}
        self.agg = {}  # layer -> [seconds, calls]

    def as_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "counts": self.counts,
            "agg": self.agg,
        }


class NullTracer:
    """Tracing off: operations run with no bookkeeping at all."""

    def op(self, op_id):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = None

    def open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, perf_counter(), parent, self._op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def op(self, op_id):
        self._op = op_id
        span = self.open(OP_SPAN)
        try:
            yield span
        finally:
            self.close(span)
            self._op = None

    def wrap(self, fn, layer: str, on_result=None):
        tracer = self
        signature = inspect.signature(fn) if on_result else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.counts["failed"] = 1
                raise
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(span.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def aggregate(self, fn, layer: str):
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot = stack[-1].agg.setdefault(layer, [0.0, 0])
                slot[0] += perf_counter() - t0
                slot[1] += 1

        return timed


def _terms(counts, args, result):
    counts["terms"] = result.terms_used


def _fpt(counts, args, result):
    counts["paths"] = int(args["n"])
    counts["censored"] = int(result.censored.sum())


def _terminal(counts, args, result):
    model = args["model"]
    l0, l1 = model.rates.lambda0, model.rates.lambda1
    lanes = int(args["n"])
    counts["lanes"] = lanes
    # expected segments per lane under the stationary switching rate
    counts["lane_segments"] = lanes * (1.0 + args["t"] * 2.0 * l0 * l1 / (l0 + l1))
    counts["equal_rate"] = l0 == l1
    counts["noise"] = bool(args.get("with_noise", False))


def _rows(counts, args, result):
    counts["rows"] = len(result)


ON_RESULT = {
    ("kacou.first_passage", "gauss_2f1_log"): _terms,
    ("kacou.first_passage", "gauss_2f1_pair_log"): _terms,
    ("kacou.first_passage", "kummer_1f1_log"): _terms,
    ("kacou.simulate", "fpt_samples"): _fpt,
    ("kacou.cli", "fpt_samples"): _fpt,
    ("kacou.scaling", "terminal_values"): _terminal,
    ("kacou.invariant", "terminal_values"): _terminal,
    ("kacou.scaling", "convergence_check"): _rows,
}


def install(tracer: Tracer):
    """Swap in the wrappers; returns a function that restores the originals."""
    saved = []
    for table, make in ((WRAPPED, None), (AGGREGATED, "aggregate")):
        for layer, sites in table.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                if make == "aggregate":
                    wrapper = tracer.aggregate(original, layer)
                else:
                    wrapper = tracer.wrap(original, layer, ON_RESULT.get((module_name, attr)))
                setattr(module, attr, wrapper)

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Per layer: sum over its spans of duration minus the union of child
    spans, minus aggregated call time.  Aggregated layers count their
    folded time as self time."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = _union_length(children.get(s.sid, ()))
        folded = sum(v[0] for v in s.agg.values())
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered - folded
        for layer, (seconds, _) in s.agg.items():
            out[layer] = out.get(layer, 0.0) + seconds
    return out


def outermost(spans, name):
    """Spans of `name` with no ancestor of the same name (recursive calls
    and nested entry points count once)."""
    by_id = {s.sid: s for s in spans}
    result = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and by_id[p].name != name:
            p = by_id[p].parent
        if p is None:
            result.append(s)
    return result


def busy_time(spans, name) -> float:
    """Union of the layer's spans plus aggregated time folded outside them."""
    busy = sum(s.end - s.start for s in outermost(spans, name))
    by_id = {s.sid: s for s in spans}
    for s in spans:
        if name in s.agg:
            p = s.sid
            while p is not None and by_id[p].name != name:
                p = by_id[p].parent
            if p is None:
                busy += s.agg[name][0]
    return busy


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

TERMINAL_CLASSES = ("equal_noise", "equal_plain", "unequal_noise", "unequal_plain")


def _ratio(num, den, scale=1.0) -> float:
    """num/den * scale, or 0 when the layer did no work on this workload."""
    return num / den * scale if den else 0.0


def layer_metrics(spans, extra=None) -> dict:
    """{metric: (value, unit)} for one traced pass.  A layer the workload
    does not reach reads 0."""
    extra = extra or {}
    selfs = self_times(spans)

    def top(name):
        return outermost(spans, name)

    def total(items, key):
        return sum(s.counts.get(key, 0) for s in items)

    m = {}
    spec = top("specfun")
    busy = busy_time(spans, "specfun")
    terms = total(spec, "terms")
    m["specfun.calls"] = (len(spec), "count")
    m["specfun.busy_s"] = (busy, "s")
    m["specfun.terms"] = (terms, "count")
    m["specfun.ns_per_term"] = (_ratio(busy, terms, 1e9), "ns")
    m["specfun.failed"] = (total(spec, "failed"), "count")

    closed = top("first_passage.closed")
    m["first_passage.closed.calls"] = (len(closed), "count")
    m["first_passage.closed.self_s"] = (selfs.get("first_passage.closed", 0.0), "s")
    m["first_passage.closed.failed"] = (total(closed, "failed"), "count")

    oracle = top("first_passage.oracle")
    busy = busy_time(spans, "first_passage.oracle")
    m["first_passage.oracle.calls"] = (len(oracle), "count")
    m["first_passage.oracle.busy_s"] = (busy, "s")
    m["first_passage.oracle.ms_per_curve"] = (_ratio(busy, len(oracle), 1e3), "ms")
    m["first_passage.oracle.failed"] = (total(oracle, "failed"), "count")

    fpt = top("simulate.fpt")
    busy = busy_time(spans, "simulate.fpt")
    paths = total(fpt, "paths")
    m["simulate.fpt.paths"] = (paths, "count")
    m["simulate.fpt.busy_s"] = (busy, "s")
    m["simulate.fpt.ns_per_path"] = (_ratio(busy, paths, 1e9), "ns")
    m["simulate.fpt.censored_frac"] = (_ratio(total(fpt, "censored"), paths), "fraction")

    term = top("simulate.terminal")
    busy = busy_time(spans, "simulate.terminal")
    segs = total(term, "lane_segments")
    m["simulate.terminal.lanes"] = (total(term, "lanes"), "count")
    m["simulate.terminal.busy_s"] = (busy, "s")
    m["simulate.terminal.lane_segments"] = (segs, "count_computed")
    m["simulate.terminal.ns_per_lane_segment"] = (_ratio(busy, segs, 1e9), "ns")
    for cls in TERMINAL_CLASSES:
        equal, noise = cls.startswith("equal"), cls.endswith("noise")
        members = [s for s in term if s.counts.get("equal_rate") == equal and s.counts.get("noise") == noise]
        cls_busy = sum(s.end - s.start for s in members)
        m[f"simulate.terminal.{cls}.ns_per_lane_segment"] = (
            _ratio(cls_busy, total(members, "lane_segments"), 1e9), "ns")
    m["simulate.terminal.equal_rate_share"] = (
        _ratio(total([s for s in term if s.counts.get("equal_rate")], "lane_segments"), segs), "fraction")
    m["simulate.terminal.noise_share"] = (
        _ratio(total([s for s in term if s.counts.get("noise")], "lane_segments"), segs), "fraction")

    m["simulate.path.busy_s"] = (busy_time(spans, "simulate.path"), "s")
    m["simulate.path.evaluate_x_calls"] = (sum(s.agg.get("simulate.path", (0, 0))[1] for s in spans), "count")

    m["scaling.rows"] = (total(top("scaling"), "rows"), "count")
    m["scaling.self_s"] = (selfs.get("scaling", 0.0), "s")

    m["invariant.calls"] = (len(top("invariant")), "count")
    m["invariant.self_s"] = (selfs.get("invariant", 0.0), "s")
    m["quadrature.calls"] = (len(top("quadrature")), "count")
    m["quadrature.busy_s"] = (busy_time(spans, "quadrature"), "s")

    cli_self = selfs.get("cli", 0.0)
    written = extra.get("cli.bytes_written", 0)
    m["cli.commands"] = (len(top("cli")), "count")
    m["cli.self_s"] = (cli_self, "s")
    m["cli.rows_written"] = (extra.get("cli.rows_written", 0), "count")
    m["cli.bytes_written"] = (written, "bytes")
    m["cli.ns_per_byte"] = (_ratio(cli_self, written, 1e9), "ns")
    return m


def self_total(spans) -> float:
    """Sum of every layer's self time, the benchmark's op spans included;
    it cannot exceed the traced wall time of the pass."""
    return sum(self_times(spans).values())
