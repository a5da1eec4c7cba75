"""First-passage Laplace transforms: closed forms per regime, an independent
integral-equation oracle, and an ODE-residual checker.

The closed forms are hypergeometric ratios valid on the domains where the
underlying power series converge.  Queries outside those domains raise
:class:`OutOfDomainError` instead of extrapolating; the renewal-equation
oracle covers every regime (for q > 0) and is the cross-check for all of
them.

One frame for dispatch: relabelling the chain states and rescaling space
preserve first-passage times, so each regime picks a state swap and a scale
that carry a query onto its formula's orientation (rho0 < rho1 with the
attracting state first; the zero-reversion state last with unit positive
drift), read as x / scale.  Domain errors quote the query's coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateModelError,
    OracleError,
    OutOfDomainError,
    ParameterError,
    UnsupportedRegimeError,
)
from .model import (
    KacOuModel,
    RegimeTag,
    classify_regime,
    hitting_time,
    hyper_args,
    pattern_phi,
    rescale,
    swap_states,
    xi0,
    xi1,
)
from .quadrature import gauss_legendre
from .specfun import LogValue, gauss_2f1_log, kummer_1f1_log
from .specfun import gauss_2f1_pair_log  # noqa: F401  (bench/tracing.py wraps it here; ROADMAP item 5)

__all__ = [
    "FptQuery",
    "laplace_fpt",
    "running_extremum_prob",
    "fpt_integral_oracle",
    "fpt_oracle_curve",
    "fpt_ode_residual",
]

KERNEL_CUT = 16.0 * math.log(10.0)  # integrate until exp(-(q+lam)*tau) < 1e-16
ORACLE_CORE_NODES = 2001
ORACLE_TAIL_NODES = 2000
ORACLE_MAX_ITER = 10_000
_TAIL_RATIO_CAP = 1e13
_QUAD_PANELS = 18
_QUAD_ORDER = 6
# rows per operator-setup block: each block's rows x points temporaries
# (positions, cells, fractions, weights) stay in L2; hitting times and the
# shared far row are made once per state, outside the blocks
_ORACLE_BLOCK_ROWS = 256
# residual differences the oracle's Anderson-accelerated solve fits per step
_ORACLE_ANDERSON_DEPTH = 3
# nearest an attracting target may come to the attractor it approaches, as
# a share of the gap: sqrt(eps), where one rounding of its coordinate moves
# the transform by beta sqrt(eps) relative (the direct series could not
# settle nearer either)
_TARGET_CLEARANCE = 2.0**-26
# targets whose side of the transform ratio is kept (see _target): a caller
# sweeping start points for one target at a time needs one entry
_TARGET_MEMO_SIZE = 64


@dataclass(frozen=True)
class FptQuery:
    """A first-passage Laplace query: rate q, start x, target y, start state."""

    q: float
    x: float
    y: float
    initial_state: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.q, self.x, self.y))):
            raise ParameterError(f"q, x and y must be finite, got {self.q}, {self.x}, {self.y}")
        if self.x == self.y:
            raise ParameterError("first-passage query requires x != y")
        if self.q < 0.0:
            raise ParameterError(f"q must be >= 0, got {self.q}")
        if self.initial_state not in (0, 1):
            raise ParameterError(f"initial_state must be 0 or 1, got {self.initial_state}")


class _Frame:
    """A query in its formula's canonical coordinates x_c = x / scale (the
    states already relabelled)."""

    def __init__(self, regime: str, scale: float, query: FptQuery):
        self.regime, self.scale, self.query = regime, scale, query
        self.x, self.y = query.x / scale, query.y / scale

    def require(self, name, what, lo=-math.inf, hi=math.inf, lo_closed=False, hi_closed=False):
        """Raise OutOfDomainError unless lo < x_c < hi (y_c when name is "y";
        a closed end admits equality).  The message maps the interval back
        through scale and quotes the query's own x or y."""
        v = getattr(self, name)
        if (lo <= v if lo_closed else lo < v) and (v <= hi if hi_closed else v < hi):
            return
        ends = [lo * self.scale, hi * self.scale]
        ops = ["<=" if lo_closed else "<", "<=" if hi_closed else "<"]
        if self.scale < 0.0:  # the ends swap
            ends.reverse()
            ops.reverse()
        raise OutOfDomainError(
            f"{self.regime} closed form needs {ends[0]} {ops[0]} {name} {ops[1]} {ends[1]} ({what}), "
            f"got {name}={getattr(self.query, name)}; use fpt_integral_oracle"
        )


class _Target:
    """One memo entry: hyper_args(q, model) (None in the non-strict branch)
    and the branch's target-side value, None until it is first evaluated
    without raising."""

    __slots__ = ("hp", "den")

    def __init__(self, hp):
        self.hp, self.den = hp, None

    def denominator(self, evaluate, *args):
        """The target-side value, from evaluate(*args) on first use."""
        if self.den is None:
            self.den = evaluate(*args)
        return self.den


@functools.lru_cache(maxsize=_TARGET_MEMO_SIZE)
def _target(branch: str, model: KacOuModel, q: float, y: float) -> _Target:
    """The memo entry of one target: a transform's denominator depends only
    on its branch, the canonical model, q and the canonical y, so queries
    that differ only in the start (or start state) share it.

    An entry is filled where a query without the memo would compute each
    value, through this module's globals at that time: hyper_args when the
    entry is made, the denominator at its place in the branch (after the
    start-side series in the Gauss branches, before it in the non-strict
    one).  So a query raises what it would raise without the memo, and a
    denominator that raises is not kept and raises again on the next query.
    """
    return _Target(None if branch == "non-strict" else hyper_args(q, model))


def _regular_branch(target, beta, lam, q, zx, zy, toward, state):
    """The series branch regular at the attractor the coordinate z is
    measured from: F(beta;zx)/F(beta;zy) for the state `toward` whose
    pattern heads for the threshold, and lam/(q+lam) F(1+beta;zx)/F(beta;zy)
    for the other state (beta and lam are the other state's), which has to
    switch first.  Ratios are formed in log space, so large-parameter
    evaluations (big q) stay finite."""
    hp = target.hp
    num = gauss_2f1_log(hp.b0, hp.b1, beta if state == toward else 1.0 + beta, zx)
    ratio = num.ratio(target.denominator(gauss_2f1_log, hp.b0, hp.b1, beta, zy))
    return ratio if state == toward else lam / (q + lam) * ratio


def _attracting_value(model, q, frame, state):
    # canonical: rho0 < rho1
    r0, r1 = model.coeffs[0].rho, model.coeffs[1].rho
    l0, l1 = model.rates.lambda0, model.rates.lambda1
    x, y = frame.x, frame.y
    target = _target("attracting below" if x < y else "attracting above", model, q, y)
    hp = target.hp
    # the series at y is singular at the attractor y approaches, like
    # (1 - z)^-beta, and one rounding of z moves the transform by about
    # beta eps / (1 - z) relative; a target nearer than _TARGET_CLEARANCE of
    # the gap (or than the rounding y, rho0 and rho1 carry) is refused
    tie = max(_TARGET_CLEARANCE * (r1 - r0), 4.0 * math.ulp(1.0) * (abs(y) + abs(r0) + abs(r1)))
    if x < y:
        frame.require("y", "the threshold between the attractors", r0, r1, lo_closed=True)
        frame.require("y", "a threshold clear of the attractor", hi=r1 - tie)
        frame.require("x", "series radius", lo=2.0 * r0 - r1)
        # z = 1 - (r1 - .)/(r1 - r0), formed from the distance to the
        # attractor y approaches as the x > y branch forms it, so that a
        # query and its mirror image round z alike
        return _regular_branch(target, hp.beta0, l0, q, xi1(x, r1, r0), xi1(y, r1, r0), 1, state)
    # x > y: mirrored series in xi1
    frame.require("y", "the threshold between the attractors", r0, r1, hi_closed=True)
    frame.require("y", "a threshold clear of the attractor", lo=r0 + tie)
    frame.require("x", "series radius", hi=2.0 * r1 - r0)
    return _regular_branch(target, hp.beta1, l1, q, xi1(x, r0, r1), xi1(y, r0, r1), 0, state)


def _ar_decaying(hp, z, state):
    """The solution branch of the transform ODE system that decays toward
    -infinity, evaluated through the hypergeometric solution at the point at
    infinity (argument u = 1/(1-z), inside the unit interval for every z < 1).

    Returns log-scaled G for state 0 and H for state 1, with ell0
    proportional to G/beta1(0) and ell1 to H, where, with c3 = b0 - b1 + 1
    and the prefactor (1 - z)^-b0,

        H = F(b0, beta0 - b1; c3; u),
        G = (beta1 - b0) F(b0, beta0 - b1; c3; u) - u d/du F(b0, beta0 - b1; c3; u)
          = -(beta0 - b1) F(b0, beta0 - b1 + 1; c3; u).

    The two lines of G agree because beta1 - b0 = b1 - beta0 (the roots sum
    to beta0 + beta1) and (u d/du + b) F(a, b; c; u) = b F(a, b + 1; c; u)
    (DLMF 15.5): the single series has no cancellation between two.
    """
    b0, b1 = hp.b0, hp.b1
    c3 = b0 - b1 + 1.0
    u = 1.0 / (1.0 - z)
    log_pref = -b0 * math.log1p(-z)
    if state == 0:
        f = gauss_2f1_log(b0, hp.beta0 - b1 + 1.0, c3, u).scaled(-(hp.beta0 - b1))
    else:
        f = gauss_2f1_log(b0, hp.beta0 - b1, c3, u)
    return LogValue(f.log + log_pref, f.sign, f.terms_used)


def _attraction_repulsion_value(model, q, frame, state):
    # canonical: gamma0 > 0 > gamma1 and rho0 < rho1
    r0, r1 = model.coeffs[0].rho, model.coeffs[1].rho
    l0, l1 = model.rates.lambda0, model.rates.lambda1
    x, y = frame.x, frame.y
    frame.require("y", "the threshold past the attractor, away from the repelling level", hi=r0)
    target = _target("attraction-repulsion below" if x < y else "attraction-repulsion above", model, q, y)
    hp = target.hp
    if x < y:
        # both states are normalized by G at y
        num = _ar_decaying(hp, xi0(x, r0, r1), state)
        if state == 1:
            num = num.scaled(l1 / model.coeffs[1].gamma)
        return num.ratio(target.denominator(_ar_decaying, hp, xi0(y, r0, r1), 0))
    # x > y: the transforms are smooth across rho0 (the no-switch hit time is
    # infinite on both sides), which selects the series branch regular there,
    # normalized by ell1 -> 1 as x decreases to y.
    frame.require("y", "series radius", lo=2.0 * r0 - r1)
    frame.require("x", "the start on the attractor's side of the repelling level", hi=r1)
    return _regular_branch(target, hp.beta0, l0, q, xi0(x, r0, r1), xi0(y, r0, r1), 1, state)


def _non_strict_value(model, q, frame, state):
    # canonical: gamma1 = 0, a1 = 1, gamma0 > 0
    c0 = model.coeffs[0]
    l0, l1 = model.rates.lambda0, model.rates.lambda1
    x, y = frame.x, frame.y
    frame.require("x", "a passage in the linear state's drift direction", hi=y)
    rho = c0.rho
    # below the attractor both no-switch hit times are finite and both
    # transforms reach 1 at the boundary; the confluent branch regular at
    # the attractor no longer solves that problem
    frame.require("y", "the threshold past the attractor", lo=rho)
    beta0 = (q + l0) / c0.gamma
    delta = ((q + l0) * (q + l1) - l0 * l1) / (c0.gamma * (q + l1))
    ux = (x - rho) * (q + l1)
    uy = (y - rho) * (q + l1)
    den = _target("non-strict", model, q, y).denominator(kummer_1f1_log, delta, beta0, uy)
    if state == 1:
        return kummer_1f1_log(delta, beta0, ux).ratio(den)
    return l0 / (q + l0) * kummer_1f1_log(delta, 1.0 + beta0, ux).ratio(den)


def laplace_fpt(query: FptQuery, model: KacOuModel) -> float:
    """Closed-form E[exp(-q T(x,y))] for the query's regime and branch.

    Raises OutOfDomainError when (x, y) leaves the stated validity domain,
    DegenerateModelError when the attractor levels coincide, and
    UnsupportedRegimeError when no closed form exists; those cases belong to
    :func:`fpt_integral_oracle`.
    """
    regime = classify_regime(model)
    tag = regime.tag
    if tag is RegimeTag.DEGENERATE_EQUAL_RHO:
        raise DegenerateModelError(
            "equal attractor levels: no hypergeometric closed form, use fpt_integral_oracle"
        )
    if tag is RegimeTag.ATTRACTING_STRICT:
        formula, swap, scale = _attracting_value, model.coeffs[0].rho > model.coeffs[1].rho, 1.0
    elif tag in (RegimeTag.ATTRACTION_REPULSION_01, RegimeTag.ATTRACTION_REPULSION_10):
        swap = tag is RegimeTag.ATTRACTION_REPULSION_10
        attract, repel = model.coeffs[::-1] if swap else model.coeffs
        formula, scale = _attraction_repulsion_value, -1.0 if attract.rho > repel.rho else 1.0
    elif tag is RegimeTag.NON_STRICT_ATTRACTING:
        swap = regime.zero_state == 0
        formula, scale = _non_strict_value, model.coeffs[regime.zero_state].a
    else:
        raise UnsupportedRegimeError(
            f"no closed-form first-passage transform for regime {tag.value}; "
            "use fpt_integral_oracle or simulation"
        )
    state = query.initial_state
    if swap:
        model, state = swap_states(model), 1 - state
    if scale != 1.0:
        model = rescale(model, scale)
    value = formula(model, query.q, _Frame(tag.value, scale, query), state)
    # 0.0 is reachable only by underflow at extreme killing rates
    if not math.isfinite(value) or value < 0.0 or value > 1.0 + 1e-9:
        raise OutOfDomainError(f"closed form produced out-of-range weight {value}")
    return min(value, 1.0)


def running_extremum_prob(q: float, x: float, y: float, initial_state: int, model: KacOuModel) -> float:
    """P{T(x,y) < e_q} for an independent Exp(q) time e_q.

    Equals the Laplace transform at q; read it as the CDF of the running
    minimum at e_q when x > y and the complementary CDF of the running
    maximum when x < y.
    """
    if q <= 0.0:
        raise ParameterError(f"running_extremum_prob requires q > 0, got {q}")
    return laplace_fpt(FptQuery(q, x, y, initial_state), model)


# ---------------------------------------------------------------------------
# Integral-equation oracle
# ---------------------------------------------------------------------------


def _relative_quad_rule():
    """Composite Gauss-Legendre nodes on (0,1) clustered toward 0."""
    breaks = [0.0] + [2.0 ** (-k) for k in range(_QUAD_PANELS, -1, -1)]
    xs, ws = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        x, w = gauss_legendre(_QUAD_ORDER, a, b)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


_QUAD_X, _QUAD_W = _relative_quad_rule()


def _cell_lookup(nodes, core_lo, h, center):
    """cell(p) == np.searchsorted(nodes, p, side="right") - 1, bitwise, for
    an array p, read from a bucket table instead of searching the grid.

    A monotone bucket map f sends [core_lo, inf) to buckets of width h
    centred on the core nodes, and (-inf, core_lo) to geometric buckets in
    d = center - p > 0, cut from the bit pattern of d, which is monotone in
    d and piecewise linear in log2(d).  Monotone means f(n) < f(p) implies
    n < p and f(n) > f(p) implies n > p, so the nodes in earlier buckets
    lie below p, and p's own bucket decides the rest: one node there is
    compared with p, and points in buckets holding more nodes (a dense
    tail inside the core) are searched.  How well f fits the grid changes
    speed, never a value.
    """
    n_core, n_tail = ORACLE_CORE_NODES, 2 * ORACLE_TAIL_NODES
    inv_h = 1.0 / h
    bits0 = np.float64(center - core_lo).view(np.int64)
    width = (np.float64(center - nodes[0]).view(np.int64) - bits0) // n_tail + 1

    def bucket(p):
        with np.errstate(over="ignore"):  # far positions go to the end buckets
            f = p - core_lo
            f *= inv_h
            f += n_tail + 0.5
            np.clip(f, n_tail, n_tail + n_core, out=f)
            b = f.astype(np.intp)
            low = p < core_lo
            if low.any():
                k = ((center - p[low]).view(np.int64) - bits0) // width
                b[low] = n_tail - 1 - np.minimum(k, n_tail - 1)
        return b

    counts = np.bincount(bucket(nodes), minlength=n_tail + n_core + 1)
    below = np.cumsum(counts) - counts - 1  # the last node of earlier buckets
    crowded = counts > 1
    # the node of a one-node bucket; nan (never <= p) marks an empty one
    one = counts == 1
    single = np.full(counts.size, np.nan)
    single[one] = nodes[below[one] + 1]

    def cell(p):
        b = bucket(p)
        idx = below.take(b) + (single.take(b) <= p)
        many = crowded.take(b)
        if many.any():
            idx[many] = np.searchsorted(nodes, p[many], side="right") - 1
        return idx

    return cell


def _oracle_nodes(model, q, y, lo_needed):
    """Node set on (-inf, y): uniform core plus geometric tails along any
    exponentially escaping flow, and the set's cell lookup (see
    _cell_lookup), as (nodes, cell).

    A repelling level below y is an unstable fixed point of its flow (and a
    kink of the transforms, since the no-switch hit time jumps to infinity
    across it); it gets its own node and a geometric tail beneath it.
    """
    a, g, lam = model.a_vec, model.gamma_vec, model.lam_vec
    core_lo = lo_needed
    for i in range(2):
        if g[i] != 0.0 and a[i] / g[i] < y:
            core_lo = min(core_lo, a[i] / g[i])
        elif g[i] == 0.0 and a[i] < 0.0:
            tau_max = KERNEL_CUT / (q + lam[i])
            core_lo = min(core_lo, lo_needed + 3.0 * a[i] * tau_max)
    span = max(abs(y - core_lo), abs(y - lo_needed), 1e-6 * max(1.0, abs(y)))
    core_lo -= 0.05 * span
    top = y - 1e-9 * max(1.0, abs(y))
    nodes = [np.linspace(core_lo, top, ORACLE_CORE_NODES)]

    for i in range(2):
        if g[i] < 0.0:
            rho = a[i] / g[i]
            tau_max = KERNEL_CUT / (q + lam[i])
            ratio = min(math.exp(min(-g[i] * tau_max, 700.0)), _TAIL_RATIO_CAP)
            scale = max(abs(y - rho), abs(rho - core_lo), 1e-3 * max(1.0, abs(y)))
            if rho >= y:
                d_lo = rho - core_lo
            else:
                nodes.append(np.array([rho]))
                d_lo = 1e-9 * scale
            d_hi = min(max(rho - core_lo, scale) * ratio, _TAIL_RATIO_CAP * scale)
            tail = rho - np.geomspace(d_lo, d_hi, ORACLE_TAIL_NODES)
            nodes.append(tail[tail < top])
    nodes = np.unique(np.concatenate(nodes))
    # the tail buckets are cut in the distance below the first repelling level
    center = next((a[i] / g[i] for i in range(2) if g[i] < 0.0), core_lo)
    h = (top - core_lo) / (ORACLE_CORE_NODES - 1)
    return nodes, _cell_lookup(nodes, core_lo, h, center)


def _oracle_operator(model, q, y, nodes, cell, state):
    """One state's renewal equation as ell = first + A ell_other, with the
    first-passage terms and the quadrature operator A built once per call.

    Row i of A integrates the other state's transform at the flowed
    positions of nodes[i], each interpolated linearly between the two grid
    nodes around it (cell finds them, as from _oracle_nodes).  The flow is
    monotone in tau, so the quadrature points of a row that land in one
    grid cell are consecutive, and each such run is stored once: its cell's
    lower node with the run's summed weights on that node and the next (a
    cell met twice would only make a second run).  The hitting times are
    found for every node at once; rows are then built _ORACLE_BLOCK_ROWS at
    a time, and a block whose rows all integrate up to tau_max shares one
    row of quadrature times, weights and flow factors, made once per call.

    Returns (first, cols, weights, starts), one entry of cols and two of
    weights per run: (A ell)[i] is the sum of weights[2k] * ell[cols[k]] +
    weights[2k + 1] * ell[cols[k] + 1] over the runs k of row i, whose
    weights begin at weights[starts[i]].
    """
    lam = model.rates.rate(state)
    tau_max = KERNEL_CUT / (q + lam)
    gaps = np.diff(nodes)
    t_hit = hitting_time(state, nodes, y, model)
    T = np.minimum(t_hit, tau_max)
    far = T == tau_max
    first = np.where(np.isfinite(t_hit), np.exp(-(q + lam) * np.minimum(t_hit, 700.0)), 0.0)

    def kernel(T):
        """Quadrature times and weights of rows that integrate up to T."""
        tau = T[:, None] * _QUAD_X[None, :]
        return tau, T[:, None] * _QUAD_W[None, :] * lam * np.exp(-(q + lam) * tau)

    far_kernel = kernel(np.array([tau_max]))
    # a row has at most one run per quadrature point
    starts = np.empty(nodes.size, dtype=np.intp)
    cols = np.empty(_QUAD_X.size * nodes.size, dtype=np.intp)
    weights = np.empty(2 * cols.size)
    lower, upper = weights[0::2], weights[1::2]
    offset = 0
    for lo in range(0, nodes.size, _ORACLE_BLOCK_ROWS):
        rows = slice(lo, lo + _ORACLE_BLOCK_ROWS)
        tau, weight = far_kernel if far[rows].all() else kernel(T[rows])
        pos = pattern_phi(state, tau, nodes[rows, None], model)

        idx = cell(pos)
        # positions that escaped below the grid (cell -1) contribute the
        # far-field closure 0
        if idx.min() < 0:
            weight = np.where(idx < 0, 0.0, weight)
        np.clip(idx, 0, nodes.size - 2, out=idx)
        frac = np.subtract(pos, nodes.take(idx), out=pos)
        frac /= gaps.take(idx)
        np.clip(frac, 0.0, 1.0, out=frac)

        # a run starts at each row's first point and wherever the cell changes
        opens = np.empty(idx.shape, dtype=bool)
        opens[:, 0] = True
        np.not_equal(idx[:, 1:], idx[:, :-1], out=opens[:, 1:])
        run = np.flatnonzero(opens)
        block = slice(offset, offset + run.size)
        idx.take(run, out=cols[block], mode="clip")
        np.add.reduceat((weight * frac).ravel(), run, out=upper[block])
        np.multiply(np.subtract(1.0, frac, out=frac), weight, out=frac)
        np.add.reduceat(frac.ravel(), run, out=lower[block])
        starts[rows] = 2 * (offset + np.searchsorted(run, np.arange(0, idx.size, idx.shape[1])))
        offset += run.size
    return first, cols[:offset], weights[: 2 * offset], starts


def _apply_operator(op, values, buf):
    """first + A values for op from _oracle_operator; buf, at least as long
    as op's weights, is the gather buffer and is overwritten."""
    first, cols, weights, starts = op
    out = buf[: weights.size]
    pairs = np.empty((values.size - 1, 2))  # row c is (values[c], values[c + 1])
    pairs[:, 0], pairs[:, 1] = values[:-1], values[1:]
    pairs.take(cols, axis=0, out=out.reshape(-1, 2), mode="clip")
    out *= weights
    sums = np.add.reduceat(out, starts)
    sums += first
    return sums


def fpt_oracle_curve(model: KacOuModel, q: float, y: float, xs, tol: float = 1e-6):
    """Solve the coupled renewal integral equations on the side of y that
    contains every query point; returns (ell0, ell1) at xs.

    Independent of the hypergeometric route: builds a grid and each state's
    quadrature operator once, solves the integral system with them and
    interpolates the query points.  The solve is numpy alone: after one
    plain sweep from ell1 = 0, Anderson acceleration (see _anderson_solve)
    finds the fixed point of one sweep, ell0 -> f0 + A0 (f1 + A1 ell0),
    until a sweep moves no node value by 0.1 * tol; then ell1 = f1 + A1 ell0.
    (A sweep's change to ell1 is A1 times its change to ell0, and no row of
    A1 sums its weights >= 0 above 1, so the stop bounds both changes.)  On the `transforms` benchmark curves this takes about 11 operator
    applications a curve where plain sweeps took about 20: about 18 (plain
    43) for q < 1 and 8 (plain 8.5) for q >= 1.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.size == 0:
        raise ParameterError("oracle queries require at least one x")
    if not 0.0 < q < math.inf:
        raise ParameterError(f"the integral oracle requires a finite q > 0, got {q}")
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"the oracle tolerance must be finite and > 0, got {tol}")
    if not (math.isfinite(y) and np.isfinite(xs).all()):
        raise ParameterError("oracle queries require finite x and y")
    if np.any(xs == y):
        raise ParameterError("oracle queries require x != y")
    if np.any(xs < y) and np.any(xs > y):
        raise ParameterError("oracle queries must all lie on one side of y")

    if np.all(xs > y):
        # solve the reflected problem below -y; first-passage laws are
        # invariant under x -> -x
        return fpt_oracle_curve(rescale(model, -1.0), q, -y, -xs, tol)

    nodes, cell = _oracle_nodes(model, q, y, float(np.min(xs)))
    op0 = _oracle_operator(model, q, y, nodes, cell, 0)
    op1 = _oracle_operator(model, q, y, nodes, cell, 1)
    buf = np.empty(max(op0[2].size, op1[2].size))
    inner_tol = 0.1 * tol
    # the first sweep from ell1 = 0: every weight is finite and >= 0, so
    # A0 ell1 sums +0.0s and ell0 = first exactly
    ell0 = op0[0]
    ell1 = _apply_operator(op1, ell0, buf)
    if max(np.max(np.abs(ell0)), np.max(np.abs(ell1))) >= inner_tol:

        def sweep(x):
            return _apply_operator(op0, _apply_operator(op1, x, buf), buf)

        ell0 = _anderson_solve(sweep, ell0, _apply_operator(op0, ell1, buf), inner_tol)
        ell1 = _apply_operator(op1, ell0, buf)
    return np.interp(xs, nodes, ell0), np.interp(xs, nodes, ell1)


def _anderson_solve(sweep, x, g, inner_tol):
    """Fixed point of the map sweep, from x and its image g = sweep(x), by
    Anderson acceleration: returns the last plain image sweep(x) once it
    moves no value of x by inner_tol or more.

    Each step fits the residual r = sweep(x) - x by the differences of the
    last _ORACLE_ANDERSON_DEPTH residuals (least squares, by the normal
    equations) and takes the plain image minus the same combination of
    image differences.  When an accelerated step does not lower the
    residual's 2-norm, the history is dropped and the next step is plain.
    The fixed point is a probability, so each step is clipped to [0, 1],
    where the sweep's terms are all >= 0.
    """
    depth = _ORACLE_ANDERSON_DEPTH
    # ring buffers of residual and image differences, one row per step
    d_r = np.zeros((depth, x.size))
    d_g = np.zeros((depth, x.size))
    held, accelerated = 0, False
    for k in range(ORACLE_MAX_ITER):
        if k:
            g = sweep(x)
        r = g - x
        delta = np.max(np.abs(r))
        if delta < inner_tol:
            return g
        norm = r @ r
        if accelerated and norm >= norm_prev:
            held = 0
        elif k:
            np.subtract(r, r_prev, out=d_r[k % depth])
            np.subtract(g, g_prev, out=d_g[k % depth])
            held = min(held + 1, depth)
        r_prev, g_prev, norm_prev = r, g, norm
        x, accelerated = g, False
        if held:
            rows = [(k - i) % depth for i in range(held)]
            gram = d_r @ d_r.T
            try:
                coef = np.linalg.solve(gram[np.ix_(rows, rows)], (d_r @ r)[rows])
            except np.linalg.LinAlgError:  # a repeated difference: step plainly
                held = 0
                continue
            mix = np.zeros(depth)
            mix[rows] = coef
            x = np.clip(g - mix @ d_g, 0.0, 1.0)
            accelerated = True
    raise OracleError(
        f"fixed-point iteration did not contract below {inner_tol} in "
        f"{ORACLE_MAX_ITER} sweeps (last change {delta})"
    )


def fpt_integral_oracle(query: FptQuery, model: KacOuModel, tol: float = 1e-6) -> float:
    """Renewal-equation value of E[exp(-q T)]; works in every regime, q > 0."""
    e0, e1 = fpt_oracle_curve(model, query.q, query.y, np.array([query.x]), tol)
    value = float(e0[0] if query.initial_state == 0 else e1[0])
    return min(max(value, 0.0), 1.0)


# ---------------------------------------------------------------------------
# ODE residual checker
# ---------------------------------------------------------------------------


def fpt_ode_residual(q: float, x: float, y: float, model: KacOuModel, h: float):
    """Central-difference residuals of the coupled first-order system obeyed
    by the closed-form transforms; O(h^2) by construction."""
    if h <= 0.0:
        raise ParameterError(f"step h must be positive, got {h}")
    ells, ders = [], []
    for state in (0, 1):
        below, mid, above = (laplace_fpt(FptQuery(q, xx, y, state), model) for xx in (x - h, x, x + h))
        ells.append(mid)
        ders.append((above - below) / (2.0 * h))

    out = []
    for i in (0, 1):
        c = model.coeffs[i]
        lam = model.rates.rate(i)
        other = ells[1 - i]
        if c.gamma != 0.0:
            rho = c.a / c.gamma
            beta_q = (q + lam) / c.gamma
            beta_0 = lam / c.gamma
            out.append((x - rho) * ders[i] + beta_q * ells[i] - beta_0 * other)
        else:
            out.append(c.a * ders[i] - (q + lam) * ells[i] + lam * other)
    return tuple(out)
