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
    hyper_args,
    rescale,
    swap_states,
    xi0,
    xi1,
)
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

# nodes of the coarse grid's uniform core and of each geometric tail; the
# fine grid halves every cell
ORACLE_CORE_NODES = 1501
ORACLE_TAIL_NODES = 750
ORACLE_MAX_ITER = 10_000
# the grid's tails reach where a row has e^-_TAIL_REACH (1e-16) of its weight
# left, or this ratio of distances to a repelling level
_TAIL_REACH = 16.0 * math.log(10.0)
_TAIL_RATIO_CAP = 1e13
# largest log of the range of scales inside one block of the oracle's
# running sum (a block's terms are scaled by up to e^_SCAN_SPAN)
_SCAN_SPAN = 600.0
# residual differences the oracle's Anderson-accelerated solve fits per step:
# a window of 3 forgets too fast where plain sweeps speed up as they go (a
# state that cannot move, flows that carry every node toward y)
_ORACLE_ANDERSON_DEPTH = 8
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


def _oracle_nodes(model, q, y, xs):
    """Coarse node set on (-inf, y], ending at y: a uniform core from below
    the lowest query point and every level under y, those points and levels
    (no cell straddles a fixed point of a flow, and a repelling level is a
    kink of the transforms), and geometric tails where a flow leaves the
    core downward, each to where a row has e^-_TAIL_REACH of its weight
    left or to a distance ratio of _TAIL_RATIO_CAP."""
    lam = model.lam_vec
    levels = [c.a / c.gamma if c.gamma != 0.0 else math.nan for c in model.coeffs]
    below = [r for r in levels if math.isfinite(r) and r < y]
    core_lo = min([float(np.min(xs)), *below])
    span = max(y - core_lo, 1e-6 * max(1.0, abs(y)))
    core_lo -= 0.05 * span
    parts = [np.linspace(core_lo, y, ORACLE_CORE_NODES), xs, below]
    for (a, g), rho, k in zip(((c.a, c.gamma) for c in model.coeffs), levels, q + lam):
        if g < 0.0 and math.isfinite(rho):
            ratio = min(math.exp(min(-g * _TAIL_REACH / k, 700.0)), _TAIL_RATIO_CAP)
            scale = max(abs(y - rho), abs(rho - core_lo), 1e-3 * max(1.0, abs(y)))
            d_lo = rho - core_lo if rho >= y else 1e-9 * scale
            d_hi = min(max(rho - core_lo, scale) * ratio, _TAIL_RATIO_CAP * scale)
            # (a first node at core_lo would round to a second one beside it)
            parts.append(rho - np.geomspace(d_lo, d_hi, ORACLE_TAIL_NODES)[int(rho >= y) :])
        elif g > 0.0 and 0.0 <= rho - y < span:
            # graded toward a level that pulls the flow up into y: the hit
            # time, and the transforms' log, change with log |rho - x|
            d_lo = max(rho - y, 1e-9 * span)
            parts.append(rho - np.geomspace(d_lo, rho - core_lo, ORACLE_TAIL_NODES)[1:-1])
        elif (drop := g * core_lo - a) > 0.0:  # drifts down out of the core
            step = span / (ORACLE_CORE_NODES - 1)
            parts.append(core_lo - np.geomspace(step, max(_TAIL_REACH * drop / k, step), ORACLE_TAIL_NODES))
    return np.unique(np.concatenate(parts))


def _halved(nodes):
    """nodes with the midpoint of every cell added."""
    return np.unique(np.concatenate([nodes, 0.5 * nodes[:-1] + 0.5 * nodes[1:]]))


def _b(x):
    """x / (1 - e^-x), 1 at x = 0."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        return np.where(x == 0.0, 1.0, x / -np.expm1(-x))


def _far_share(kap, eps):
    """Share of a cell's weight that falls on its downstream node.

    A flow crosses a cell in time T with kap = (q + lam) T and eps = gamma T.
    At a share s of T it has covered w(s) = expm1(-eps s) / expm1(-eps) of
    the cell, the weight of the linear interpolant on the downstream node,
    and the share is the mean of w under the density of e^-kap s on [0, 1]:
    the divided difference (B(eps) - B(-kap)) / (kap + eps) of
    B(x) = x / (1 - e^-x).  Where |kap + eps| < 1e-5 (a tiny cell, or a
    repelling state with beta near -1) it is B' at the midpoint.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        share = (_b(eps) - _b(-kap)) / (kap + eps)
    near = np.abs(kap + eps) < 1e-5
    if near.any():
        m = 0.5 * (eps[near] - kap[near])
        with np.errstate(invalid="ignore", divide="ignore"):
            slope = (np.expm1(m) - m) / (np.expm1(m) * -np.expm1(-m))
        # B'(m) = 1/2 + m/6 - m^3/180 + ... where the closed form cancels
        share[near] = np.where(np.abs(m) < 1e-2, 0.5 + m / 6.0 - m**3 / 180.0, slope)
    # a crossing time past double range leaves all the weight where it starts
    return np.where(kap < math.inf, share, 0.0)


def _crossing(start, end, vel, g, rho, k):
    """k times the time for the flow dz/dt = a - g z, at drift vel at start,
    to reach end (inf for a drift too slow), and the log of the ratio of the
    distances to rho at end and start: k v log1p(x) / x and log1p(x) with
    v = (end - start) / vel and x = -g v, or the log of the ratio itself
    where that is below 1/2 and rho is finite."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = (end - start) / vel
        x = -g * np.where(v < math.inf, v, 0.0)
        log_ratio = np.log1p(np.maximum(x, -0.5))
        if math.isfinite(rho) and (x < -0.5).any():
            log_ratio = np.where(x < -0.5, np.log((end - rho) / (start - rho)), log_ratio)
        return k * v * np.where(x == 0.0, 1.0, log_ratio / x), log_ratio


def _oracle_operator(model, q, y, nodes, state):
    """One state's renewal equation on the grid as ell = first + A ell_other.

    Row x of A integrates lam e^-(q+lam) tau ell(phi_tau(x)) over the
    holding times tau before the flow from x reaches y, with ell linear
    between nodes.  The grid splits into runs of nodes whose flow moves the
    same way, and a node's integral is its own cell's term plus e^-(q+lam)T
    (T the crossing time) times its downstream node's: a running sum
    S_j = r_j S_(j-1) + c_j from each run's downstream end, its head.  In
    the landing point z = phi_tau(x) the weight is
    (lam / |gamma|) |x - rho|^-beta |z - rho|^(beta-1) dz with
    beta = (q + lam) / gamma (an exponential when gamma = 0), so a cell's
    two node weights are closed-form moments of it (see _far_share).  A
    head hits y (S = 0; the first-passage term is
    ((y - rho)/(x - rho))^beta), moves into an attracting level (r = 0), or
    is the lowest node, past which ell is held at its value: that lies in
    [0, 1], so the closure is off by at most the weight left past the tail.
    A node at a level stays: its term is lam / (q + lam) ell(level).

    The sum restarts a block wherever the log of the carried products moves
    by _SCAN_SPAN, and drops the carry at a head or where r < e^-_SCAN_SPAN.
    Returns (first, down, near, far, scale, blocks): node i's cell term is
    near[i] ell[i] + far[i] ell[down[i]], over scale[i]; sums[sl] runs
    through a block (sl, carry, src) in summation order, summed with carry
    times sums[src] added; then every sum is times scale.
    """
    c = model.coeffs[state]
    a, g = c.a, c.gamma
    lam = model.rates.rate(state)
    k = q + lam
    n = nodes.size
    rho = a / g if g != 0.0 else math.inf
    # the drift at each node, from the distance to a finite level so that it
    # keeps its digits next to the level
    vel = -g * (nodes - rho) if math.isfinite(rho) else a - g * nodes
    step = np.sign(vel).astype(np.intp)
    down = np.clip(np.arange(n) + step, 0, n - 1)
    kap, log_ratio = _crossing(nodes, nodes[down], vel, g, rho, k)  # nan where nodes stay
    total = (lam / k) * -np.expm1(-kap)
    share = _far_share(kap, -log_ratio)
    near, far = total * (1.0 - share), total * share
    r = np.exp(-kap)
    r[~(kap <= _SCAN_SPAN)] = 0.0

    first, scale, blocks = np.zeros(n), np.ones(n), []
    bounds = np.flatnonzero(np.diff(step)) + 1
    for lo, hi in zip(np.concatenate(([0], bounds)), np.concatenate((bounds, [n]))):
        move = step[lo]
        if move == 0:  # nodes at a level
            near[lo:hi], far[lo:hi], r[lo:hi] = lam / k, 0.0, 0.0
            continue
        head = hi - 1 if move > 0 else lo
        if move > 0 and hi == n:  # the run hits y
            near[head] = far[head] = 0.0
            first[lo:hi] = np.exp(-_crossing(nodes[lo:hi], y, vel[lo:hi], g, rho, k)[0])
        elif move < 0 and lo == 0:  # into the tail
            near[head], far[head] = lam / k, 0.0
        else:  # into an attracting level
            near[head], far[head] = lam / (k + g), lam * g / (k * (k + g))
        r[head] = 0.0
        # the run in summation order, from its head
        run = slice(lo, hi) if move < 0 else slice(hi - 1, lo - 1 if lo else None, -1)
        kr, rr, sc = kap[run], r[run], scale[run]
        restart = rr == 0.0
        level = np.floor(np.cumsum(np.where(restart, _SCAN_SPAN, kr)) / _SCAN_SPAN)
        starts = np.flatnonzero(restart | (np.diff(level, prepend=-1.0) != 0.0))
        for b0, b1 in zip(starts, np.append(starts[1:], hi - lo)):
            if b1 - b0 == 1 and not rr[b0]:
                continue
            sc[b0 + 1 : b1] = np.exp(-np.cumsum(kr[b0 + 1 : b1]))
            if move < 0:
                sl, src = slice(lo + b0, lo + b1), lo + b0 - 1
            else:
                sl, src = slice(hi - 1 - b0, hi - 1 - b1 if hi > b1 else None, -1), hi - b0
            blocks.append((sl, rr[b0] * scale[src] if rr[b0] else 0.0, src))
    return first, down, near / scale, far / scale, scale, blocks


def _apply_operator(op, values):
    """first + A values for op from _oracle_operator."""
    first, down, near, far, scale, blocks = op
    sums = values.take(down)
    sums *= far
    sums += near * values
    for sl, carry, src in blocks:
        run = sums[sl]
        np.cumsum(run, out=run)
        if carry:
            run += carry * sums[src]
    sums *= scale
    sums += first
    return sums


def fpt_oracle_curve(model: KacOuModel, q: float, y: float, xs, tol: float = 1e-6):
    """Solve the coupled renewal integral equations on the side of y that
    contains every query point; returns (ell0, ell1) at xs.

    Independent of the hypergeometric route: numpy and the model's flows
    alone.  The equations are solved on a coarse grid (see _oracle_nodes)
    whose nodes include y, every level and every query point, and on the
    fine grid that halves each of its cells, with each state's operator in
    the landing point (see _oracle_operator).  Both are O(h^2) off, so the
    curve is the Richardson value ell_h + (ell_h - ell_2h) / 3, clipped to
    [0, 1], and |ell_h - ell_2h| / 3 estimates the error of ell_h.

    tol is each grid's fixed-point stop, relative to the values.  Anderson
    acceleration (see _anderson_solve) finds the fixed point of one
    Gauss-Seidel sweep, ell1 -> f1 + A1 (f0 + A0 ell1), until a sweep moves
    no node value by 0.1 * tol of itself, and ell0 comes from the last
    sweep.  (Its change is A0 times the last change to ell1, and A0 has
    weights >= 0 while ell0 >= A0 ell1, so the stop bounds it too.)

    The fine grid is solved first, from ell1 = 0.  The coarse solve starts
    from the fine ell0 at its nodes, through ell1 = f1 + A1 ell0: nested
    iteration from the fine grid down, which saves the coarse solve most of
    its sweeps.  The other way up, a start interpolated from the coarse
    solution can sit orders of magnitude above the fine values where a
    curve falls steeply within a coarse cell, and the relative stop then
    takes hundreds of sweeps to bring them down.  In the cases seen, the
    fine values lie below the coarse ones there, on the side from which
    sweeps from 0 come.
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
    fine, coarse = _oracle_grid_curves(model, q, y, xs, tol)
    return tuple(np.clip(f + (f - c) / 3.0, 0.0, 1.0) for f, c in zip(fine, coarse))


def _oracle_grid_curves(model, q, y, xs, tol):
    """[ell0, ell1] at xs < y on the fine grid and on the coarse grid."""
    coarse = _oracle_nodes(model, q, y, xs)
    fine = _halved(coarse)
    # the two solves' Anderson histories, sized for the fine grid
    history = np.empty((2, _ORACLE_ANDERSON_DEPTH * fine.size))
    ops = [_oracle_operator(model, q, y, fine, s) for s in (0, 1)]
    ells = _oracle_solve(*ops, None, 0.1 * tol, history)
    curves = [[np.interp(xs, fine, ell) for ell in ells]]
    # every coarse node is a fine node: the fine ell0 there starts the
    # coarse solve
    ops = [_oracle_operator(model, q, y, coarse, s) for s in (0, 1)]
    ells = _oracle_solve(*ops, np.interp(coarse, fine, ells[0]), 0.1 * tol, history)
    curves.append([np.interp(xs, coarse, ell) for ell in ells])
    return curves


def _oracle_solve(op0, op1, ell0, inner_tol, history):
    """Node values (ell0, ell1) of one grid's renewal equations, by the
    solve described in fpt_oracle_curve, from ell1 = 0 or, given a start
    ell0 that is not all 0, from ell1 = f1 + A1 ell0; history as in
    _anderson_solve."""

    def sweep(ell1):
        nonlocal ell0
        ell0 = _apply_operator(op0, ell1)
        return _apply_operator(op1, ell0)

    if ell0 is None or not ell0.any():
        # the first sweep from ell1 = 0: every weight is finite and >= 0, so
        # A0 ell1 sums +0.0s and ell0 = first exactly
        ell0 = op0[0]
        x, g = np.zeros(ell0.size), _apply_operator(op1, ell0)
    else:
        x = _apply_operator(op1, ell0)
        g = sweep(x)
    ell1 = _anderson_solve(sweep, x, g, inner_tol, history)
    return ell0, ell1


def _anderson_solve(sweep, x, g, inner_tol, history):
    """Fixed point of the map sweep, from x and its image g = sweep(x), by
    Anderson acceleration: returns the last plain image sweep(x) once it
    moves no value of x by inner_tol of the image's value or more.  The stop
    is relative because values reach 1e-250 and below; below 1e-280, where
    the terms that make a value reach the subnormal range, it is absolute.

    Each step fits the residual r = sweep(x) - x by the differences of the
    last _ORACLE_ANDERSON_DEPTH residuals (least squares, by the normal
    equations) and takes the plain image minus the same combination of
    image differences.  When an accelerated step shrinks the residual's
    2-norm by no more than the last plain step did, the history is dropped
    and the next step is plain, as it is when the normal equations are
    singular: where plain sweeps converge faster than geometrically, a fit
    to older differences falls behind them.  The fixed point is a
    probability, so each step is clipped to [0, 1], where the sweep's terms
    are all >= 0.

    The differences stored since the history was last dropped fill rows
    0, 1, ... of a ring buffer and then wrap round it.  The Gram matrix of
    the residual rows is kept: storing row j rewrites its row and column j,
    one dot product per row, and the fit solves on the leading block of the
    rows in use (the whole matrix once the window is full).  history holds
    at least 2 x _ORACLE_ANDERSON_DEPTH x x.size doubles, so that a curve's
    two solves share one allocation.
    """
    depth = _ORACLE_ANDERSON_DEPTH
    n = x.size
    # ring buffers of residual and image differences, one row per step, and
    # the Gram matrix of the residual rows, kept as they are written: they
    # start at 0, so that its entry (i, j) is d_r[i] @ d_r[j] throughout
    d_r, d_g = (h[: depth * n].reshape(depth, n) for h in history)
    d_r.fill(0.0)
    gram = np.zeros((depth, depth))
    # the residual and the last one, and the stop test's and the mixed
    # step's working rows
    r, r_prev, scale, step = np.empty((4, n))
    # differences stored since the history was last dropped, and the 2-norm
    # ratio of the last plain step's residual to the one before
    stored, accelerated, plain_rate = 0, False, 1.0
    for k in range(ORACLE_MAX_ITER):
        if k:
            g = sweep(x)
        r, r_prev = r_prev, r
        np.subtract(g, x, out=r)
        np.abs(g, out=scale)
        np.maximum(scale, 1e-280, out=scale)
        np.abs(r, out=step)
        delta = np.max(np.divide(step, scale, out=step))
        if delta < inner_tol:
            return g
        norm = r @ r
        if k and not accelerated and norm_prev > 0.0:
            plain_rate = norm / norm_prev
        if accelerated and norm >= plain_rate * norm_prev:
            stored = 0
        elif k:
            j = stored % depth
            np.subtract(r, r_prev, out=d_r[j])
            np.subtract(g, g_prev, out=d_g[j])
            gram[j] = gram[:, j] = d_r @ d_r[j]
            stored += 1
        held = min(stored, depth)
        g_prev, norm_prev = g, norm
        x, accelerated = g, False
        # once the residual is at rounding level (its 2-norm below 1e-15, a
        # few roundings, of the image's) a fit sees only noise, and the
        # steps are plain; a higher floor leaves plain steps to finish a
        # tight tol where small values still carry a relative residual
        if held and norm > 1e-30 * (g @ g):
            try:
                coef = np.linalg.solve(gram[:held, :held], d_r[:held] @ r)
            except np.linalg.LinAlgError:  # a repeated difference: step plainly
                coef = None
            if coef is None or not np.isfinite(coef).all():  # or so near singular it overflowed
                stored = 0
                continue
            np.matmul(coef, d_g[:held], out=step)
            x = np.clip(np.subtract(g, step, out=step), 0.0, 1.0, out=step)
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
