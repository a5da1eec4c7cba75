"""First-passage Laplace transforms: closed forms per regime, an independent
integral-equation oracle, and an ODE-residual checker.

The closed forms are hypergeometric ratios valid on the domains where the
underlying power series converge.  Queries outside those domains raise
:class:`OutOfDomainError` instead of extrapolating; the renewal-equation
oracle, whose discretised equations are solved exactly by cyclic reduction,
covers every regime (for q > 0) and is the cross-check for all of them.

One frame for dispatch: relabelling the chain states and rescaling space
preserve first-passage times, so each regime picks a state swap and a scale
that carry a query onto its formula's orientation, read as x / scale: x < y
and rho0 < rho1 for two attracting states (the scale -1 carries x > y onto
it, so a query, its relabelling and its mirror image give the same bits),
rho0 < rho1 with the attracting state first, and the zero-reversion state
last with unit positive drift.  Domain errors quote the query's coordinates.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    DoubleRangeError,
    OracleError,
    OutOfDomainError,
    ParameterError,
    UnsupportedRegimeError,
)
from .model import (
    KacOuModel,
    RegimeTag,
    _finite,
    _state,
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
    "fpt_integral_oracle",
    "fpt_oracle_curve",
    "fpt_ode_residual",
]

# nodes of the coarse grid's uniform core and of each geometric tail; the
# fine grid halves every cell
ORACLE_CORE_NODES = 1501
ORACLE_TAIL_NODES = 750
# the grid's tails reach where a row has e^-_TAIL_REACH (1e-16) of its weight
# left, or this ratio of distances to a repelling level
_TAIL_REACH = 16.0 * math.log(10.0)
_TAIL_RATIO_CAP = 1e13
# and never past -_TAIL_FLOOR, half the largest double, so that its nodes
# and halved cells stay doubles; a tail with no such room is left out
_TAIL_FLOOR = 2.0**1023
# nearest an attracting target may come to the attractor it approaches, as
# a share of the gap: sqrt(eps), where one rounding of its coordinate moves
# the transform by beta sqrt(eps) relative (the direct series could not
# settle nearer either)
_TARGET_CLEARANCE = 2.0**-26
# target-side values kept (see _target_side): a target takes its hyper_args,
# its denominator and, in a relabelled or rescaled frame, the frame's model
# (one a step), so a caller sweeping start points for one target needs four
_TARGET_MEMO_SIZE = 64
# systems this small are finished node by node in Python floats, where a
# vectorised level costs more in numpy calls than in arithmetic
_DIRECT_NODES = 64


@dataclass(frozen=True)
class FptQuery:
    """A first-passage Laplace query: rate q, start x, target y, start state."""

    q: float
    x: float
    y: float
    initial_state: int

    def __post_init__(self):
        _finite(self.q, "q", least=0.0)
        if _finite(self.x, "x") == _finite(self.y, "y"):
            raise ParameterError("first-passage query requires x != y")
        object.__setattr__(self, "initial_state", _state(self.initial_state, "initial_state"))


class _Frame:
    """A query in its formula's canonical coordinates x_c = x / scale (the
    states already relabelled)."""

    def __init__(self, regime: str, scale: float, query: FptQuery):
        self.regime, self.scale, self.query = regime, scale, query
        self.x, self.y = query.x / scale, query.y / scale

    def require(self, name, what, lo=-math.inf, hi=math.inf, lo_closed=False):
        """Raise OutOfDomainError unless lo < x_c < hi (y_c when name is "y";
        a closed lower end admits equality).  The message maps the interval
        back through scale and quotes the query's own x or y."""
        v = getattr(self, name)
        if (lo <= v if lo_closed else lo < v) and v < hi:
            return
        # + 0.0 writes a zero end unsigned: the frame's model may be the memo
        # entry of a model whose level was the other signed zero
        ends = [lo * self.scale + 0.0, hi * self.scale + 0.0]
        ops = ["<=" if lo_closed else "<", "<"]
        if self.scale < 0.0:  # the ends swap
            ends.reverse()
            ops.reverse()
        raise OutOfDomainError(
            f"{self.regime} closed form needs {ends[0]} {ops[0]} {name} {ops[1]} {ends[1]} ({what}), "
            f"got {name}={getattr(self.query, name)}; use fpt_integral_oracle"
        )


@functools.lru_cache(maxsize=_TARGET_MEMO_SIZE)
def _target_side(evaluate, *args):
    """evaluate(*args), kept: the target side of a transform ratio (its
    denominator, or hyper_args(q, model)) depends only on its arguments, so
    queries that differ only in the start (or start state) share it.  The
    key holds the function object, so a patched or traced Gauss or Kummer
    function never meets another's entry (G at y is kept under
    _ar_decaying, which calls the Gauss function inside it), and a call
    that raises is not kept."""
    return evaluate(*args)


def _regular_branch(model, hp, q, zx, zy, state):
    """The series branch regular at the attractor the coordinate z is
    measured from: F(beta0;zx)/F(beta0;zy) for state 1, whose pattern heads
    for the threshold, and lam0/(q+lam0) F(1+beta0;zx)/F(beta0;zy) for
    state 0, which has to switch first.  Ratios are formed in log space, so
    large-parameter evaluations (big q) stay finite."""
    num = gauss_2f1_log(hp.b0, hp.b1, hp.beta0 if state == 1 else 1.0 + hp.beta0, zx)
    ratio = num.ratio(_target_side(gauss_2f1_log, hp.b0, hp.b1, hp.beta0, zy))
    lam = model.rates.lambda0
    return ratio if state == 1 else lam / (q + lam) * ratio


def _attracting_value(model, q, frame, state):
    # canonical: rho0 < rho1 and x < y
    r0, r1 = model.coeffs[0].rho, model.coeffs[1].rho
    x, y = frame.x, frame.y
    hp = _target_side(hyper_args, q, model)
    # the series at y is singular at the attractor y approaches, like
    # (1 - z)^-beta, and one rounding of z moves the transform by about
    # beta eps / (1 - z) relative; a target nearer than _TARGET_CLEARANCE of
    # the gap (or than the rounding y, rho0 and rho1 carry) is refused
    tie = max(_TARGET_CLEARANCE * (r1 - r0), 4.0 * math.ulp(1.0) * (abs(y) + abs(r0) + abs(r1)))
    frame.require("y", "the threshold between the attractors", r0, r1, lo_closed=True)
    frame.require("y", "a threshold clear of the attractor", hi=r1 - tie)
    frame.require("x", "series radius", lo=2.0 * r0 - r1)
    return _regular_branch(model, hp, q, xi1(x, r1, r0), xi1(y, r1, r0), state)


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
    x, y = frame.x, frame.y
    frame.require("y", "the threshold past the attractor, away from the repelling level", hi=r0)
    hp = _target_side(hyper_args, q, model)
    if x < y:
        # both states are normalized by G at y
        num = _ar_decaying(hp, xi0(x, r0, r1), state)
        if state == 1:
            num = num.scaled(model.rates.lambda1 / model.coeffs[1].gamma)
        return num.ratio(_target_side(_ar_decaying, hp, xi0(y, r0, r1), 0))
    # x > y: the transforms are smooth across rho0 (the no-switch hit time is
    # infinite on both sides), which selects the series branch regular there,
    # normalized by ell1 -> 1 as x decreases to y.
    frame.require("y", "series radius", lo=2.0 * r0 - r1)
    frame.require("x", "the start on the attractor's side of the repelling level", hi=r1)
    return _regular_branch(model, hp, q, xi0(x, r0, r1), xi0(y, r0, r1), state)


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
    delta = q * (q + l0 + l1) / (c0.gamma * (q + l1))
    ux = (x - rho) * (q + l1)
    uy = (y - rho) * (q + l1)
    den = _target_side(kummer_1f1_log, delta, beta0, uy)
    if state == 1:
        return kummer_1f1_log(delta, beta0, ux).ratio(den)
    return l0 / (q + l0) * kummer_1f1_log(delta, 1.0 + beta0, ux).ratio(den)


def laplace_fpt(query: FptQuery, model: KacOuModel) -> float:
    """Closed-form E[exp(-q T(x,y))] for the query's regime and branch.

    For q > 0 this is P{T(x,y) < e_q}, e_q an independent Exp(q) time: the
    law of the running extremum at e_q, P{min_{t <= e_q} X_t <= y} when
    x > y and P{max_{t <= e_q} X_t >= y} when x < y.  X is the mean path
    dx/dt = a_i - gamma_i x; b0 and b1 are not read.

    Raises OutOfDomainError when (x, y) leaves the stated validity domain,
    and UnsupportedRegimeError when the regime has no closed form (equal
    attractor levels among them); those cases belong to
    :func:`fpt_integral_oracle`.
    """
    regime = classify_regime(model)
    tag = regime.tag
    if tag is RegimeTag.ATTRACTING_STRICT:
        # the formula takes x < y and rho0 < rho1: the scale -1 reflects
        # x > y, which reverses the levels' order, and a swap puts the lower first
        upward = query.x < query.y
        formula, scale = _attracting_value, 1.0 if upward else -1.0
        swap = (model.coeffs[0].rho > model.coeffs[1].rho) == upward
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
        model, state = _target_side(swap_states, model), 1 - state
    if scale != 1.0:
        model = _target_side(rescale, model, scale)
    value = formula(model, query.q, _Frame(tag.value, scale, query), state)
    # 0.0 is reachable only by underflow at extreme killing rates
    if not math.isfinite(value) or value < 0.0 or value > 1.0 + 1e-9:
        raise OutOfDomainError(f"closed form produced out-of-range weight {value}")
    return min(value, 1.0)


# ---------------------------------------------------------------------------
# Integral-equation oracle
# ---------------------------------------------------------------------------


def _oracle_nodes(model, q, y, xs, mirrored=False):
    """Coarse node set on (-inf, y], ending at y: a uniform core from below
    the lowest query point and every level under y, those points and levels
    (no cell straddles a fixed point of a flow, and a repelling level is a
    kink of the transforms), and geometric tails where a flow leaves the
    core downward, each to where a row has e^-_TAIL_REACH of its weight
    left or to a distance ratio of _TAIL_RATIO_CAP.  A grid past double
    range is refused in the caller's coordinates, -x for x where `mirrored`."""
    lam = model.lam_vec
    levels = [c.a / c.gamma if c.gamma != 0.0 else math.nan for c in model.coeffs]
    below = [r for r in levels if math.isfinite(r) and r < y]
    lowest = min([float(np.min(xs)), *below])
    span = max(y - lowest, 1e-6 * max(1.0, abs(y)))
    core_lo = lowest - 0.05 * span
    if not math.isfinite(y - core_lo):
        ends = (f"y = {-y} to the highest query point or level, {-lowest}," if mirrored
                else f"the lowest query point or level, {lowest}, to y = {y}")
        raise DoubleRangeError(f"the oracle's grid from {ends} leaves double range")
    parts = [np.linspace(core_lo, y, ORACLE_CORE_NODES), xs, below]
    for (a, g), rho, k in zip(((c.a, c.gamma) for c in model.coeffs), levels, q + lam):
        if g < 0.0 and math.isfinite(rho):
            ratio = min(math.exp(min(-g * _TAIL_REACH / k, 700.0)), _TAIL_RATIO_CAP)
            scale = max(abs(y - rho), abs(rho - core_lo), 1e-3 * max(1.0, abs(y)))
            d_lo = rho - core_lo if rho >= y else 1e-9 * scale
            d_hi = min(max(rho - core_lo, scale) * ratio, _TAIL_RATIO_CAP * scale, _TAIL_FLOOR + rho)
            if d_lo <= d_hi < math.inf:
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


def _drift(c, z):
    """State coefficients c's drift a - gamma z at z, from the distance to a
    finite level so that it keeps its digits next to the level."""
    rho = c.a / c.gamma if c.gamma != 0.0 else math.inf
    with np.errstate(over="ignore"):
        return -c.gamma * (z - rho) if math.isfinite(rho) else c.a - c.gamma * z


def _oracle_rows(model, q, nodes, lo, hi, state):
    """One state's renewal equation at nodes concatenating grids that end
    at y, node j's grid spanning indices lo[j] to hi[j].

    Until the flow from node j reaches its downstream node d, in time T,
    the state switches at rate lam (to o, with ell_o linear between nodes);
    if it has not switched, it starts afresh at d.  So with r = e^-kap and
    kap = (q + lam) T the row reads

        ell[j] - r ell[d] - near ell_o[j] - far ell_o[d] = [j in hit].

    In the landing point z = phi_tau(x) the switching weight is
    (lam / |gamma|) |x - rho|^-beta |z - rho|^(beta-1) dz, beta = (q + lam)
    / gamma (an exponential when gamma = 0), so near and far are its
    closed-form moments (see _far_share).  r = 0 where a flow moves into an
    attracting level or would leave its grid: past the lowest node ell is
    held at its value, in [0, 1], so the closure is off by at most the
    weight left past the tail; at y the flow hits.  At a level a node
    stays: its term is lam / (q + lam) ell_o(level).

    Returns (down, r, near, far, defect, hit), defect the row sum
    1 - r - near - far in closed form, without cancellation:
    (1 - e^-kap) q / (q + lam) in a cell, q / (q + lam) where r = 0, and 1
    at y.
    """
    c = model.coeffs[state]
    g = c.gamma
    lam = model.rates.rate(state)
    k = q + lam
    idx = np.arange(nodes.size)
    rho = c.a / g if g != 0.0 else math.inf
    vel = _drift(c, nodes)  # past double range it crosses its cell at once: kap = 0
    step = np.sign(vel).astype(np.intp)
    down = np.clip(idx + step, lo, hi)
    kap, log_ratio = _crossing(nodes, nodes[down], vel, g, rho, k)  # nan where nodes stay
    grown = -np.expm1(-kap)
    total = (lam / k) * grown
    share = _far_share(kap, -log_ratio)
    near, far = total * (1.0 - share), total * share
    r, defect = np.exp(-kap), grown * (q / k)
    # (kap is inf where a flow moves into a level, so r and defect are
    # right there) a node stays at a level or at a grid end
    stay = np.flatnonzero(down == idx)
    r[stay], defect[stay], near[stay], far[stay] = 0.0, q / k, lam / k, 0.0
    into = np.flatnonzero(step[down] != step)
    if into.size:  # only an attracting state has these: k + g > 0
        near[into], far[into] = lam / (k + g), lam * g / (k * (k + g))
    hit = stay[step[stay] > 0]
    near[hit], defect[hit] = 0.0, 1.0
    return down, r, near, far, defect, hit


class _Workspace(threading.local):
    """A thread's oracle arrays, kept between curves: a stack of views into
    one buffer, which the next curve grows to the most that any curve took
    (an array past its end is allocated afresh).  Kept, because a curve's
    arrays (about 3 MB for 9,000 nodes) freed after it go back to the OS,
    and the next curve faults their pages in again."""

    def __init__(self):
        self.buffer, self.top, self.most = np.empty(0), 0, 0

    def system(self, n):
        """A curve's start: zeroed blocks, shape (2, 6, n), and pair, shape
        (2, n), at the bottom of the stack, overwritten by the next system."""
        if self.buffer.size < self.most:
            self.buffer = np.empty(self.most)
        self.top = 0
        blocks, pair = self.take(2, 6, n), self.take(2, n)
        blocks.fill(0.0)
        return blocks, pair

    def take(self, *shape):
        """An array on top of the stack; it is given up by setting top back."""
        start, self.top = self.top, self.top + math.prod(shape)
        self.most = max(self.most, self.top)
        if self.top > self.buffer.size:
            return np.empty(shape)
        return self.buffer[start : self.top].reshape(shape)


_WORKSPACE = _Workspace()


def _oracle_system(model, q, grids):
    """Both states' rows on the grids (see _oracle_rows) as one block
    tridiagonal system in the pairs (ell0[j], ell1[j]) at their
    concatenated nodes: (blocks, pair) as _cyclic_reduction takes them, in
    the thread's workspace (see _Workspace).  No row reaches past its
    grid's ends, so the grids' systems stay apart."""
    nodes = np.concatenate(grids)
    sizes = [g.size for g in grids]
    lo = np.repeat(np.cumsum([0, *sizes[:-1]]), sizes)
    hi = np.repeat(np.cumsum(sizes) - 1, sizes)
    idx = np.arange(nodes.size)
    blocks, pair = _WORKSPACE.system(nodes.size)
    for s in (0, 1):
        down, r, near, far, defect, hit = _oracle_rows(model, q, nodes, lo, hi, s)
        for col, toward in ((0, down < idx), (2, down > idx)):
            np.copyto(blocks[s, col + s], r, where=toward)
            np.copyto(blocks[s, col + 1 - s], far, where=toward)
        blocks[s, 4, hit], blocks[s, 5], pair[s] = 1.0, defect, near
    return blocks, pair


def _inverse(blocks, pair):
    """D_j^-1 at every node j, shape (2, 2, n), in the workspace (see
    _cyclic_reduction).

    D_j's diagonal is t + pair, t its row sums, so its determinant
    t0 t1 + t0 p10 + p01 t1 and its adjugate, whose entries are at most 1,
    are sums of terms >= 0 (Grassmann, Taksar & Heyman 1985).  Dividing by
    a determinant of at least the least normal double cannot overflow; a
    smaller one (or nan), where defects underflow, raises OracleError.
    """
    n = pair.shape[1]
    t = np.add.reduce(blocks[:, :4], axis=1, out=_WORKSPACE.take(2, n))
    t += blocks[:, 5]
    # the adjugate [[t1 + p10, p01], [p10, t0 + p01]]
    inverse = _WORKSPACE.take(2, 2, n)
    inverse[:] = pair[::-1]
    inverse[0, 0] += t[1]
    inverse[1, 1] += t[0]
    det = np.multiply(t[0], inverse[0, 0], out=_WORKSPACE.take(n))
    det += np.multiply(pair[0], t[1], out=t[1])
    if not det.min() >= 2.0**-1022:
        raise OracleError(f"a pivot of {det.min():.3g} is below the normal range: q is too small for doubles")
    inverse /= det
    return inverse


def _cyclic_reduction(blocks, pair, out=None):
    """Solve a block tridiagonal M-matrix system with 2 x 2 blocks into
    out, shape (2, n) (a fresh array if None), and return it; the system is
    left as it was given.

    Node j's rows read D_j x_j - L_j x_(j-1) - U_j x_(j+1) = b_j, with the
    magnitudes of L_j, U_j and b_j in blocks[:, 0:2, j], blocks[:, 2:4, j]
    and blocks[:, 4, j], and of D_j's off-diagonal in pair[:, j];
    blocks[:, 5, j] holds the rows' sums, from which D_j's diagonal is
    formed (see _inverse).  Odd-even reduction (Buzbee, Golub & Nielson
    1970): the odd nodes' rows, solved for their own values, are taken
    into the even nodes' rows, a system of the same kind on half the nodes,
    whose solution gives the odd nodes' values.  The row sums go through
    the same updates as b, so no step subtracts and back-substitution adds
    terms >= 0: every value keeps its relative accuracy however small it is.
    The levels' arrays are taken from the thread's workspace and given back
    on return; a system of at most _DIRECT_NODES nodes is finished node by
    node, with the same pivots (see _direct_finish).
    """
    n, no = blocks.shape[2], blocks.shape[2] // 2
    ne = n - no
    if out is None:
        out = np.empty((2, n))
    if n <= _DIRECT_NODES:
        return _direct_finish(blocks, pair, out)
    work, mark = _WORKSPACE, _WORKSPACE.top
    try:
        even, odd = blocks[:, :, ::2], blocks[:, :, 1::2]
        # an odd node's value is rows[:, 4] + rows[:, 0:2] x_(j-1) +
        # rows[:, 2:4] x_(j+1), between nodes of 0s: the neighbours the first
        # and last even nodes lack
        rows, reduced, coupled = work.take(2, 6, ne + 1), work.take(2, 6, ne), work.take(2, ne)
        temps = work.top
        rows[:, :, 0] = rows[:, :, no + 1 :] = 0.0
        np.einsum("ikm,kjm->ijm", _inverse(odd, pair[:, 1::2]), odd, out=rows[:, :, 1 : no + 1])
        work.top = temps
        # each even node takes in its odd neighbours' rows, which also couple
        # its states
        np.einsum("ikm,kjm->ijm", even[:, 0:2], rows[:, :, :-1], out=reduced)
        reduced[:, 4:] += even[:, 4:]
        np.add(pair[0, ::2], reduced[0, 3], out=coupled[0])
        np.add(pair[1, ::2], reduced[1, 2], out=coupled[1])
        right = np.einsum("ikm,kjm->ijm", even[:, 2:4], rows[:, :, 1:], out=work.take(2, 6, ne))
        reduced[:, 2:4] = right[:, 2:4]
        reduced[:, 4:] += right[:, 4:]
        coupled[0] += right[0, 1]
        coupled[1] += right[1, 0]
        work.top = temps  # right is not kept through the half-size solve
        _cyclic_reduction(reduced, coupled, out[:, ::2])
        # what an odd node's row multiplies: x_(j-1), x_(j+1) (0 past the last
        # node) and 1
        terms = work.take(5, no)
        terms[0:2] = out[:, 0 : 2 * no : 2]
        terms[2:4, : ne - 1] = out[:, 2::2]
        terms[2:4, ne - 1 :] = 0.0
        terms[4] = 1.0
        np.einsum("ikm,km->im", rows[:, :5, 1 : no + 1], terms, out=out[:, 1::2])
    finally:
        work.top = mark
    return out


def _direct_finish(blocks, pair, out):
    """_cyclic_reduction's system solved node by node in Python floats into
    out, where n is too small for numpy calls to pay.

    Node j takes in node j - 1's row, solved as x_(j-1) = W x_j + c with
    row sums r (W's row sums plus r are 1): L_j W's off-diagonal entries
    join the pair, L_j c joins b and L_j r the row sum, so D'_j = D_j -
    L_j W is formed as in _inverse, its diagonal from the row sums, and
    inverted by its adjugate over t0 t1 + t0 p10 + p01 t1.  Its own row
    solved for x_j gives the next W, c and r; the last node's c is x_(n-1)
    (a node past it would hold 0), and back-substitution adds only terms
    >= 0, so every value keeps its relative accuracy.  A determinant below
    the least normal double raises OracleError, as in _inverse.
    """
    solved = []
    w00 = w01 = w10 = w11 = c0 = c1 = r0 = r1 = 0.0
    columns = zip(*blocks.reshape(12, -1).tolist(), *pair.tolist())
    for a00, a01, v00, v01, b0, e0, a10, a11, v10, v11, b1, e1, p0, p1 in columns:
        p0 += a00 * w01 + a01 * w11
        p1 += a10 * w00 + a11 * w10
        f0, f1 = b0 + a00 * c0 + a01 * c1, b1 + a10 * c0 + a11 * c1
        s0, s1 = e0 + a00 * r0 + a01 * r1, e1 + a10 * r0 + a11 * r1
        t0, t1 = v00 + v01 + s0, v10 + v11 + s1
        # the adjugate [[t1 + p1, p0], [p1, t0 + p0]]
        m00, m11 = t1 + p1, t0 + p0
        det = t0 * m00 + p0 * t1
        if not det >= 2.0**-1022:
            raise OracleError(f"a pivot of {det:.3g} is below the normal range: q is too small for doubles")
        m00, m01, m10, m11 = m00 / det, p0 / det, p1 / det, m11 / det
        w00, w01 = m00 * v00 + m01 * v10, m00 * v01 + m01 * v11
        w10, w11 = m10 * v00 + m11 * v10, m10 * v01 + m11 * v11
        c0, c1 = m00 * f0 + m01 * f1, m10 * f0 + m11 * f1
        r0, r1 = m00 * s0 + m01 * s1, m10 * s0 + m11 * s1
        solved.append((w00, w01, w10, w11, c0, c1))
    x0 = x1 = 0.0
    xs = []
    for w00, w01, w10, w11, c0, c1 in reversed(solved):
        x0, x1 = w00 * x0 + w01 * x1 + c0, w10 * x0 + w11 * x1 + c1
        xs.append((x0, x1))
    out[:, ::-1] = np.array(xs).T
    return out


def fpt_oracle_curve(model: KacOuModel, q: float, y: float, xs):
    """Solve the coupled renewal integral equations on the side of y that
    contains every query point; returns (ell0, ell1) at xs: the mean path's
    first-passage transforms, which read neither b0 nor b1.

    Independent of the hypergeometric route: numpy and the model's flows
    alone.  The equations are written (see _oracle_rows) on a coarse grid
    (see _oracle_nodes) whose nodes include y, every level and every query
    point, and on the fine grid that halves each of its cells, and both
    are solved exactly, as one linear system (see _cyclic_reduction), in
    the calling thread's workspace (see _Workspace); nothing returned
    shares it.  Both are O(h^2) off, so the curve is the Richardson value
    ell_h + (ell_h - ell_2h) / 3, clipped to [0, 1], and
    |ell_h - ell_2h| / 3 estimates the error of ell_h.  Before any grid is
    built, it raises OracleError where q is below 1e-10 of the rate of a
    state whose flow leaves the grid away from y, gives 0 where no state's
    flow enters y, and raises DoubleRangeError where y and the farthest
    query point or level on the query side lie too far apart for the grid
    to span them in doubles.  A query above y is solved mirrored below -y.
    """
    xs = np.atleast_1d(_finite(xs, "xs", many=True))
    if xs.size == 0:
        raise ParameterError("oracle queries require at least one x")
    q, y = _finite(q, "q", positive=True), _finite(y, "y")
    if np.any(xs == y):
        raise ParameterError("oracle queries require x != y")
    if np.any(xs < y) and np.any(xs > y):
        raise ParameterError("oracle queries must all lie on one side of y")

    if above := bool(np.all(xs > y)):
        # solve the reflected problem below -y; first-passage laws are
        # invariant under x -> -x
        model, y, xs = rescale(model, -1.0), -y, -xs
    for s, c in enumerate(model.coeffs):
        # a state whose flow leaves the grid is held at its last node, where
        # only q / (q + lam) kills the paths that leave; below 1e-10 lam the
        # rounding of the row's other terms outweighs that, and they come
        # back (an error of 1.7e-17 lam / q on a telegraph process)
        lam = model.rates.rate(s)
        if (c.gamma < 0.0 or (c.gamma == 0.0 and c.a < 0.0)) and q < 1e-10 * lam:
            raise OracleError(f"q = {q:.3g} is below 1e-10 of the rate {lam:.3g} of state {s}, leaving the grid")
    if not any(_drift(c, y) > 0.0 for c in model.coeffs):
        return np.zeros(xs.shape), np.zeros(xs.shape)
    fine, coarse = _oracle_grid_curves(model, q, y, xs, above)
    return tuple(np.clip(f + (f - c) / 3.0, 0.0, 1.0) for f, c in zip(fine, coarse))


def _oracle_grid_curves(model, q, y, xs, mirrored=False):
    """[ell0, ell1] at xs < y on the fine grid and on the coarse grid."""
    coarse = _oracle_nodes(model, q, y, xs, mirrored)
    fine = _halved(coarse)
    ells = _cyclic_reduction(*_oracle_system(model, q, (fine, coarse)))
    grids = ((fine, ells[:, : fine.size]), (coarse, ells[:, fine.size :]))
    return [[np.interp(xs, nodes, ell) for ell in part] for nodes, part in grids]


def fpt_integral_oracle(query: FptQuery, model: KacOuModel) -> float:
    """Renewal-equation value of E[exp(-q T)] (see fpt_oracle_curve); works
    in every regime, q > 0.  T is the mean path's first passage; b0 and b1
    are not read."""
    e0, e1 = fpt_oracle_curve(model, query.q, query.y, np.array([query.x]))
    return float(e0[0] if query.initial_state == 0 else e1[0])


# ---------------------------------------------------------------------------
# ODE residual checker
# ---------------------------------------------------------------------------


def fpt_ode_residual(q: float, x: float, y: float, model: KacOuModel, h: float):
    """Central-difference residuals of the coupled first-order system obeyed
    by the closed-form transforms; O(h^2) by construction."""
    h = _finite(h, "h", positive=True)
    ells, ders = [], []
    for state in (0, 1):
        below, mid, above = (laplace_fpt(FptQuery(q, xx, y, state), model) for xx in (x - h, x, x + h))
        ells.append(mid)
        ders.append((above - below) / (2.0 * h))

    out = []
    for i, c in enumerate(model.coeffs):
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
