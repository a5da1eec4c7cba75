"""Exact event-driven simulation of the switching chain, the piecewise
deterministic mean path, and the modulated diffusion, plus the Monte Carlo
estimators the other modules use as oracles.

Nothing here discretizes time: between switches the mean path follows the
exponential pattern exactly and the diffusion transition is the exact
Gaussian one-step law.  The only randomness is in holding times and normal
draws: a sampled path draws its holding times in blocks (its switch times
are bit for bit the sums one draw at a time gives) and one normal per
constant-coefficient interval; a terminal draw carries its variance given
the switch path and draws one normal at the end.
(An equal-rate telegraph integral draws switch counts and shares; see below.)

A run is split into fixed-size chunks, each with its own keyed stream (see
:mod:`kacou.rng`).  First-passage and terminal draws run through one pooled
lane kernel: several chunks' lanes advance together in one chain state per
round, and each chunk draws one holding time per live lane of its own, so a
seeded run is bit-identical however its chunks are pooled.  The lanes live
in buffers kept for the whole run.  The one exception is a terminal draw of
an equal-rate telegraph integral, which each chunk takes in one step per
lane from its exact law, whatever the number of switches.  Everything runs
in the calling thread.

A first-passage round does only the work its lanes need.  Where every live
lane starts and ends strictly below the target (two reductions tell; a
query from above is drawn mirrored), no lane can have met it, and the
crossing test, the hit times and their bookkeeping are skipped.  The hit
times of the lanes that may have crossed come from model.hitting_time,
which works them out in its output array and one scratch array; this
module takes no logarithm itself.  Lanes still at their start (no time
elapsed in the start state: a chunk's lanes in the round it joins) share
one hit time, that of a one-entry array of x, which hitting_time gives
every entry of x bit for bit; it is worked out only in a round where such
a lane may have crossed.

One work rule, check_work, refuses a call with WorkLimitError before it
allocates: a call may expect at most MAX_LANE_SEGMENTS lane-segments (one
lane across one holding time), and a pool round, whose fixed cost dwarfs a
few lanes' work, counts at least _ROUND_LANES of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DoubleRangeError, ParameterError, WorkLimitError
from .model import (
    _SERIES_GT,
    KacOuModel,
    SwitchRates,
    _finite,
    _real,
    _state,
    _time,
    _whole,
    hitting_time,
    interval_variance,
    pattern_map,
    pattern_phi,
    rescale,
    stationary_state_dist,
)
from .rng import stream

__all__ = [
    "SwitchSequence",
    "McEstimate",
    "SimCaps",
    "check_work",
    "FptSampleBatch",
    "TerminalSample",
    "sample_switch_sequence",
    "evaluate_x",
    "sample_m_path",
    "mc_laplace_fpt",
    "fpt_samples",
    "terminal_values",
]

CHUNK = 1 << 14
# lanes the kernel advances together, not a knob: sixteen chunks' worth ran
# slower (the round's arrays leave the cache)
_POOL = 4 * CHUNK

CENSOR_HORIZON = 1
CENSOR_SWITCH_CAP = 2
# censoring reason names, indexed by the codes above (0: not censored)
REASON_NAMES = ("", "horizon", "switch_cap")

# the most lane-segments one call may expect, about two minutes at 12-13 ns each; and a pool
# round's fixed cost in them, not a knob: 11-31 us a round on a 2-vCPU host
MAX_LANE_SEGMENTS, _ROUND_LANES = 1e10, 2048


def check_work(rates, horizon: float, lanes: int, max_rounds=math.inf, pooled=True, spent=0.0) -> float:
    """The lane-segments `lanes` paths over the horizon expect, plus the `spent` of a call's earlier
    draws; past MAX_LANE_SEGMENTS it raises WorkLimitError.  A plain path counts 1 + its expected
    switches; the lane pool runs min(that, max_rounds) rounds, each counting its lanes and
    _ROUND_LANES a pool batch."""
    rounds = min(max_rounds, 1.0 + rates.expected_switches(horizon))  # a nan count takes the cap
    work = spent + rounds * (lanes + (-(-lanes // _POOL) * _ROUND_LANES if pooled else 0))
    if not work <= MAX_LANE_SEGMENTS:
        pool = f", each round of the lane pool counting at least {_ROUND_LANES}" if pooled else ""
        raise WorkLimitError(f"the call expects {work:.3g} lane-segments{pool}, past the bound {MAX_LANE_SEGMENTS:.3g}")
    return work


@dataclass(frozen=True)
class SimCaps:
    """Censoring caps bounding worst-case work per path."""

    horizon: float = 1e3
    max_switches: int = 10_000_000

    def __post_init__(self):
        object.__setattr__(self, "horizon", _real(self.horizon, "horizon", lambda: "> 0", lambda v: v > 0.0, False))
        object.__setattr__(self, "max_switches", _whole(self.max_switches, "max_switches", least=1))


@dataclass(frozen=True)
class SwitchSequence:
    """Switch epochs of the chain on [0, horizon], strictly increasing."""

    initial_state: int
    switch_times: np.ndarray
    horizon: float

    def state_at(self, t):
        """Chain state at time t (an int), or at each of an array of times (an
        array); at a switch time the chain is already in its new state."""
        states = (self.initial_state + np.searchsorted(self.switch_times, t, side="right")) % 2
        return int(states) if np.ndim(t) == 0 else states


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n: int
    censored: int


@dataclass(frozen=True)
class FptSampleBatch:
    """First-passage samples: hit times, or censoring times where the reason code is not 0."""

    times: np.ndarray
    reason: np.ndarray

    @property
    def censored(self) -> np.ndarray:
        """The censored lanes, reason != 0."""
        return self.reason != 0


@dataclass(frozen=True)
class TerminalSample:
    values: np.ndarray
    states: np.ndarray


# the most holding times one block draws: 64 KiB, below glibc's 128 KiB mmap threshold
_HOLD_DRAWS = 1 << 13


def sample_switch_sequence(
    rates: SwitchRates, initial_state: int, horizon: float, rng: np.random.Generator
) -> SwitchSequence:
    """Alternating exponential holding times, truncated at the horizon.

    They are drawn in blocks sized from the expected switch count and summed
    in order, so each switch time is the sum one draw at a time gives.
    """
    horizon = _finite(horizon, "horizon", positive=True)
    initial_state = _state(initial_state, "initial_state")
    check_work(rates, horizon, 1, pooled=False)
    size = int(min(rates.expected_switches(horizon) * 1.125 + 64.0, _HOLD_DRAWS))
    blocks, t, s = [], 0.0, initial_state
    while True:
        times = rng.standard_exponential(size)
        with np.errstate(over="ignore"):  # a holding time or a sum past double range is inf
            times[0::2] /= rates.rate(s)
            times[1::2] /= rates.rate(1 - s)
            times[0] += t
            np.cumsum(times, out=times)
        n = int(np.searchsorted(times, horizon, side="left"))  # the first time >= horizon
        blocks.append(times[:n])
        if n < size:
            return SwitchSequence(initial_state, np.concatenate(blocks), horizon)
        t, s = times[-1], (s + size) % 2


def _walk(x, states, dts, model: KacOuModel, kicks=None) -> list[float]:
    """Carry x through consecutive flows: the value after each step
    phi(states[k], dts[k], .), plus kicks[k] where kicks is given.

    The affine maps of all steps come from one kernel call; a step whose
    map left double range goes through pattern_phi itself: a factor of inf
    (repelling growth) or of 0, which would take an x at +-inf to nan.
    """
    maps = pattern_map(states, dts, model)
    far = np.flatnonzero(~((maps[2] > 0.0) & (maps[2] < math.inf)))
    far_steps = zip(states[far].tolist(), dts[far].tolist())  # in the order the walk meets them
    maps = [c.tolist() for c in maps]
    out = []
    if kicks is None:
        for base, shift, factor in zip(*maps):
            if 0.0 < factor < math.inf:
                x = base + (x - shift) * factor
            else:
                x = pattern_phi(*next(far_steps), x, model)
            out.append(x)
    else:
        for base, shift, factor, kick in zip(*maps, kicks):
            if 0.0 < factor < math.inf:
                x = base + (x - shift) * factor + kick
            else:
                x = pattern_phi(*next(far_steps), x, model) + kick
            out.append(x)
    return out


def _path_times(t, seq: SwitchSequence, name: str) -> np.ndarray:
    """The times t of a path on seq as a flat float array: sorted, within [0, seq.horizon]."""
    flat = _time(t, name, many=True).reshape(-1)
    if flat.size and (np.any(np.diff(flat) < 0.0) or flat[-1] > seq.horizon):
        raise ParameterError(f"{name} must be sorted and at most the horizon {seq.horizon}, got {t}")
    return flat


def evaluate_x(seq: SwitchSequence, x0: float, t, model: KacOuModel):
    """Exact mean path at time t, composing the patterns segment by segment.

    t is a float (a float is returned) or a sorted array of times (an array
    is returned), all within the horizon.  One walk serves every time: each
    whole segment is crossed once, and a time inside a segment, or at its
    closing switch, is evaluated from that segment's start, so a value is
    the same whether it is asked for alone or among others.
    """
    x0 = _finite(x0, "x0")
    flat = _path_times(t, seq, "t")
    # a time equal to a switch time belongs to the segment that switch closes
    seg = np.searchsorted(seq.switch_times, flat, side="left")
    n_seg = int(seg[-1]) if flat.size else 0
    starts = np.concatenate([[0.0], seq.switch_times[:n_seg]])
    states = (seq.initial_state + np.arange(n_seg + 1)) % 2
    x_start = np.fromiter([x0] + _walk(x0, states[:-1], np.diff(starts), model), float, n_seg + 1)
    out = pattern_phi(states[seg], flat - starts[seg], x_start[seg], model)
    return float(out[0]) if np.ndim(t) == 0 else out


def sample_m_path(
    seq: SwitchSequence,
    x0,
    eval_times,
    model: KacOuModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the modulated diffusion at the requested times, one exact Gaussian
    step per constant-coefficient interval (switch boundaries always included;
    ties resolve switch-first).  No normal is drawn for an interval of zero
    length or zero variance.

    x0 is a float, or an array of starts that each take their own normals
    on the same switch sequence, drawn start by start as separate calls
    would draw them; the result has shape (len(eval_times),) + x0's shape.
    """
    starts = _finite(x0, "x0", many=True)
    eval_times = _path_times(eval_times, seq, "eval_times")
    if eval_times.size == 0:
        return np.empty((0,) + starts.shape)

    # an interval ends at each switch up to the last time and at each other time; at[sw.size:] maps the times
    sw = seq.switch_times[: np.searchsorted(seq.switch_times, eval_times[-1], side="right")]
    # np.unique(..., return_inverse=True) by a stable sort, which merges the two sorted runs in one pass
    both = np.concatenate([sw, eval_times])
    order = np.argsort(both, kind="stable")
    ends = both[order]
    new = np.concatenate([[True], ends[1:] != ends[:-1]])
    at = np.empty(ends.size, np.intp)
    at[order] = np.cumsum(new) - 1
    ends = ends[new]
    dts = np.diff(ends, prepend=0.0)
    states = (seq.initial_state + np.searchsorted(sw, ends, side="left")) % 2
    var = interval_variance(states, dts, model)
    drawn = np.flatnonzero((dts > 0.0) & (var > 0.0))
    noise = np.sqrt(var[drawn]) * rng.standard_normal(starts.shape + (drawn.size,))
    # per step its normal kick (a float, or one per start), -0.0 where none is drawn, which adds nothing,
    # a -0.0 included; a float start's steps share one -0.0, so its memory stays near a noise-free path's
    kicks = None
    if drawn.size:
        kicks = np.full((dts.size, starts.size), -0.0, dtype=object if starts.ndim == 0 else float)
        kicks[drawn] = noise.reshape(starts.size, drawn.size).T
        kicks = kicks[:, 0].tolist() if starts.ndim == 0 else kicks
    x = float(starts) if starts.ndim == 0 else starts.reshape(-1)
    return np.array(_walk(x, states, dts, model, kicks))[at[sw.size :]].reshape((-1,) + starts.shape)


# ---------------------------------------------------------------------------
# The pooled lane kernel
# ---------------------------------------------------------------------------


def _lane_pool(model, n, seed, purpose, state, start, advance, p0=None, max_rounds=math.inf, chunk_done=None):
    """Run n lanes in chunks of CHUNK, each drawing from its own stream
    exactly as if it ran alone.  Up to _POOL lanes, oldest chunk first, take
    one holding time per round, each chunk drawing one per live lane of its
    own.  Every lane starts in `state` and every round switches every lane,
    so a chunk joins only when the pool is in `state` (or empty).  With p0
    (`state` is then 0) a joining chunk draws its lanes' starts, 0 with
    probability p0, and a lane starting in 1 gets a zero first holding time.

    A lane carries its index and one column per value of `start`.
    `advance(s, dt, idx, cols, capped)` moves the live lanes in state s,
    updating the columns in place, writes out those it finishes and returns
    the mask of finished lanes; the first `capped` lanes belong to chunks
    making their max_rounds-th switch.  `chunk_done(rng, lanes)` runs once a
    chunk has no live lane.

    The lanes live in buffers kept for the run: one of holding times, each
    chunk drawing straight into its slice, and two of the index and of each
    column, a round that finishes lanes gathering the live ones from one
    into the other.
    """
    room = min(n, _POOL)  # the most lanes the pool holds
    draws = np.empty(room)
    idx_bufs = np.empty((2, room), dtype=np.intp)
    col_bufs = np.empty((2, len(start), room))
    side = m = 0  # the pool's m lanes fill the first m entries of side `side`
    pool = []  # (stream, live lanes, round it joined, its lanes) per chunk, in chunk order
    joined = rounds = 0
    while True:
        if not pool:
            s = state
        ones = []  # per chunk joining now, its lanes that start in state 1
        while s == state and joined < n and m + min(CHUNK, n - joined) <= _POOL:
            size = min(CHUNK, n - joined)
            rng = stream(seed, purpose, replicate=joined // CHUNK)
            if p0 is not None:
                ones.append(~(rng.random(size) < p0))
            pool.append((rng, size, rounds, slice(joined, joined + size)))
            idx_bufs[side, m : m + size] = np.arange(joined, joined + size)
            for buf, v in zip(col_bufs[side], start):
                buf[m : m + size] = v
            joined += size
            m += size
        if not pool:
            break

        dt = draws[:m]
        lo = 0
        for rng, live, _, _ in pool:
            rng.standard_exponential(out=dt[lo : lo + live])
            lo += live
        with np.errstate(over="ignore"):  # a holding time past double range is inf
            dt /= model.rates.rate(s)
        if ones:  # the chunks that just joined hold the last lanes
            first = np.concatenate(ones)
            dt[m - first.size :][first] = 0.0
        capped = sum(live for _, live, at, _ in pool if rounds + 1 - at >= max_rounds)
        idx, cols = idx_bufs[side, :m], col_bufs[side, :, :m]
        finished = advance(s, dt, idx, list(cols), capped)

        if finished.any():
            kept = np.flatnonzero(~finished)
            ends = np.cumsum([live for _, live, _, _ in pool])
            lives = np.diff(np.searchsorted(kept, ends), prepend=0).tolist()
            for (rng, _, _, lanes), live in zip(pool, lives):
                if not live and chunk_done:
                    chunk_done(rng, lanes)
            pool = [(rng, live, at, lanes) for (rng, _, at, lanes), live in zip(pool, lives) if live]
            # gather the live lanes into the other side; the indices are in
            # range, and mode="clip" spares take the copy it makes under "raise"
            side, m = 1 - side, kept.size
            idx.take(kept, out=idx_bufs[side, :m], mode="clip")
            for c, buf in zip(cols, col_bufs[side]):
                c.take(kept, out=buf[:m], mode="clip")
        s = 1 - s
        rounds += 1


def _flow(s, dt, xs, out, model):
    """pattern_phi(s, dt, xs, model) for the pool's one state s, written into
    out (which may be xs); returns the flow map's factor.  The lanes that
    left double range go through pattern_phi itself: in a repelling state
    those whose factor overflowed, and in an attracting state, whose factor
    may underflow to 0, the lanes at +-inf, which only a state that does not
    attract can have carried there."""
    base, shift, factor = pattern_map(s, dt, model)
    gamma = model.coeffs[s].gamma
    far = None
    if gamma < 0.0:
        far = np.isinf(factor)
    elif gamma > 0.0 and model.coeffs[1 - s].gamma <= 0.0:
        far = np.isinf(xs)
    moved = pattern_phi(s, dt[far], xs[far], model) if far is not None and far.any() else None
    with np.errstate(invalid="ignore", over="ignore"):
        np.subtract(xs, shift, out=out)
        out *= factor
        out += base
    if moved is not None:
        out[far] = moved
    return factor


def fpt_samples(
    model: KacOuModel,
    x: float,
    y: float,
    initial_state: int,
    n: int,
    seed: int,
    caps: SimCaps = SimCaps(),
) -> FptSampleBatch:
    """n independent first-passage draws (vectorized, chunked, reproducible)
    of the mean path, which reads neither b0 nor b1.

    A query with x > y is drawn mirrored (x -> -x maps patterns and hitting
    times exactly), so lanes start below y.  Each round moves the live lanes
    across a holding time, takes the hit times of those that may have met y
    from hitting_time, and censors lanes at the horizon and at the switch
    cap; see the module docstring for the rounds that skip the crossing work.
    """
    x, y = _finite(x, "x"), _finite(y, "y")
    initial_state = _state(initial_state, "initial_state")
    if x == y:
        raise ParameterError("first passage requires x != y")
    n = _whole(n, "n", least=1)
    check_work(model.rates, caps.horizon, n, caps.max_switches)
    if x > y:
        model, x, y = rescale(model, -1.0), -x, -y
    times = np.empty(n)  # every lane is written when it hits or is censored
    reason = np.zeros(n, dtype=np.uint8)

    # per round: next positions and time left, and the flags of lanes that
    # cannot have met y and of finished lanes
    work = np.empty((2, min(n, _POOL)))
    flags = np.empty((2, min(n, _POOL)), dtype=bool)

    def advance(s, dt, idx, cols, capped):
        xs, ts = cols  # position and elapsed time
        nxt, rem = work[:, : xs.size]  # xs is needed until the lanes are checked
        stays, over = flags[:, : xs.size]
        try:
            _flow(s, dt, xs, nxt, model)
        except DoubleRangeError:
            # a flow that leaves double range within a holding time may
            # still meet y first: those lanes land on y, and only the others
            # flow, which may raise again
            hit = hitting_time(s, xs, y, model) < dt
            rest = ~hit
            moved = xs[rest]
            _flow(s, dt[rest], moved, moved, model)
            nxt[hit], nxt[rest] = y, moved
        # a pattern is monotone, so a lane that starts and ends strictly
        # below y has not met it, and where every lane does, no lane is
        # checked; a nan, an inf past y or a lane on y rules that out
        start = xs.max() < y
        away = start and nxt.max() < y
        if not away:
            # a lane stays where nxt is strictly below y, and xs too unless
            # every lane starts there; a nan is checked
            np.less(nxt, y, out=stays)
            if not start:
                stays &= np.less(xs, y, out=over)
            crossed = np.flatnonzero(np.logical_not(stays, out=stays))
            # a lane with no time elapsed in the start state sits at x (a
            # zero holding time is the identity flow): such lanes share x's
            # hit time, which hitting_time gives every entry of x bit for bit
            fresh = ts.take(crossed) == 0.0 if s == initial_state else None
            if fresh is None or not fresh.any():
                th = hitting_time(s, xs.take(crossed), y, model)
            else:
                th = np.full(crossed.size, hitting_time(s, np.array([x]), y, model)[0])
                if not fresh.all():
                    th[~fresh] = hitting_time(s, xs.take(crossed[~fresh]), y, model)
            dt_crossed = dt.take(crossed)
            hit = th < dt_crossed

        # censored: the lane meets neither y nor a switch before the horizon,
        # which needs at least a holding time that outlasts it; no lane can
        # while the longest holding time ends before the oldest lane's horizon
        if dt.max() < caps.horizon - ts.max():
            over.fill(False)
        else:
            np.subtract(caps.horizon, ts, out=rem)
            if np.greater_equal(dt, rem, out=over).any():
                if not away:
                    over[crossed] = np.minimum(th, dt_crossed) >= rem.take(crossed)
                    hit &= ~over.take(crossed)
                oi = idx[over]
                times[oi], reason[oi] = caps.horizon, CENSOR_HORIZON

        if not away:
            if hit.all():  # every crossed lane hit: no compression
                hits = crossed
            else:
                hits, th = crossed[hit], th[hit]
            times[idx.take(hits)] = ts.take(hits) + th
            over[hits] = True  # now marks every finished lane
        ts += dt
        if capped:  # the lanes still running at their chunk's switch cap
            cut = np.flatnonzero(~over[:capped])
            ci = idx.take(cut)
            times[ci], reason[ci] = ts.take(cut), CENSOR_SWITCH_CAP
            over[:capped] = True
        np.copyto(xs, nxt)
        return over

    _lane_pool(model, n, seed, "fpt", initial_state, (x, 0.0), advance, max_rounds=caps.max_switches)
    return FptSampleBatch(times, reason)


def terminal_values(
    model: KacOuModel,
    x0: float,
    t: float,
    n: int,
    seed: int,
    with_noise: bool = False,
    initial_state=0,
    purpose: str = "terminal",
) -> TerminalSample:
    """Exact terminal draws of the mean path (or the diffusion when
    with_noise) at time t; initial_state may be 0, 1 or "stationary".
    t must be finite and >= 0, and x0 finite.  A repelling flow may carry a
    noise-free draw to +-inf; with noise, a mean or variance past double
    range raises DoubleRangeError.  An equal-rate telegraph integral is
    drawn from its exact law instead (see _telegraph_values).

    A lane carries its position and time left, and is written out in the
    round whose holding time ends after t.  With noise it also carries its
    variance given the switch path, V <- V f^2 + b^2 (1 - f^2) / (2 gamma),
    f = exp(-gamma dt) (V f^2 + b^2 dt (1 - gamma dt) where |gamma| t <
    _SERIES_GT), and a chunk then draws one normal per lane.
    """
    x0, t = _finite(x0, "x0"), _time(t)
    if not isinstance(initial_state, str) or initial_state != "stationary":
        initial_state = _state(initial_state, "initial_state")
    n = _whole(n, "n", least=1)
    p0 = stationary_state_dist(model.rates)[0] if initial_state == "stationary" else None
    if _one_step(model, t):
        return _telegraph_values(model, x0, t, n, seed, initial_state, p0, purpose)
    check_work(model.rates, t, n)
    noisy = with_noise and t > 0.0  # at t = 0 a draw is its start
    values, states, variance = np.empty(n), np.empty(n, dtype=np.int64), np.empty(n)
    # per state: variance level b^2 / (2 gamma) (0 where |gamma| t < _SERIES_GT), b^2 and
    # gamma b^2 per unit time there (None where they add nothing), and whether the flow can overflow
    per_state = []
    for c in model.coeffs:
        lin = abs(c.gamma) * t < _SERIES_GT
        b2 = c.b * c.b  # past double range it is inf, checked at the end
        level = 0.0 if lin else b2 / (2.0 * c.gamma)
        per_state.append((level, b2 if lin else None, c.gamma * b2 if lin and c.gamma else None, c.gamma < 0.0))

    work = np.empty((3 if noisy else 1, min(n, _POOL)))  # per round: step, f^2, a product

    def advance(s, dt, idx, cols, capped):
        level, lin_var, lin_damp, repels = per_state[s]
        xs, rem = cols[:2]
        step = work[0, : xs.size]
        np.minimum(dt, rem, out=step)
        factor = _flow(s, step, xs, xs, model)
        if noisy:
            var, (square, prod) = cols[2], work[1:, : xs.size]
            # a repelling flow's factor may overflow, and then f^2 on a lane at
            # its level gives 0 * inf
            with np.errstate(invalid="ignore", over="ignore"):
                # a flat state's factor is the float 1.0
                f2 = np.multiply(factor, factor, out=square) if np.ndim(factor) else factor * factor
                var -= level  # the gap to the level
                if repels:
                    still = np.isinf(f2) & (var == 0.0)
                var *= f2
                var += level
                if lin_var is not None:
                    var += np.multiply(step, lin_var, out=prod)
                    if lin_damp is not None:
                        np.multiply(step, lin_damp, out=prod)
                        var -= np.multiply(prod, step, out=prod)
                if repels:
                    var[still] = level
        done = dt > rem
        if done.any():
            end = np.flatnonzero(done)
            out = idx.take(end)
            values[out], states[out] = xs.take(end), s
            if noisy:
                variance[out] = cols[2].take(end)
        rem -= dt
        return done

    def chunk_done(rng, lanes):
        # a repelling flow or an amplitude whose square overflows can carry a lane's
        # mean or variance past double range, where m + sqrt(V) Z is no draw (inf - inf is nan)
        if not (np.isfinite(values[lanes]).all() and np.isfinite(variance[lanes]).all()):
            raise DoubleRangeError(
                f"noisy terminal draws leave double range at t = {t} from x0 = {x0}, initial_state = {initial_state!r}"
            )
        values[lanes] += np.sqrt(variance[lanes]) * rng.standard_normal(lanes.stop - lanes.start)

    start = (x0, t) + ((0.0,) if noisy else ())
    state = initial_state if p0 is None else 0
    _lane_pool(model, n, seed, purpose, state, start, advance, p0, chunk_done=chunk_done if noisy else None)
    return TerminalSample(values, states)


def _one_step(model: KacOuModel, t: float) -> bool:
    """Whether terminal_values draws each lane at t in one step, whatever the number of switches, as
    it does an equal-rate telegraph integral (no reversion or noise, lambda0 == lambda1) at t > 0."""
    return t > 0.0 and model.rates.lambda0 == model.rates.lambda1 and all(c.gamma == c.b == 0.0 for c in model.coeffs)


# numpy's Poisson sampler refuses a mean above this (its POISSON_LAM_MAX)
_POISSON_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


def _telegraph_values(model, x0, t, n, seed, initial_state, p0, purpose) -> TerminalSample:
    """Terminal draws of an equal-rate telegraph integral at t > 0.

    At equal rates the switches form a Poisson process whatever the state,
    so a lane's N ~ Poisson(lambda t) switches split [0, t] into N + 1
    intervals whose lengths are uniform spacings.  The k0 of them spent in
    state 0 (alternating from the start state) then add up to
    T0 = t Beta(k0, N + 1 - k0), exactly 0 or t when k0 is 0 or N + 1
    (Kac 1974), and the lane ends at x0 + t (a0 f + a1 (1 - f)) with
    f = T0 / t, in state start + N mod 2.  Each chunk draws from its own
    stream: the starts (0 with probability p0), the switch counts, then the
    Beta fractions of the lanes that visit both states.
    """
    lam_t = model.rates.lambda0 * t
    if not lam_t <= _POISSON_MAX:
        raise ParameterError(
            f"the telegraph draw expects lambda t = {lam_t:.3g} switches, "
            f"past the {_POISSON_MAX:.3g} its Poisson sampler takes"
        )
    a0, a1 = model.coeffs[0].a, model.coeffs[1].a
    values, states = np.empty(n), np.empty(n, dtype=np.int64)
    for lo in range(0, n, CHUNK):
        size = min(CHUNK, n - lo)
        rng = stream(seed, purpose, replicate=lo // CHUNK)
        start = (rng.random(size) >= p0).astype(np.int64) if p0 is not None else np.full(size, initial_state)
        switches = rng.poisson(lam_t, size)
        k0 = (switches + 2 - start) // 2  # ceil((N + 1) / 2) from state 0, floor from state 1
        k1 = switches + 1 - k0
        frac = (k1 == 0).astype(float)
        both = np.flatnonzero((k0 > 0) & (k1 > 0))
        frac[both] = rng.beta(k0[both], k1[both])
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            x = x0 + t * (a0 * frac + a1 * (1.0 - frac))
        if not np.isfinite(x).all():
            raise DoubleRangeError(
                f"telegraph draws leave double range at t = {t} from x0 = {x0}, initial_state = {initial_state!r}"
            )
        values[lo : lo + size] = x
        states[lo : lo + size] = (start + switches) % 2
    return TerminalSample(values, states)


def mc_laplace_fpt(query, model: KacOuModel, n: int, seed: int, caps: SimCaps = SimCaps()) -> McEstimate:
    """Monte Carlo E[exp(-q T)], T the mean path's first passage (from
    fpt_samples; b0 and b1 are not read).

    Censored paths contribute 0; the induced bias is below exp(-q * horizon)
    (1e-16 at the default caps for q >= 0.04), and at q = 0 the estimate is
    exactly the within-horizon hit fraction, i.e. one minus the defect mass.
    """
    n = _whole(n, "n", least=1_000)
    batch = fpt_samples(model, query.x, query.y, query.initial_state, n, seed, caps)
    # the batch is not returned, so its times become the contributions in place
    ((mean, stderr),) = _laplace_estimates(batch, [query.q], batch.times)
    return McEstimate(mean, stderr, n, int(np.count_nonzero(batch.reason)))


def _laplace_estimates(batch: FptSampleBatch, qs, work: np.ndarray) -> list[tuple[float, float]]:
    """(mean, stderr) of exp(-q T) over the batch at each q, censored paths
    contributing 0.  One batch serves every q, since the law of T does not
    depend on q (common random numbers), so the estimates' errors are
    correlated across q.

    The contributions are formed in `work`, an array of the batch's size,
    which may be batch.times itself for a single q.  Mean and stderr take
    numpy's own steps for np.mean and np.std(ddof=1), which they equal bit
    for bit.
    """
    n = batch.times.size
    censored = batch.censored
    out = []
    for q in qs:
        with np.errstate(invalid="ignore"):  # q = 0 at an infinite horizon
            np.multiply(batch.times, -q, out=work)
        np.exp(work, out=work)
        work[censored] = 0.0
        mean = work.sum() / n
        work -= mean
        work *= work
        out.append((float(mean), float(np.sqrt(work.sum() / (n - 1)) / math.sqrt(n))))
    return out
