"""Exact event-driven simulation of the switching chain, the piecewise
deterministic mean path, and the modulated diffusion, plus the Monte Carlo
estimators the other modules use as oracles.

Nothing here discretizes time: between switches the mean path follows the
exponential pattern exactly and the diffusion transition is the exact
Gaussian one-step law.  The only randomness is in holding times and normal
draws: a sampled path draws one normal per constant-coefficient interval,
and a terminal draw carries its variance given the switch path and draws
one normal at the end.

Monte Carlo runs are split into fixed-size chunks; each chunk owns its own
counter-based stream (see :mod:`kacou.rng`), and everything runs in the
calling thread, so estimates are bit-identical for a given seed.  Terminal
chunks run one after another in index order, each with one group of lanes
per start state, so a group is in one chain state per round.  First-passage
chunks share one pool of lanes in one chain state per round, and each chunk
draws from its own stream exactly as it would alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DoubleRangeError, ParameterError
from .model import (
    _SERIES_GT,
    KacOuModel,
    SwitchRates,
    hitting_time,
    interval_variance,
    pattern_map,
    pattern_phi,
    stationary_state_dist,
)
from .rng import stream

__all__ = [
    "SwitchSequence",
    "McEstimate",
    "SimCaps",
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
# lanes the first-passage driver advances together, not a knob: sixteen
# chunks' worth ran slower (the round's arrays leave the cache)
_FPT_POOL = 4 * CHUNK

CENSOR_NONE = 0
CENSOR_HORIZON = 1
CENSOR_SWITCH_CAP = 2
# censoring reason names, indexed by the codes above
REASON_NAMES = ("", "horizon", "switch_cap")


@dataclass(frozen=True)
class SimCaps:
    """Censoring caps bounding worst-case work per path."""

    horizon: float = 1e3
    max_switches: int = 10_000_000

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ParameterError(f"censoring horizon must be > 0, got {self.horizon}")
        if not self.max_switches >= 1:
            raise ParameterError(f"max_switches must be at least 1, got {self.max_switches}")


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
    """First-passage samples; censored entries carry the censoring time."""

    times: np.ndarray
    censored: np.ndarray
    reason: np.ndarray

    @property
    def censored_fraction(self) -> float:
        return float(np.mean(self.censored))


@dataclass(frozen=True)
class TerminalSample:
    values: np.ndarray
    states: np.ndarray


def sample_switch_sequence(
    rates: SwitchRates, initial_state: int, horizon: float, rng: np.random.Generator
) -> SwitchSequence:
    """Alternating exponential holding times, truncated at the horizon."""
    if not 0.0 < horizon < math.inf:
        raise ParameterError(f"horizon must be finite and positive, got {horizon}")
    times = []
    t = 0.0
    s = initial_state
    while True:
        t += rng.standard_exponential() / rates.rate(s)
        if t >= horizon:
            break
        times.append(t)
        s = 1 - s
    return SwitchSequence(initial_state, np.asarray(times, dtype=float), horizon)


def _walk(x, states, dts, model: KacOuModel, noise: dict) -> list[float]:
    """Carry x through consecutive flows: the value after each step
    phi(states[k], dts[k], .), plus noise[k] for the steps noise holds.

    The affine maps of all steps come from one kernel call; a step whose
    growth overflowed the map goes through pattern_phi itself.
    """
    maps = [np.broadcast_to(c, dts.shape).tolist() for c in pattern_map(states, dts, model)]
    out = []
    for k, (base, shift, factor) in enumerate(zip(*maps)):
        if factor < math.inf:
            x = base + (x - shift) * factor
        else:
            x = pattern_phi(states[k], dts[k], x, model)
        if k in noise:
            x = x + noise[k]
        out.append(x)
    return out


def _check_finite(**values) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def evaluate_x(seq: SwitchSequence, x0: float, t, model: KacOuModel):
    """Exact mean path at time t, composing the patterns segment by segment.

    t is a float (a float is returned) or a sorted array of times (an array
    is returned), all within the horizon.  One walk serves every time: each
    whole segment is crossed once, and a time inside a segment, or at its
    closing switch, is evaluated from that segment's start, so a value is
    the same whether it is asked for alone or among others.
    """
    _check_finite(x0=x0)
    times = np.asarray(t, dtype=float)
    flat = times.reshape(-1)
    if np.any(np.diff(flat) < 0.0):
        raise ParameterError("evaluation times must be sorted")
    if flat.size and flat[-1] > seq.horizon:
        raise ParameterError(f"t = {flat[-1]} beyond sequence horizon {seq.horizon}")
    # a time equal to a switch time belongs to the segment that switch closes
    seg = np.searchsorted(seq.switch_times, flat, side="left")
    n_seg = int(seg[-1]) if flat.size else 0
    starts = np.concatenate([[0.0], seq.switch_times[:n_seg]])
    states = (seq.initial_state + np.arange(n_seg + 1)) % 2
    x_start = np.array([x0] + _walk(x0, states[:-1], np.diff(starts), model, {}))
    out = pattern_phi(states[seg], flat - starts[seg], x_start[seg], model)
    return float(out[0]) if times.ndim == 0 else out


def sample_m_path(
    seq: SwitchSequence,
    x0: float,
    eval_times,
    model: KacOuModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the modulated diffusion at the requested times, one exact Gaussian
    step per constant-coefficient interval (switch boundaries always included;
    ties resolve switch-first).  No normal is drawn for an interval of zero
    length or zero variance."""
    _check_finite(x0=x0)
    eval_times = np.asarray(eval_times, dtype=float)
    if eval_times.size and np.any(np.diff(eval_times) < 0.0):
        raise ParameterError("eval_times must be sorted")
    if eval_times.size and eval_times[-1] > seq.horizon:
        raise ParameterError("eval_times must lie within the horizon")
    if eval_times.size == 0:
        return np.empty(0)

    # one interval ends at each switch up to the last time and at each time
    sw = seq.switch_times[: np.searchsorted(seq.switch_times, eval_times[-1], side="right")]
    ends = np.concatenate([sw, eval_times])
    order = np.argsort(ends, kind="stable")
    at_switch = order < sw.size
    dts = np.diff(ends[order], prepend=0.0)
    states = (seq.initial_state + np.cumsum(at_switch) - at_switch) % 2
    var = interval_variance(states, dts, model)
    drawn = np.flatnonzero((dts > 0.0) & (var > 0.0))
    kicks = np.sqrt(var[drawn]) * rng.standard_normal(drawn.size)
    noise = dict(zip(drawn.tolist(), kicks.tolist()))
    return np.array(_walk(x0, states, dts, model, noise))[~at_switch]


# ---------------------------------------------------------------------------
# Vectorized chunk kernels
# ---------------------------------------------------------------------------


def _fpt_pool(model, x, y, state, n, seed, purpose, caps):
    """First-passage draws for n lanes, split into chunks of CHUNK lanes that
    each draw from their own stream, exactly as if every chunk ran alone.

    Up to _FPT_POOL lanes of several chunks advance together, oldest chunk
    first.  Each round advances every live lane across one holding time,
    and each chunk draws one holding time per live lane of its own.  Every
    lane starts in `state` and every round switches every lane, so a chunk
    joins only when the pool is in `state` (or empty) and the pool holds one
    state per round.  A pattern is monotone, so a lane can reach y in a
    holding time only if x - y changed sign or reached 0, and hitting_time
    runs on those lanes alone.  Each chunk counts its own switches for
    max_switches from the round it joined.
    """
    if n < 1:
        raise ParameterError(f"need at least one sample, got n = {n}")
    times = np.full(n, np.nan)
    censored = np.zeros(n, dtype=bool)
    reason = np.zeros(n, dtype=np.uint8)

    idx = np.arange(0)
    xs = ts = np.zeros(0)
    pool = []  # (stream, live lanes, round it joined) per chunk, in chunk order
    s = state
    joined = rounds = 0
    while True:
        if not pool:
            s = state
        while s == state and joined < n and idx.size + min(CHUNK, n - joined) <= _FPT_POOL:
            size = min(CHUNK, n - joined)
            pool.append((stream(seed, purpose, replicate=joined // CHUNK), size, rounds))
            idx = np.concatenate([idx, np.arange(joined, joined + size)])
            xs = np.concatenate([xs, np.full(size, float(x))])
            ts = np.concatenate([ts, np.zeros(size)])
            joined += size
        if not pool:
            break

        draws = np.concatenate([rng.standard_exponential(live) for rng, live, _ in pool])
        # a holding time past double range is inf, and a flat state's flow
        # over it may be nan (0 * inf); such a lane is censored below
        with np.errstate(over="ignore", invalid="ignore"):
            dt = draws / model.rates.rate(s)
            nxt = pattern_phi(s, dt, xs, model)
        rem = caps.horizon - ts
        # a lane stayed on its side of y if nxt - y has the strict sign of
        # xs - y; scaling by that sign cannot overflow, and nan counts as a
        # crossing, so such a lane is checked exactly
        side = nxt - y
        side *= np.sign(xs - y)
        crossed = np.flatnonzero(~(side > 0.0))
        th = hitting_time(s, xs.take(crossed), y, model)
        dt_crossed = dt.take(crossed)
        hit = th < dt_crossed

        # censored: the lane meets neither y nor a switch before the horizon,
        # which needs at least a holding time that outlasts it
        over = dt >= rem
        if over.any():
            over[crossed] = np.minimum(th, dt_crossed) >= rem.take(crossed)
            hit &= ~over.take(crossed)
            oi = idx[over]
            times[oi] = caps.horizon
            censored[oi] = True
            reason[oi] = CENSOR_HORIZON

        hits = crossed[hit]
        times[idx.take(hits)] = ts.take(hits) + th[hit]

        over[hits] = True  # now marks every finished lane
        kept = np.flatnonzero(~over)
        if kept.size < idx.size:
            ends = np.cumsum([live for _, live, _ in pool])
            lives = np.diff(np.searchsorted(kept, ends), prepend=0).tolist()
            pool = [(rng, live, start) for (rng, _, start), live in zip(pool, lives) if live]
            idx, xs, ts = idx.take(kept), nxt.take(kept), ts.take(kept) + dt.take(kept)
        else:  # common in the first rounds, and the takes would only copy
            xs, ts = nxt, ts + dt
        s = 1 - s
        rounds += 1
        # the chunks at their switch cap joined first, so their lanes lead
        cut = sum(live for _, live, start in pool if rounds - start >= caps.max_switches)
        if cut:
            times[idx[:cut]] = ts[:cut]
            censored[idx[:cut]] = True
            reason[idx[:cut]] = CENSOR_SWITCH_CAP
            pool = [(rng, live, start) for rng, live, start in pool if rounds - start < caps.max_switches]
            idx, xs, ts = idx[cut:], xs[cut:], ts[cut:]
    return times, censored, reason


def _terminal_chunk(model, x0, t, size, rng, with_noise, initial_state):
    """Terminal draws for one chunk.  Each round draws one holding time for
    every lane of the chunk, so the stream does not depend on which lanes are
    still running; only the live lanes are advanced, and a lane that reaches
    t is written out and dropped.  With noise a lane carries the variance of
    its position given the switch path, V <- V f^2 + b^2 (1 - f^2) / (2 gamma)
    with f = exp(-gamma dt) the flow's own factor (V f^2 + b^2 dt (1 - gamma dt)
    in a state with |gamma| t < _SERIES_GT), and one normal per lane is drawn
    at the end.

    Every round switches every lane, so the lanes that start in one state
    share one state per round: a fixed start gives one group, a stationary
    one two.  Each group takes its lanes' holding times out of the round's
    draws and advances in its own state, with that state's rate, variance
    terms and flow map as scalars."""
    if initial_state == "stationary":
        p0, _ = stationary_state_dist(model.rates)
        states = np.where(rng.random(size) < p0, 0, 1).astype(np.int64)
        starts = [(s, np.flatnonzero(states == s)) for s in (0, 1)]
    else:
        states = np.full(size, int(initial_state), dtype=np.int64)
        starts = [(int(initial_state), np.arange(size))]
    values = np.full(size, float(x0))
    variance = np.zeros(size)
    # per state: rate, variance level b^2 / (2 gamma) (0 where |gamma| t <
    # _SERIES_GT, gamma = 0 included), b^2 and gamma b^2 per unit time there
    # (None where they add nothing), and whether the flow can overflow
    per_state = []
    for c, lam in zip(model.coeffs, (model.rates.lambda0, model.rates.lambda1)):
        lin = abs(c.gamma) * t < _SERIES_GT
        b2 = c.b * c.b  # past double range it is inf, checked at the end
        level = 0.0 if lin else b2 / (2.0 * c.gamma)
        lin_var = b2 if lin else None
        lin_damp = c.gamma * b2 if lin and c.gamma != 0.0 else None
        per_state.append((lam, level, lin_var, lin_damp, c.gamma < 0.0))

    # per group: its state this round, its live lanes, their positions,
    # variances and time left (none at t = 0)
    groups = [
        [s, idx, values[idx], variance[idx], np.full(idx.size, float(t))] for s, idx in starts if idx.size and t > 0.0
    ]
    # a holding time may overflow to inf, and a repelling flow's factor too
    with np.errstate(invalid="ignore", over="ignore"):
        while groups:
            draws = rng.standard_exponential(size)
            for group in groups:
                s, idx, xs, var, rem = group
                lam, level, lin_var, lin_damp, repels = per_state[s]
                dt = (draws if idx.size == size else draws.take(idx)) / lam
                step = np.minimum(dt, rem)
                base, shift, factor = pattern_map(s, step, model)
                nxt = base + (xs - shift) * factor
                if with_noise:
                    gap = var - level
                    var = level + gap * (factor * factor)
                    if lin_var is not None:
                        var += lin_var * step
                        if lin_damp is not None:
                            var -= lin_damp * step * step
                if repels:  # growth beyond double range
                    grown = np.isinf(factor)
                    if grown.any():
                        nxt[grown] = pattern_phi(s, step[grown], xs[grown], model)
                        if with_noise:  # f^2 = inf on a lane at its level gives 0 * inf
                            var[grown & (gap == 0.0)] = level
                done = dt >= rem
                rem = rem - dt
                if done.any():
                    end, go = np.flatnonzero(done), np.flatnonzero(~done)
                    out = idx.take(end)
                    values[out] = nxt.take(end)
                    states[out] = s
                    idx, nxt, rem = idx.take(go), nxt.take(go), rem.take(go)
                    if with_noise:
                        variance[out] = var.take(end)
                        var = var.take(go)
                group[:] = 1 - s, idx, nxt, var, rem
            groups = [group for group in groups if group[1].size]
    if with_noise:
        # a repelling flow or an amplitude whose square overflows can carry a
        # lane's mean or variance past double range, where m + sqrt(V) Z is
        # no draw at all (inf - inf is nan)
        if not (np.isfinite(values).all() and np.isfinite(variance).all()):
            raise DoubleRangeError(
                f"noisy terminal draws leave double range at t = {t} from x0 = {x0}, "
                f"initial_state = {initial_state!r}"
            )
        values = values + np.sqrt(variance) * rng.standard_normal(size)
    return values, states


def _run_chunks(n, seed, purpose, worker):
    """Run `worker(size, rng)` over fixed-size chunks; each of the arrays a
    worker returns is concatenated over the chunks in index order."""
    if n < 1:
        raise ParameterError(f"need at least one sample, got n = {n}")
    sizes = [CHUNK] * (n // CHUNK)
    if n % CHUNK:
        sizes.append(n % CHUNK)
    results = [worker(sz, stream(seed, purpose, replicate=i)) for i, sz in enumerate(sizes)]
    return [np.concatenate(field) for field in zip(*results)]


def fpt_samples(
    model: KacOuModel,
    x: float,
    y: float,
    initial_state: int,
    n: int,
    seed: int,
    caps: SimCaps = SimCaps(),
    purpose: str = "fpt",
) -> FptSampleBatch:
    """n independent first-passage draws (vectorized, chunked, reproducible)."""
    _check_finite(x=x, y=y)
    if initial_state not in (0, 1):
        raise ParameterError(f"initial_state must be 0 or 1, got {initial_state!r}")
    if x == y:
        raise ParameterError("first passage requires x != y")
    return FptSampleBatch(*_fpt_pool(model, x, y, initial_state, n, seed, purpose, caps))


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
    range raises DoubleRangeError."""
    _check_finite(x0=x0, t=t)
    if t < 0.0:
        raise ParameterError(f"t must be >= 0, got {t}")
    if initial_state not in (0, 1, "stationary"):
        raise ParameterError(f'initial_state must be 0, 1 or "stationary", got {initial_state!r}')
    return TerminalSample(*_run_chunks(
        n, seed, purpose, lambda sz, rng: _terminal_chunk(model, x0, t, sz, rng, with_noise, initial_state)
    ))


def mc_laplace_fpt(query, model: KacOuModel, n: int, seed: int, caps: SimCaps = SimCaps()) -> McEstimate:
    """Monte Carlo E[exp(-q T)].

    Censored paths contribute 0; the induced bias is below exp(-q * horizon)
    (1e-16 at the default caps for q >= 0.04), and at q = 0 the estimate is
    exactly the within-horizon hit fraction, i.e. one minus the defect mass.
    """
    if n < 1_000:
        raise ParameterError(f"mc_laplace_fpt needs n >= 1000, got {n}")
    batch = fpt_samples(model, query.x, query.y, query.initial_state, n, seed, caps)
    with np.errstate(invalid="ignore"):
        contrib = np.where(batch.censored, 0.0, np.exp(-query.q * batch.times))
    mean = float(np.mean(contrib))
    stderr = float(np.std(contrib, ddof=1) / math.sqrt(n))
    return McEstimate(mean, stderr, n, int(np.count_nonzero(batch.censored)))
