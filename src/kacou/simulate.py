"""Exact event-driven simulation of the switching chain, the piecewise
deterministic mean path, and the modulated diffusion, plus the Monte Carlo
estimators the other modules use as oracles.

Nothing here discretizes time: between switches the mean path follows the
exponential pattern exactly and the diffusion transition is the exact
Gaussian one-step law, so the only randomness is in holding times,
one normal draw per constant-coefficient interval, and first-passage logic.

Monte Carlo runs are split into fixed-size chunks; each chunk owns its own
counter-based stream (see :mod:`kacou.rng`) and chunk results are assembled
in index order, so estimates are bit-identical for a given seed no matter
how many worker threads run.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import KacOuModel, SwitchRates, hitting_time, pattern_phi, stationary_state_dist
from .rng import stream

__all__ = [
    "SwitchSequence",
    "PathSegment",
    "FptOutcome",
    "McEstimate",
    "SimCaps",
    "FptSampleBatch",
    "TerminalSample",
    "sample_switch_sequence",
    "evaluate_x",
    "path_segments",
    "sample_m_path",
    "sample_fpt",
    "mc_laplace_fpt",
    "fpt_samples",
    "terminal_values",
]

CHUNK = 1 << 14

CENSOR_NONE = 0
CENSOR_HORIZON = 1
CENSOR_SWITCH_CAP = 2
_REASONS = {CENSOR_HORIZON: "horizon", CENSOR_SWITCH_CAP: "switch_cap"}


def _n_workers() -> int:
    raw = os.environ.get("KACOU_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@dataclass(frozen=True)
class SimCaps:
    """Censoring caps bounding worst-case work per path."""

    horizon: float = 1e3
    max_switches: int = 10_000_000


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
class PathSegment:
    t_start: float
    state: int
    x_start: float
    m_mean: float
    m_var: float


@dataclass(frozen=True)
class FptOutcome:
    kind: str  # "hit" | "censored"
    time: float
    reason: str | None = None


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n: int


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
    if horizon <= 0.0:
        raise ParameterError(f"horizon must be positive, got {horizon}")
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


def evaluate_x(seq: SwitchSequence, x0: float, t, model: KacOuModel):
    """Exact mean path at time t, composing the patterns segment by segment.

    t is a float (a float is returned) or a sorted array of times (an array
    is returned), all within the horizon.  One walk serves every time: each
    whole segment is crossed once, and a time inside a segment, or at its
    closing switch, is evaluated from that segment's start, so a value is
    the same whether it is asked for alone or among others.
    """
    times = np.asarray(t, dtype=float)
    flat = times.reshape(-1)
    if np.any(np.diff(flat) < 0.0):
        raise ParameterError("evaluation times must be sorted")
    if flat.size and flat[-1] > seq.horizon:
        raise ParameterError(f"t = {flat[-1]} beyond sequence horizon {seq.horizon}")
    # a time equal to a switch time belongs to the segment that switch closes
    ends = np.searchsorted(seq.switch_times, flat, side="left").tolist()
    switches = seq.switch_times.tolist()
    out = np.empty(flat.size)
    x = x0
    s = seq.initial_state
    prev = 0.0
    k = 0
    for i, (te, end) in enumerate(zip(flat.tolist(), ends)):
        while k < end:
            x = pattern_phi(s, switches[k] - prev, x, model)
            s = 1 - s
            prev = switches[k]
            k += 1
        out[i] = pattern_phi(s, te - prev, x, model)
    return float(out[0]) if times.ndim == 0 else out


def _interval_var(b: float, gamma: float, dt: float) -> float:
    if b == 0.0 or dt == 0.0:
        return 0.0
    if gamma == 0.0:
        return b * b * dt
    e = math.exp(-2.0 * gamma * dt) if -2.0 * gamma * dt < 700.0 else math.inf
    return b * b * (1.0 - e) / (2.0 * gamma)


def path_segments(seq: SwitchSequence, x0: float, model: KacOuModel) -> list[PathSegment]:
    """Per-segment start data for the mean path and the conditional Gaussian law."""
    out = []
    x = x0
    s = seq.initial_state
    prev = 0.0
    v = 0.0
    for ts in seq.switch_times:
        out.append(PathSegment(prev, s, x, x, v))
        dt = ts - prev
        c = model.coeff(s)
        decay2 = math.exp(-2.0 * c.gamma * dt) if -2.0 * c.gamma * dt < 700.0 else math.inf
        v = v * decay2 + _interval_var(c.b, c.gamma, dt)
        x = pattern_phi(s, dt, x, model)
        prev = ts
        s = 1 - s
    out.append(PathSegment(prev, s, x, x, v))
    return out


def _gauss_step(m, state, dt, model, rng):
    if dt == 0.0:
        return m
    c = model.coeff(state)
    mean = pattern_phi(state, dt, m, model)
    var = _interval_var(c.b, c.gamma, dt)
    if var > 0.0:
        return mean + math.sqrt(var) * rng.standard_normal()
    return mean


def sample_m_path(
    seq: SwitchSequence,
    x0: float,
    eval_times,
    model: KacOuModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the modulated diffusion at the requested times, one exact Gaussian
    step per constant-coefficient interval (switch boundaries always included;
    ties resolve switch-first)."""
    eval_times = np.asarray(eval_times, dtype=float)
    if eval_times.size and np.any(np.diff(eval_times) < 0.0):
        raise ParameterError("eval_times must be sorted")
    if eval_times.size and eval_times[-1] > seq.horizon:
        raise ParameterError("eval_times must lie within the horizon")

    out = np.empty(eval_times.size)
    m = x0
    s = seq.initial_state
    t = 0.0
    i_sw = 0
    sw = seq.switch_times
    for i_ev, te in enumerate(eval_times):
        while i_sw < sw.size and sw[i_sw] <= te:
            m = _gauss_step(m, s, sw[i_sw] - t, model, rng)
            t = sw[i_sw]
            s = 1 - s
            i_sw += 1
        m = _gauss_step(m, s, te - t, model, rng)
        t = te
        out[i_ev] = m
    return out


def sample_fpt(
    x: float,
    y: float,
    initial_state: int,
    model: KacOuModel,
    rng: np.random.Generator,
    caps: SimCaps = SimCaps(),
) -> FptOutcome:
    """Single exact first-passage draw; censoring is a value, not an error."""
    if x == y:
        raise ParameterError("sample_fpt requires x != y")
    t = 0.0
    xc = x
    s = initial_state
    nsw = 0
    while True:
        th = hitting_time(s, xc, y, model) if xc != y else 0.0
        dt = rng.standard_exponential() / model.rates.rate(s)
        if min(th, dt) >= caps.horizon - t:
            return FptOutcome("censored", caps.horizon, "horizon")
        if th < dt:
            return FptOutcome("hit", t + th)
        xc = pattern_phi(s, dt, xc, model)
        t += dt
        s = 1 - s
        nsw += 1
        if nsw >= caps.max_switches:
            return FptOutcome("censored", t, "switch_cap")


# ---------------------------------------------------------------------------
# Vectorized chunk kernels
# ---------------------------------------------------------------------------


def _phi_vec(a, g, dt, x):
    lin = g == 0.0
    g_safe = np.where(lin, 1.0, g)
    rho = a / g_safe
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(np.minimum(-g * dt, 700.0))
        curved = rho + (x - rho) * decay
    return np.where(lin, x + a * dt, curved)


def _hit_time_vec(a, g, x, y):
    lin = g == 0.0
    g_safe = np.where(lin, 1.0, g)
    a_safe = np.where(a == 0.0, 1.0, a)
    rho = a / g_safe
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = (x - rho) / (y - rho)
        t_curved = np.log(np.where(r > 0.0, r, 1.0)) / g_safe
        ok_curved = ~lin & (((g > 0.0) & (r > 1.0)) | ((g < 0.0) & (r > 0.0) & (r < 1.0)))
        t_lin = (y - x) / a_safe
        ok_lin = lin & (a != 0.0) & (t_lin > 0.0)
    t = np.full(x.shape, np.inf)
    t[ok_curved] = t_curved[ok_curved]
    t[ok_lin] = t_lin[ok_lin]
    return t


def _var_vec(b, g, dt):
    lin = g == 0.0
    g_safe = np.where(lin, 1.0, g)
    with np.errstate(over="ignore"):
        e = np.exp(np.minimum(-2.0 * g * dt, 700.0))
        v = b * b * (1.0 - e) / (2.0 * g_safe)
    return np.where(lin, b * b * dt, v)


def _fpt_chunk(model, x, y, state, size, rng, caps):
    lam, a, g = model.lam_vec, model.a_vec, model.gamma_vec
    times = np.full(size, np.nan)
    censored = np.zeros(size, dtype=bool)
    reason = np.zeros(size, dtype=np.uint8)

    idx = np.arange(size)
    xs = np.full(size, float(x))
    ss = np.full(size, int(state), dtype=np.int64)
    ts = np.zeros(size)
    nsw = 0
    while idx.size:
        th = _hit_time_vec(a[ss], g[ss], xs, y)
        dt = rng.standard_exponential(idx.size) / lam[ss]
        rem = caps.horizon - ts

        over = np.minimum(th, dt) >= rem
        if np.any(over):
            oi = idx[over]
            times[oi] = caps.horizon
            censored[oi] = True
            reason[oi] = CENSOR_HORIZON

        hit = ~over & (th < dt)
        if np.any(hit):
            hi = idx[hit]
            times[hi] = ts[hit] + th[hit]

        keep = ~over & ~hit
        idx, xs, ss, ts, dt = idx[keep], xs[keep], ss[keep], ts[keep], dt[keep]
        if idx.size == 0:
            break
        xs = _phi_vec(a[ss], g[ss], dt, xs)
        ts = ts + dt
        ss = 1 - ss
        nsw += 1
        if nsw >= caps.max_switches:
            times[idx] = ts
            censored[idx] = True
            reason[idx] = CENSOR_SWITCH_CAP
            break
    return times, censored, reason


def _terminal_chunk(model, x0, t, size, rng, with_noise, initial_state):
    lam, a, g, b = model.lam_vec, model.a_vec, model.gamma_vec, model.b_vec
    if initial_state == "stationary":
        p0, _ = stationary_state_dist(model.rates)
        ss = np.where(rng.random(size) < p0, 0, 1).astype(np.int64)
    else:
        ss = np.full(size, int(initial_state), dtype=np.int64)
    xs = np.full(size, float(x0))
    rem = np.full(size, float(t))
    while np.any(rem > 0.0):
        dt = rng.standard_exponential(size) / lam[ss]
        step = np.clip(np.minimum(dt, rem), 0.0, None)
        nxt = _phi_vec(a[ss], g[ss], step, xs)
        if with_noise:
            var = _var_vec(b[ss], g[ss], step)
            nxt = nxt + np.sqrt(var) * rng.standard_normal(size)
        active = rem > 0.0
        xs = np.where(active, nxt, xs)
        ss = np.where(active & (dt < rem), 1 - ss, ss)
        rem = rem - dt
    return xs, ss


def _run_chunks(n, seed, purpose, worker):
    """Run `worker(size, rng)` over fixed-size chunks, assembled in order."""
    sizes = [CHUNK] * (n // CHUNK)
    if n % CHUNK:
        sizes.append(n % CHUNK)
    jobs = [(i, sz) for i, sz in enumerate(sizes)]

    def run(job):
        i, sz = job
        return worker(sz, stream(seed, purpose, replicate=i))

    workers = _n_workers()
    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(j) for j in jobs]
    return results


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
    if x == y:
        raise ParameterError("first passage requires x != y")
    parts = _run_chunks(
        n, seed, purpose, lambda sz, rng: _fpt_chunk(model, x, y, initial_state, sz, rng, caps)
    )
    times = np.concatenate([p[0] for p in parts])
    censored = np.concatenate([p[1] for p in parts])
    reason = np.concatenate([p[2] for p in parts])
    return FptSampleBatch(times, censored, reason)


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
    with_noise) at time t; initial_state may be 0, 1 or "stationary"."""
    parts = _run_chunks(
        n,
        seed,
        purpose,
        lambda sz, rng: _terminal_chunk(model, x0, t, sz, rng, with_noise, initial_state),
    )
    values = np.concatenate([p[0] for p in parts])
    states = np.concatenate([p[1] for p in parts])
    return TerminalSample(values, states)


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
    return McEstimate(mean, stderr, n)
