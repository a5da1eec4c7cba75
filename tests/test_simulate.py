import math
import time
import tracemalloc
import warnings
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import betainc
from scipy.stats import ks_2samp, kstwo, poisson

import kacou.scaling
import kacou.simulate
from kacou.errors import DoubleRangeError, ParameterError, WorkLimitError
from kacou.first_passage import FptQuery, laplace_fpt
from kacou.invariant import empirical_invariant_profile
from kacou.model import (
    _SERIES_GT,
    KacOuModel,
    SwitchRates,
    hitting_time,
    interval_variance,
    pattern_map,
    pattern_phi,
    stationary_state_dist,
)
from kacou.rng import stream
from kacou.scaling import ScaledPair, ScalingKind, ScalingSpec, convergence_check, scaled_model
from kacou.simulate import (
    CENSOR_HORIZON,
    CENSOR_SWITCH_CAP,
    CHUNK,
    FptSampleBatch,
    SimCaps,
    SwitchSequence,
    check_work,
    evaluate_x,
    fpt_samples,
    mc_laplace_fpt,
    sample_m_path,
    sample_switch_sequence,
    terminal_values,
)

ATTRACTING = KacOuModel.from_values(1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0)
NOISY = KacOuModel.from_values(1.0, 1.0, 0.0, 1.0, 0.6, 0.9, 1.0, 1.0)
DEGENERATE = KacOuModel.from_values(1.0, 1.0, 1.0, 2.0, 0.0, 0.0, 1.0, 2.0)


# --- reference for the conditional Gaussian law -------------------------------


@dataclass(frozen=True)
class PathSegment:
    t_start: float
    state: int
    x_start: float
    m_mean: float
    m_var: float


def _interval_var(b: float, gamma: float, dt: float) -> float:
    if b == 0.0 or dt == 0.0:
        return 0.0
    if gamma == 0.0:
        return b * b * dt
    e = math.exp(-2.0 * gamma * dt) if -2.0 * gamma * dt < 700.0 else math.inf
    return b * b * (1.0 - e) / (2.0 * gamma)


def path_segments(seq, x0: float, model: KacOuModel) -> list[PathSegment]:
    """Per-segment start data for the mean path and the conditional Gaussian law."""
    out = []
    x = x0
    s = seq.initial_state
    prev = 0.0
    v = 0.0
    for ts in seq.switch_times:
        out.append(PathSegment(prev, s, x, x, v))
        dt = ts - prev
        c = model.coeffs[s]
        decay2 = math.exp(-2.0 * c.gamma * dt) if -2.0 * c.gamma * dt < 700.0 else math.inf
        v = v * decay2 + _interval_var(c.b, c.gamma, dt)
        x = pattern_phi(s, dt, x, model)
        prev = ts
        s = 1 - s
    out.append(PathSegment(prev, s, x, x, v))
    return out


# --- references for the chunk kernels ----------------------------------------
#
# The Monte Carlo kernels as first written: every lane of a chunk advances
# until the slowest one is done, a normal is drawn per lane per segment, and
# hitting_time runs on every live lane in every round.  Without noise the
# library kernels must reproduce them bit for bit.


def reference_fpt_chunk(model, x, y, state, size, rng, caps):
    lam = model.lam_vec
    times = np.full(size, np.nan)
    censored = np.zeros(size, dtype=bool)
    reason = np.zeros(size, dtype=np.uint8)

    idx = np.arange(size)
    xs = np.full(size, float(x))
    ss = np.full(size, int(state), dtype=np.int64)
    ts = np.zeros(size)
    nsw = 0
    while idx.size:
        th = hitting_time(ss, xs, y, model)
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
        xs = pattern_phi(ss, dt, xs, model)
        ts = ts + dt
        ss = 1 - ss
        nsw += 1
        if nsw >= caps.max_switches:
            times[idx] = ts
            censored[idx] = True
            reason[idx] = CENSOR_SWITCH_CAP
            break
    return times, censored, reason


def reference_terminal_chunk(model, x0, t, size, rng, with_noise, initial_state):
    """Also returns, per lane, the segments it crossed (its switches plus one).
    Each round draws one holding time per live lane; a lane is done in the
    round whose holding time ends after t.  A stationary start spends the
    first draw of a lane that starts in state 1 without moving it."""
    lam = model.lam_vec
    if initial_state == "stationary":
        p0, _ = stationary_state_dist(model.rates)
        ss = np.where(rng.random(size) < p0, 0, 1).astype(np.int64)
    else:
        ss = np.full(size, int(initial_state), dtype=np.int64)
    idle = (ss == 1) if initial_state == "stationary" else np.zeros(size, dtype=bool)
    xs = np.full(size, float(x0))
    rem = np.full(size, float(t))
    segments = np.zeros(size, dtype=np.int64)
    live = np.ones(size, dtype=bool)
    while np.any(live):
        dt = np.zeros(size)
        dt[live] = rng.standard_exponential(np.count_nonzero(live)) / lam[ss[live]]
        dt[idle] = 0.0
        active = live & ~idle
        step = np.clip(np.minimum(dt, rem), 0.0, None)
        nxt = pattern_phi(ss, step, xs, model)
        if with_noise:
            nxt = nxt + np.sqrt(interval_variance(ss, step, model)) * rng.standard_normal(size)
        segments += active
        xs = np.where(active, nxt, xs)
        done = active & (dt > rem)
        ss = np.where(active & ~done, 1 - ss, ss)
        live &= ~done
        idle[:] = False
        rem = rem - dt
    return xs, ss, segments


# The terminal kernel with one state per lane, as it was before lanes were
# grouped by start state: every lane gathers its state's rate, variance terms
# and flow map.  With and without noise the library kernel must reproduce it
# bit for bit.


def per_lane_terminal_chunk(model, x0, t, size, rng, with_noise, initial_state):
    """Terminal draws for one chunk.  Each round draws one holding time per
    live lane and advances it; a lane whose holding time ends after t is
    written out and dropped.  A stationary start runs every lane from state
    0, and a lane that starts in state 1 gets a zero first holding time
    there.  With noise a lane carries the variance of
    its position given the switch path, V <- V f^2 + b^2 (1 - f^2) / (2 gamma)
    with f = exp(-gamma dt) the flow's own factor (V f^2 + b^2 dt (1 - gamma dt)
    in a state with |gamma| t < _SERIES_GT), and one normal per lane is drawn
    at the end."""
    lam = model.lam_vec
    if initial_state == "stationary":
        p0, _ = stationary_state_dist(model.rates)
        ss = np.where(rng.random(size) < p0, 0, 1).astype(np.int64)
    else:
        ss = np.full(size, int(initial_state), dtype=np.int64)
    values = np.full(size, float(x0))
    states = ss.copy()
    variance = np.zeros(size)
    g = model.gamma_vec
    lin = np.abs(g) * t < _SERIES_GT  # gamma = 0 included: b^2 dt exactly
    with np.errstate(over="ignore"):  # a level past double range is checked at the end
        b2 = model.b_vec * model.b_vec
        ou_var = np.where(lin, 0.0, b2 / (2.0 * np.where(lin, 1.0, g)))  # b^2 / (2 gamma)
    lin_var = lin_damp = None
    if lin.any():  # b^2 per unit time, and gamma b^2 where some such gamma is not 0
        lin_var = np.where(lin, b2, 0.0)
        if (g[lin] != 0.0).any():
            lin_damp = np.where(lin, g * b2, 0.0)
    repels = bool((g < 0.0).any())  # only then can the flow's factor overflow

    idx = np.arange(size) if t > 0.0 else np.arange(0)
    xs, ss, var = values[idx], ss[idx], variance[idx]
    first = None
    if initial_state == "stationary":
        first, ss = ss == 1, np.zeros_like(ss)
    rem = np.full(idx.size, float(t))
    while idx.size:
        dt = rng.standard_exponential(idx.size) / lam[ss]
        if first is not None:
            dt[first] = 0.0
            first = None
        step = np.minimum(dt, rem)
        base, shift, factor = pattern_map(ss, step, model)
        with np.errstate(invalid="ignore", over="ignore"):
            nxt = base + (xs - shift) * factor
            if with_noise:
                level = ou_var[ss]
                gap = var - level
                f2 = factor * factor
                var = level + gap * f2
                if lin_var is not None:
                    var += lin_var[ss] * step
                    if lin_damp is not None:
                        var -= lin_damp[ss] * step * step
                if repels:  # f^2 = inf on a lane at its level gives 0 * inf
                    still = np.isinf(f2) & (gap == 0.0)
                    var[still] = level[still]
            if repels:  # growth beyond double range
                grown = np.isinf(factor)
                if grown.any():
                    nxt[grown] = pattern_phi(ss[grown], step[grown], xs[grown], model)
        go = dt <= rem
        if not go.all():
            done = ~go
            out = idx[done]
            values[out] = nxt[done]
            states[out] = ss[done]
            variance[out] = var[done]
            idx, nxt, ss, rem, dt, var = idx[go], nxt[go], ss[go], rem[go], dt[go], var[go]
        xs = nxt
        ss = 1 - ss
        rem = rem - dt
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


def run_reference(n, seed, purpose, chunk):
    """`chunk(size, rng)` over the library's chunks and streams, concatenated."""
    parts = [chunk(min(CHUNK, n - lo), stream(seed, purpose, replicate=i)) for i, lo in enumerate(range(0, n, CHUNK))]
    return [np.concatenate(field) for field in zip(*parts)]


def exact_moments(model, x0, t, initial_state):
    """Mean and variance of the diffusion at t, from the linear equations of
    p_i = P(J_t = i), m_i = E[X_t; J_t = i] and s_i = E[X_t^2; J_t = i]."""
    lam, a, b, g = model.lam_vec, model.a_vec, model.b_vec, model.gamma_vec
    gen = np.zeros((6, 6))
    for i in (0, 1):
        j = 1 - i
        p, m, s = i, 2 + i, 4 + i
        gen[p, p] -= lam[i]
        gen[p, j] += lam[j]
        gen[m, m] -= lam[i] + g[i]
        gen[m, 2 + j] += lam[j]
        gen[m, p] += a[i]
        gen[s, s] -= lam[i] + 2.0 * g[i]
        gen[s, 4 + j] += lam[j]
        gen[s, m] += 2.0 * a[i]
        gen[s, p] += b[i] ** 2
    if initial_state == "stationary":
        probs = np.array(stationary_state_dist(model.rates))
    else:
        probs = np.eye(2)[initial_state]
    u = expm(gen * t) @ np.concatenate([probs, x0 * probs, x0 * x0 * probs])
    mean = u[2] + u[3]
    return mean, u[4] + u[5] - mean * mean


# --- switch sequences -------------------------------------------------------


def test_holding_time_mean():
    # long horizon keeps the truncation bias of the last (dropped) holding
    # time far below the Monte Carlo band
    rng = stream(1, "test-holding")
    gaps = []
    for _ in range(30):
        seq = sample_switch_sequence(SwitchRates(1.0, 1.0), 0, 1000.0, rng)
        gaps.extend(np.diff(np.concatenate([[0.0], seq.switch_times])))
    gaps = np.asarray(gaps)
    se = gaps.std(ddof=1) / math.sqrt(gaps.size)
    assert abs(gaps.mean() - 1.0) < 3.0 * se + 2e-3


def test_occupation_fraction_matches_stationary():
    rates = SwitchRates(2.0, 0.5)  # pi* = (0.2, 0.8)
    rng = stream(7, "test-occupation")
    horizon = 2000.0
    seq = sample_switch_sequence(rates, 0, horizon, rng)
    times = np.concatenate([[0.0], seq.switch_times, [horizon]])
    gaps = np.diff(times)
    occ0 = gaps[::2].sum() / horizon
    assert abs(occ0 - 0.2) < 0.02


def test_switch_sequence_determinism():
    a = sample_switch_sequence(SwitchRates(1.0, 2.0), 0, 30.0, stream(42, "p", 3))
    b = sample_switch_sequence(SwitchRates(1.0, 2.0), 0, 30.0, stream(42, "p", 3))
    assert np.array_equal(a.switch_times, b.switch_times)
    c = sample_switch_sequence(SwitchRates(1.0, 2.0), 0, 30.0, stream(42, "p", 4))
    assert not np.array_equal(a.switch_times, c.switch_times)


def _scalar_switch_times(rates, initial_state, horizon, rng):
    """Referee: one holding time a draw, summed as it is drawn."""
    times = []
    t, s = 0.0, initial_state
    while True:
        t += rng.standard_exponential() / rates.rate(s)
        if t >= horizon:
            return np.asarray(times, dtype=float)
        times.append(t)
        s = 1 - s


@pytest.mark.parametrize("l0, l1", [(1e-9, 1e-9), (1.0, 1.0), (0.8, 1.25), (3.0, 0.01), (1e6, 1e5), (1e300, 1e299)])
@pytest.mark.parametrize("initial_state", [0, 1])
def test_switch_sequence_matches_one_draw_at_a_time(l0, l1, initial_state):
    rates = SwitchRates(l0, l1)
    mean_gap = (1.0 / l0 + 1.0 / l1) / 2.0
    # the first switches on a long horizon give the horizons that end at, or
    # just past, a holding time's end, so that each count of switches is met
    first = _scalar_switch_times(rates, initial_state, 50.0 * mean_gap, stream(9, "blocks"))
    assert first.size > 5
    horizons = {
        0: 0.5 * first[0],
        1: 0.5 * (first[0] + first[1]),
        2: first[2],  # a tie: the holding time that ends on the horizon passes it
        5: np.nextafter(first[4], math.inf),
        None: 50.0 * mean_gap,
        "many": 1.2e5 * mean_gap,  # more than 1e5 switches: several blocks
    }
    for count, horizon in horizons.items():
        want = _scalar_switch_times(rates, initial_state, horizon, stream(9, "blocks"))
        seq = sample_switch_sequence(rates, initial_state, horizon, stream(9, "blocks"))
        if isinstance(count, int):
            assert want.size == count
        elif count == "many":
            assert want.size > 1e5
        assert seq.switch_times.tobytes() == want.tobytes()


# --- mean path ---------------------------------------------------------------


def test_evaluate_x_single_segment():
    seq = sample_switch_sequence(SwitchRates(0.01, 0.01), 1, 5.0, stream(5, "few-switches"))
    if seq.switch_times.size == 0 or seq.switch_times[0] > 2.0:
        assert evaluate_x(seq, 0.3, 2.0, ATTRACTING) == pattern_phi(1, 2.0, 0.3, ATTRACTING)


def test_evaluate_x_degenerate_formula():
    # with equal levels the path is rho + (x-rho) * exp(-integral of gamma)
    seq = sample_switch_sequence(SwitchRates(1.0, 1.0), 0, 10.0, stream(11, "deg"))
    t = 7.3
    times = np.concatenate([[0.0], seq.switch_times[seq.switch_times < t], [t]])
    gaps = np.diff(times)
    states = (seq.initial_state + np.arange(gaps.size)) % 2
    gammas = np.where(states == 0, 1.0, 2.0)
    big_gamma = float(np.sum(gammas * gaps))
    expected = 1.0 + (5.0 - 1.0) * math.exp(-big_gamma)
    assert evaluate_x(seq, 5.0, t, DEGENERATE) == pytest.approx(expected, rel=1e-12)


def test_evaluate_x_splice():
    seq = sample_switch_sequence(SwitchRates(2.0, 3.0), 0, 4.0, stream(3, "splice"))
    t = 3.7
    full = evaluate_x(seq, -0.4, t, ATTRACTING)
    assert full == pytest.approx(evaluate_x(seq, -0.4, t, ATTRACTING), abs=0.0)
    # exactness at a switch time: segment start equals evaluation there
    if seq.switch_times.size:
        ts = float(seq.switch_times[0])
        segs = path_segments(seq, -0.4, ATTRACTING)
        assert evaluate_x(seq, -0.4, ts, ATTRACTING) == segs[1].x_start


def test_evaluate_x_beyond_horizon_rejected():
    seq = sample_switch_sequence(SwitchRates(1.0, 1.0), 0, 1.0, stream(1, "h"))
    with pytest.raises(ParameterError):
        evaluate_x(seq, 0.0, 2.0, ATTRACTING)


def _composed_x(seq, x0, t, model):
    """Reference: flow each whole segment before t, then the partial one."""
    x, s, prev = x0, seq.initial_state, 0.0
    for ts in seq.switch_times:
        if ts >= t:
            break
        x = pattern_phi(s, ts - prev, x, model)
        s, prev = 1 - s, ts
    return pattern_phi(s, t - prev, x, model)


def test_evaluate_x_array_equals_segment_composition():
    seq = sample_switch_sequence(SwitchRates(2.0, 3.0), 1, 6.0, stream(21, "walk"))
    assert seq.switch_times.size > 3
    sw = seq.switch_times
    times = np.sort(np.concatenate([[0.0, sw[1], 0.5 * (sw[2] + sw[3]), seq.horizon], np.linspace(0.0, 6.0, 13)]))
    xs = evaluate_x(seq, -0.4, times, ATTRACTING)
    assert isinstance(xs, np.ndarray) and xs.shape == times.shape
    for t, x in zip(times, xs):
        assert x == _composed_x(seq, -0.4, float(t), ATTRACTING)
        assert evaluate_x(seq, -0.4, float(t), ATTRACTING) == x
    assert isinstance(evaluate_x(seq, -0.4, 1.0, ATTRACTING), float)


def test_walk_through_an_overflowing_repelling_factor_composes_the_flows():
    # state 0 repels from rho0 = 0 at gamma0 = -1 for 720 time units, so the
    # walk's factor e^720 overflows and the step goes through pattern_phi:
    # rho0 stays put, and rho0 + 1e-300 grows to about 5e12 in log magnitude
    model = KacOuModel.from_values(1e-3, 1.0, 0.0, 1.0, 0.0, 0.0, -1.0, 1.0)
    seq = SwitchSequence(0, np.array([720.0, 725.0]), 730.0)
    # (the walk of sample_m_path steps from each time to the next, so only
    # times at the switches keep its steps the reference's)
    times = np.array([0.0, 720.0, 725.0, 730.0])
    starts = np.array([0.0, 1e-300])
    want = np.array([[_composed_x(seq, x0, float(t), model) for x0 in starts] for t in times])
    assert np.isfinite(want).all() and want[1, 1] > 1e12
    for i, x0 in enumerate(starts):
        assert evaluate_x(seq, x0, times, model).tobytes() == want[:, i].tobytes()
    drawn = sample_m_path(seq, starts, times, model, stream(1, "overflow-walk"))
    assert drawn.tobytes() == want.tobytes()


def test_walk_keeps_a_path_at_inf_through_an_underflowing_attracting_factor():
    # state 0 repels from 0 and carries x = 1 to inf over 800 time units;
    # state 1 then attracts for 900, where its factor e^-900 underflows to
    # 0: the walk's affine step gave inf * 0 = nan, the flows keep inf
    model = KacOuModel.from_values(1, 1, 0, 0, 0, 0, -1, 1)
    seq = SwitchSequence(0, np.array([800.0, 1700.0]), 2000.0)
    want = _composed_x(seq, 1.0, 1800.0, model)
    assert want == math.inf
    assert evaluate_x(seq, 1.0, 1800.0, model) == want
    drawn = sample_m_path(seq, np.array([1.0, -1.0, 0.5]), np.array([1800.0]), model, stream(1, "x"))
    assert drawn.tolist() == [[want, -want, _composed_x(seq, 0.5, 1800.0, model)]]
    # a finite x takes the same step through pattern_phi: the factor 0
    # leaves the level, 0
    finite = SwitchSequence(1, np.array([900.0]), 950.0)
    assert evaluate_x(finite, 3.0, 950.0, model) == _composed_x(finite, 3.0, 950.0, model) == 0.0


def _scalar_m_path(seq, x0, eval_times, model, rng):
    """Referee: the path from x0, one pattern_phi and at most one normal an
    interval, the intervals ending at each switch up to the last time and at
    each time, switch first on a tie; the values at the times."""
    ends = sorted([(t, 0) for t in seq.switch_times if t <= eval_times[-1]] + [(t, 1) for t in eval_times])
    x, s, prev, out = x0, seq.initial_state, 0.0, []
    for t, is_time in ends:
        dt = t - prev
        x = pattern_phi(s, dt, x, model)
        var = interval_variance(s, dt, model)
        if dt > 0.0 and var > 0.0:
            x = x + math.sqrt(var) * rng.standard_normal()
        if is_time:
            out.append(x)
        else:
            s = 1 - s
        prev = t
    return out


# a: state 0 repels for 720 time units, so its factor e^720 overflows;
# b: state 0 repels 1 to inf over 800, then state 1's factor e^-900
#    underflows to 0 on a path at inf; it draws no normal (b = 0)
# c: state 0 holds a -0.0 path at -0.0 (a = -0.0, gamma = 0) and draws no
#    normal (b = 0); state 1 is noisy
EDGE_WALKS = {
    "overflowing-factor": (
        KacOuModel.from_values(1e-3, 1.0, 0.0, 1.0, 0.0, 0.3, -1.0, 1.0),
        SwitchSequence(0, np.array([720.0, 725.0]), 730.0),
        [0.0, 1e-300, -1e-300, 0.5],
    ),
    "path-at-inf": (
        KacOuModel.from_values(1, 1, 0, 0, 0, 0, -1, 1),
        SwitchSequence(0, np.array([800.0, 1700.0]), 2000.0),
        [1.0, -1.0, 0.5, -0.0],
    ),
    "signed-zero": (
        KacOuModel.from_values(1.0, 1.0, -0.0, 1.0, 0.0, 0.5, 0.0, 1.0),
        SwitchSequence(0, np.array([1.0, 1.5, 4.0]), 5.0),
        [-0.0, 0.0, 2.0],
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_WALKS))
def test_walk_edge_steps_match_a_scalar_walk_bitwise(name):
    model, seq, starts = EDGE_WALKS[name]
    sw = seq.switch_times
    # zero-length intervals: a repeated time, a time at a switch, and t = 0
    times = np.sort(np.concatenate([[0.0, 0.0, sw[0], sw[0], 0.5 * (sw[0] + sw[1]), seq.horizon], sw[1:]]))
    for x0 in starts:
        want = [_composed_x(seq, x0, float(t), model) for t in times]
        assert evaluate_x(seq, x0, times, model).tobytes() == np.array(want).tobytes()
        drawn = sample_m_path(seq, x0, times, model, stream(2, "edge"))
        assert drawn.tobytes() == np.array(_scalar_m_path(seq, x0, times, model, stream(2, "edge"))).tobytes()
    # an array of starts draws start by start, as separate calls would
    rng = stream(2, "edge-array")
    want = np.array([_scalar_m_path(seq, x0, times, model, rng) for x0 in starts]).T
    assert sample_m_path(seq, np.array(starts), times, model, stream(2, "edge-array")).tobytes() == want.tobytes()


def test_m_path_keeps_a_signed_zero_where_no_normal_is_drawn():
    model, seq, _ = EDGE_WALKS["signed-zero"]
    drawn = sample_m_path(seq, -0.0, [0.0, 0.0, 0.5, 1.0, 2.0], model, stream(3, "zero"))
    # state 0 neither moves -0.0 nor draws a normal; state 1 does both
    assert np.signbit(drawn[:4]).all() and (drawn[:4] == 0.0).all()
    assert drawn[4] != 0.0


def test_evaluate_x_array_rejects_unsorted_and_beyond_horizon():
    seq = sample_switch_sequence(SwitchRates(1.0, 1.0), 0, 5.0, stream(4, "s"))
    with pytest.raises(ParameterError):
        evaluate_x(seq, 0.0, np.array([2.0, 1.0]), ATTRACTING)
    with pytest.raises(ParameterError):
        evaluate_x(seq, 0.0, np.array([1.0, 5.5]), ATTRACTING)


def test_path_command_walks_each_segment_once(tmp_path, monkeypatch):
    import kacou.simulate
    from kacou.cli import main

    # each path takes its per-segment coefficients from the flow kernel in
    # whole-array calls, never one call per segment
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)

        return wrapper

    for name in ("pattern_map", "pattern_phi", "interval_variance"):
        monkeypatch.setattr(kacou.simulate, name, counted(getattr(kacou.simulate, name)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[model]\nlambda0 = 1\nlambda1 = 1\na0 = 0\na1 = 1\nb0 = 0.5\nb1 = 0.5\ngamma0 = 1\ngamma1 = 1\n"
        f"[run]\nseed = 5\nout_dir = {tmp_path / 'out'}\n"
        "[simulate]\nmode = path\nhorizon = 2000\nwith_noise = true\n"
    )
    assert main(["simulate", "--config", str(cfg)]) == 0
    lines = (tmp_path / "out" / "paths.csv").read_text().splitlines()[1:]
    states = [line.split(",")[2] for line in lines]
    switches = sum(a != b for a, b in zip(states, states[1:]))
    assert switches > 1000
    # evaluate_x: one map and one flow; sample_m_path: one variance and one map
    assert calls[0] <= 4


# --- diffusion path ----------------------------------------------------------


def test_m_path_zero_noise_equals_mean_path():
    seq = sample_switch_sequence(SwitchRates(1.0, 1.0), 0, 5.0, stream(9, "zn"))
    times = np.linspace(0.0, 5.0, 11)
    ms = sample_m_path(seq, 0.2, times, ATTRACTING, stream(9, "zn-noise"))
    xs = np.array([evaluate_x(seq, 0.2, float(t), ATTRACTING) for t in times])
    assert np.allclose(ms, xs, rtol=1e-12, atol=1e-12)


def test_m_path_frozen_state_matches_ou_variance():
    # no switches: classical OU transition at time t
    seq_empty = sample_switch_sequence(SwitchRates(1e-9, 1e-9), 0, 10.0, stream(2, "frozen"))
    assert seq_empty.switch_times.size == 0
    t, b, g = 2.0, 0.6, 1.0
    draws = np.array(
        [
            sample_m_path(seq_empty, 0.0, [t], NOISY, stream(1000 + i, "frozen-draw"))[0]
            for i in range(4000)
        ]
    )
    var_exact = b * b * (1.0 - math.exp(-2.0 * g * t)) / (2.0 * g)
    rel = abs(draws.var(ddof=1) - var_exact) / var_exact
    assert rel < 5.0 * math.sqrt(2.0 / draws.size)


def test_m_ensemble_mean_tracks_conditional_mean():
    seq = sample_switch_sequence(SwitchRates(1.0, 1.0), 1, 3.0, stream(21, "ens"))
    t = 2.5
    n = 20000
    # one call with n starts draws n independent paths on the one sequence
    draws = sample_m_path(seq, np.full(n, 0.1), [t], NOISY, stream(0, "ens-noise"))[0]
    x_t = evaluate_x(seq, 0.1, t, NOISY)
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - x_t) < 3.0 * se


def test_m_path_conditional_normality():
    seq = sample_switch_sequence(SwitchRates(1.0, 1.0), 0, 3.0, stream(33, "norm"))
    n = 100_000
    # n starts in one call draw what n calls of one start each would
    draws = sample_m_path(seq, np.zeros(n), [3.0], NOISY, stream(34, "norm-draws"))[0]
    segs = path_segments(seq, 0.0, NOISY)
    last = segs[-1]
    c = NOISY.coeffs[last.state]
    dt = 3.0 - last.t_start
    mean = pattern_phi(last.state, dt, last.m_mean, NOISY)
    var = last.m_var * math.exp(-2.0 * c.gamma * dt) + c.b**2 * (
        1.0 - math.exp(-2.0 * c.gamma * dt)
    ) / (2.0 * c.gamma)
    z = (draws - mean) / math.sqrt(var)
    skew = float(np.mean(z**3))
    kurt = float(np.mean(z**4) - 3.0)
    assert abs(np.mean(z)) < 5.0 / math.sqrt(n)
    assert abs(np.var(z, ddof=1) - 1.0) < 5.0 * math.sqrt(2.0 / n)
    assert abs(skew) < 5.0 * math.sqrt(6.0 / n)
    assert abs(kurt) < 5.0 * math.sqrt(24.0 / n)


def test_m_path_starts_draw_as_separate_calls():
    seq = sample_switch_sequence(SwitchRates(1.0, 1.0), 0, 3.0, stream(33, "norm"))
    times = np.linspace(0.0, 3.0, 7)
    starts = np.array([[0.1, -2.0, 3.0], [0.5, 1.0, 2.0]])
    rng = stream(5, "starts")
    one_each = np.stack([sample_m_path(seq, x, times, NOISY, rng) for x in starts.reshape(-1)], axis=-1)
    together = sample_m_path(seq, starts, times, NOISY, stream(5, "starts"))
    assert together.shape == (7, 2, 3)
    assert together.tobytes() == one_each.reshape(together.shape).tobytes()
    assert sample_m_path(seq, starts, [], NOISY, rng).shape == (0, 2, 3)
    noise_free = [sample_m_path(seq, x, times, ATTRACTING, rng) for x in starts.reshape(-1)]
    assert sample_m_path(seq, starts, times, ATTRACTING, rng).tobytes() == np.stack(noise_free, axis=-1).tobytes()
    with pytest.raises(ParameterError):
        sample_m_path(seq, np.array([0.0, math.nan]), times, NOISY, rng)


def _walked(x0, states, dts, model, rng):
    """sample_m_path's draws and walk over the given steps: the value after
    each step, in a row of shape x0.shape."""
    starts = np.asarray(x0, dtype=float)
    var = interval_variance(states, dts, model)
    drawn = np.flatnonzero((dts > 0.0) & (var > 0.0))
    noise = np.sqrt(var[drawn]) * rng.standard_normal(starts.shape + (drawn.size,))
    kicks = None
    if drawn.size:
        kicks = np.full((dts.size, starts.size), -0.0, dtype=object if starts.ndim == 0 else float)
        kicks[drawn] = noise.reshape(starts.size, drawn.size).T
        kicks = kicks[:, 0].tolist() if starts.ndim == 0 else kicks
    x = float(starts) if starts.ndim == 0 else starts.reshape(-1)
    return np.array(kacou.simulate._walk(x, states, dts, model, kicks)).reshape((-1,) + starts.shape)


def _unmerged_m_path(seq, x0, times, model, rng):
    """sample_m_path walking every switch up to the last time as a step of
    its own, and a time at a switch, or repeated, as a zero-length step
    after it."""
    sw = seq.switch_times[: np.searchsorted(seq.switch_times, times[-1], side="right")]
    ends = np.concatenate([sw, times])
    order = np.argsort(ends, kind="stable")
    at_switch = order < sw.size
    dts = np.diff(ends[order], prepend=0.0)
    states = (seq.initial_state + np.cumsum(at_switch) - at_switch) % 2
    return _walked(x0, states, dts, model, rng)[~at_switch]


MERGE_MODELS = {
    "noisy": NOISY,
    "noise-free": ATTRACTING,
    "slow-state": KacOuModel.from_values(5.0, 0.3, 0.5, -1.0, 0.3, 0.8, 2.0, 0.5),
    "telegraph": KacOuModel.from_values(2.0, 2.0, 1.0, -1.0, 0.4, 0.0, 0.0, 0.0),
    "far-level": KacOuModel.from_values(1.0, 2.0, 1e300, -1.0, 0.5, 0.2, 1.0, 3.0),
}


@pytest.mark.parametrize("name", sorted(MERGE_MODELS))
def test_m_path_walks_each_switch_once_bitwise_as_the_unmerged_walk(name):
    # a time at a switch was a zero-length step after it, the identity map
    # with a -0.0 kick; merged, each switch is walked once
    model = MERGE_MODELS[name]
    seq = sample_switch_sequence(model.rates, 1, 12.0, stream(8, f"merge-{name}"))
    sw = seq.switch_times
    assert sw.size > 4
    grid = np.linspace(0.0, 12.0, 25)
    for times in (
        np.unique(np.concatenate([grid, sw])),  # every switch, as path mode asks
        np.sort(np.concatenate([grid, sw[::3], sw[:2], [0.0, grid[5]]])),  # some switches, repeated times
        grid[3:9],  # no switch among the times
    ):
        for x0 in (0.3, np.array([[-2.0, 0.0], [-0.0, 1e8]])):
            got = sample_m_path(seq, x0, times, model, stream(9, "merge-noise"))
            want = _unmerged_m_path(seq, x0, times, model, stream(9, "merge-noise"))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _unique_m_path(seq, x0, times, model, rng):
    """sample_m_path with its ends and their inverse from np.unique(..., return_inverse=True)."""
    sw = seq.switch_times[: np.searchsorted(seq.switch_times, times[-1], side="right")]
    ends, at = np.unique(np.concatenate([sw, times]), return_inverse=True)
    dts = np.diff(ends, prepend=0.0)
    states = (seq.initial_state + np.searchsorted(sw, ends, side="left")) % 2
    return _walked(x0, states, dts, model, rng)[at[sw.size :]]


@pytest.mark.parametrize("name", sorted(MERGE_MODELS))
def test_m_path_merges_its_times_bitwise_as_np_unique(name):
    # the ends and their inverse come from a stable merge of the two sorted
    # runs; signed zeros, repeats and times at switches keep np.unique's walk
    model = MERGE_MODELS[name]
    seq = sample_switch_sequence(model.rates, 1, 12.0, stream(8, f"merge-{name}"))
    sw = seq.switch_times
    assert sw.size > 4
    grid = np.linspace(0.0, 12.0, 25)
    for times in (
        np.concatenate([[-0.0, 0.0], np.unique(np.concatenate([grid[1:], sw]))]),  # every switch
        np.concatenate([[-0.0, -0.0, 0.0], np.sort(np.concatenate([grid[1:], sw[::2], sw[:3], grid[4:7]]))]),
        np.concatenate([[0.0, -0.0], np.repeat(sw[:3], 3)]),  # only switches, each three times
        np.array([-0.0]),
        grid[3:9],  # no switch among the times
    ):
        for x0 in (0.3, -0.0, np.array([[-2.0, 0.0], [-0.0, 1e8]])):
            got = sample_m_path(seq, x0, times, model, stream(11, "unique-noise"))
            want = _unique_m_path(seq, x0, times, model, stream(11, "unique-noise"))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_m_path_rejects_unsorted_times():
    seq = sample_switch_sequence(SwitchRates(1.0, 1.0), 0, 5.0, stream(4, "s"))
    with pytest.raises(ParameterError):
        sample_m_path(seq, 0.0, [2.0, 1.0], NOISY, stream(4, "s2"))


# --- first passage -----------------------------------------------------------


def test_sample_fpt_single_segment_exact():
    # long first holding time forced by screening seeds: hit equals the
    # deterministic hitting time exactly
    target = hitting_time(1, 0.2, 0.8, ATTRACTING)
    found = False
    for seed in range(200):
        probe = stream(seed, "fpt", 0).standard_exponential()  # the draw fpt_samples will see
        if probe / ATTRACTING.rates.lambda1 > target:
            batch = fpt_samples(ATTRACTING, 0.2, 0.8, 1, 1, seed=seed)
            assert not batch.censored[0] and batch.times[0] == target
            found = True
            break
    assert found


@pytest.mark.parametrize("n", [0, -5])
def test_sample_counts_below_one_rejected(n):
    with pytest.raises(ParameterError):
        fpt_samples(ATTRACTING, 0.2, 0.8, 0, n, seed=1)
    with pytest.raises(ParameterError):
        terminal_values(ATTRACTING, 0.5, 1.0, n, seed=1)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
def test_switch_sequence_needs_finite_positive_horizon(horizon):
    # a non-finite horizon would never end the switch loop
    with pytest.raises(ParameterError):
        sample_switch_sequence(SwitchRates(1.0, 1.0), 0, horizon, stream(1, "h"))


@pytest.mark.parametrize("horizon", [math.nan, 0.0, -1.0])
def test_censoring_caps_must_be_positive(horizon):
    # a nan horizon would silently turn censoring off; inf is a valid cap
    with pytest.raises(ParameterError):
        SimCaps(horizon=horizon)
    with pytest.raises(ParameterError):
        SimCaps(max_switches=0)
    assert SimCaps(horizon=math.inf).horizon == math.inf


def test_lane_on_target_hits_at_once():
    # a lane that lands exactly on y hits there; a scalar query on y is an error
    lanes = hitting_time(np.array([0, 1]), np.array([0.8, 0.2]), 0.8, ATTRACTING)
    assert lanes[0] == 0.0 and lanes[1] == hitting_time(1, 0.2, 0.8, ATTRACTING)
    with pytest.raises(ParameterError):
        hitting_time(0, 0.8, 0.8, ATTRACTING)


def test_lane_one_subnormal_short_of_the_target_hits_at_once():
    # the hit time rounds to 0, which read as never: the lanes stepped past y
    model = KacOuModel.from_values(1, 1, 2, -3, 0, 0, 0, 1)
    for x, state in ((-5e-324, 0), (5e-324, 1)):
        batch = fpt_samples(model, x, 0.0, state, 2_000, 1)
        assert not batch.censored.any() and not batch.times.any()


def test_mc_estimate_counts_censored_paths():
    caps = SimCaps(horizon=0.5)
    est = mc_laplace_fpt(FptQuery(1.0, 0.2, 0.8, 0), ATTRACTING, 2_000, seed=3, caps=caps)
    batch = fpt_samples(ATTRACTING, 0.2, 0.8, 0, 2_000, seed=3, caps=caps)
    assert 0 < est.censored == int(batch.censored.sum())


def reference_laplace_estimate(batch, q):
    """mc_laplace_fpt's estimator as it stood before it was shared across q,
    the bitwise referee: (mean, stderr, censored) of exp(-q T) formed in
    place in the batch's times."""
    n = batch.times.size
    contrib = batch.times
    with np.errstate(invalid="ignore"):  # q = 0 at an infinite horizon
        contrib *= -q
    np.exp(contrib, out=contrib)
    contrib[batch.censored] = 0.0
    mean = contrib.sum() / n
    contrib -= mean
    contrib *= contrib
    stderr = float(np.sqrt(contrib.sum() / (n - 1)) / math.sqrt(n))
    return float(mean), stderr, int(np.count_nonzero(batch.censored))


@pytest.mark.parametrize(
    "caps",
    [SimCaps(), SimCaps(horizon=0.5), SimCaps(horizon=math.inf, max_switches=3)],
    ids=["default", "short-horizon", "infinite-horizon"],
)
@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 7.0])
def test_mc_laplace_fpt_matches_in_place_referee_bitwise(q, caps):
    got = mc_laplace_fpt(FptQuery(q, 0.2, 0.8, 0), ATTRACTING, 3_000, seed=21, caps=caps)
    want = reference_laplace_estimate(fpt_samples(ATTRACTING, 0.2, 0.8, 0, 3_000, seed=21, caps=caps), q)
    assert (got.mean, got.stderr, got.censored) == want


def test_mc_laplace_fpt_keeps_no_second_batch_sized_array(monkeypatch):
    # the estimate works in the batch's own times: beyond the batch, the
    # peak holds far less than one more array of n doubles
    n = 200_000
    batch = fpt_samples(ATTRACTING, 0.2, 0.8, 0, n, seed=5)
    want = reference_laplace_estimate(fpt_samples(ATTRACTING, 0.2, 0.8, 0, n, seed=5), 1.0)
    monkeypatch.setattr(kacou.simulate, "fpt_samples", lambda *args: batch)
    tracemalloc.start()
    try:
        got = mc_laplace_fpt(FptQuery(1.0, 0.2, 0.8, 0), ATTRACTING, n, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got.mean, got.stderr, got.censored) == want
    assert peak < 0.25 * 8 * n


def test_fpt_censoring_vanishes_in_attracting_regime():
    batch = fpt_samples(ATTRACTING, 0.2, 0.8, 0, 20_000, seed=13, caps=SimCaps(horizon=1e3))
    assert np.mean(batch.censored) <= 1e-3


def test_mc_laplace_fpt_matches_closed_form():
    q = FptQuery(1.0, 0.25, 0.75, 1)
    est = mc_laplace_fpt(q, ATTRACTING, 200_000, seed=99)
    closed = laplace_fpt(q, ATTRACTING)
    assert abs(est.mean - closed) <= max(3.0 * est.stderr, 1e-3)


def test_mc_laplace_q0_reports_defect():
    q = FptQuery(0.0, 0.2, 0.8, 0)
    est = mc_laplace_fpt(q, ATTRACTING, 5_000, seed=1)
    batch = fpt_samples(ATTRACTING, 0.2, 0.8, 0, 5_000, seed=1)
    assert est.mean == pytest.approx(1.0 - np.mean(batch.censored), abs=1e-12)


def test_mc_stderr_clt_scaling():
    q = FptQuery(1.0, 0.25, 0.75, 1)
    e1 = mc_laplace_fpt(q, ATTRACTING, 20_000, seed=5)
    e2 = mc_laplace_fpt(q, ATTRACTING, 40_000, seed=6)
    assert e2.stderr / e1.stderr == pytest.approx(1.0 / math.sqrt(2.0), rel=0.2)


def test_mc_laplace_requires_min_samples():
    with pytest.raises(ParameterError):
        mc_laplace_fpt(FptQuery(1.0, 0.2, 0.8, 0), ATTRACTING, 10, seed=0)


def test_trapping_interval_absorbs_paths():
    # once inside [rho0, rho1] the mean path never leaves
    sample = terminal_values(ATTRACTING, 0.5, 5.0, 1_000, seed=17, initial_state=0)
    assert np.all(sample.values >= 0.0) and np.all(sample.values <= 1.0)
    later = terminal_values(ATTRACTING, 0.5, 25.0, 1_000, seed=17, initial_state=0)
    assert np.all(later.values >= 0.0) and np.all(later.values <= 1.0)


def test_terminal_values_deterministic_by_seed():
    a = terminal_values(NOISY, 0.1, 2.0, 10_000, seed=9, with_noise=True)
    b = terminal_values(NOISY, 0.1, 2.0, 10_000, seed=9, with_noise=True)
    c = terminal_values(NOISY, 0.1, 2.0, 10_000, seed=10, with_noise=True)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


# --- chunk kernels against the references ---------------------------------------

REPELLING = KacOuModel.from_values(1.0, 0.7, 0.3, 1.0, 0.0, 0.0, 1.0, -0.8)
PURE_DRIFT = KacOuModel.from_values(1.3, 0.7, -0.5, 1.0, 0.0, 0.0, 0.0, 0.0)
NON_STRICT = KacOuModel.from_values(0.9, 1.1, 0.2, 1.5, 0.0, 0.0, 1.2, 0.0)
# rare switches and a fast pull to rho1 = 1: a lane in state 1 ends its
# holding time exactly on the level 1.0 (the flow factor underflows)
LANDS_ON_LEVEL = KacOuModel.from_values(0.05, 0.05, 0.0, 5.0, 0.0, 0.0, 1.0, 5.0)

KERNEL_MODELS = {
    "attracting": KacOuModel.from_values(1.0, 2.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.5),
    "repelling": REPELLING,
    "pure_drift": PURE_DRIFT,
    "non_strict": NON_STRICT,
}


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
@pytest.mark.parametrize("initial_state", [0, 1, "stationary"])
def test_terminal_values_match_reference_bitwise(name, initial_state):
    model = KERNEL_MODELS[name]
    n = CHUNK + 3_000  # a full chunk and a partial one
    for t in (0.0, 0.7, 6.0):
        got = terminal_values(model, 0.4, t, n, seed=5, initial_state=initial_state, purpose="ref")
        want = run_reference(
            n, 5, "ref", lambda sz, rng: reference_terminal_chunk(model, 0.4, t, sz, rng, False, initial_state)
        )
        assert np.array_equal(got.values, want[0], equal_nan=True)
        assert np.array_equal(got.states, want[1])


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
@pytest.mark.parametrize("x, y", [(0.2, 0.8), (0.8, 0.2), (0.4, -0.3), (0.1, 2.5)])
def test_fpt_samples_match_reference_bitwise(name, x, y):
    model = KERNEL_MODELS[name]
    # a short horizon and a low switch cap censor some lanes both ways
    caps = SimCaps(horizon=20.0, max_switches=40)
    for state in (0, 1):
        got = fpt_samples(model, x, y, state, 20_000, seed=11, caps=caps)
        want = run_reference(20_000, 11, "fpt", lambda sz, rng: reference_fpt_chunk(model, x, y, state, sz, rng, caps))
        _assert_same_batch(got, want)


def _assert_same_batch(got, want):
    assert np.array_equal(got.times, want[0], equal_nan=True)
    assert np.array_equal(got.censored, want[1])
    assert np.array_equal(got.reason, want[2])


POOL_CAPS = {
    "one_switch": SimCaps(max_switches=1),  # the pool empties on an odd round
    "two_switches": SimCaps(max_switches=2),
    "three_switches": SimCaps(max_switches=3),
    "short_horizon": SimCaps(horizon=0.3),  # censors most lanes
    "running": SimCaps(horizon=20.0, max_switches=40),  # chunks join a running pool
}


# levels 0 and 1, both repelling, with long holding times: a lane that starts
# between them grows past double range, to -inf in state 1 and to +inf in
# state 0, within a holding time of about 36, and takes 0.73 to reach 1e6
# or -1e6 the other way
REPELLING_TO_INFS = KacOuModel.from_values(0.05, 0.05, 0.0, -20.0, 0.0, 0.0, -20.0, -20.0)
# (model, x, y, start states) per case.  The attracting model's state 0 has
# its level 0 below the start 0.2 and the target 0.8, so no lane can cross
# in its first round, which is skipped; the lanes that reach -inf below y
# (or +inf above it) are away from y, and their rounds are skipped too
POOL_CASES = {
    "repelling": (REPELLING, 0.2, 0.8, (0, 1)),
    "non_strict": (NON_STRICT, 0.2, 0.8, (0, 1)),
    "attracting_from_the_far_level": (KERNEL_MODELS["attracting"], 0.2, 0.8, (0,)),
    "repelling_to_minus_inf": (REPELLING_TO_INFS, 0.5, 1e6, (0, 1)),
    "repelling_to_plus_inf": (REPELLING_TO_INFS, 0.5, -1e6, (0, 1)),
}


@given(
    rates=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
    a=st.floats(-3.0, 3.0),
    gamma=st.one_of(st.floats(-3.0, 3.0), st.floats(-1e-6, 1e-6)),
    x=st.floats(-4.0, 4.0),
    y=st.floats(-4.0, 4.0),
    k=st.one_of(st.integers(1, 70), st.sampled_from([127, 128, 129, 1000, 4097, 65536, 70_000])),
)
# a slow state (|gamma| / lambda below _SERIES_GT)
@example(rates=(1.0, 1.0), a=0.5, gamma=1e-7, x=0.2, y=0.8, k=70_000)
# (x - rho) / (y - rho) is subnormal, and underflows to 0 or overflows
@example(rates=(1.0, 1.0), a=0.0, gamma=-0.9, x=-5e-324, y=-0.75, k=70_000)
@example(rates=(1.0, 1.0), a=0.0, gamma=-0.9, x=5e-324, y=4.0, k=70_000)
@example(rates=(1.0, 1.0), a=0.0, gamma=0.9, x=1e300, y=1e-300, k=70_000)
# a start next to the target
@example(rates=(1.0, 1.0), a=1.0, gamma=1.0, x=0.5, y=0.5 + 1e-12, k=65_537)
@example(rates=(1.0, 1.0), a=1.0, gamma=0.0, x=0.5, y=0.75, k=1)
@settings(max_examples=60, deadline=None)
def test_hit_time_of_a_repeated_start_is_the_hit_time_of_one(rates, a, gamma, x, y, k):
    # fpt_samples gives every lane still at its start the hit time of a
    # one-entry array of x, so each entry of np.full(k, x) must have its bits
    assume(x != y)
    model = KacOuModel.from_values(*rates, a, 1.0, 0.0, 0.0, gamma, 1.0)
    one = hitting_time(0, np.array([x]), y, model)
    many = hitting_time(0, np.full(k, x), y, model)
    assert many.shape == (k,) and np.all(many.view(np.int64) == one.view(np.int64)[0])


@pytest.mark.parametrize("name", list(POOL_CASES))
@pytest.mark.parametrize("n", [1, CHUNK, 5 * CHUNK + 123])
@pytest.mark.parametrize("caps_name", sorted(POOL_CAPS))
def test_pooled_fpt_samples_match_per_chunk_reference_bitwise(name, n, caps_name, monkeypatch):
    # chunks share one pool of lanes, yet each keeps its own stream and its
    # own switch count: the draws match chunks run one at a time
    model, x, y, states = POOL_CASES[name]
    caps = POOL_CAPS[caps_name]
    flows, crossing_checks = [], [0]
    flow, hitting = kacou.simulate._flow, kacou.simulate.hitting_time

    def recorded_flow(s, dt, xs, out, model):
        factor = flow(s, dt, xs, out, model)
        flows.append(np.isinf(out).any())
        return factor

    def counted_hitting_time(*args):
        crossing_checks[0] += 1
        return hitting(*args)

    monkeypatch.setattr(kacou.simulate, "_flow", recorded_flow)
    monkeypatch.setattr(kacou.simulate, "hitting_time", counted_hitting_time)
    for state in states:
        got = fpt_samples(model, x, y, state, n, seed=13, caps=caps)
        want = run_reference(n, 13, "fpt", lambda sz, rng: reference_fpt_chunk(model, x, y, state, sz, rng, caps))
        _assert_same_batch(got, want)
        if caps_name == "short_horizon" and n > 1:
            assert np.mean(got.reason == CENSOR_HORIZON) > 0.5
    if name == "attracting_from_the_far_level" and caps_name == "one_switch":
        # the one round cannot cross, so it is skipped and every lane is
        # censored at its switch cap
        assert crossing_checks[0] == 0
        assert np.all(got.reason == CENSOR_SWITCH_CAP)
    if name.startswith("repelling_to") and n > 1 and caps_name != "short_horizon":
        assert any(flows)


def test_a_lane_left_on_y_without_a_hit_is_checked_next_round(monkeypatch):
    # a flow that leaves lanes exactly on y, with no hit, fails the next
    # round's start test: that round checks every lane not strictly on the
    # start side at both ends, which must be the lanes that the sign test of
    # (xs - y) (nxt - y) checked, and the lanes on y hit at once
    model, x, y, n = ATTRACTING, 0.2, 0.5, CHUNK + 500
    flow, phi, rounds_off_start = kacou.simulate._flow, pattern_phi, [0]

    def snap(out):
        # by value, so that the reference lands the same lanes on y
        out[(out > y - 1e-3) & (out < y)] = y

    def snapping_flow(s, dt, xs, out, model):
        on_start_side = xs < y
        factor = flow(s, dt, xs, out, model)
        snap(out)
        if not on_start_side.all():
            rounds_off_start[0] += 1
            sign_stays = np.sign(xs - y) * (out - y) > 0.0
            assert np.array_equal(sign_stays, on_start_side & (out < y))
        return factor

    def snapping_phi(*args):
        out = phi(*args)
        snap(out)
        return out

    monkeypatch.setattr(kacou.simulate, "_flow", snapping_flow)
    monkeypatch.setitem(globals(), "pattern_phi", snapping_phi)
    got = fpt_samples(model, x, y, 0, n, seed=4)
    want = run_reference(n, 4, "fpt", lambda sz, rng: reference_fpt_chunk(model, x, y, 0, sz, rng, SimCaps()))
    _assert_same_batch(got, want)
    assert rounds_off_start[0] > 0


def test_a_batch_keeps_one_censoring_record():
    batch = fpt_samples(ATTRACTING, 0.2, 0.8, 0, 5_000, seed=3, caps=SimCaps(horizon=2.0, max_switches=3))
    assert [f.name for f in fields(batch)] == ["times", "reason"]
    assert np.array_equal(batch.censored, batch.reason != 0)
    assert set(np.unique(batch.reason).tolist()) == {0, CENSOR_HORIZON, CENSOR_SWITCH_CAP}


class _CountingStream:
    """A chunk's stream that counts its holding-time draws, one per round."""

    def __init__(self, rng, rounds):
        self.rng, self.rounds = rng, rounds

    def standard_exponential(self, size):
        self.rounds[0] += 1
        return self.rng.standard_exponential(size)


def test_fpt_rounds_are_pooled_across_chunks(monkeypatch):
    calls = [0]
    original = kacou.simulate.pattern_phi

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(kacou.simulate, "pattern_phi", counted)
    model, n, caps = KERNEL_MODELS["attracting"], 8 * CHUNK, SimCaps()
    got = fpt_samples(model, 0.2, 0.5, 0, n, seed=17, caps=caps)
    rounds = [0]
    want = run_reference(
        n, 17, "fpt", lambda sz, rng: reference_fpt_chunk(model, 0.2, 0.5, 0, sz, _CountingStream(rng, rounds), caps)
    )
    _assert_same_batch(got, want)
    # one flow call per pooled round, which advances several chunks at once
    assert calls[0] < rounds[0]


def test_fpt_lane_landing_on_target_matches_reference():
    assert pattern_phi(1, 50.0, 0.2, LANDS_ON_LEVEL) == 1.0
    caps = SimCaps()
    got = fpt_samples(LANDS_ON_LEVEL, 0.2, 1.0, 1, 5_000, seed=3, caps=caps)
    want = run_reference(5_000, 3, "fpt", lambda sz, rng: reference_fpt_chunk(LANDS_ON_LEVEL, 0.2, 1.0, 1, sz, rng, caps))
    assert np.array_equal(got.times, want[0], equal_nan=True)
    assert np.array_equal(got.reason, want[2])
    # the level is reached only by landing on it, at the end of a holding time
    assert not got.censored.any()


def test_terminal_chunk_never_advances_a_finished_lane(monkeypatch):
    elements = [0]
    original = kacou.simulate.pattern_map

    def counted(state, t, model):
        elements[0] += np.size(t)
        return original(state, t, model)

    monkeypatch.setattr(kacou.simulate, "pattern_map", counted)
    model = KERNEL_MODELS["attracting"]
    terminal_values(model, 0.4, 3.0, 5_000, seed=8, initial_state="stationary", purpose="count")
    segments = run_reference(
        5_000, 8, "count", lambda sz, rng: reference_terminal_chunk(model, 0.4, 3.0, sz, rng, False, "stationary")
    )[2]
    # each lane is advanced once per segment it crosses before t, no more,
    # plus one zero-length step in state 0 if it starts in state 1
    assert elements[0] == int(segments.sum()) + _stationary_ones(model, 5_000, 8, "count")


def _stationary_ones(model, n, seed, purpose):
    """How many of n lanes a stationary start puts in state 1."""
    p0, _ = stationary_state_dist(model.rates)
    return int(run_reference(n, seed, purpose, lambda sz, rng: [~(rng.random(sz) < p0)])[0].sum())


class _DrawCountingStream:
    """A chunk's stream that counts its holding-time draws, lane by lane."""

    def __init__(self, rng, draws):
        self.rng, self.draws = rng, draws

    def standard_exponential(self, size=None, out=None):
        self.draws[0] += size if out is None else out.size
        return self.rng.standard_exponential(size, out=out)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("initial_state", [1, "stationary"])
def test_terminal_draws_no_holding_time_for_a_finished_lane(monkeypatch, initial_state):
    draws = [0]
    monkeypatch.setattr(kacou.simulate, "stream", lambda *args, **kw: _DrawCountingStream(stream(*args, **kw), draws))
    model, x0, t, _ = NOISY_CASES["attracting"]
    n = 2 * CHUNK + 500  # pooled chunks and a partial one
    terminal_values(model, x0, t, n, seed=8, with_noise=True, initial_state=initial_state, purpose="draws")
    # the normals come after the last holding time, so noise-free segments count
    segments = run_reference(
        n, 8, "draws", lambda sz, rng: reference_terminal_chunk(model, x0, t, sz, rng, False, initial_state)
    )[2]
    ones = _stationary_ones(model, n, 8, "draws") if initial_state == "stationary" else 0
    assert draws[0] == int(segments.sum()) + ones


CASE_B_SPEC = ScalingSpec(
    ScalingKind.CASE_B,
    nu=2.0,
    base=KacOuModel.from_values(1.0, 1.0, -0.2, 1.5, 0.8, 0.5, 1.0, 2.5),
    reversion=ScaledPair(0.4, 1.0),
)
CASE_B = scaled_model(CASE_B_SPEC, 100)
NOISY_CASES = {
    "attracting": (KacOuModel.from_values(0.7, 1.6, 0.0, 1.2, 0.6, 0.9, 1.0, 2.0), 0.3, 2.0, "stationary"),
    "non_strict": (KacOuModel.from_values(1.0, 1.5, 0.5, -0.8, 0.4, 0.7, 1.0, 0.0), 0.2, 1.5, 1),
    "repelling": (KacOuModel.from_values(1.0, 1.0, 0.0, 0.5, 0.5, 0.5, 1.0, -0.5), 0.1, 1.0, 0),
    "case_b": (CASE_B, 0.0, 1.0, "stationary"),
}


# a repelling, noise-free state 0 with its level at 0 that its lanes almost
# never leave: a lane that starts there at x0 = 0 and stays for t = 35.6
# overflows the flow's factor (20 t > 709.8) while it sits on the level,
# with variance 0
OVERFLOW_AT_LEVEL = KacOuModel.from_values(1e-7, 1e-6, 0.0, 0.5, 0.0, 0.5, -20.0, 1.0)
PER_LANE_CASES = {name: (model, x0, t) for name, (model, x0, t, _) in NOISY_CASES.items()}
PER_LANE_CASES.update(
    {
        "slow": (KacOuModel.from_values(1.0, 1.0, 0.5, 1.0, 0.6, 0.9, 1e-12, -1e-12), 0.3, 2.0),
        # gamma = 0 beside |gamma| t < _SERIES_GT: the variance takes b^2 dt
        # in one state and b^2 dt (1 - gamma dt) in the other
        "flat_beside_damped": (KacOuModel.from_values(1.0, 1.5, 0.3, -0.4, 0.6, 0.9, 0.0, 1e-7), 0.2, 2.0),
        "overflow_at_level": (OVERFLOW_AT_LEVEL, 0.0, 35.6),
    }
)


def _terminal_bits(draw):
    """The bytes of a terminal sample's values and states, or the message
    of the DoubleRangeError it raises."""
    try:
        values, states = draw()
    except DoubleRangeError as exc:
        return str(exc)
    return values.tobytes(), states.tobytes()


@pytest.mark.parametrize("name", sorted(PER_LANE_CASES))
@pytest.mark.parametrize("initial_state", [0, 1, "stationary"])
def test_noisy_terminal_values_match_per_lane_kernel_bitwise(name, initial_state):
    model, x0, t_end = PER_LANE_CASES[name]
    assert abs(model.coeffs[1].gamma) * t_end < _SERIES_GT or name != "flat_beside_damped"
    n = CHUNK + 3_000  # a full chunk and a partial one
    for t in (0.0, 1e-6, t_end):
        got = _terminal_bits(
            lambda: vars(
                terminal_values(model, x0, t, n, seed=6, with_noise=True, initial_state=initial_state, purpose="lanes")
            ).values()
        )
        want = _terminal_bits(
            lambda: run_reference(
                n, 6, "lanes", lambda sz, rng: per_lane_terminal_chunk(model, x0, t, sz, rng, True, initial_state)
            )
        )
        assert got == want
        if name == "overflow_at_level" and initial_state == 0:
            assert not isinstance(got, str)


@pytest.mark.parametrize("name", sorted(NOISY_CASES))
def test_noisy_terminal_values_match_exact_moments(name):
    model, x0, t, start = NOISY_CASES[name]
    n = 40_000
    v = terminal_values(model, x0, t, n, seed=21, with_noise=True, initial_state=start).values
    mean, var = exact_moments(model, x0, t, start)
    centered = v - v.mean()
    m4 = float(np.mean(centered**4))
    assert abs(v.mean() - mean) < 5.0 * math.sqrt(var / n)
    assert abs(v.var(ddof=1) - var) < 5.0 * math.sqrt((m4 - var * var) / n)


def test_noisy_terminal_values_match_per_segment_reference_in_law():
    model, x0, t, start = NOISY_CASES["attracting"]
    got = terminal_values(model, x0, t, 20_000, seed=4, with_noise=True, initial_state=start).values
    want = run_reference(
        20_000, 5, "terminal", lambda sz, rng: reference_terminal_chunk(model, x0, t, sz, rng, True, start)
    )[0]
    assert ks_2samp(got, want).pvalue > 1e-3


@pytest.mark.parametrize("g", [1e-310, 1e-17, 1e-12])
def test_noisy_terminal_draws_keep_their_noise_at_tiny_reversion(g):
    # the variance is b^2 t (1 + O(gamma t)) = 2; the level b^2 / (2 gamma)
    # overflows at g = 1e-310, and at 1e-17 the factor f^2 rounds to 1
    model = KacOuModel.from_values(1, 1, 0, 0, 1, 1, g, g)
    values = terminal_values(model, 0.3, 2.0, 20_000, seed=1, with_noise=True).values
    assert values.var(ddof=1) == pytest.approx(2.0, rel=0.05)


# rare switches and a fast push away from the level 0 in state 1, which has
# the noise: a lane that stays there leaves double range, mean and spread
ESCAPES = KacOuModel.from_values(0.01, 0.01, 0.0, 0.0, 0.0, 0.5, 1.0, -20.0)
# squared amplitudes that overflow, on an attracting and a repelling model
WIDE = KacOuModel.from_values(1.0, 1.0, 0.0, 1.0, 1e160, 1e160, 1.0, 1.0)
WIDE_REPELLING = KacOuModel.from_values(1.0, 1.0, 0.0, 0.0, 1e160, 1e160, 1.0, -1.0)


@pytest.mark.parametrize(
    "model, t, initial_state",
    [
        pytest.param(ESCAPES, 60.0, 0, id="0"),
        pytest.param(ESCAPES, 60.0, 1, id="1"),
        pytest.param(WIDE, 2.0, 0, id="squared-amplitude-overflows"),
        pytest.param(WIDE_REPELLING, 2.0, 0, id="squared-amplitude-overflows-repelling"),
    ],
)
def test_noisy_terminal_draws_past_double_range_raise(model, t, initial_state):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DoubleRangeError, match=rf"t = {t} from x0 = 0\.3, initial_state = {initial_state}"):
            terminal_values(model, 0.3, t, 2_000, seed=1, with_noise=True, initial_state=initial_state)
        # noise-free draws keep their +-inf lanes
        plain = terminal_values(model, 0.3, t, 2_000, seed=1, initial_state=initial_state).values
    assert np.isinf(plain).any() == (model is ESCAPES) and not np.isnan(plain).any()


def test_terminal_draws_where_a_level_is_past_double_range():
    # rho0 = a0 / gamma0 = inf made every draw nan where the flow reaches
    # about 1e300; holding times near 1e300 keep every lane in state 0
    m = KacOuModel.from_values(1e-300, 1.0, 1e300, 0.0, 0.0, 0.0, 1e-10, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = terminal_values(m, 0.0, 1.0, 10, seed=1)
        assert np.all(got.states == 0)
        assert np.all(got.values == pattern_phi(0, 1.0, 0.0, m))
        assert got.values[0] == pytest.approx(1e300 * -math.expm1(-1e-10) / 1e-10, rel=1e-14, abs=0.0)
        # where the flow itself leaves double range there is no draw
        with pytest.raises(DoubleRangeError, match="leaves double range"):
            terminal_values(m, 0.0, 1e9, 10, seed=1)


def test_first_passage_met_before_the_flow_leaves_double_range():
    # holding times near 1e300 carry state 0's flow past double range, but
    # on the way every lane meets y = 1e299, at t = 0.1
    m = KacOuModel.from_values(1e-300, 1.0, 1e300, 0.0, 0.0, 0.0, 1e-10, 1.0)
    got = fpt_samples(m, 0.0, 1e299, 0, 1000, seed=1)
    assert not got.censored.any()
    assert np.all(got.times == hitting_time(0, 0.0, 1e299, m))
    # a lane moving away from y flows, and past double range there is no draw
    with pytest.raises(DoubleRangeError, match="leaves double range"):
        fpt_samples(m, 0.0, -1e299, 0, 10, seed=1)


def test_first_passage_round_with_hits_and_flows_where_a_flow_leaves_double_range():
    # state 0's flow leaves double range after t = 1.8e3, its mean holding
    # time is 1e3, and it meets y at t = 1: in the first round the lanes whose
    # holding time outlasts that hit, and the few others flow on, into state
    # 1, which pulls them back toward 0, and meet y in a later state-0 round
    m = KacOuModel.from_values(1e-3, 1.0, 1e305, 0.0, 0.0, 0.0, 1e-10, 1.0)
    n, th = 20_000, hitting_time(0, 0.0, 1e305, m)
    got = fpt_samples(m, 0.0, 1e305, 0, n, seed=1)
    assert not got.censored.any()
    first = got.times == th
    assert np.all(got.times[~first] > th)
    # the first holding time outlasts th with probability e^-(lam0 th)
    p = math.exp(-1e-3 * th)
    assert abs(first.sum() - n * p) < 5.0 * math.sqrt(n * p * (1.0 - p))
    assert (~first).sum() > 0


# state 0 attracts so fast that its flow's factor underflows to 0 over most
# holding times, and state 1 repels as fast: a lane that state 1 carries to
# +inf then meets that factor of 0
INF_MEETS_ZERO = KacOuModel.from_values(1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1000.0, -1000.0)


def test_noise_free_lanes_at_inf_stay_there_through_an_attracting_state():
    # a lane at +inf times a factor of 0 is no nan
    assert pattern_phi(0, 1.0, math.inf, INF_MEETS_ZERO) == math.inf
    assert pattern_phi(0, 1.0, -math.inf, INF_MEETS_ZERO) == -math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sample = terminal_values(INF_MEETS_ZERO, 0.3, 5.0, 2_000, seed=1)
    assert not np.isnan(sample.values).any()
    assert ((sample.values == math.inf) & (sample.states == 0)).any()


# state 1 pushes lanes away from -1 faster than state 0 pulls them back, so
# many reach a target at +-1e300 within the default horizon
FAR_REACHING = KacOuModel.from_values(1.0, 1.0, 0.0, 3.0, 0.0, 0.0, 1.0, -3.0)
# a holding time in state 1 overflows to inf: a lane that gets there stays
NEVER_LEAVES_1 = KacOuModel.from_values(1.0, 5e-324, 0.0, 1.0, 0.5, 0.5, 1.0, 1.0)
# the same in a flat state 1 with no drift, where the flow over an infinite
# holding time is 0 * inf
NEVER_LEAVES_FLAT_1 = KacOuModel.from_values(1.0, 5e-324, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)


def _fpt_case(model, x, y):
    return (
        lambda: fpt_samples(model, x, y, 0, 4_000, seed=2),
        lambda: run_reference(4_000, 2, "fpt", lambda sz, rng: reference_fpt_chunk(model, x, y, 0, sz, rng, SimCaps())),
    )


WARNING_FREE_CASES = {
    # (nxt - y) * (xs - y) overflowed here
    "fpt_target_1e300": _fpt_case(FAR_REACHING, 0.3, 1e300),
    "fpt_target_-1e300": _fpt_case(FAR_REACHING, -2.0, -1e300),
    # draws / lambda1 overflowed here
    "fpt_lambda1_5e-324": _fpt_case(NEVER_LEAVES_1, 0.3, 0.8),
    "fpt_lambda1_5e-324_flat": _fpt_case(NEVER_LEAVES_FLAT_1, 0.3, 0.1),
    "terminal_lambda1_5e-324": (
        lambda: terminal_values(NEVER_LEAVES_1, 0.3, 4.0, 4_000, seed=2, with_noise=True),
        lambda: run_reference(
            4_000, 2, "terminal", lambda sz, rng: per_lane_terminal_chunk(NEVER_LEAVES_1, 0.3, 4.0, sz, rng, True, 0)
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(WARNING_FREE_CASES))
def test_kernels_raise_no_warning_at_extreme_inputs(name):
    draw, reference = WARNING_FREE_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = draw()
        got = [got.times, got.censored, got.reason] if isinstance(got, FptSampleBatch) else list(vars(got).values())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the references still warn
        want = reference()
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w, equal_nan=True)
    if name.startswith("fpt"):
        assert not got[1].all()  # lanes do reach the target
    else:
        assert (got[1] == 1).mean() > 0.9  # and stay in state 1


def test_noisy_terminal_lanes_on_a_repelling_level_stay_there():
    # state 0 repels from rho0 = x0 = 0 with b0 = 0: a lane that never leaves
    # it stays at 0 with variance 0, also over a holding time where the flow's
    # factor f is finite and f^2 overflows
    model = KacOuModel.from_values(1e-3, 1e-6, 0.0, 0.5, 0.0, 0.5, -20.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sample = terminal_values(model, 0.0, 35.6, 19_384, seed=6, with_noise=True, purpose="lanes")
    assert np.isfinite(sample.values).all()
    assert np.all(sample.values[sample.states == 0] == 0.0)


def test_stationary_start_at_time_zero_keeps_the_start():
    model = KacOuModel.from_values(1, 3, 0, 1, 0, 0, 1, 1)
    n = 100_000
    sample = terminal_values(model, 0.3, 0.0, n, seed=1, initial_state="stationary")
    assert np.all(sample.values == 0.3)
    # state 1 with probability lambda0 / (lambda0 + lambda1) = 0.25
    assert abs(sample.states.mean() - 0.25) < 5.0 * math.sqrt(0.25 * 0.75 / n)


def test_noise_free_model_with_noise_flag_matches_mean_path():
    # zero diffusion: the carried variance stays 0 and the normals add nothing
    a = terminal_values(ATTRACTING, 0.4, 2.0, 3_000, seed=2, with_noise=True)
    b = terminal_values(ATTRACTING, 0.4, 2.0, 3_000, seed=2)
    assert np.array_equal(a.values, b.values)


# --- inputs the samplers refuse ---------------------------------------------------


@pytest.mark.parametrize("t", [math.inf, math.nan, -1.0])
def test_terminal_values_needs_finite_nonnegative_time(t):
    # an infinite t would never end the round loop; nan or t < 0 would
    # return the start unchanged
    with pytest.raises(ParameterError):
        terminal_values(ATTRACTING, 0.5, t, 10, seed=1)
    # case (b) has a multiplicative limit, whose moment equations would run to t
    for spec in (ScalingSpec(ScalingKind.FAST_SWITCHING, nu=1.0, base=NOISY), CASE_B_SPEC):
        with pytest.raises(ParameterError):
            convergence_check(spec, t, [10], 100, seed=1)
    with pytest.raises(ParameterError):
        empirical_invariant_profile(ATTRACTING, 100, t, 10, seed=1)


@pytest.mark.parametrize("x0", [math.inf, math.nan])
def test_samplers_need_finite_start(x0):
    with pytest.raises(ParameterError):
        terminal_values(ATTRACTING, x0, 1.0, 10, seed=1)
    seq = sample_switch_sequence(SwitchRates(1.0, 1.0), 0, 5.0, stream(4, "s"))
    with pytest.raises(ParameterError):
        evaluate_x(seq, x0, 1.0, ATTRACTING)
    with pytest.raises(ParameterError):
        sample_m_path(seq, x0, [1.0], NOISY, stream(4, "s2"))


@pytest.mark.parametrize("x, y", [(math.nan, 0.8), (0.2, math.inf), (-math.inf, 0.8)])
def test_fpt_samples_need_finite_points(x, y):
    with pytest.raises(ParameterError):
        fpt_samples(ATTRACTING, x, y, 0, 10, seed=1)


@pytest.mark.parametrize("state", [2, -1, 0.5, "stationry"])
def test_samplers_need_a_known_initial_state(state):
    # an unknown state would index past the rate vector or fail in int(); the
    # first-passage sampler has no stationary start
    with pytest.raises(ParameterError, match="initial_state"):
        terminal_values(ATTRACTING, 0.5, 1.0, 10, seed=1, initial_state=state)
    with pytest.raises(ParameterError, match="initial_state"):
        fpt_samples(ATTRACTING, 0.2, 0.8, state, 10, seed=1)
    with pytest.raises(ParameterError, match="initial_state"):
        fpt_samples(ATTRACTING, 0.2, 0.8, "stationary", 10, seed=1)


def test_samplers_read_a_bool_initial_state_as_its_int():
    # True == 1 passed the state check, and the first round's flow read it
    # as a mask: each sampler failed to broadcast a (1, 2) map over its lanes
    m = KacOuModel.from_values(1, 1, 0, 1, 0.3, 0.2, 1, 2)
    for flag, state in ((True, 1), (False, 0)):
        got, want = fpt_samples(m, 0.2, 0.7, flag, 2000, 5), fpt_samples(m, 0.2, 0.7, state, 2000, 5)
        for name in ("times", "censored", "reason"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        got = terminal_values(m, 0.2, 2.0, 2000, 5, with_noise=True, initial_state=flag)
        want = terminal_values(m, 0.2, 2.0, 2000, 5, with_noise=True, initial_state=state)
        assert got.values.tobytes() == want.values.tobytes() and got.states.tobytes() == want.states.tobytes()
        estimate = mc_laplace_fpt(FptQuery(1.0, 0.25, 0.45, flag), m, 1000, 1)
        assert estimate == mc_laplace_fpt(FptQuery(1.0, 0.25, 0.45, state), m, 1000, 1)


@pytest.mark.parametrize(
    "start, state",
    [(1.0, 1), (np.float64(1.0), 1), (np.int64(1), 1), (0.0, 0), (np.float64(0.0), 0), (np.int64(0), 0)],
    ids=["float", "float64", "int64", "float-0", "float64-0", "int64-0"],
)
def test_samplers_read_a_whole_float_initial_state_as_its_int(start, state):
    # 1.0 == 1 passed the state check, and the pool then indexed its
    # per-state tuples with the float: a bare TypeError
    m = KacOuModel.from_values(1, 1, 0, 1, 0.3, 0.2, 1, 2)
    got, want = fpt_samples(m, 0.2, 0.7, start, 2000, 5), fpt_samples(m, 0.2, 0.7, state, 2000, 5)
    for name in ("times", "censored", "reason"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    telegraph = KacOuModel.from_values(1, 1, 1.5, -0.75, 0, 0, 0, 0)
    for model, noise in ((m, False), (m, True), (DEGENERATE, True), (telegraph, False)):
        got = terminal_values(model, 0.2, 2.0, 2000, 5, with_noise=noise, initial_state=start)
        want = terminal_values(model, 0.2, 2.0, 2000, 5, with_noise=noise, initial_state=state)
        assert got.values.tobytes() == want.values.tobytes() and got.states.tobytes() == want.states.tobytes()
    query = FptQuery(1.0, 0.25, 0.45, start)
    assert type(query.initial_state) is int and query.initial_state == state
    assert mc_laplace_fpt(query, m, 1000, 1) == mc_laplace_fpt(FptQuery(1.0, 0.25, 0.45, state), m, 1000, 1)
    got, want = (sample_switch_sequence(m.rates, s, 30.0, stream(2, "s")) for s in (start, state))
    assert type(got.initial_state) is int and got.switch_times.tobytes() == want.switch_times.tobytes()


@pytest.mark.parametrize(
    "state", [2, -1, 0.5, "x", None, math.nan, 1 + 0j, np.complex128(1), np.array([0, 1]), np.array([1])]
)
def test_every_sampler_refuses_a_start_state_other_than_0_or_1(state):
    # sample_switch_sequence checked nothing: a start of 2 or 0.5 drew its
    # first holding time at lambda1 while state_at(0) read 0
    with pytest.raises(ParameterError, match="initial_state"):
        sample_switch_sequence(SwitchRates(100.0, 0.01), state, 1.0, stream(1, "s"))
    with pytest.raises(ParameterError, match="initial_state"):
        FptQuery(1.0, 0.25, 0.45, state)
    with pytest.raises(ParameterError, match="initial_state"):
        fpt_samples(ATTRACTING, 0.2, 0.8, state, 10, seed=1)
    with pytest.raises(ParameterError, match="initial_state"):
        terminal_values(ATTRACTING, 0.5, 1.0, 10, seed=1, initial_state=state)


# --- equal-rate telegraph integrals -------------------------------------------------
#
# With gamma = b = 0 in both states and lambda0 == lambda1, terminal_values
# draws each lane from the exact law instead of walking its switches.  The
# referee is that law's CDF: the switch count N is Poisson(lambda t), the
# state-0 share f of [0, t] is Beta(k0, N + 1 - k0) given N (a point mass at
# 0 or 1 where one state holds all N + 1 intervals), and X_t = x0 + t (a1 +
# (a0 - a1) f).  The parameters put both point masses on exact doubles:
# x0 + t a1 = -1 and x0 + t a0 = 3.5.

TELEGRAPH_X0, TELEGRAPH_T = 0.5, 2.0
TELEGRAPH_A = (1.5, -0.75)


def _telegraph_model(lam):
    return KacOuModel.from_values(lam, lam, *TELEGRAPH_A, 0.0, 0.0, 0.0, 0.0)


def telegraph_cdf(lam, initial_state, xs):
    """P(X_t <= x) and P(X_t < x) at each x, for a start state of 0, 1 or
    "stationary" (each with probability 1/2 at equal rates)."""
    if initial_state == "stationary":
        parts = [telegraph_cdf(lam, s, xs) for s in (0, 1)]
        return tuple(0.5 * (p + q) for p, q in zip(*parts))
    a0, a1 = TELEGRAPH_A
    u = (np.asarray(xs) - TELEGRAPH_X0 - TELEGRAPH_T * a1) / (TELEGRAPH_T * (a0 - a1))
    mean = lam * TELEGRAPH_T
    at, below = np.zeros(u.size), np.zeros(u.size)
    for n_sw in range(int(mean + 20.0 * math.sqrt(mean)) + 30):  # the rest weighs below 1e-20
        w = poisson.pmf(n_sw, mean)
        k0 = (n_sw + 2 - initial_state) // 2
        k1 = n_sw + 1 - k0
        if k0 == 0 or k1 == 0:  # the point mass at f = 0 or f = 1
            edge = 0.0 if k0 == 0 else 1.0
            at += w * (u >= edge)
            below += w * (u > edge)
        else:
            part = betainc(k0, k1, np.clip(u, 0.0, 1.0))
            at += w * part
            below += w * part
    return at, below


def ks_pvalue_with_atoms(values, initial_state, lam):
    """Kolmogorov p-value of a sample against telegraph_cdf.  The distance is
    taken on both sides of each sample point, so point masses count exactly;
    the continuous law's p-value is then conservative."""
    xs, counts = np.unique(values, return_counts=True)
    upto = np.cumsum(counts) / values.size
    at, below = telegraph_cdf(lam, initial_state, xs)
    d = max(np.abs(upto - at).max(), np.abs(upto - counts / values.size - below).max())
    return kstwo.sf(d, values.size)


@pytest.mark.parametrize("lam", [1.5, 1e-3])  # lambda t = 3, and 2e-3 where N = 0 almost always
@pytest.mark.parametrize("initial_state", [0, 1, "stationary"])
def test_telegraph_draws_match_the_exact_law(lam, initial_state):
    model = _telegraph_model(lam)
    n = CHUNK + 3_000
    got = terminal_values(model, TELEGRAPH_X0, TELEGRAPH_T, n, seed=12, initial_state=initial_state, purpose="law")
    assert ks_pvalue_with_atoms(got.values, initial_state, lam) > 1e-3
    want = run_reference(
        n,
        13,
        "law",
        lambda sz, rng: reference_terminal_chunk(model, TELEGRAPH_X0, TELEGRAPH_T, sz, rng, False, initial_state),
    )
    assert ks_pvalue_with_atoms(want[0], initial_state, lam) > 1e-3
    assert ks_2samp(got.values, want[0]).pvalue > 1e-3
    for s in (0, 1):  # and jointly with the end state
        assert ks_2samp(got.values[got.states == s], want[0][want[1] == s]).pvalue > 1e-3
    if lam == 1e-3 and initial_state != "stationary":
        # a lane with no switch ends exactly at x0 + t a_start, in its start state
        at_start = got.values == (3.5 if initial_state == 0 else -1.0)
        assert at_start.mean() > 0.99 and np.all(got.states[at_start] == initial_state)


def test_telegraph_draws_skip_the_lane_pool(monkeypatch):
    # one step per lane: 1e8 switches a path would take the pool for ever
    def refuse(*args, **kwargs):
        raise AssertionError("walked the switches")

    monkeypatch.setattr(kacou.simulate, "_lane_pool", refuse)
    sample = terminal_values(_telegraph_model(1e8), 0.0, 1.0, 2 * CHUNK + 5, seed=3, initial_state="stationary")
    mean, var = exact_moments(_telegraph_model(1e8), 0.0, 1.0, "stationary")
    assert abs(sample.values.mean() - mean) < 5.0 * math.sqrt(var / sample.values.size)
    again = terminal_values(_telegraph_model(1e8), 0.0, 1.0, 2 * CHUNK + 5, seed=3, initial_state="stationary")
    assert sample.values.tobytes() == again.values.tobytes() and sample.states.tobytes() == again.states.tobytes()
    # each chunk keeps its own stream: the first chunk's lanes do not depend on n
    head = terminal_values(_telegraph_model(1e8), 0.0, 1.0, CHUNK, seed=3, initial_state="stationary")
    assert head.values.tobytes() == sample.values[:CHUNK].tobytes()


RUNAWAY_DRAWS = {
    # about 2e9 switches a lane, walked in the lane pool: it ground for hours
    "terminal": lambda: terminal_values(KacOuModel.from_values(1e9, 1e9, 0, 1, 0, 0, 1, 1), 0.2, 1.0, 10, 1),
    # about 1e300 switches: its blocks grew until the process was killed
    "sequence": lambda: sample_switch_sequence(SwitchRates(1e300, 1e300), 0, 1.0, stream(1, "runaway")),
    # 1e10 lane-segments, yet 1e9 rounds of the pool: hours
    "fpt": lambda: fpt_samples(
        KacOuModel.from_values(1e8, 1e8, 0, 1, 0, 0, 1, 1), 0.2, 5.0, 0, 10, 1, SimCaps(max_switches=10**9)
    ),
}


@pytest.mark.parametrize("name", sorted(RUNAWAY_DRAWS))
def test_runaway_draws_are_refused_up_front(name):
    assert issubclass(WorkLimitError, ParameterError)
    t0 = time.perf_counter()
    with pytest.raises(WorkLimitError, match=r"expects .* lane-segments.*past the bound 1e\+10"):
        RUNAWAY_DRAWS[name]()
    assert time.perf_counter() - t0 < 1.0


def test_a_few_lanes_at_fast_rates_are_refused():
    # 50 lanes at lambda0 = lambda1 = 1e8 and the default caps count
    # 1e7 (50 + 2,048) = 2.1e10 lane-segments: four to five minutes of rounds
    with pytest.raises(WorkLimitError, match=r"expects 2\.1e\+10 lane-segments"):
        check_work(SwitchRates(1e8, 1e8), 1e3, 50, 1e7)


def test_convergence_check_refuses_its_rows_together_before_its_first_draw(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("drew before the work rule saw every n")

    monkeypatch.setattr(kacou.scaling, "terminal_values", refuse)
    spec = ScalingSpec(ScalingKind.CASE_A, 2.0, base=NOISY, drift=ScaledPair(0.8, 0.4))
    # a row at n counts about 4n/3 rounds of 1,000 lanes and 2,048 more:
    # n = 1e9 alone passes the bound, and 2e6 and 2.2e6 only together
    for n_list in ([10, 1e9], [10, 2e6, 2.2e6]):
        with pytest.raises(WorkLimitError, match="each round of the lane pool counting at least 2048"):
            convergence_check(spec, 1.0, n_list, 1_000, seed=1)
    for n_list in ([10, 2e6], [10, 2.2e6]):
        with pytest.raises(AssertionError, match="drew before"):
            convergence_check(spec, 1.0, n_list, 1_000, seed=1)
    # the rounds count at the stationary rate 2/(1/lambda0 + 1/lambda1)
    assert SwitchRates(1e8, 1.0).expected_switches(10.0) == 2.0 / (1e-8 + 1.0) * 10.0


def test_telegraph_switch_count_past_the_poisson_sampler_raises():
    with pytest.raises(ParameterError, match="Poisson"):
        terminal_values(_telegraph_model(1e10), 0.0, 1e9, 10, seed=1)


def test_telegraph_draws_past_double_range_raise():
    model = KacOuModel.from_values(1.0, 1.0, 1e308, -1e308, 0.0, 0.0, 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # the mean velocity stays within +-1e308, so over t = 1 every draw is a double
        assert np.isfinite(terminal_values(model, 0.0, 1.0, 2_000, seed=1).values).all()
        with pytest.raises(DoubleRangeError, match=r"t = 3\.0 from x0 = 0\.0"):
            terminal_values(model, 0.0, 3.0, 2_000, seed=1)


def test_noisy_path_memory_stays_near_the_noise_free_path():
    # with the kicks kept in a dict by step the noisy peak was 1.59 times
    # the noise-free one; a list of slots takes about 1.23
    peaks = []
    for b in (0.0, 0.5):
        model = KacOuModel.from_values(1.0, 1.0, 0.0, 1.0, b, b, 1.0, 1.0)
        seq = sample_switch_sequence(model.rates, 0, 100.0, stream(1, "memory"))
        times = np.linspace(0.0, 100.0, 20_001)
        tracemalloc.start()
        try:
            sample_m_path(seq, 0.2, times, model, stream(2, "memory-noise"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.35 * peaks[0]
