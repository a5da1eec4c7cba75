"""Scaled parameter families, their limiting SDE coefficients, and Monte
Carlo convergence measurements.

The scaled families fix lambda0 = nu*n, lambda1 = n and give any scaled pair
(velocities, drift levels, or reversion rates) the form

    u0(n) = s0 * sigma0 * sqrt(nu*n) + delta,
    u1(n) = s1 * (sigma0/sqrt(nu)) * sqrt(n) + delta,

with opposite signs s0 = -s1.  Deriving sigma1 = sigma0/sqrt(nu) makes the
rate ratio and the weighted-drift identity hold exactly at every n, not just
in the limit, so convergence tables measure process-level convergence only.

One table, SCALED_PAIRS, names the pairs each kind scales; the spec's
required fields, the scaled model, the limiting SDE and the CLI's config keys
all read it.  A telegraph integral is a scaled drift on a base with no
reversion and no noise.

Every limit is an Ornstein-Uhlenbeck process, Gaussian or with
multiplicative noise; limit_moments gives the mean and variance of each by
one linear moment system.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DoubleRangeError, ParameterError
from .model import KacOuModel, StateCoeffs, SwitchRates, _finite, _time, _whole, stationary_state_dist
from .simulate import _one_step, check_work, terminal_values

__all__ = [
    "ScalingKind",
    "ScaledPair",
    "ScalingSpec",
    "SCALED_PAIRS",
    "TelegraphParams",
    "LimitSde",
    "ConvergenceRow",
    "sigma_combine",
    "stratonovich_adjusted",
    "scaled_model",
    "limiting_sde",
    "limit_moments",
    "convergence_check",
]


# kept for bench/montecarlo.py's isinstance test; scaled_model returns a KacOuModel for every kind
@dataclass(frozen=True)
class TelegraphParams:
    """Velocities and switching rates of a two-speed telegraph integral."""

    c0: float
    c1: float
    rates: SwitchRates


class ScalingKind(enum.Enum):
    FAST_SWITCHING = "FastSwitching"
    KAC_CLASSIC = "KacClassic"
    KAC_ASYMMETRIC = "KacAsymmetric"
    CASE_A = "CaseA"
    CASE_B = "CaseB"
    CASE_C = "CaseC"


_VELOCITY = ("velocity", "a", 1.0)
_TELEGRAPH_BASE = (StateCoeffs(0.0, 0.0, 0.0),) * 2

# kind -> (spec field, model coefficient, sign s0 of the state-0 amplitude) per
# scaled pair; the telegraph kinds scale the velocity pair on _TELEGRAPH_BASE
SCALED_PAIRS = {
    ScalingKind.FAST_SWITCHING: (),
    ScalingKind.KAC_CLASSIC: (_VELOCITY,),
    ScalingKind.KAC_ASYMMETRIC: (_VELOCITY,),
    ScalingKind.CASE_A: (("drift", "a", -1.0),),
    ScalingKind.CASE_B: (("reversion", "gamma", -1.0),),
    ScalingKind.CASE_C: (("drift", "a", -1.0), ("reversion", "gamma", -1.0)),
}


@dataclass(frozen=True)
class ScaledPair:
    """Free parameters of one scaled quantity: amplitude for state 0 and the
    limiting weighted drift.  The state-1 amplitude is sigma0/sqrt(nu)."""

    sigma0: float
    delta: float

    def __post_init__(self):
        _finite(self.sigma0, "sigma0", positive=True)
        _finite(self.delta, "delta")


@dataclass(frozen=True)
class ScalingSpec:
    """The kind's SCALED_PAIRS on a base model (unused by telegraph kinds)."""

    kind: ScalingKind
    nu: float
    base: KacOuModel | None = None
    velocity: ScaledPair | None = None
    drift: ScaledPair | None = None
    reversion: ScaledPair | None = None

    def __post_init__(self):
        _finite(self.nu, "nu", positive=True)
        needs = [name for name, _, _ in SCALED_PAIRS[self.kind]]
        if _VELOCITY not in SCALED_PAIRS[self.kind]:
            needs.insert(0, "base")
        for field_name in needs:
            if getattr(self, field_name) is None:
                raise ParameterError(f"{self.kind.value} spec requires '{field_name}'")
        if self.kind is ScalingKind.KAC_CLASSIC:
            if self.nu != 1.0 or self.velocity.delta != 0.0:
                raise ParameterError("classic Kac scaling means nu = 1 and delta = 0")

    @property
    def coeffs(self) -> tuple[StateCoeffs, StateCoeffs]:
        """The coefficients the scaled pairs replace."""
        return _TELEGRAPH_BASE if _VELOCITY in SCALED_PAIRS[self.kind] else self.base.coeffs

    def sigma1_of(self, pair: ScaledPair) -> float:
        return pair.sigma0 / math.sqrt(self.nu)


@dataclass(frozen=True)
class LimitSde:
    """dM = (drift_const - drift_lin*M) dt
    + (noise_offset - multiplicative_noise*M) dW~ + additive_noise dW."""

    drift_const: float
    drift_lin: float
    additive_noise: float
    multiplicative_noise: float
    noise_offset: float = 0.0

    def __post_init__(self):
        _finite(self.additive_noise, "additive_noise", least=0.0)
        _finite(self.multiplicative_noise, "multiplicative_noise", least=0.0)


def sigma_combine(sigma0: float, sigma1: float) -> float:
    """Effective Brownian amplitude sigma0*sigma1 / sqrt((sigma0^2+sigma1^2)/2).

    The amplitudes are first divided by the larger one, so no product or
    square leaves double range."""
    sigma0, sigma1 = _finite(sigma0, "sigma0", positive=True), _finite(sigma1, "sigma1", positive=True)
    big = max(sigma0, sigma1)
    r0, r1 = sigma0 / big, sigma1 / big
    return big * (r0 * r1 / math.sqrt(0.5 * (r0 * r0 + r1 * r1)))


def scaled_model(spec: ScalingSpec, n: float) -> KacOuModel:
    """The model at scale index n: each scaled pair sets its coefficient to
    (u0(n), u1(n)); every other coefficient is the base's."""
    n = _finite(n, "n", least=1.0)
    coeffs = spec.coeffs
    for field_name, name, s0 in SCALED_PAIRS[spec.kind]:
        pair = getattr(spec, field_name)
        u0 = s0 * pair.sigma0 * math.sqrt(spec.nu * n) + pair.delta
        u1 = -s0 * spec.sigma1_of(pair) * math.sqrt(n) + pair.delta
        coeffs = (replace(coeffs[0], **{name: u0}), replace(coeffs[1], **{name: u1}))
    return KacOuModel(rates=SwitchRates(spec.nu * n, n), coeffs=coeffs)


def limiting_sde(spec: ScalingSpec) -> LimitSde:
    """Coefficients of the limiting SDE: the base's pi**-weighted ones, with
    a scaled pair's delta in place of its own, and noise sigma_combine(sigma0,
    sigma1) per scaled pair (for the telegraph kinds, a drifted Brownian motion)."""
    p = stationary_state_dist(SwitchRates(spec.nu, 1.0))
    c0, c1 = spec.coeffs
    limit = {name: p[0] * getattr(c0, name) + p[1] * getattr(c1, name) for name in ("a", "b", "gamma")}
    sigma = {"a": 0.0}
    for field_name, name, _ in SCALED_PAIRS[spec.kind]:
        pair = getattr(spec, field_name)
        limit[name] = pair.delta
        sigma[name] = sigma_combine(pair.sigma0, spec.sigma1_of(pair))
    if "gamma" in sigma:  # a scaled drift's noise shares the reversion's chain
        return LimitSde(limit["a"], limit["gamma"], limit["b"], sigma["gamma"], sigma["a"])
    # the scaled-drift noise and the frozen diffusion ride independent
    # Wiener processes, so their amplitudes add in quadrature
    return LimitSde(limit["a"], limit["gamma"], math.hypot(sigma["a"], limit["b"]), 0.0)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring a degree-18 Taylor polynomial (Moler &
    Van Loan, SIAM Review 45, 2003); the scaled 1-norm is below 1, so the
    truncated tail is below 1e-17."""
    squarings = max(0, math.frexp(float(np.abs(a).sum(axis=0).max()))[1])
    scaled = np.ldexp(a, -squarings)
    result = term = np.eye(len(a))
    for k in range(1, 19):
        term = term @ scaled / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def limit_moments(limit: LimitSde, t: float, x0: float):
    """(mean, variance) of the limit SDE at time t.

    With c = drift_const, l = drift_lin, sg = multiplicative_noise and
    off = noise_offset, the mean m, its square m^2 and the variance v obey
    the linear equations m' = c - l m, (m^2)' = 2 c m - 2 l m^2 and
    v' = sg^2 m^2 - 2 sg off m + (sg^2 - 2 l) v + d with d = off^2 +
    additive_noise^2, so (m, m^2, v, 1)(t) = exp(t G) (x0, x0^2, 0, 1).  x0^2
    reaches v only through sg^2, so a Gaussian limit (sg = 0) is fed 0 there
    and keeps finite moments from any finite x0."""
    t = _time(t, finite=False)  # past double range the moments raise DoubleRangeError
    if t == 0.0:
        return x0, 0.0
    c, l, sg, off = limit.drift_const, limit.drift_lin, limit.multiplicative_noise, limit.noise_offset
    d = off * off + limit.additive_noise * limit.additive_noise
    if x0 == 0.0 and c == 0.0 and d == 0.0:  # homogeneous from 0: 0, even where exp(t G) overflows
        return 0.0, 0.0
    gen = np.array([
        [-l, 0.0, 0.0, c],
        [2.0 * c, -2.0 * l, 0.0, 0.0],
        [-2.0 * sg * off, sg * sg, sg * sg - 2.0 * l, d],
        [0.0, 0.0, 0.0, 0.0],
    ])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        tg = gen * t
        if np.isfinite(tg).all():
            m, _, v, _ = _expm(tg) @ np.array([x0, x0 * x0 if sg else 0.0, 0.0, 1.0])
            if math.isfinite(m) and math.isfinite(v):
                return float(m), float(v)
    raise DoubleRangeError(f"the limit's moments are out of double range at t = {t}")


def stratonovich_adjusted(limit: LimitSde) -> LimitSde:
    """Drift-corrected coefficients for comparing simulations against a
    multiplicative-noise limit.

    The scaled switching process is a smooth (colored-noise) approximation,
    so its weak limit solves the displayed SDE in the Stratonovich sense;
    converting to Ito shifts the drift by half the noise derivative times
    the noise.  Additive-noise limits are unchanged.
    """
    if limit.multiplicative_noise == 0.0:
        return limit
    sg = limit.multiplicative_noise
    return LimitSde(
        limit.drift_const - 0.5 * sg * limit.noise_offset,
        limit.drift_lin - 0.5 * sg * sg,
        limit.additive_noise,
        sg,
        limit.noise_offset,
    )


@dataclass(frozen=True)
class ConvergenceRow:
    n: float
    emp_mean: float
    emp_var: float
    limit_mean: float
    limit_var: float
    mean_gap: float
    var_gap: float
    mean_stderr: float
    var_stderr: float
    cdf_dist: float | None


def _require_finite(what: str, mean: float, var: float, *stderrs: float) -> None:
    """Rows are written only where every moment is a double."""
    if not all(map(math.isfinite, (mean, var, *stderrs))):
        raise DoubleRangeError(f"{what} is out of double range: mean {mean}, variance {var}")


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    erf = np.fromiter(map(math.erf, (z / math.sqrt(2.0)).tolist()), dtype=float, count=z.size)
    return 0.5 * (1.0 + erf)


def _ks_distance(values: np.ndarray, mu: float, sd: float) -> float:
    xs = np.sort(values)
    n = xs.size
    cdf = _normal_cdf((xs - mu) / sd)
    lo = np.max(cdf - np.arange(n) / n)
    hi = np.max(np.arange(1, n + 1) / n - cdf)
    return float(max(lo, hi))


def convergence_check(
    spec: ScalingSpec,
    t: float,
    n_list,
    n_paths: int,
    seed: int,
    x0: float = 0.0,
) -> list[ConvergenceRow]:
    """Simulate the scaled process at each n and compare terminal moments
    (and, for Gaussian limits, the whole CDF) against the limiting law.

    The chain starts in its stationary distribution, which makes the
    weighted-drift identity hold exactly at every finite n.
    """
    t = _time(t)  # a ParameterError before the limit's moments see t
    n_list = list(n_list)
    if sorted(n_list) != n_list:
        raise ParameterError("n_list must be increasing")
    n_paths = _whole(n_paths, "n_paths", least=2)  # a sample variance needs two draws
    models, work = [scaled_model(spec, n) for n in n_list], 0.0
    for model in models:  # the work rule sees every n's draw before the first
        work = work if _one_step(model, t) else check_work(model.rates, t, n_paths, spent=work)

    limit = limiting_sde(spec)
    gaussian = limit.multiplicative_noise == 0.0
    limit_mean, limit_var = limit_moments(stratonovich_adjusted(limit), t, x0)
    _require_finite(f"the limit at t = {t}", limit_mean, limit_var)

    rows = []
    for n, model in zip(n_list, models):
        v = terminal_values(
            model, x0, t, n_paths, seed,
            with_noise=bool(np.any(model.b_vec > 0.0)), initial_state="stationary", purpose=f"scaling-n{n}",
        ).values
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            emp_mean = float(np.mean(v))
            emp_var = float(np.var(v, ddof=1))
            mean_se = math.sqrt(emp_var) / math.sqrt(n_paths)
            centered = v - emp_mean
            m2 = float(np.mean(centered**2))
            m4 = float(np.mean(centered**4))
        var_se = math.sqrt(max(m4 - m2 * m2, 0.0) / n_paths)
        _require_finite(f"the sample at n = {n}", emp_mean, emp_var, mean_se, var_se)
        cdf = None
        if gaussian and limit_var > 0.0:  # a zero-variance limit is a point mass
            cdf = _ks_distance(v, limit_mean, math.sqrt(limit_var))
        rows.append(
            ConvergenceRow(
                n=n,
                emp_mean=emp_mean,
                emp_var=emp_var,
                limit_mean=limit_mean,
                limit_var=limit_var,
                mean_gap=abs(emp_mean - limit_mean),
                var_gap=abs(emp_var - limit_var),
                mean_stderr=mean_se,
                var_stderr=var_se,
                cdf_dist=cdf,
            )
        )
    return rows
