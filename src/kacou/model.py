"""Model parameters, regime classification, deterministic flow patterns and
two-state Markov chain algebra.

A model is a pair of linear drift patterns ``dx/dt = a_i - gamma_i * x``
(one per chain state) together with the switching rates of the underlying
two-state Markov chain.  Everything downstream (first-passage transforms,
invariant densities, simulation, scaling limits) is driven by the eight
numbers stored in :class:`KacOuModel`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DoubleRangeError, ParameterError

__all__ = [
    "SwitchRates",
    "StateCoeffs",
    "KacOuModel",
    "RegimeTag",
    "Regime",
    "HyperParams",
    "classify_regime",
    "pattern_map",
    "pattern_phi",
    "hitting_time",
    "interval_variance",
    "transition_matrix",
    "stationary_state_dist",
    "hyper_args",
    "xi0",
    "xi1",
    "swap_states",
    "rescale",
]

# Relative tolerance for deciding a0/gamma0 == a1/gamma1 on user input.
RHO_EQUAL_RTOL = 1e-12

# Largest exponent fed to math.exp before we short-circuit to 0.
_EXP_MAX = 700.0

# Below this |gamma| t the level forms rho + (x - rho) exp(-gamma t) and
# b^2 (1 - f^2) / (2 gamma) lose about eps / (gamma t) to cancellation (all
# of it once exp(-gamma t) rounds to 1), and rho = a / gamma overflows for a
# subnormal gamma.  There a slow state's flow is a t phi(gamma t) +
# x exp(-gamma t) (see pattern_map), and a terminal draw's variance grows by
# the series b^2 dt (1 - gamma dt), within (2/3) (gamma t)^2 < 2e-11 of exact.
_SERIES_GT = 5e-6

# log of the smallest normal double: a ratio (x - rho) / (y - rho) whose log
# lies below this was rounded in the subnormal range, so hitting_time takes
# its log as a difference of logs instead.
_LOG_TINY = math.log(np.finfo(float).tiny)


@dataclass(frozen=True)
class SwitchRates:
    """Transition intensities of the two-state chain, both positive."""

    lambda0: float
    lambda1: float

    def __post_init__(self):
        if not (self.lambda0 > 0.0) or not math.isfinite(self.lambda0):
            raise ParameterError(f"lambda0 must be positive and finite, got {self.lambda0}")
        if not (self.lambda1 > 0.0) or not math.isfinite(self.lambda1):
            raise ParameterError(f"lambda1 must be positive and finite, got {self.lambda1}")

    def rate(self, state: int) -> float:
        return self.lambda0 if state == 0 else self.lambda1

    @property
    def total(self) -> float:
        """lambda0 + lambda1 (written 2*lambda in the closed forms)."""
        return self.lambda0 + self.lambda1


@dataclass(frozen=True)
class StateCoeffs:
    """Drift level, diffusion amplitude and reversion rate of one state."""

    a: float
    b: float
    gamma: float

    def __post_init__(self):
        if self.b < 0.0 or not math.isfinite(self.b):
            raise ParameterError(f"diffusion amplitude b must be >= 0, got {self.b}")
        for name in ("a", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def rho(self) -> float:
        """Attractor (or repeller) level a/gamma; requires gamma != 0."""
        if self.gamma == 0.0:
            raise ParameterError("rho undefined for gamma = 0")
        return self.a / self.gamma


@dataclass(frozen=True)
class KacOuModel:
    """Full parameter set: switching rates plus per-state coefficients."""

    rates: SwitchRates
    coeffs: tuple[StateCoeffs, StateCoeffs]

    @classmethod
    def from_values(cls, lambda0, lambda1, a0, a1, b0, b1, gamma0, gamma1) -> "KacOuModel":
        return cls(
            rates=SwitchRates(float(lambda0), float(lambda1)),
            coeffs=(
                StateCoeffs(float(a0), float(b0), float(gamma0)),
                StateCoeffs(float(a1), float(b1), float(gamma1)),
            ),
        )

    def coeff(self, state: int) -> StateCoeffs:
        return self.coeffs[state]

    @property
    def a_vec(self) -> np.ndarray:
        return np.array([self.coeffs[0].a, self.coeffs[1].a])

    @property
    def b_vec(self) -> np.ndarray:
        return np.array([self.coeffs[0].b, self.coeffs[1].b])

    @property
    def gamma_vec(self) -> np.ndarray:
        return np.array([self.coeffs[0].gamma, self.coeffs[1].gamma])

    @property
    def lam_vec(self) -> np.ndarray:
        return np.array([self.rates.lambda0, self.rates.lambda1])


def swap_states(model: KacOuModel) -> KacOuModel:
    """Relabel the chain states 0 <-> 1 (rates and coefficients swap)."""
    return KacOuModel(
        rates=SwitchRates(model.rates.lambda1, model.rates.lambda0),
        coeffs=(model.coeffs[1], model.coeffs[0]),
    )


def rescale(model: KacOuModel, scale: float) -> KacOuModel:
    """Change of variable x -> x / scale: drift levels are divided by scale and
    everything else is kept, so patterns and hitting times map exactly.
    scale = -1 is the reflection x -> -x."""
    return KacOuModel(
        rates=model.rates,
        coeffs=tuple(StateCoeffs(c.a / scale, c.b, c.gamma) for c in model.coeffs),
    )


class RegimeTag(enum.Enum):
    ATTRACTING_STRICT = "AttractingStrict"
    ATTRACTION_REPULSION_01 = "AttractionRepulsion01"
    ATTRACTION_REPULSION_10 = "AttractionRepulsion10"
    NON_STRICT_ATTRACTING = "NonStrictAttracting"
    REPULSION_ONLY = "RepulsionOnly"
    DEGENERATE_EQUAL_RHO = "DegenerateEqualRho"
    NULL_NON_STRICT = "NullNonStrict"
    # Leftover sign combinations (zero gamma paired with a repelling state, or
    # both gammas zero with a drift) that the main case analysis does not
    # name.  They admit no closed forms and no invariant measure here.
    NON_STRICT_REPELLING = "NonStrictRepelling"
    PURE_DRIFT = "PureDrift"


@dataclass(frozen=True)
class Regime:
    """Classification of the sign pattern of (gamma0, gamma1, a0, a1).

    ``zero_state`` is populated only for the non-strict tags: the index of
    the zero-gamma state.
    """

    tag: RegimeTag
    zero_state: int | None = None


def _rho_equal(c0: StateCoeffs, c1: StateCoeffs) -> bool:
    # a0/g0 == a1/g1 tested cross-multiplied; user input is compared, so the
    # intended case is exact equality up to quotient rounding.
    lhs = c0.a * c1.gamma
    rhs = c1.a * c0.gamma
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) <= RHO_EQUAL_RTOL * scale


def classify_regime(model: KacOuModel) -> Regime:
    """Assign the unique regime tag driving formula dispatch.

    Sign tests compare exactly with zero: the gammas are user-supplied
    constants, not computed quantities.
    """
    c0, c1 = model.coeffs
    g0, g1 = c0.gamma, c1.gamma

    if g0 != 0.0 and g1 != 0.0:
        if _rho_equal(c0, c1):
            return Regime(RegimeTag.DEGENERATE_EQUAL_RHO)
        if g0 > 0.0 and g1 > 0.0:
            return Regime(RegimeTag.ATTRACTING_STRICT)
        if g0 > 0.0 > g1:
            return Regime(RegimeTag.ATTRACTION_REPULSION_01)
        if g0 < 0.0 < g1:
            return Regime(RegimeTag.ATTRACTION_REPULSION_10)
        return Regime(RegimeTag.REPULSION_ONLY)

    if g0 == 0.0 and g1 == 0.0:
        if c0.a == 0.0 and c1.a == 0.0:
            return Regime(RegimeTag.NULL_NON_STRICT, zero_state=0)
        return Regime(RegimeTag.PURE_DRIFT)

    zero = 0 if g0 == 0.0 else 1
    other = 1 - zero
    if model.coeffs[zero].a == 0.0:
        return Regime(RegimeTag.NULL_NON_STRICT, zero_state=zero)
    if model.coeffs[other].gamma > 0.0:
        return Regime(RegimeTag.NON_STRICT_ATTRACTING, zero_state=zero)
    return Regime(RegimeTag.NON_STRICT_REPELLING, zero_state=zero)


def _result(value, *inputs):
    """A float when every input is a scalar, the array otherwise."""
    return float(value) if all(np.ndim(v) == 0 for v in inputs) else value


def _slow_states(model: KacOuModel) -> list[bool]:
    """Per state, whether |gamma| / lambda is below _SERIES_GT (gamma = 0 is
    not slow): the flow and the hitting time then avoid rho = a / gamma."""
    return [0.0 < abs(c.gamma) < _SERIES_GT * model.rates.rate(i) for i, c in enumerate(model.coeffs)]


def pattern_map(state, t, model: KacOuModel):
    """The state's flow over time t as an affine map (base, shift, factor):
    pattern_phi(state, t, x) == base + (x - shift) * factor for every x.

    The map is (rho, rho, exp(-gamma t)) when gamma != 0, (a t, 0, 1) when
    gamma = 0 (base a, a signed zero, when a = 0, at t = inf too), and the
    exact identity (-0.0, 0, 1) at t = 0.  A slow state,
    one whose |gamma| / lambda is below _SERIES_GT (it relaxes by less than
    that over a mean holding time, so rho lies over 2e5 mean drifts away or
    past double range), takes (a t phi(gamma t), 0, exp(-gamma t)) where
    |gamma| t < _SERIES_GT, with phi as in interval_variance.  A factor of
    inf marks repelling growth beyond double range, which pattern_phi
    resolves from x.  state and t are scalars or broadcastable arrays, and
    the three outputs broadcast against them.

    A Python int state that is not slow, with every t > 0 and no growth
    near double range, takes a scalar path: rho and rho (or 0 when
    gamma = 0) come back as floats, the factor (or a t) as the only array,
    with the same bits the general path gives.
    """
    t = np.asarray(t, dtype=float)
    t_min = t.min() if t.size else 0.0
    if t_min < 0.0:
        raise ParameterError(f"pattern time must be >= 0, got {t_min}")
    if type(state) is int and t_min > 0.0 and not _slow_states(model)[state]:
        c = model.coeffs[state]
        if c.gamma == 0.0:  # no drift stays put, over an infinite t too
            return (c.a * t if c.a else np.full_like(t, c.a)), 0.0, 1.0
        if c.gamma > 0.0 or -c.gamma * t.max() < _EXP_MAX:
            rho = c.a / c.gamma
            factor = -c.gamma * t  # exponentiated in place where it is an array
            return rho, rho, np.exp(factor, out=factor) if t.ndim else np.exp(factor)
    # levels and rates per state, so each lane costs one gather apiece
    a_s, g_s = model.a_vec, model.gamma_vec
    lin_s = g_s == 0.0
    slow_s = _slow_states(model)
    # a slow state's rho may overflow, and a flat state's factor over an
    # infinite t is nan (replaced by 1 below)
    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.exp((-g_s)[state] * t)
        base = shift = (a_s / np.where(lin_s, 1.0, g_s))[state]
    if any(slow_s) and (slow := np.array(slow_s)[state]).any():
        gt = g_s[state] * t
        series = slow & (np.abs(gt) < _SERIES_GT)
        with np.errstate(invalid="ignore"):  # phi's 0/0 is replaced by 1
            phi = np.where(gt == 0.0, 1.0, -np.expm1(-gt) / gt)
        base = np.where(series, a_s[state] * t * phi, base)
        shift = np.where(series, 0.0, shift)
    if lin_s.any() and (lin := lin_s[state]).any():
        a = a_s[state]
        base = np.where(lin, a * np.where(a == 0.0, 0.0, t), base)
        shift = np.where(lin, 0.0, shift)
        factor = np.where(lin, 1.0, factor)
    if t_min == 0.0:  # the factor is exactly 1 there already
        still = t == 0.0
        base = np.where(still, -0.0, base)
        shift = np.where(still, 0.0, shift)
    return base, shift, factor


def pattern_phi(state, t, x, model: KacOuModel):
    """Deterministic flow of a state evaluated at time t from x.

    Exponential relaxation toward rho when gamma != 0, a straight line when
    gamma = 0.  Satisfies phi(t+s, x) = phi(t, phi(s, x)).  t = 0 returns x
    exactly and t < 0 raises ParameterError.  Repelling growth beyond
    double range gives +-inf, while x = rho stays at rho, and x = +-inf
    stays where it is (a factor that underflows to 0 gives no inf * 0).
    state, t and x are scalars (a float is returned) or broadcastable arrays.
    """
    base, shift, factor = pattern_map(state, t, model)
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        out = base + (x - shift) * factor
    if (far := np.isinf(x)).any():
        out = np.where(far, x, out)
    repels = model.coeffs[0].gamma < 0.0 or model.coeffs[1].gamma < 0.0
    if repels and np.isinf(factor).any():
        # grow in log magnitude: finite where the result is, and no 0 * inf
        # at the repelling level itself
        g = model.gamma_vec[state]
        out = np.array(out)
        big = np.broadcast_to(np.isinf(factor), out.shape)
        rho = np.broadcast_to(shift, out.shape)[big]
        diff = np.broadcast_to(x, out.shape)[big] - rho
        expo = np.broadcast_to(-g * np.asarray(t, dtype=float), out.shape)[big]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            grown = np.copysign(np.exp(np.log(np.abs(diff)) + expo), diff)
        out[big] = np.where(diff == 0.0, rho, rho + grown)
    return _result(out, state, t, x)


def hitting_time(state, x, y, model: KacOuModel):
    """Time for the state's pattern started at x to reach y; +inf if it never does.

    The +inf return is a deliberate distinguished value (it selects the
    half-line branch of the renewal integral equations), never an overflow.
    Scalar x == y raises ParameterError; in arrays an entry already at y
    gets 0, so a Monte Carlo lane that lands on its target hits at once.
    A slow state (as in pattern_map) takes t = v log1p(u) / u with
    v = (y - x) / (a - gamma y) and u = gamma v, which never forms rho.
    state, x and y are scalars (a float is returned) or broadcastable arrays.
    """
    slow_s = _slow_states(model)
    a, g = model.a_vec[state], model.gamma_vec[state]
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.ndim(state) == 0 and x.ndim == 0 and y.ndim == 0 and x == y:
        raise ParameterError("hitting_time requires x != y")
    lin = g == 0.0
    g_safe = np.where(lin, 1.0, g)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rho = a / g_safe
        dx, dy = x - rho, y - rho
        # y = rho gives r = +-inf: the level is reached only in the limit;
        # a time past double range (a tiny gamma or drift) is inf too
        r = dx / dy
        # r = +-0 (x = rho, or an underflow) gives -inf, a time of inf either way
        log_r = np.log(np.where(r >= 0.0, r, 1.0))
        # a ratio that under- or overflows (a subnormal x - rho, say) lost its
        # digits: the log of each finite, nonzero difference of one sign keeps
        # them, and the differences are exact where they are subnormal
        if (lost := np.abs(log_r) > -_LOG_TINY).any():
            lost = lost & np.isfinite(dx) & np.isfinite(dy) & (dx != 0.0) & (dy != 0.0)
            lost = lost & (np.signbit(dx) == np.signbit(dy))
            log_r = np.where(lost, np.log(np.abs(dx)) - np.log(np.abs(dy)), log_r)
        curved = log_r / g_safe
        straight = (y - x) / np.where(a == 0.0, 1.0, a)
    # a positive log-ratio time is reached: r > 1 toward an attractor, 0 < r < 1
    # away from a repeller
    reached = ~lin & (curved > 0.0)
    t = np.where(reached, curved, np.where(lin & (a != 0.0) & (straight > 0.0), straight, np.inf))
    if any(slow_s) and (slow := np.array(slow_s)[state]).any():
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            v = (y - x) / (a - g * y)
            u = g * v
            # log((a - gamma x) / (a - gamma y)) / gamma, real only for u > -1
            slow_t = v * np.where(u == 0.0, 1.0, np.log1p(np.where(u > -1.0, u, 0.0)) / u)
        t = np.where(slow, np.where((u > -1.0) & (slow_t > 0.0), slow_t, np.inf), t)
    return _result(np.where(x == y, 0.0, t), state, x, y)


def interval_variance(state, t, model: KacOuModel):
    """Variance the state's diffusion accumulates over a finite time t >= 0
    from a fixed point: b^2 t phi(2 gamma t), with phi(x) = (1 - exp(-x))/x
    and phi(0) = 1.

    Repelling growth beyond double range gives inf, and relaxation with
    2 gamma t past double range the level b^2 / (2 gamma); b = 0 gives 0.
    state and t are scalars (a float is returned) or broadcastable arrays.
    """
    b, g = model.b_vec[state], model.gamma_vec[state]
    t = np.asarray(t, dtype=float)
    bad = t[~((t >= 0.0) & (t < math.inf))]
    if bad.size:
        raise ParameterError(f"interval time must be finite and >= 0, got {bad[0]}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # phi's 0/0 is replaced by 1
        x = 2.0 * g * t
        var = b * b * t * np.where(x == 0.0, 1.0, -np.expm1(-x) / x)
        if np.isinf(x).any():  # phi(inf) = 0 and phi(-inf) = nan
            var = np.where(x == math.inf, 0.5 * b * b / g, np.where(x == -math.inf, math.inf, var))
    if (b == 0.0).any():
        var = np.where(b == 0.0, 0.0, var)
    return _result(var, state, t)


def transition_matrix(t: float, rates: SwitchRates) -> np.ndarray:
    """Closed-form matrix exponential of the two-state generator at time t,
    a row-stochastic 2x2 array."""
    if not t >= 0.0:
        raise ParameterError(f"time must be >= 0, got {t}")
    l0, l1 = rates.lambda0, rates.lambda1
    tot = l0 + l1
    e = math.exp(-tot * t) if tot * t < _EXP_MAX else 0.0
    return np.array(
        [
            [(l1 + l0 * e) / tot, l0 * (1.0 - e) / tot],
            [l1 * (1.0 - e) / tot, (l0 + l1 * e) / tot],
        ]
    )


def stationary_state_dist(rates: SwitchRates) -> tuple[float, float]:
    """Stationary distribution (lambda1, lambda0) / (lambda0 + lambda1)."""
    tot = rates.total
    return (rates.lambda1 / tot, rates.lambda0 / tot)


def xi0(x: float, rho0: float, rho1: float) -> float:
    """Affine coordinate (x - rho0)/(rho1 - rho0); undefined when rho0 == rho1."""
    if rho0 == rho1:
        raise ParameterError("xi0 undefined for rho0 == rho1")
    return (x - rho0) / (rho1 - rho0)


def xi1(x: float, rho0: float, rho1: float) -> float:
    """Complementary coordinate 1 - xi0(x); the complement is exact by construction."""
    return 1.0 - xi0(x, rho0, rho1)


@dataclass(frozen=True)
class HyperParams:
    """Arguments feeding the hypergeometric closed forms at a given rate q.

    ``b0 >= b1`` are the real roots of
    z^2 - (beta0 + beta1) z + beta0 beta1 - beta0(0) beta1(0).
    """

    beta0: float
    beta1: float
    b0: float
    b1: float


def hyper_args(q: float, model: KacOuModel) -> HyperParams:
    """beta_i(q) = (q + lambda_i)/gamma_i and the upper-parameter root pair."""
    if q < 0.0:
        raise ParameterError(f"q must be >= 0, got {q}")
    c0, c1 = model.coeffs
    if c0.gamma == 0.0 or c1.gamma == 0.0:
        raise ParameterError("hyper_args requires gamma0 != 0 and gamma1 != 0")
    l0, l1 = model.rates.lambda0, model.rates.lambda1
    beta0 = (q + l0) / c0.gamma
    beta1 = (q + l1) / c1.gamma
    beta0_0 = l0 / c0.gamma
    beta1_0 = l1 / c1.gamma
    s = beta0 + beta1
    # Written so the product vanishes exactly at q = 0 (same rounding on both
    # factors), which makes the q=0 degeneracy of the transforms exact.
    p = beta0 * beta1 - beta0_0 * beta1_0
    if p == 0.0:  # q = 0 collapse: the roots are exactly {0, sum}
        return HyperParams(beta0, beta1, max(s, 0.0), min(s, 0.0))
    # for q >= 0 the discriminant is at least (beta0_0 + beta1_0)^2 when the
    # gammas have opposite signs, and 4 beta0_0 beta1_0 > 0 is added when they
    # agree, so only rounding could take it below 0
    try:
        disc = (beta0 - beta1) ** 2 + 4.0 * beta0_0 * beta1_0
    except OverflowError:  # float ** raises where the square leaves double range
        disc = math.inf
    if math.isfinite(disc):
        # the root of larger magnitude without cancellation, the other from
        # their product
        big = 0.5 * (s + math.copysign(math.sqrt(max(disc, 0.0)), s))
        small = p / big if big else 0.0
        return HyperParams(beta0, beta1, max(big, small), min(big, small))
    # the discriminant left double range: form it scaled by the larger |beta|
    m = max(abs(beta0), abs(beta1))
    u0, u1, w0, w1 = beta0 / m, beta1 / m, beta0_0 / m, beta1_0 / m
    half = 0.5 * (u0 + u1)
    big = half + math.copysign(0.5 * math.sqrt(max((u0 - u1) ** 2 + 4.0 * w0 * w1, 0.0)), half)
    small = (u0 * u1 - w0 * w1) / big if big else 0.0
    upper, lower = m * max(big, small), m * min(big, small)
    if not (math.isfinite(upper) and math.isfinite(lower)):
        raise DoubleRangeError(
            f"upper parameters leave double range at q = {q}: beta0 = {beta0}, beta1 = {beta1}"
        )
    return HyperParams(beta0, beta1, upper, lower)
