"""Model parameters, regime classification, deterministic flow patterns and
the chain's stationary law.

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
    "stationary_state_dist",
    "hyper_args",
    "xi0",
    "xi1",
    "swap_states",
    "rescale",
]

# Relative tolerance for deciding a0/gamma0 == a1/gamma1 on user input.
RHO_EQUAL_RTOL = 1e-12

# Below this |gamma| t the level forms rho + (x - rho) exp(-gamma t) and
# b^2 (1 - f^2) / (2 gamma) lose about eps / (gamma t) to cancellation (all
# of it once exp(-gamma t) rounds to 1), and rho = a / gamma overflows for a
# subnormal gamma.  There a slow state's flow is a t phi(gamma t) +
# x exp(-gamma t) (see pattern_map), and a terminal draw's variance grows by
# the series b^2 dt (1 - gamma dt), within (2/3) (gamma t)^2 < 2e-11 of exact.
_SERIES_GT = 5e-6


@dataclass(frozen=True)
class SwitchRates:
    """Transition intensities of the two-state chain, both positive."""

    lambda0: float
    lambda1: float

    def __post_init__(self):
        _finite(self.lambda0, "lambda0", positive=True)
        _finite(self.lambda1, "lambda1", positive=True)

    def rate(self, state: int) -> float:
        return self.lambda0 if state == 0 else self.lambda1

    @property
    def total(self) -> float:
        """lambda0 + lambda1 (written 2*lambda in the closed forms)."""
        return self.lambda0 + self.lambda1

    def expected_switches(self, horizon: float) -> float:
        """Expected switches of a path over the horizon, at the chain's stationary rate 2/(1/lambda0 + 1/lambda1)."""
        return 2.0 / (1.0 / self.lambda0 + 1.0 / self.lambda1) * horizon


@dataclass(frozen=True)
class StateCoeffs:
    """Drift level, diffusion amplitude and reversion rate of one state."""

    a: float
    b: float
    gamma: float

    def __post_init__(self):
        _finite(self.a, "a")
        _finite(self.b, "b", least=0.0)
        _finite(self.gamma, "gamma")

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


def _state(state, name: str = "state", each: bool = False):
    """A chain state, 0 or 1, as an int (a bool, a numpy scalar or a whole
    float reads as its int; as an index, -1 would read state 1, and a bool
    a mask); with `each`, an array of them as an int array."""
    if type(state) is int and state in (0, 1):
        return state
    s = np.asarray(state)
    if s.dtype.kind in "biuf" and (each or s.ndim == 0):
        if (ok := (s == 0) | (s == 1)).all():
            return int(s) if s.ndim == 0 else s.astype(int, copy=False)
        state = s[~ok][0]
    raise ParameterError(f"{name} must be 0 or 1, got {_shown(state)}")


def _whole(value, name: str, least: float = -math.inf) -> int:
    """A whole number of at least `least` as an int: an int, a numpy
    integer, a bool or a whole float."""
    if type(value) is int and value >= least:
        return value
    v = np.asarray(value)
    if v.ndim == 0 and (v.dtype.kind in "biu" or v.dtype.kind == "f" and float(v).is_integer()) and v >= least:
        return int(v)
    need = "" if least == -math.inf else f" of at least {least:g}"
    raise ParameterError(f"{name} must be a whole number{need}, got {_shown(value)}")


def _finite(value, name: str, least: float = -math.inf, positive: bool = False, many: bool = False):
    """A finite number of at least `least` (above 0 where `positive`) as a
    float; with `many`, an array of them, of any shape, as a float array."""
    need = lambda: "finite and positive" if positive else "finite" if least == -math.inf else f"finite and >= {least:g}"
    return _real(value, name, need, lambda v: (abs(v) < math.inf) & (v > 0.0 if positive else v >= least), many)


def _time(t, name: str = "t", finite: bool = True, many: bool = False):
    """A time >= 0, never nan, finite where `finite`: a float, or with `many` a float array."""
    return _finite(t, name, least=0.0, many=many) if finite else _real(t, name, lambda: ">= 0", lambda v: v >= 0.0, many)


def _reals(value, name: str):
    """A float array of any shape, its entries not looked at (a pool's
    lanes may be +-inf or nan): _real's type test alone."""
    return _real(value, name, lambda: "a real number or an array of them", None, True)


def _real(value, name, need, ok, many):
    """value as a float, or with `many` a float array, where `ok` holds for
    every entry (or, where it is None, unchecked): the finite and time
    readers' common part.  Like _state and _whole, it refuses a string, a
    complex, an object and, unless asked for, an array, with a
    ParameterError naming the argument, the rule need() (formed only then)
    and the first entry it refuses."""
    if not many and isinstance(value, float):  # a float or a numpy double
        if ok(value):
            return float(value)
    else:
        v = np.asarray(value)
        if v.dtype.kind in "biuf" and (many or v.ndim == 0):
            v = v.astype(float, copy=False)
            if ok is None or (good := ok(v)).all():
                return v if many else float(v)
            value = v[~good][0]
    raise ParameterError(f"{name} must be {need()}, got {_shown(value)}")


def _shown(value):
    """A refused argument as its refusal quotes it: text in quotes, so that it does not read as a number."""
    return repr(str(value)) if isinstance(value, str) else value


def _each_state(state, law, *args):
    """law(state, *args), a tuple of outputs, for a scalar state; for an
    array, both states' laws on every entry (under the caller's error
    state), and per output np.where keeps each entry's own state's result."""
    if np.ndim(state) == 0:
        return law(state, *args)
    zero = state == 0
    return tuple(np.where(zero, o0, o1) for o0, o1 in zip(law(0, *args), law(1, *args)))


def _series_bounds(model: KacOuModel) -> list[float]:
    """Per state, the |gamma| t below which its flow takes the form
    a t phi(gamma t) + x exp(-gamma t), which never forms rho = a / gamma:
    inf for a state whose level a / gamma is past double range, _SERIES_GT
    for a slow state (|gamma| / lambda below _SERIES_GT) and 0 for every
    other state, gamma = 0 included."""
    bounds = []
    for i, c in enumerate(model.coeffs):
        if c.gamma == 0.0:
            bounds.append(0.0)
        elif not math.isfinite(c.a / c.gamma):
            bounds.append(math.inf)
        else:
            bounds.append(_SERIES_GT if abs(c.gamma) < _SERIES_GT * model.rates.rate(i) else 0.0)
    return bounds


def pattern_map(state, t, model: KacOuModel):
    """The state's flow over time t as an affine map (base, shift, factor):
    pattern_phi(state, t, x) == base + (x - shift) * factor for every x.

    The map is (rho, rho, exp(-gamma t)) when gamma != 0, (a t, 0, 1) when
    gamma = 0 (base a, a signed zero, when a = 0, at t = inf too), and the
    exact identity (-0.0, 0, 1) at t = 0.  A slow state, one whose
    |gamma| / lambda is below _SERIES_GT (it relaxes by less than that over
    a mean holding time, so rho lies over 2e5 mean drifts away or past
    double range), takes (a t phi(gamma t), 0, exp(-gamma t)) where
    |gamma| t < _SERIES_GT, with phi as in interval_variance, and a state
    whose level a / gamma is past double range takes it at every t; where
    its a t phi(gamma t) leaves double range too, DoubleRangeError is
    raised.  A factor of inf marks repelling growth beyond double range,
    which pattern_phi resolves from x.  state and t are scalars or
    broadcastable arrays, and the three outputs broadcast against them.

    Each law is written once, in _state_map, for one state; an array of states
    runs both and keeps each entry's own: a state refuses only its own times.
    """
    state = _state(state, each=True)
    t = _reals(t, "t")
    # one reduction reads every time: the pool's holding times may be inf
    t_min = _time(t.min() if t.size else 0.0, finite=False)
    bounds = _series_bounds(model)

    def law(i, t):
        t = np.where(state == i, t, 0.0) if bounds[i] == math.inf else t  # refuse its own times only
        return _state_map(model.coeffs[i], bounds[i], t, t_min)

    # growth past double range gives a factor of inf, rho may overflow where
    # the series form replaces it, and phi's 0/0 is replaced by 1
    with np.errstate(over="ignore", invalid="ignore"):
        return _each_state(state, law, t)


def _state_map(c, bound, t, t_min):
    """pattern_map of one state, its coefficients c and series bound, over
    the times t, an array of least entry t_min or above."""
    if c.gamma == 0.0:  # no drift stays put, over an infinite t too
        base, shift, factor = (c.a * t if c.a else np.full_like(t, c.a)), 0.0, 1.0
    else:
        factor = -c.gamma * t  # exponentiated in place where it is an array
        factor = np.exp(factor, out=factor) if t.ndim else np.exp(factor)
        base = shift = c.a / c.gamma
        if bound:
            gt = c.gamma * t
            series = np.abs(gt) < bound
            base = np.where(series, c.a * t * np.where(gt == 0.0, 1.0, -np.expm1(-gt) / gt), base)
            shift = np.where(series, 0.0, shift)
    if t_min == 0.0:  # the factor is exactly 1 there already
        still = t == 0.0
        base = np.where(still, -0.0, base)
        shift = np.where(still, 0.0, shift)
    if bound == math.inf and not (finite := np.isfinite(base)).all():  # no level to flow toward
        raise DoubleRangeError(f"the flow leaves double range at t = {t[~finite][0]}: "
                               "its level a / gamma is past double range")
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
    x = _reals(x, "x")
    with np.errstate(invalid="ignore", over="ignore"):
        out = base + (x - shift) * factor
    if (far := np.isinf(x)).any():
        out = np.where(far, x, out)
    repels = model.coeffs[0].gamma < 0.0 or model.coeffs[1].gamma < 0.0
    if repels and np.isinf(factor).any():
        # grow in log magnitude: finite where the result is, and no 0 * inf
        # at the repelling level itself
        g = model.gamma_vec[_state(state, each=True)]
        out = np.array(out)
        big = np.broadcast_to(np.isinf(factor), out.shape)
        rho = np.broadcast_to(shift, out.shape)[big]
        diff = np.broadcast_to(x, out.shape)[big] - rho
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            expo = np.broadcast_to(-g * np.asarray(t, dtype=float), out.shape)[big]
            grown = np.copysign(np.exp(np.log(np.abs(diff)) + expo), diff)
        out[big] = np.where(diff == 0.0, rho, rho + grown)
    return _result(out, state, t, x)


def hitting_time(state, x, y, model: KacOuModel):
    """Time for the state's pattern started at x to reach y; +inf if it never does.

    The +inf return is a deliberate distinguished value (it selects the
    half-line branch of the renewal integral equations), never an overflow.
    Scalar x == y raises ParameterError; in arrays an entry already at y
    gets 0, so a Monte Carlo lane that lands on its target hits at once.
    Every state takes one law, t = v log1p(u) / u with
    v = (y - x) / (a - gamma x) and u = -gamma v, so that
    1 + u = (y - rho) / (x - rho); it is exactly (y - x) / a at gamma = 0,
    and takes the log of a ratio far from 1 from the distances to
    rho = a / gamma (see _state_time).  Whether y is reached comes from
    signs alone, so a reached time may round to 0.  state, x and y are
    scalars (a float is returned) or broadcastable arrays.  The law is
    written once, for one state; an array of states runs both states' laws
    on every entry and keeps each entry's own.
    """
    state = _state(state, each=True)
    x, y = _reals(x, "x"), _reals(y, "y")
    if np.ndim(state) == 0 and x.ndim == 0 and y.ndim == 0 and x == y:
        raise ParameterError("hitting_time requires x != y")

    def law(i, x, y):
        return (_state_time(model.coeffs[i].a, model.coeffs[i].gamma, x, y),)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        (t,) = _each_state(state, law, x, float(y) if y.ndim == 0 else y)  # a scalar y stays a float
        if (on := x == y).any():
            np.copyto(t, 0.0, where=on)
    return _result(t, state, x, y)


def _state_time(a, g, x, y):
    """hitting_time's law for one state's scalar a and gamma, worked out in
    its output array and one scratch array; inf where the flow never
    reaches y.  The caller holds the floating-point error state.

    y is reached where y - x has the sign of the drift a - gamma x at x
    (read from v's sign bit, which survives its rounding to 0 or inf) and,
    where rho is a double, y - rho is nonzero and has the sign of x - rho.
    Where u is subnormal or 0, log1p(u) / u rounds to 1 and t = v; where
    1 + u lies outside [1/2, 2] and rho is a double,
    t = (log|x - rho| - log|y - rho|) / gamma; elsewhere
    t = -log1p(u) / gamma.
    """
    rho = a / g if g else math.inf
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    t = np.subtract(y, x, out=np.empty(shape))
    s = np.multiply(x, g, out=np.empty(shape))
    np.subtract(a, s, out=s)
    reached = np.not_equal(s, 0.0, out=np.empty(shape, dtype=bool))
    t /= s  # v
    reached &= ~np.signbit(t)
    np.multiply(t, -g, out=s)  # u
    np.log1p(s, out=s)
    # u is subnormal or 0 where v is below tiny / |gamma| (a v < 0 is never
    # reached), and a nan v stays
    np.divide(s, -g, out=t, where=t >= np.finfo(float).tiny / abs(g))
    if math.isfinite(rho):
        # log1p(u) loses the digits of a ratio 1 + u that is tiny or huge, and
        # the distances to rho keep them
        far = ~((-math.log(2.0) <= s) & (s <= math.log(2.0)))  # and where it is nan
        if far.any():
            np.subtract(x, rho, out=s)
            np.log(np.abs(s, out=s), out=s)
            s -= np.log(np.abs(y - rho))
            s /= g
            np.copyto(t, s, where=far)
        side = np.sign(y - rho)  # x sign(y - rho) > rho sign(y - rho), exactly
        reached &= np.multiply(x, side, out=s) > rho * side
    # a nan (from a nan or inf input) or a negative time is never reached
    reached &= t >= 0.0
    np.copyto(t, np.inf, where=np.logical_not(reached, out=reached))
    return t


def interval_variance(state, t, model: KacOuModel):
    """Variance the state's diffusion accumulates over a finite time t >= 0
    from a fixed point: b^2 t phi(2 gamma t), with phi(x) = (1 - exp(-x))/x
    and phi(0) = 1.

    Repelling growth beyond double range gives inf, and relaxation with
    2 gamma t past double range the level b^2 / (2 gamma); b = 0 gives 0.
    state and t are scalars (a float is returned) or broadcastable arrays.
    """
    state = _state(state, each=True)
    b, g = model.b_vec[state], model.gamma_vec[state]
    t = _time(t, many=True)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # phi's 0/0 is replaced by 1
        x = 2.0 * g * t
        var = b * b * t * np.where(x == 0.0, 1.0, -np.expm1(-x) / x)
        if np.isinf(x).any():  # phi(inf) = 0 and phi(-inf) = nan
            var = np.where(x == math.inf, 0.5 * b * b / g, np.where(x == -math.inf, math.inf, var))
    if (b == 0.0).any():
        var = np.where(b == 0.0, 0.0, var)
    return _result(var, state, t)


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
    """beta_i(q) = (q + lambda_i)/gamma_i and the upper-parameter root pair, formed in
    units of m, the power of two at or below the larger |beta|, so that no sum, square or
    product leaves double range; each step rounds as it would unscaled.  A root past
    double range raises DoubleRangeError."""
    q = _finite(q, "q", least=0.0)
    c0, c1 = model.coeffs
    if c0.gamma == 0.0 or c1.gamma == 0.0:
        raise ParameterError("hyper_args requires gamma0 != 0 and gamma1 != 0")
    l0, l1 = model.rates.lambda0, model.rates.lambda1
    beta0 = (q + l0) / c0.gamma
    beta1 = (q + l1) / c1.gamma
    k = math.frexp(max(abs(beta0), abs(beta1)))[1] - 1
    m = math.ldexp(1.0, k)
    u0, u1 = beta0 / m, beta1 / m
    s = u0 + u1
    # p = beta0 beta1 - beta0(0) beta1(0), formed without subtracting the
    # two products: it is of order q where they are of order 1, and it is
    # exactly 0 at q = 0, which makes the q=0 degeneracy of the transforms
    # exact.  It is carried as frac * 2^e, the product of its factors' frexp
    # mantissas and the sum of their exponents, so that nothing leaves the
    # normal range before the small root does
    (fq, eq), (fs, es), (f0, e0), (f1, e1) = map(math.frexp, (q, q + l0 + l1, c0.gamma, c1.gamma))
    if fs == math.inf:  # a sum past the largest double, as four times its quarter
        fs, es = math.frexp(q / 4 + l0 / 4 + l1 / 4)
        es += 2
    frac, e = fq * fs / f0 / f1, eq + es - e0 - e1
    if frac == 0.0:  # q = 0 collapse: the roots are exactly {0, sum}
        return HyperParams(beta0, beta1, m * max(s, 0.0), m * min(s, 0.0))
    # the discriminant s^2 - 4p = (beta0 - beta1)^2 + 4 beta0(0) beta1(0), in
    # units of m^2, as a sum of two terms >= 0: s^2 - 4p when the gammas have
    # opposite signs (p < 0; the second form cancels where it vanishes at
    # q = 0), the second form when they agree (s^2 - 4p cancels at large q)
    if frac < 0.0:
        disc = s * s - 4.0 * math.ldexp(frac, e - 2 * k)
    else:
        disc = (u0 - u1) * (u0 - u1) + 4.0 * (l0 / c0.gamma / m) * (l1 / c1.gamma / m)
    # the root of larger magnitude without cancellation, the other p over
    # it, scaled once; by Vieta it is no larger, but for rounding
    big = 0.5 * (s + math.copysign(math.sqrt(max(disc, 0.0)), s))
    try:
        small = math.ldexp(frac / big, e - k) if big else 0.0
    except OverflowError:
        small = math.inf
    upper, lower = max(m * big, small), min(m * big, small)
    if not (math.isfinite(upper) and math.isfinite(lower)):
        raise DoubleRangeError(
            f"upper parameters leave double range at q = {q}: beta0 = {beta0}, beta1 = {beta1}"
        )
    return HyperParams(beta0, beta1, upper, lower)
