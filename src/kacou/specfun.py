"""Self-contained special-function kernel: the Gauss hypergeometric series,
Kummer's confluent function, log-Gamma and Beta.

One summation loop serves both series.  The Gauss series is summed from the
(sum, product) of its upper parameters via the coefficient recurrence
c_{n+1} = c_n * (n^2 + n*sum + product), which keeps all arithmetic real even
for a complex-conjugate pair (``gauss_2f1_pair_log``); Kummer's series uses
the same loop with the numerator n + a.

That loop is scalar: it takes one term at a time, up to SERIES_CAP terms.
The form selector keeps almost every series to a few hundred terms, so the
rare long ones do not pay for a second, vectorized summation routine.

A small term ends the sum only past the point where the terms keep
shrinking (``_stop_floor``: past every zero and pole of the term ratio and
the last place its size crosses 1), since terms can dip there and grow
again; and a Gauss term must be below (1 - |z|) SERIES_RTOL of the sum, so
that the geometric tail it leaves stays below SERIES_RTOL.

``gauss_2f1_log`` does not always sum its own series.  A form selector
(``_selected``) picks, among the direct series, Euler's and Pfaff's
transformations and the 1 - z connection formula (A&S 15.3.3-15.3.6; DLMF
15.8.1, 15.8.4), one whose terms share one sign and whose argument is at
most 1/2, and uses it only when a first-order rounding bound, which counts
cancellation inside each series and between the connection's two parts,
keeps about 13 digits.  When no form does, the one with the smaller bound
is used if it keeps about 10; else the value is a SeriesConvergenceError.

Summation carries a separate log scale so that large-parameter evaluations
(e.g. killing rates of 1e6, where the function value overflows any double)
stay finite; ratios of such values are formed in log space via the
``*_log`` variants.  ``log_gamma`` is ``math.lgamma`` on x > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DoubleRangeError, OutOfDomainError, ParameterError, SeriesConvergenceError

__all__ = [
    "LogValue",
    "gauss_2f1_log",
    "gauss_2f1_pair_log",
    "kummer_1f1_log",
    "log_gamma",
    "beta_fn",
]

SERIES_RTOL = 1e-14
SERIES_FLOOR = 1e-300
SERIES_CAP = 1_000_000

_RESCALE_AT = 1e280
_RESCALE_LOG = math.log(_RESCALE_AT)
# a term is at most _RESCALE_AT after each step's rescale test, so only a
# term ratio past this can carry the next term beyond double range
_FACTOR_SAFE = 1e28

@dataclass(frozen=True)
class LogValue:
    """A real number as sign * exp(log); supports values beyond double range."""

    log: float
    sign: float
    terms_used: int = 0

    def value(self) -> float:
        if self.sign == 0.0:
            return 0.0
        if self.log > 709.0:
            raise OutOfDomainError("magnitude overflows double precision")
        return self.sign * math.exp(self.log)

    def ratio(self, other: "LogValue") -> float:
        if self.sign == 0.0:
            return 0.0
        if other.sign == 0.0:
            raise ZeroDivisionError("log-value ratio with zero denominator")
        diff = self.log - other.log
        if diff > 709.0:
            raise OutOfDomainError("ratio overflows double precision")
        return self.sign * other.sign * math.exp(diff)

    def scaled(self, factor: float) -> "LogValue":
        if factor == 0.0:
            return LogValue(-math.inf, 0.0, self.terms_used)
        sign = self.sign * math.copysign(1.0, factor)
        return LogValue(self.log + math.log(abs(factor)), sign, self.terms_used)

    def add(self, other: "LogValue") -> "LogValue":
        if self.sign == 0.0:
            return other
        if other.sign == 0.0:
            return self
        hi, lo = (self, other) if self.log >= other.log else (other, self)
        rest = lo.sign * hi.sign * math.exp(lo.log - hi.log)
        total = 1.0 + rest
        n = self.terms_used + other.terms_used
        if total == 0.0:
            return LogValue(-math.inf, 0.0, n)
        return LogValue(hi.log + math.log(abs(total)), hi.sign * math.copysign(1.0, total), n)


def _is_nonpositive_int(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _check_lower_param(b2: float, name: str = "b2") -> None:
    if _is_nonpositive_int(b2):
        raise ParameterError(f"{name} = {b2} is a pole of the Pochhammer denominator")


def _largest_root(lead: float, mid: float, low: float) -> float:
    """The largest real root of lead k^2 + mid k + low, lead != 0, or -inf
    when there is none.  The coefficients are scaled to at most 1 first, so
    no square leaves double range, and the roots come from the stable pair
    q / lead, low / q."""
    m = max(abs(lead), abs(mid), abs(low))
    if not math.isfinite(m):
        return -math.inf
    lead, mid, low = lead / m, mid / m, low / m
    disc = mid * mid - 4.0 * lead * low
    if disc < 0.0:
        return -math.inf
    q = -0.5 * (mid + math.copysign(math.sqrt(disc), mid))
    return max(q / lead, low / q) if q else 0.0


def _stop_floor(c2, c1, c0, b2: float, z: float) -> int:
    """The last term index at which ``_sum_series`` may not stop.

    A small term ends the sum only where the terms after it keep shrinking.
    Past the largest real zero k of the ratio's numerator c2 k^2 + c1 k + c0
    and of its denominator factor b2 + k, and past the largest k where
    |ratio| = 1, they do: |ratio| < 1 from there on.  Before that point the
    terms can dip and grow again (a lower parameter near -k, an upper one
    near -k), so a run of small terms there proves nothing.  For |z| >= 1
    (c2 = 1) the ratio never falls below 1 for good and that root is left out.
    """
    last = max(-b2, _largest_root(c2, c1, c0) if c2 else -c0)
    # |ratio| = 1 past those zeros: (c2 |z| - 1) k^2 + (c1 |z| - b2 - 1) k + c0 |z| - b2 = 0
    lead = c2 * abs(z) - 1.0
    if lead < 0.0:
        last = max(last, _largest_root(lead, c1 * abs(z) - b2 - 1.0, c0 * abs(z) - b2))
    if not last < SERIES_CAP:  # including nan, from parameters past double range
        return 0 if math.isnan(last) else SERIES_CAP
    return max(0, math.ceil(last))


def _sum_series(c2, c1, c0, b2: float, z: float) -> LogValue:
    """Direct summation of the series with first term 1 and term ratio
    (c2 k^2 + c1 k + c0) z / ((b2 + k)(k + 1)), k = 0, 1, ..., with periodic
    rescaling into a log carry.  b2 is never a nonpositive integer (the
    callers check), so no ratio divides by zero.

    (c2, c1, c0) = (1, sum, product) is the Gauss series whose upper
    parameters have that sum and product; (0, 1, a) is Kummer's series
    with upper parameter a.

    A term is rescaled before its multiply when the product would leave
    double range (a ratio past _FACTOR_SAFE, such as a polynomial at
    z = 1e30), and after it once the term or the sum passes _RESCALE_AT.

    If the Gauss series reaches the term cap while every summand has stayed
    positive (no cancellation is possible), summation continues in
    vectorized log space; this is what large-parameter evaluations (killing
    rates around 1e6, where millions of terms precede the peak) fall back to.
    """
    total = 1.0
    term = 1.0
    log_scale = 0.0
    small_run = 0
    single_signed = z > 0.0
    floor = _stop_floor(c2, c1, c0, b2, z)
    # past the floor the Gauss terms fall off about like |z|^k, so a term
    # below (1 - |z|) SERIES_RTOL of the sum leaves a tail of about SERIES_RTOL
    rtol = SERIES_RTOL * (1.0 - abs(z)) if c2 and abs(z) < 1.0 else SERIES_RTOL
    safe_hi, safe_lo = _FACTOR_SAFE, -_FACTOR_SAFE  # locals: the loop reads them every term
    k = 0.0  # a float counter: exact here, and cheaper than int-float arithmetic
    for n in range(1, SERIES_CAP + 1):
        factor = (c2 * k * k + c1 * k + c0) * z / ((b2 + k) * (k + 1.0))
        k += 1.0
        if factor <= 0.0:
            single_signed = False
            if factor < safe_lo and math.isinf(term * factor):
                # rescale first: the product would leave double range
                term, total, log_scale = term / _RESCALE_AT, total / _RESCALE_AT, log_scale + _RESCALE_LOG
        elif factor > safe_hi and math.isinf(term * factor):
            term, total, log_scale = term / _RESCALE_AT, total / _RESCALE_AT, log_scale + _RESCALE_LOG
        term *= factor
        total += term
        if term == 0.0:
            return _finish(total, log_scale, n + 1)
        mag = abs(term)
        if mag > _RESCALE_AT or abs(total) > _RESCALE_AT:
            term /= _RESCALE_AT
            total /= _RESCALE_AT
            log_scale += _RESCALE_LOG
            mag = abs(term)
        if mag <= rtol * abs(total) + SERIES_FLOOR and n > floor:
            small_run += 1
            if small_run >= 2:
                return _finish(total, log_scale, n + 1)
        else:
            small_run = 0
    # the log-space continuation is the Gauss series' large-parameter path;
    # Kummer's series (c2 = 0) reports the cap
    if c2 and single_signed and total > 0.0 and term > 0.0:
        return _long_tail_positive(c1, c0, b2, z, total, term, log_scale)
    raise SeriesConvergenceError(
        f"hypergeometric series did not converge in {SERIES_CAP} terms (z={z})",
        terms_used=SERIES_CAP,
    )


_LONG_BLOCK = 1_000_000
_LONG_BLOCKS = 64
# most terms one Gauss evaluation may sum: the cap, then the long-tail blocks
_TERM_BUDGET = SERIES_CAP + _LONG_BLOCKS * _LONG_BLOCK


def _long_tail_positive(s, p, b2, z, total, term, log_scale) -> LogValue:
    """Continue an all-positive series past the cap, blockwise in log space."""
    log_total = math.log(total) + log_scale
    log_term = math.log(term) + log_scale
    k0 = SERIES_CAP
    for block in range(_LONG_BLOCKS):
        k = np.arange(k0, k0 + _LONG_BLOCK, dtype=float)
        factors = (k * k + k * s + p) * z / ((b2 + k) * (k + 1.0))
        if np.any(factors <= 0.0):
            break
        term_logs = log_term + np.cumsum(np.log(factors))
        peak = float(np.max(term_logs))
        block_log = peak + math.log(float(np.sum(np.exp(term_logs - peak))))
        log_total = np.logaddexp(log_total, block_log)
        log_term = float(term_logs[-1])
        k0 += _LONG_BLOCK
        if factors[-1] < 1.0 and block_log < log_total + math.log(SERIES_RTOL):
            return LogValue(float(log_total), 1.0, k0)
    raise SeriesConvergenceError(
        f"hypergeometric series did not converge in {k0} terms (z={z})",
        terms_used=k0,
    )


def _finish(total: float, log_scale: float, terms: int) -> LogValue:
    if total == 0.0:
        return LogValue(-math.inf, 0.0, terms)
    return LogValue(log_scale + math.log(abs(total)), math.copysign(1.0, total), terms)


def _gauss_at_unit_log(b0: float, b1: float, b2: float) -> LogValue | None:
    """Closed form at z = 1 when every Gamma argument is positive."""
    args = (b2, b2 - b0 - b1, b2 - b0, b2 - b1)
    if all(a > 0.0 for a in args):
        lg = log_gamma(args[0]) + log_gamma(args[1]) - log_gamma(args[2]) - log_gamma(args[3])
        return LogValue(lg, 1.0)
    return None


# unit roundoff
_EPS = 2.0**-53
# relative error of a summed series whose terms share one sign: the tail
# its stop leaves and the rounding of the sum.  _series adds one roundoff
# per term summed, since each ratio's rounding carries into every later
# term (about a tenth of that was measured at 2,000 and 25,000 terms)
_SUM_ERR = SERIES_RTOL + 8.0 * _EPS
# a form is used when its rounding bound is at most this, about 13 digits
_FORM_RTOL = 1e-13
# the largest bound a fallback value may carry, past one roundoff per term
# summed: that part grows with the terms alone (millions in an all-positive
# series at killing rates near 1e6), not with cancellation
_FALLBACK_RTOL = 1e-10
# most leading terms of a sign-changing series that its bound will scan
_SIGN_HEAD_MAX = 4096


def _sign_head(a: float, b: float, c: float) -> int:
    """How many leading terms of F(a, b; c; t), t > 0, precede the terms that
    share one sign: 0 when every term ratio (a + k)(b + k) / (c + k) is
    positive, else the first k past every negative parameter."""
    negs = sorted(math.ceil(-x) for x in (a, b, c) if x < 0.0)
    if not negs or (len(negs) == 2 and negs[0] == negs[1]):
        return 0
    return negs[-1]


def _least_terms(a: float, b: float, c: float, t: float) -> float:
    """A lower bound on the terms ``_sum_series`` sums for F(a, b; c; t),
    0 < t < 1: when every term ratio (a + k)(b + k) t / ((c + k)(k + 1)) is
    at least t (a, b, c > 0, a + b >= c + 1 and ab >= c), the terms past the
    largest fall off no faster than t^k, and the stop needs one below
    (1 - t) SERIES_RTOL of the sum; else 0."""
    if a > 0.0 and b > 0.0 and c > 0.0 and a + b - c >= 1.0 and a * b >= c:
        return math.log(SERIES_RTOL * (1.0 - t)) / math.log(t)
    return 0.0


def _series(a: float, b: float, c: float, t: float, head: int, budget: float) -> tuple[LogValue, float] | None:
    """F(a, b; c; t), 0 < t < 1, summed directly, with a first-order bound
    on its relative rounding error; None, without summing, when the bound
    would exceed budget for the terms alone (``_least_terms``).

    Past head = _sign_head(a, b, c) terms the terms share one sign.  Over
    that head the bound takes the cancellation kappa = sum |t_k| / |F| and
    the rounding of each term ratio, which carries into every later term:
    its numerator k^2 + k s + p cancels near a zero of (a + k)(b + k), and
    a lower parameter near -k magnifies the rounding it was formed with.
    """
    # terms fall off like k^(a + b - c - 1) t^k: with c - a - b <= 0 the
    # sum grows without bound as t -> 1, and within 1/_TERM_BUDGET of 1 it
    # cannot settle in the terms the summation may spend
    if c - a - b <= 0.0 and 1.0 - t < 1.0 / _TERM_BUDGET:
        raise OutOfDomainError(
            f"series diverges at z = 1 for b2 - b0 - b1 = {c - a - b} <= 0, "
            f"and z = {t} lies within {1.0 / _TERM_BUDGET:.2g} of it"
        )
    if _SUM_ERR + _EPS * _least_terms(a, b, c, t) > budget:
        return None
    s, p = a + b, a * b
    value = _sum_series(1.0, s, p, c, t)
    sum_err = _SUM_ERR + _EPS * value.terms_used
    if head == 0:
        return value, sum_err
    if head > _SIGN_HEAD_MAX or value.sign == 0.0:
        return value, math.inf
    # the head's signed and absolute sums, t_0 .. t_(head + 1), with a log carry
    term = total = mag = 1.0
    log_scale = ratio_err = 0.0
    k = 0.0
    for _ in range(head + 1):
        num = k * k + k * s + p
        if num == 0.0:  # the series terminates
            break
        ratio_err += (k * k + abs(k * s) + abs(p)) / abs(num) + abs(c) / abs(c + k)
        term *= num * t / ((c + k) * (k + 1.0))
        total += term
        mag += abs(term)
        if mag > _RESCALE_AT:
            term, total, mag, log_scale = (
                term / _RESCALE_AT, total / _RESCALE_AT, mag / _RESCALE_AT, log_scale + _RESCALE_LOG
            )
        k += 1.0
    shift = log_scale - value.log
    if shift > 700.0:
        return value, math.inf
    unit = math.exp(shift)  # one unit of the carry, in units of |F|
    kappa = mag * unit + abs(value.sign - total * unit)
    return value, (sum_err + _EPS * ratio_err) * kappa


def _same_argument(
    a: float, b: float, c: float, t: float, tol: float, budget: float
) -> tuple[str, LogValue, float] | None:
    """F(a, b; c; t), 0 < t < 1, as Euler's (1 - t)^(c-a-b) F(c - a, c - b;
    c; t) when it has fewer leading terms than the direct series before its
    terms share one sign, then, if Euler's bound exceeds tol, as the direct
    series; else as the direct series alone.  Returns the form ("direct" or
    "euler"), value and bound of the one summed with the smaller bound, with
    the terms of both counted, or None when ``_series`` declined the budget
    for each."""
    head, euler_head = _sign_head(a, b, c), _sign_head(c - a, c - b, c)
    euler = None
    # Euler's series cannot settle next to t = 1 where the direct one can
    settles = a + b - c > 0.0 or 1.0 - t >= 1.0 / _TERM_BUDGET
    if settles and euler_head < head:
        d = c - a - b
        log_t1 = math.log1p(-t)
        pre = d * log_t1
        # d carries the rounding of its two differences into the exponent
        pre_err = _EPS * (2.0 * abs(pre) + (abs(c - a) + abs(d)) * abs(log_t1) + 1.0)
        summed = _series(c - a, c - b, c, t, euler_head, budget - pre_err)
        if summed is not None:
            value, bound = summed
            euler = LogValue(value.log + pre, value.sign, value.terms_used), bound + pre_err
            if euler[1] <= tol:
                return "euler", *euler
            budget = min(budget, euler[1])
    direct = _series(a, b, c, t, head, budget)
    if direct is None:
        return None if euler is None else ("euler", *euler)
    if euler is None:
        return "direct", *direct
    spent = euler[0].terms_used + direct[0].terms_used
    name, (value, bound) = ("euler", euler) if euler[1] < direct[1] else ("direct", direct)
    return name, LogValue(value.log, value.sign, spent), bound


def _signed_log_gamma(x: float) -> tuple[float, float]:
    """(log |Gamma(x)|, sign of Gamma(x)) for x not a nonpositive integer."""
    return math.lgamma(x), 1.0 if x > 0.0 or math.ceil(-x) % 2 == 0 else -1.0


def _digamma_size(x: float) -> float:
    """An estimate of |psi(x)| from above: its logarithmic growth plus the
    nearest pole."""
    pole = abs(x - round(x)) if x < 0.5 else math.inf
    return math.log(abs(x) + 2.0) + 1.0 / pole


def _connection(a: float, b: float, c: float, s: float, b_err: float, tol: float) -> tuple[LogValue, float] | None:
    """F(a, b; c; 1 - s), 0 < s < 1/2, by the 1 - z connection formula
    (A&S 15.3.6; DLMF 15.8.4) with d = c - a - b not an integer:

        Gamma(c) Gamma(d) / (Gamma(c - a) Gamma(c - b)) F(a, b; 1 - d; s)
        + s^d Gamma(c) Gamma(-d) / (Gamma(a) Gamma(b)) F(c - a, c - b; 1 + d; s),

    each inner series through _same_argument.  The caller passes s rather
    than the argument, so that s keeps its relative accuracy near z = 1.

    Returns the value and its rounding bound: each part's bound (its inner
    series', its Gamma values' and its power's, with the rounding that
    forms their arguments) weighted by the part's size over the sum's, so
    cancellation between the parts counts.  Since those weights sum to at
    least 1, the bound is at least the smallest part's coefficient bound;
    when that alone exceeds tol (large parameters), no inner series is
    summed and the result is None, as it is for an integer d, where the
    formula has a logarithmic limit instead.
    """
    d = c - a - b
    if d == math.floor(d) or not max(abs(a), abs(b), abs(c)) < 1e300:
        return None
    # the rounding each Gamma argument carries, in units of roundoff: a and
    # c are exact, b carries b_err, and each difference adds its own
    ca_err, cb_err = abs(c - a), abs(c - b) + b_err
    d_err = ca_err + abs(d) + b_err
    log_s = math.log(s)
    coefs = []
    for gammas, power, inner in (
        (((c, 0.0), (d, d_err), (c - a, ca_err), (c - b, cb_err)), 0.0, (a, b, 1.0 - d)),
        (((c, 0.0), (-d, d_err), (a, 0.0), (b, b_err)), d, (c - a, c - b, 1.0 + d)),
    ):
        if _is_nonpositive_int(gammas[2][0]) or _is_nonpositive_int(gammas[3][0]):
            continue  # 1/Gamma vanishes there, and the part with it
        log, sign = power * log_s, 1.0
        err = 2.0 * abs(log) + (d_err * abs(log_s) if power else 0.0)
        for i, (x, x_err) in enumerate(gammas):
            lg, sg = _signed_log_gamma(x)
            log, sign = (log + lg, sign * sg) if i < 2 else (log - lg, sign * sg)
            err += abs(lg) + x_err * _digamma_size(x)
        coefs.append((log, sign, _EPS * err, inner))
    if not coefs or min(err for _, _, err, _ in coefs) > tol:
        return None
    total = LogValue(-math.inf, 0.0)
    parts = []
    for log, sign, err, inner in coefs:
        _, value, bound = _same_argument(*inner, s, _FORM_RTOL, math.inf)
        part = LogValue(log + value.log, sign * value.sign, value.terms_used)
        parts.append((part, err + bound))
        total = total.add(part)
    if total.sign == 0.0:
        return total, math.inf
    return total, sum(math.exp(part.log - total.log) * err for part, err in parts)


def _selected(a: float, b: float, c: float, z: float) -> tuple[str, LogValue]:
    """The form the selector sums F(a, b; c; z) in, for 0 != z < 1 and no
    upper parameter a nonpositive integer, and its value.

    Each candidate carries a rounding bound, and the first whose bound is
    at most _FORM_RTOL is used:
    - past an argument of 1/2, the connection formula in 1 - z (z > 1/2) or
      in 1 - w = 1 / (1 - z) (z < -1);
    - for z > 0, the direct series, or Euler's form when the direct terms
      change sign over more leading terms;
    - for z < 0, Pfaff's (1 - z)^-a F(a, c - b; c; w), w = z / (z - 1) in
      (0, 1), or the same with a and b swapped, again chosen by sign.
    When none passes ("fallback"), the candidate with the smaller bound is
    used if that bound, less a roundoff per term summed, is at most
    _FALLBACK_RTOL: a form that narrowly misses the bound is still far
    better than the direct series whose terms it was chosen to avoid.  Past
    that it raises SeriesConvergenceError naming the bound.  A candidate
    whose bound is ruled out before summing (``_connection``'s coefficients,
    the least terms of ``_series``) is not summed.  Terms summed for a
    candidate not used count in terms_used.
    """
    if z > 0.0:
        t, s, log_pre, names = z, 1.0 - z, 0.0, {"direct": "direct", "euler": "euler"}
    else:
        t, s, log_pre = z / (z - 1.0), 1.0 / (1.0 - z), -a * math.log1p(-z)
        names = {"direct": "pfaff a", "euler": "pfaff b"}
        b = c - b
    tol = _FORM_RTOL - 2.0 * _EPS * abs(log_pre)
    conn = _connection(a, b, c, s, 0.0 if z > 0.0 else abs(b), tol) if t > 0.5 else None
    if conn is not None and conn[1] <= tol:
        return ("connection" if z > 0.0 else "pfaff connection"), _prefixed(conn[0], log_pre, 0)
    same = _same_argument(a, b, c, t, tol, math.inf if conn is None else conn[1])
    if same is not None and same[2] <= tol:
        return names[same[0]], _prefixed(same[1], log_pre, 0 if conn is None else conn[0].terms_used)
    if same is None or (conn is not None and conn[1] < same[2]):
        (value, bound), spent = conn, 0 if same is None else same[1].terms_used
    else:
        (_, value, bound), spent = same, 0 if conn is None else conn[0].terms_used
    if not bound <= _FALLBACK_RTOL + _EPS * value.terms_used:
        raise SeriesConvergenceError(
            f"no summation form keeps 10 digits at z={z}: the best rounding bound is {bound:.3g}",
            terms_used=value.terms_used + spent,
        )
    return "fallback", _prefixed(value, log_pre, spent)


def _prefixed(value: LogValue, log_pre: float, spent: int) -> LogValue:
    """exp(log_pre) * value, with spent more terms counted."""
    return LogValue(value.log + log_pre, value.sign, value.terms_used + spent)


def gauss_2f1_log(b0: float, b1: float, b2: float, z: float) -> LogValue:
    """Gauss hypergeometric F(b0, b1; b2; z) for real parameters, log-scaled.

    On z < 1, z != 0, ``_selected`` picks the form each value is summed in:
    the direct series, Euler's or Pfaff's transformation (so the summed
    terms share one sign where such a form exists, and z < -1 is reached),
    and past an argument of 1/2 the connection formula in 1 - z (non-integer
    b2 - b0 - b1), so that every series it sums has an argument of at most
    1/2.  A form is used when its rounding bound keeps about 13 digits (at
    most 1e-13); when none does, the candidate with the smaller bound is,
    which is the direct series (Pfaff's for z < 0) where no transformation
    was tried, unless that bound also misses about 10 digits
    (SeriesConvergenceError).
    At z = 1 the Gauss closed form is used when its Gamma arguments are
    positive, and the series under the classical convergence conditions.
    Terminating cases (an upper parameter a nonpositive integer) are summed
    exactly for any z.
    """
    _check_lower_param(b2)
    if z == 0.0:
        return LogValue(0.0, 1.0, 1)

    terminating = _is_nonpositive_int(b0) or _is_nonpositive_int(b1)
    if terminating:
        return _sum_series(1.0, b0 + b1, b0 * b1, b2, z)

    if z > 1.0:
        raise OutOfDomainError(f"z = {z} > 1 lies outside the series domain")
    if z < 1.0:
        return _selected(b0, b1, b2, z)[1]
    if b2 - b0 - b1 <= 0.0:
        raise OutOfDomainError(f"series diverges at z = 1 for b2 - b0 - b1 = {b2 - b0 - b1} <= 0")
    closed = _gauss_at_unit_log(b0, b1, b2)
    if closed is not None:
        return closed
    return _sum_series(1.0, b0 + b1, b0 * b1, b2, z)


def gauss_2f1_pair_log(pair_sum: float, pair_product: float, b2: float, z: float) -> LogValue:
    """F with complex-conjugate upper parameters given as (sum, product).

    Only |z| < 1 is supported: without real roots the Pfaff transformation
    would require complex arithmetic, and every in-domain query keeps the
    argument inside the unit interval.
    """
    _check_lower_param(b2)
    if z == 0.0:
        return LogValue(0.0, 1.0, 1)
    if abs(z) >= 1.0:
        raise OutOfDomainError(f"conjugate-pair series requires |z| < 1, got z = {z}")
    return _sum_series(1.0, pair_sum, pair_product, b2, z)


def kummer_1f1_log(a: float, b: float, z: float) -> LogValue:
    """Confluent hypergeometric Phi(a; b; z), log-scaled.

    Negative arguments are routed through Kummer's transformation
    Phi(a;b;z) = e^z Phi(b-a; b; -z) so every partial sum has positive terms.
    """
    _check_lower_param(b, name="b")
    if z == 0.0:
        return LogValue(0.0, 1.0, 1)

    if z < 0.0 and not _is_nonpositive_int(a):
        inner = kummer_1f1_log(b - a, b, -z)
        return LogValue(inner.log + z, inner.sign, inner.terms_used)

    # for a, b > 0 every term ratio (k + a) z / ((k + b)(k + 1)) is at least
    # min(1, a/b) z / (k + 1), so here all ratios before the cap exceed 2:
    # the terms grow the whole way and summing them could only reach the cap
    if a > 0.0 and b > 0.0 and z > 2.0 * SERIES_CAP * max(1.0, b / a):
        raise SeriesConvergenceError(
            f"hypergeometric series did not converge in {SERIES_CAP} terms (z={z})",
            terms_used=SERIES_CAP,
        )
    return _sum_series(0.0, 1.0, a, b, z)


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0, from ``math.lgamma`` (a few ulp from 5e-324
    up; past about 2.5e305 the value leaves double range)."""
    if not (x > 0.0):
        raise ParameterError(f"log_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DoubleRangeError(f"log_gamma({x}) leaves double range") from None


def beta_fn(p: float, r: float) -> float:
    """Euler beta B(p, r) for positive arguments."""
    if not (p > 0.0 and r > 0.0):
        raise ParameterError(f"beta_fn requires positive arguments, got ({p}, {r})")
    try:
        return math.exp(log_gamma(p) + log_gamma(r) - log_gamma(p + r))
    except OverflowError:
        raise DoubleRangeError(f"beta_fn({p}, {r}) leaves double range") from None
