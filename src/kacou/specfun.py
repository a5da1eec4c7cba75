"""Self-contained special-function kernel: the Gauss hypergeometric series,
Kummer's confluent function, log-Gamma and Beta.

One summation loop serves both series.  The Gauss series is summed from the
(sum, product) of its upper parameters via the coefficient recurrence
c_{n+1} = c_n * (n^2 + n*sum + product), which keeps all arithmetic real even
for a complex-conjugate pair (``gauss_2f1_pair_log``); Kummer's series uses
the same loop with the numerator n + a.

That loop sums a scalar head (the first 256 terms, one at a time), then
numpy blocks (512 terms at first, doubling to at most 65,536).  A block forms
its terms and partial sums with sequential ``accumulate`` calls, so they are
bitwise the values of term-by-term summation; the indices where the loop
acts (a zero term, a rescale, the stop) are found with array masks and
taken by the scalar loop itself.  Results, term counts and errors are those
of the plain loop; past the head a term costs about a seventh as much.

Summation carries a separate log scale so that large-parameter evaluations
(e.g. killing rates of 1e6, where the function value overflows any double)
stay finite; ratios of such values are formed in log space via the
``*_log`` variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError, ParameterError, SeriesConvergenceError

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

# Lanczos approximation, g = 7, 9 terms.  Relative accuracy on the positive
# real axis is a few ulp, comfortably below the 1e-13 contract.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LOG_SQRT_2PI = 0.9189385332046727418


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


# terms the scalar loop takes before numpy blocks start (the median call
# sums about 70), the first and largest block widths, and the narrowest
# block worth its fixed cost (a block call costs about 90 loop terms)
_HEAD = 256
_BLOCK_FIRST = 512
_BLOCK_MAX = 65_536
_BLOCK_MIN = 128


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

    A scalar loop takes the first _HEAD terms, which is all most calls
    need.  Past them, numpy blocks (``_block``) take the terms the loop
    would add without acting on them; the loop itself takes each index
    where it acts (a zero term, a rescale or the stop).  A block cut short
    is followed by one twice as wide as the terms it used (at least
    _BLOCK_MIN), and a cut within _BLOCK_MIN terms means acts come densely,
    so the loop takes another _HEAD terms first.  Every term and partial sum
    is bitwise the one-at-a-time loop's.

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
    n = 0
    stop = _HEAD
    width = _BLOCK_FIRST
    safe_hi, safe_lo = _FACTOR_SAFE, -_FACTOR_SAFE  # locals: the loop reads them every term
    while True:
        k = float(n)  # a float counter: exact here, and cheaper than int-float arithmetic
        for n in range(n + 1, stop + 1):
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
            if mag <= SERIES_RTOL * abs(total) + SERIES_FLOOR:
                small_run += 1
                if small_run >= 2:
                    return _finish(total, log_scale, n + 1)
            else:
                small_run = 0
        while n < SERIES_CAP:
            m = min(width, SERIES_CAP - n)
            used, term, total, small_run, single_signed = _block(
                c2, c1, c0, b2, z, n, m, term, total, small_run, single_signed
            )
            n += used
            if used < m:
                break
            width = min(2 * width, _BLOCK_MAX)
        if n == SERIES_CAP:
            break
        # the loop takes the index where the blocks stopped, and _HEAD more
        # terms when they stopped within _BLOCK_MIN
        stop = min(n + (1 if used >= _BLOCK_MIN else _HEAD), SERIES_CAP)
        width = min(max(2 * used, _BLOCK_MIN), _BLOCK_MAX)
    # the log-space continuation is the Gauss series' large-parameter path;
    # Kummer's series (c2 = 0) reports the cap
    if c2 and single_signed and total > 0.0 and term > 0.0:
        return _long_tail_positive(c1, c0, b2, z, total, term, log_scale)
    raise SeriesConvergenceError(
        f"hypergeometric series did not converge in {SERIES_CAP} terms (z={z})",
        terms_used=SERIES_CAP,
    )


@np.errstate(over="ignore", invalid="ignore")
def _block(c2, c1, c0, b2, z, n, m, term, total, small_run, single_signed):
    """Terms n+1 .. n+m of ``_sum_series`` in one numpy pass.

    Returns how many of them the loop adds before the first index where it
    acts, with the term, total, small-term run and single-signed flag after
    those.  The ratios are the loop's expression, and both accumulations run
    in sequence from the loop's term and total, so each value is bitwise the
    loop's; values past the first such index may overflow and are dropped.
    """
    k = np.arange(n, n + m, dtype=float)
    terms = np.empty(m + 1)
    terms[0] = term
    factors = terms[1:]
    np.divide((c2 * k * k + c1 * k + c0) * z, (b2 + k) * (k + 1.0), out=factors)
    if single_signed:
        nonpositive = factors <= 0.0
    np.multiply.accumulate(terms, out=terms)
    totals = terms.copy()
    totals[0] = total
    np.add.accumulate(totals, out=totals)
    terms, totals = terms[1:], totals[1:]
    mag = np.abs(terms)
    size = np.abs(totals)
    small = mag <= SERIES_RTOL * size + SERIES_FLOOR
    acts = (terms == 0.0) | (mag > _RESCALE_AT) | (size > _RESCALE_AT)
    acts[1:] |= small[1:] & small[:-1]
    acts[0] |= small_run > 0 and small[0]
    used = int(acts.argmax())
    if not acts[used]:
        used = m
    if used == 0:
        return 0, term, total, small_run, single_signed
    if single_signed:
        single_signed = not nonpositive[:used].any()
    last = used - 1
    return used, float(terms[last]), float(totals[last]), int(small[last]), single_signed


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


def gauss_2f1_log(b0: float, b1: float, b2: float, z: float) -> LogValue:
    """Gauss hypergeometric F(b0, b1; b2; z) for real parameters, log-scaled.

    Direct series on 0 <= z < 1 (and at |z| = 1 under the classical
    convergence conditions); z < 0 is mapped into [0, 1) by the Pfaff
    transformation, which also provides the continuation to z < -1.
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
    # terms fall off like k^(b0 + b1 - b2 - 1) z^k: with b2 - b0 - b1 <= 0 the
    # sum grows without bound as z -> 1, and within 1/_TERM_BUDGET of 1 it
    # cannot settle in the terms the summation may spend
    if b2 - b0 - b1 <= 0.0 and 1.0 - z < 1.0 / _TERM_BUDGET:
        near = "" if z == 1.0 else f", and z = {z} lies within {1.0 / _TERM_BUDGET:.2g} of it"
        raise OutOfDomainError(f"series diverges at z = 1 for b2 - b0 - b1 = {b2 - b0 - b1} <= 0{near}")

    if z == 1.0:
        closed = _gauss_at_unit_log(b0, b1, b2)
        if closed is not None:
            return closed
        return _sum_series(1.0, b0 + b1, b0 * b1, b2, z)

    if z > 0.0:
        return _sum_series(1.0, b0 + b1, b0 * b1, b2, z)

    # z < 0: Pfaff with the smaller upper parameter in the exponent; the
    # transformed argument lies in (0, 1) so the summands are single-signed
    be, bo = (b0, b1) if abs(b0) <= abs(b1) else (b1, b0)
    w = z / (z - 1.0)
    inner = _sum_series(1.0, be + (b2 - bo), be * (b2 - bo), b2, w)
    return LogValue(inner.log - be * math.log1p(-z), inner.sign, inner.terms_used)


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
    """log Gamma(x) for x > 0 (Lanczos; no reflection needed on this domain)."""
    if not (x > 0.0):
        raise ParameterError(f"log_gamma requires x > 0, got {x}")
    xm1 = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (xm1 + i)
    t = xm1 + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (xm1 + 0.5) * math.log(t) - t + math.log(acc)


def beta_fn(p: float, r: float) -> float:
    """Euler beta B(p, r) for positive arguments."""
    if not (p > 0.0 and r > 0.0):
        raise ParameterError(f"beta_fn requires positive arguments, got ({p}, {r})")
    return math.exp(log_gamma(p) + log_gamma(r) - log_gamma(p + r))
