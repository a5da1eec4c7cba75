"""Independent reference values computed by the benchmark itself.

Conditional on the chain state, the switching OU process has linear moment
equations.  With p_i = P(J_t = i), m_i = E[X_t 1{J_t = i}] and
s_i = E[X_t^2 1{J_t = i}]:

    p_i' = -lam_i p_i + lam_j p_j
    m_i' = a_i p_i - (gamma_i + lam_i) m_i + lam_j m_j
    s_i' = b_i^2 p_i + 2 a_i m_i - (2 gamma_i + lam_i) s_i + lam_j s_j

so the exact mean and variance at any finite switching rate come from one
6x6 matrix exponential.  Nothing here calls the simulation code it checks.
"""

from __future__ import annotations

import math

import numpy as np


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a degree-18 Taylor
    polynomial (the scaled norm is at most 1/2, so truncation is below
    1e-22 before squaring)."""
    a = np.asarray(a, dtype=float)
    norm = float(np.max(np.sum(np.abs(a), axis=1)))
    squarings = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0.5 else 0
    scaled = a / 2.0**squarings
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 19):
        term = term @ scaled / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def switching_moments(lam, a, b, gamma, x0: float, t: float, p0) -> tuple[float, float]:
    """Exact (mean, variance) of X_t for the two-state switching OU process
    started at x0 with initial state law p0 = (P(J_0=0), P(J_0=1))."""
    l0, l1 = lam
    gen = np.zeros((6, 6))
    for i, j in ((0, 1), (1, 0)):
        p, m, s = i, 2 + i, 4 + i
        pj, mj, sj = j, 2 + j, 4 + j
        li, lj = (l0, l1)[i], (l0, l1)[j]
        gen[p, p], gen[p, pj] = -li, lj
        gen[m, p], gen[m, m], gen[m, mj] = a[i], -(gamma[i] + li), lj
        gen[s, p], gen[s, m], gen[s, s], gen[s, sj] = b[i] ** 2, 2.0 * a[i], -(2.0 * gamma[i] + li), lj
    start = np.array([p0[0], p0[1], x0 * p0[0], x0 * p0[1], x0 * x0 * p0[0], x0 * x0 * p0[1]])
    v = expm(gen * t) @ start
    mean = v[2] + v[3]
    return float(mean), float(v[4] + v[5] - mean * mean)


def histogram_l1_tolerance(bins: int, n: int) -> float:
    """Bound on the L1 distance between an n-sample histogram and its exact
    bin masses: E[L1] <= sqrt(2 bins / (pi n)) by Cauchy-Schwarz, taken with
    a 1.5 safety factor, plus 2e-3 for mass outside the binning window
    (charged twice by the program) and the start-up transient."""
    return 1.5 * math.sqrt(2.0 * bins / (math.pi * n)) + 2e-3
