"""Helpers shared by the workloads: seeded draws, input hashing and the
per-operation outcome record that feeds ``failed``/``attempted``."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

# Workload tags keep the three input streams of one seed independent.
_STREAM_TAGS = {"transforms": 1, "montecarlo": 2, "cli_files": 3}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    """PCG64 stream for one (workload, seed); uniform draws from it are
    stable across numpy releases, which keeps generated inputs byte-stable."""
    return np.random.default_rng([int(seed), _STREAM_TAGS[workload]])


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def log_strata(rng: np.random.Generator, lo: float, hi: float, k: int) -> list[float]:
    """One log-uniform draw inside each of k equal log-width strata of
    [lo, hi], in stratum order.  Stratifying keeps the mix of cheap and
    expensive inputs the same from seed to seed, so timings compare."""
    a, b = math.log(lo), math.log(hi)
    w = (b - a) / k
    return [float(math.exp(a + w * (i + rng.uniform()))) for i in range(k)]


def spread_points(rng: np.random.Generator, lo: float, hi: float, k: int) -> list[float]:
    """k jittered points, one per equal-width stratum of [lo, hi], ascending."""
    w = (hi - lo) / k
    return [float(lo + w * (i + rng.uniform())) for i in range(k)]


def inputs_digest(inputs) -> str:
    """sha256 of the canonical JSON text of generated inputs (floats in
    shortest round-trip form), so equal seeds give equal digests."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    """One operation of a workload: raised, failed its check, or passed.
    `known` marks a failure inside a documented program defect: it counts in
    ``failed`` but does not make the run incorrect."""

    op: str
    ok: bool = True
    error: str | None = None
    known: bool = False

    def fail(self, message: str) -> None:
        if self.ok:
            self.ok = False
            self.error = message


def error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"[:300]
