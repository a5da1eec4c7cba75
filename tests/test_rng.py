import numpy as np
from scipy.stats import kstest

from kacou.rng import stream


def test_stream_key_repeats_its_draws():
    a, b = stream(42, "p", 3), stream(42, "p", 3)
    assert np.array_equal(a.standard_exponential(1_000), b.standard_exponential(1_000))
    assert np.array_equal(a.random(100), b.random(100))


def test_stream_keys_give_distinct_first_draws():
    seeds, purposes = (0, 1, 2**32, 2**64 - 1), ("fpt", "terminal")
    keys = [(seed, purpose, rep) for seed in seeds for purpose in purposes for rep in range(125)]
    firsts = {stream(*key).standard_exponential() for key in keys}
    assert len(firsts) == len(keys) == 1_000


def test_stream_first_exponentials_across_replicates_are_exp1():
    firsts = [stream(5, "ks", rep).standard_exponential() for rep in range(4_096)]
    assert kstest(firsts, "expon").pvalue > 1e-3
