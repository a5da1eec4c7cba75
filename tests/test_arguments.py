"""Every library entry point reads a chain state, a whole number, a finite
value and a time by one rule each: an argument outside its rule raises a
ParameterError that names it, never a numpy TypeError or a nan result, and a
whole float reads as its int."""

import math

import numpy as np
import pytest

from kacou.errors import ParameterError
from kacou.first_passage import FptQuery
from kacou.invariant import empirical_invariant_profile, invariant_density
from kacou.model import KacOuModel, hitting_time, hyper_args, pattern_map, pattern_phi
from kacou.rng import stream
from kacou.scaling import ScaledPair, ScalingKind, ScalingSpec, convergence_check, scaled_model
from kacou.simulate import SimCaps, evaluate_x, fpt_samples, mc_laplace_fpt, sample_switch_sequence, terminal_values

M = KacOuModel.from_values(1, 1, 0, 1, 0.3, 0.2, 1, 1)
SEQ = sample_switch_sequence(M.rates, 0, 5.0, stream(1, "s"))
SPEC = ScalingSpec(ScalingKind.KAC_ASYMMETRIC, nu=1.0, velocity=ScaledPair(1.0, 0.3))

# each call raised a numpy TypeError, returned nan, was accepted or named
# another argument
REFUSED = {
    "fpt_samples-n": ("n", lambda: fpt_samples(M, 0.2, 0.5, 0, 2.5, 1)),
    "terminal_values-n": ("n", lambda: terminal_values(M, 0.0, 1.0, 2.5, 1)),
    "mc_laplace_fpt-n": ("n", lambda: mc_laplace_fpt(FptQuery(1.0, 0.2, 0.5, 0), M, 1000.5, 1)),
    "convergence_check-n_paths": ("n_paths", lambda: convergence_check(SPEC, 1.0, [10], 2.5, 1)),
    "empirical_invariant_profile-bins": ("bins", lambda: empirical_invariant_profile(M, 1000, 1.0, 2.5, 1)),
    "SimCaps-max_switches": ("max_switches", lambda: SimCaps(max_switches=2.5)),
    "stream-seed": ("seed", lambda: stream(1.5, "fpt")),
    "invariant_density-state": ("state", lambda: invariant_density(0.3, np.array([0, 1]), M)),
    "evaluate_x-t": ("t", lambda: evaluate_x(SEQ, 0.1, math.nan, M)),
    "pattern_phi-t": ("t", lambda: pattern_phi(0, math.nan, 0.2, M)),
    "pattern_map-t": ("t", lambda: pattern_map(0, math.nan, M)),
    "evaluate_x-x0": ("x0", lambda: evaluate_x(SEQ, np.array([0.1, 0.2]), 1.0, M)),
    "terminal_values-x0": ("x0", lambda: terminal_values(M, "1", 1.0, 3, 1)),
    "scaled_model-n": ("n", lambda: scaled_model(SPEC, math.nan)),
    # the flow kernel's times and points were parsed from text
    "pattern_map-t-text": ("t", lambda: pattern_map(0, "1", M)),
    "pattern_phi-x-text": ("x", lambda: pattern_phi(0, 1.0, "0.2", M)),
    "hitting_time-x-text": ("x", lambda: hitting_time(0, "0.2", 0.5, M)),
    "hitting_time-y-text": ("y", lambda: hitting_time(0, 0.2, "0.5", M)),
    "SimCaps-horizon": ("horizon", lambda: SimCaps(horizon="5")),
    "hyper_args-q-nan": ("q", lambda: hyper_args(math.nan, M)),
    "hyper_args-q-inf": ("q", lambda: hyper_args(math.inf, M)),
}


@pytest.mark.parametrize("name, call", REFUSED.values(), ids=REFUSED.keys())
def test_an_argument_outside_its_rule_raises_a_parameter_error_naming_it(name, call):
    with pytest.raises(ParameterError, match=rf"^{name} must be "):
        call()


# each printed the refused text bare, as if it were the number it spells
QUOTED = {
    "pattern_map-t": ("t must be a real number or an array of them, got '1'", lambda: pattern_map(0, "1", M)),
    "SimCaps-horizon": ("horizon must be > 0, got '5'", lambda: SimCaps(horizon="5")),
    "terminal_values-x0": ("x0 must be finite, got '1'", lambda: terminal_values(M, "1", 1.0, 3, 1)),
    "fpt_samples-initial_state": (
        "initial_state must be 0 or 1, got '1'",
        lambda: fpt_samples(M, 0.2, 0.5, "1", 10, 1),
    ),
    "fpt_samples-n": ("n must be a whole number of at least 1, got '10'", lambda: fpt_samples(M, 0.2, 0.5, 0, "10", 1)),
    "FptQuery-x": ("x must be finite, got 'nan'", lambda: FptQuery(1.0, "nan", 0.5, 0)),
}


@pytest.mark.parametrize("message, call", QUOTED.values(), ids=QUOTED.keys())
def test_a_refusal_quotes_the_text_it_refuses(message, call):
    with pytest.raises(ParameterError) as refused:
        call()
    assert str(refused.value) == message


@pytest.mark.parametrize("state", [1.0, np.float64(1.0)], ids=["float", "float64"])
def test_invariant_density_reads_a_whole_float_state_as_its_int(state):
    assert invariant_density(0.3, state, M) == invariant_density(0.3, 1, M)


def test_flow_kernel_keeps_a_lane_at_inf_or_nan():
    # the kernel reads its points by type alone: a pool round's lanes may
    # be +-inf or nan
    x = np.array([math.inf, -math.inf, math.nan])
    assert np.array_equal(pattern_phi(0, 1.0, x, M), x, equal_nan=True)
    assert hitting_time(0, x, 0.5, M).shape == x.shape


def test_fpt_samples_reads_a_whole_float_count_as_its_int():
    got, want = fpt_samples(M, 0.2, 0.5, 0, 3.0, 1), fpt_samples(M, 0.2, 0.5, 0, 3, 1)
    for name in ("times", "censored", "reason"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_the_namespace_holds_every_error_class():
    # a refusal is caught by the class that the package namespace names
    import kacou
    import kacou.errors

    classes = [c for c in vars(kacou.errors).values() if isinstance(c, type) and issubclass(c, kacou.errors.KacOuError)]
    assert {"DoubleRangeError", "WorkLimitError"} <= {c.__name__ for c in classes}
    for c in classes:
        assert getattr(kacou, c.__name__, None) is c and c.__name__ in kacou.__all__
