"""The shared spectral core: the stack rule and the derivative at a coincidence.

Every function below takes one input or a stack (..., n, n).  Slice i of a
stacked call is, bit for bit, the call on slice i alone, and one input gives
a float wherever the value is a scalar.  Coincident difference quotients take
one complex step, which must match the closed-form derivatives.
"""

import numpy as np
import pytest

from oracles import (
    double_sqrt_function,
    hs_norm,
    identity_function,
    log_function,
    random_unitary,
    relative_modular_apply,
    tangent_split,
)
from wyinfo.divergence import g_entry, relative_g_entropy
from wyinfo.errors import InvariantViolation
from wyinfo.geometry import (
    bures_distance,
    power_function,
    pullback_differential,
    wy_distance_audit,
)
from wyinfo.linalg import (
    TrialStream,
    _complex_step,
    _divided_difference,
    apply_kernel_superop,
    hs_inner,
    random_density,
    random_tangent,
)
from wyinfo.monotone import catalog_entry, metric_eval, skew_information

WY = catalog_entry("wy")
G_WY = g_entry("g_wy")
G_UM = g_entry("g_umegaki")

# name -> (call on (rho, sigma, a, b), whether the value is a scalar)
STACKED = {
    "apply_kernel_superop": (lambda r, s, a, b: apply_kernel_superop(r, WY.c, a), False),
    "relative_modular_apply": (lambda r, s, a, b: relative_modular_apply(r, s, G_UM.g, a), False),
    "relative_g_entropy": (lambda r, s, a, b: relative_g_entropy(r, s, G_WY), True),
    "metric_eval": (lambda r, s, a, b: metric_eval(WY, r, a, b), True),
    "hs_inner": (lambda r, s, a, b: hs_inner(a, b), True),
    "hs_norm": (lambda r, s, a, b: hs_norm(a), True),
    "skew_information": (lambda r, s, a, b: skew_information(r, a), True),
    "wy_distance_audit": (lambda r, s, a, b: wy_distance_audit(r, s), True),
    "bures_distance": (lambda r, s, a, b: bures_distance(r, s), True),
    "tangent_split": (lambda r, s, a, b: tangent_split(r, a), False),
    "pullback_differential": (lambda r, s, a, b: pullback_differential(r, a), False),
}


def _stacked_inputs(shape: tuple, n: int):
    """States, second states and two tangents (*shape, n, n).

    Slice 0 of rho has a degenerate eigenvalue pair, so tangent_split's blocks
    differ between slices.
    """
    k = int(np.prod(shape))
    rho, sig = (random_density(n, TrialStream(n, tag, 0, k)) for tag in (0, 1))
    a, b = (random_tangent(n, TrialStream(n, tag, 0, k)) for tag in (2, 3))
    w = np.linspace(1.0, 2.0, n)
    w[1] = w[0]
    u = random_unitary(n, 7)
    degenerate = (u * (w / w.sum())) @ u.conj().T
    rho[0] = 0.5 * (degenerate + degenerate.conj().T)
    return [x.reshape(*shape, n, n) for x in (rho, sig, a, b)]


def _parts(out) -> tuple:
    return tuple(out) if isinstance(out, tuple) else (out,)


@pytest.mark.parametrize("name", list(STACKED))
@pytest.mark.parametrize("shape, n", [((2,), 2), ((3,), 3), ((2, 3), 4)])
def test_stack_slices_equal_single_calls(name, shape, n):
    fn, scalar = STACKED[name]
    inputs = _stacked_inputs(shape, n)
    stacked = _parts(fn(*inputs))
    for idx in np.ndindex(*shape):
        single = _parts(fn(*(x[idx] for x in inputs)))
        assert len(single) == len(stacked)
        for got, want in zip(stacked, single):
            if scalar:
                assert type(want) is float
                assert np.shape(got) == shape
            assert np.asarray(got)[idx].tobytes() == np.asarray(want).tobytes(), idx


# ---------------------------------------------------------------------------
# The derivative rule
# ---------------------------------------------------------------------------

# functions and their closed-form derivatives; at a coincidence the quotient takes a complex step
CLOSED_FORMS = [pytest.param(power_function(p), lambda x, p=p: x ** (p - 1.0), id=f"power[{p:g}]")
                for p in (-1.0, -0.5, 0.25, 0.5, 0.75, 1.5, 2.0)]
CLOSED_FORMS += [
    pytest.param(log_function(), lambda x: 1.0 / x, id="log"),
    pytest.param(identity_function(), np.ones_like, id="identity"),
    pytest.param(double_sqrt_function(), lambda x: 1.0 / np.sqrt(x), id="2sqrt"),
]


@pytest.mark.parametrize("phi, deriv", CLOSED_FORMS)
def test_coincident_difference_quotient_matches_closed_form(phi, deriv):
    # measured worst case 6 ulps (power[1.5], complex pow); the bound allows 16
    x = np.logspace(-2.0, 2.0, 401)
    got = _divided_difference(phi, x, x)
    want = deriv(x)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 16 * np.finfo(float).eps


def test_complex_step_on_an_array_equals_scalar_steps():
    t = np.logspace(-3.0, 3.0, 25)
    got = _complex_step(np.log, t)
    assert np.array_equal(got, [_complex_step(np.log, float(x)) for x in t])


def test_complex_step_rejects_a_real_valued_function():
    with pytest.raises(InvariantViolation) as exc:
        _complex_step(lambda x: np.real(x) ** 2, 1.5)
    assert exc.value.invariant == "complex-evaluable"
    real_square = lambda x: np.real(x) ** 2
    with pytest.raises(InvariantViolation) as exc:
        _divided_difference(real_square, np.ones(3), np.ones(3))
    assert exc.value.invariant == "complex-evaluable"


def test_divided_difference_promotes_ints_and_passes_complex_values():
    # integer arguments are promoted: an integer array to a negative power would raise
    assert _divided_difference(lambda x: x ** -1, 2, 1) == -0.5
    assert _divided_difference(lambda x: x ** -1, [2, 4], [2, 4]).tolist() == [-0.25, -0.0625]
    # a complex argument passes through, so the quotient can itself be complex-stepped:
    # (t^2 - 1) / (t - 1) = t + 1 has derivative 1
    step = _complex_step(lambda t: _divided_difference(lambda x: x ** 2, t, 1.0), 2.0)
    assert abs(step - 1.0) <= 4 * np.finfo(float).eps
