import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import random_unitary, tangent_split
from wyinfo.errors import DomainError, InvariantViolation
from wyinfo.linalg import (
    KrausChannel,
    TrialStream,
    _haar_from_gaussian,
    apply_channel,
    apply_kernel_superop,
    assert_density,
    assert_hermitian,
    assert_tangent,
    commutator,
    hs_inner,
    matrix_function,
    random_density,
    random_kraus_channel,
    random_tangent,
    spectral_decompose,
)
from wyinfo.monotone import catalog_entry, metric_eval

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

st_dim = st.integers(min_value=2, max_value=5)
st_seed = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------

def test_assert_hermitian_rejects_asymmetric():
    bad = np.array([[1.0, 1e-6], [0.0, 1.0]])
    with pytest.raises(InvariantViolation) as exc:
        assert_hermitian(bad)
    assert exc.value.invariant == "hermitian"


def test_assert_density_rejects_trace_and_positivity():
    with pytest.raises(InvariantViolation) as exc:
        assert_density(np.diag([0.9, 0.2]))
    assert exc.value.invariant == "unit-trace"
    with pytest.raises(InvariantViolation) as exc:
        assert_density(np.diag([1.1, -0.1]))
    assert exc.value.invariant == "strict-positivity"


def test_validators_reject_non_finite_entries():
    nan_off = np.array([[0.5, np.nan], [np.nan, 0.5]], dtype=complex)
    for check in (assert_hermitian, assert_density, assert_tangent):
        with pytest.raises(InvariantViolation) as exc:
            check(nan_off)
        assert exc.value.invariant == "finite"
    with pytest.raises(InvariantViolation) as exc:
        assert_tangent(np.diag([np.inf, -np.inf]))
    assert exc.value.invariant == "finite"


def test_assert_tangent_rejects_trace():
    with pytest.raises(InvariantViolation) as exc:
        assert_tangent(np.eye(2))
    assert exc.value.invariant == "traceless"


# ---------------------------------------------------------------------------
# Spectral decomposition and functional calculus
# ---------------------------------------------------------------------------

def test_spectral_decompose_diagonal():
    sd = spectral_decompose(np.diag([0.1, 0.9]))
    assert np.allclose(sd.eigenvalues, [0.1, 0.9])
    assert np.allclose(np.abs(sd.unitary), np.eye(2))


def test_spectral_decompose_scalar_matrix():
    sd = spectral_decompose(0.5 * np.eye(2))
    assert np.allclose(sd.eigenvalues, [0.5, 0.5])
    assert np.allclose(sd.unitary @ sd.unitary.conj().T, np.eye(2), atol=1e-12)


@given(n=st_dim, seed=st_seed)
def test_spectral_reconstruction(n, seed):
    h = random_tangent(n, seed) + np.eye(n)
    w, u = spectral_decompose(h)
    resid = np.linalg.norm(u @ np.diag(w) @ u.conj().T - h)
    assert resid <= 1e-10 * (1.0 + np.linalg.norm(h))
    assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-10
    assert np.all(np.diff(w) >= 0)


def test_matrix_function_identity_and_sqrt():
    rho = np.diag([0.25, 0.75]).astype(complex)
    assert np.allclose(matrix_function(rho, lambda x: x), rho)
    root = matrix_function(rho, np.sqrt)
    assert np.allclose(np.diag(root), [0.5, np.sqrt(0.75)])


@given(seed=st_seed)
def test_matrix_function_composition(seed):
    rho = random_density(3, seed)
    twice = matrix_function(matrix_function(rho, np.sqrt), np.sqrt)
    quarter = matrix_function(rho, lambda x: x**0.25)
    assert np.max(np.abs(twice - quarter)) <= 1e-11
    roundtrip = matrix_function(matrix_function(rho, np.log), np.exp)
    assert np.max(np.abs(roundtrip - rho)) <= 1e-11


def test_matrix_function_domain_error():
    rho = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(DomainError):
        matrix_function(rho, lambda x: np.log(x - 0.5))


@pytest.mark.parametrize("n", [2, 3, 8])
def test_stacked_spectral_core_matches_slices_bitwise(n):
    rhos = np.stack([random_density(n, 10 * n + k) for k in range(5)])
    xs = np.stack([random_tangent(n, 20 * n + k) for k in range(5)])
    kernel = catalog_entry("bkm").c
    w, u = spectral_decompose(rhos)
    roots = matrix_function(rhos, np.sqrt)
    out = apply_kernel_superop(rhos, kernel, xs)
    for k in range(5):
        wk, uk = spectral_decompose(rhos[k])
        assert np.array_equal(w[k], wk) and np.array_equal(u[k], uk)
        assert np.array_equal(roots[k], matrix_function(rhos[k], np.sqrt))
        assert np.array_equal(out[k], apply_kernel_superop(rhos[k], kernel, xs[k]))


def test_spectral_callables_must_broadcast():
    rho = random_density(3, 0)
    calls = (
        lambda: matrix_function(rho, lambda x: np.ones(4)),
        lambda: apply_kernel_superop(rho, lambda a, b: np.ones((2, 2)), rho),
    )
    for call in calls:
        with pytest.raises(InvariantViolation) as exc:
            call()
        assert exc.value.invariant == "vectorized"


# ---------------------------------------------------------------------------
# Kernel superoperator
# ---------------------------------------------------------------------------

def test_kernel_identity():
    rho = random_density(3, 0)
    x = random_tangent(3, 1)
    out = apply_kernel_superop(rho, lambda a, b: np.ones_like(a * b), x)
    assert np.max(np.abs(out - x)) <= 1e-12


def test_kernel_left_inverse_on_diagonal():
    rho = np.diag([0.2, 0.8]).astype(complex)
    x = np.diag([1.0, -1.0]).astype(complex)
    out = apply_kernel_superop(rho, lambda a, b: 1.0 / a, x)
    assert np.allclose(np.diag(out), [1.0 / 0.2, -1.0 / 0.8])


def test_kernel_wy_on_maximally_mixed():
    # c(x, x) = 1/x, so at I/2 every entry is scaled by 2
    wy = catalog_entry("wy")
    out = apply_kernel_superop(0.5 * np.eye(2), wy.c, PAULI_X)
    assert np.allclose(out, 2.0 * PAULI_X)


@given(seed=st_seed)
def test_kernel_hermiticity_and_self_adjointness(seed):
    wy = catalog_entry("wy")
    rho = random_density(4, seed)
    a = random_tangent(4, seed + 1)
    b = random_tangent(4, seed + 2)
    ka = apply_kernel_superop(rho, wy.c, a)
    assert np.max(np.abs(ka - ka.conj().T)) <= 1e-12
    lhs = hs_inner(a, apply_kernel_superop(rho, wy.c, b))
    rhs = hs_inner(apply_kernel_superop(rho, wy.c, a), b)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


# ---------------------------------------------------------------------------
# Hilbert-Schmidt product
# ---------------------------------------------------------------------------

def test_hs_inner_pauli_values():
    assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)
    assert hs_inner(PAULI_X, PAULI_Y) == pytest.approx(0.0, abs=1e-15)
    assert hs_inner(PAULI_X, PAULI_X) == pytest.approx(2.0)


def test_hs_inner_dim_mismatch():
    with pytest.raises(InvariantViolation):
        hs_inner(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# Tangent split
# ---------------------------------------------------------------------------

def test_tangent_split_commuting_case():
    rho = np.diag([0.6, 0.3, 0.1]).astype(complex)
    a = np.diag([0.5, -0.25, -0.25]).astype(complex)
    split = tangent_split(rho, a)
    assert np.max(np.abs(split.commuting - a)) <= 1e-12
    assert np.max(np.abs(split.generator)) <= 1e-12


def test_tangent_split_two_level_hand_value():
    # i[rho, U] = sigma_x forces U_01 = 1/(0.8 i) = -1.25 i
    rho = np.diag([0.9, 0.1]).astype(complex)
    split = tangent_split(rho, PAULI_X)
    assert np.max(np.abs(split.commuting)) <= 1e-12
    expected_u = np.array([[0.0, -1.25j], [1.25j, 0.0]])
    assert np.allclose(split.generator, expected_u, atol=1e-12)
    recon = split.commuting + 1j * commutator(rho, split.generator)
    assert np.allclose(recon, PAULI_X, atol=1e-12)


@given(n=st_dim, seed=st_seed)
def test_tangent_split_reconstruction_and_orthogonality(n, seed):
    rho = random_density(n, seed)
    a = random_tangent(n, seed + 1)
    split = tangent_split(rho, a)
    orth = 1j * commutator(rho, split.generator)
    assert np.max(np.abs(split.commuting + orth - a)) <= 1e-9
    assert np.max(np.abs(commutator(split.commuting, rho))) <= 1e-9
    assert abs(hs_inner(split.commuting, orth)) <= 1e-9
    assert np.max(np.abs(split.generator - split.generator.conj().T)) <= 1e-9


def test_tangent_split_degenerate_spectrum():
    rho = 0.5 * np.eye(2)
    split = tangent_split(rho, PAULI_X)
    assert np.allclose(split.commuting, PAULI_X)
    assert np.max(np.abs(split.generator)) <= 1e-12


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

def test_random_generators_deterministic():
    assert np.array_equal(random_density(4, 123), random_density(4, 123))
    assert np.array_equal(random_tangent(4, 123), random_tangent(4, 123))
    ka = random_kraus_channel(3, 4, 2, 9)
    kb = random_kraus_channel(3, 4, 2, 9)
    assert all(np.array_equal(x, y) for x, y in zip(ka.kraus, kb.kraus))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_random_density_seed_sequence_equals_per_seed(n):
    # a stream's trials are a sequence of per-trial streams; config seeds up
    # to and past 2**63, which int64 cannot hold, and a negative one (masked)
    for seed in [0, 1, 2**63, 2**64 - 1, -1]:
        stack = random_density(n, TrialStream(seed, 7, 3, 10))
        assert stack.shape == (7, n, n)
        alone = [random_density(n, TrialStream(seed, 7, j, j + 1)) for j in range(3, 10)]
        assert np.array_equal(stack, np.concatenate(alone))
    assert np.array_equal(random_density(n, TrialStream(-1, 7, 0, 2)),
                          random_density(n, TrialStream(2**64 - 1, 7, 0, 2)))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_seeded_stacks_equal_per_seed(n):
    stream = TrialStream(2**64 - 1, 2**63 + 5, 11, 16)
    tangents = random_tangent(n, stream)
    channels = random_kraus_channel(n, n + 1, 3, stream)
    assert tangents.shape == (5, n, n)
    assert channels.kraus.shape == (5, 3, n + 1, n)
    for k in range(5):
        one = stream._replace(start=11 + k, stop=12 + k)
        assert np.array_equal(tangents[k], random_tangent(n, one)[0])
        assert np.array_equal(channels.kraus[k], random_kraus_channel(n, n + 1, 3, one).kraus[0])


@pytest.mark.parametrize("n", [2, 3, 5])
def test_channel_and_metric_stacks_match_slices_bitwise(n):
    channels = random_kraus_channel(n, n, 3, TrialStream(n, 0, 0, 4))
    rhos = random_density(n, TrialStream(n, 1, 0, 4))
    xs = random_tangent(n, TrialStream(n, 2, 0, 4))
    ys = random_tangent(n, TrialStream(n, 3, 0, 4))
    out = apply_channel(channels, rhos)
    first = KrausChannel(channels.kraus[0])
    one_channel = apply_channel(first, rhos)
    bkm = catalog_entry("bkm")
    g = metric_eval(bkm, rhos, xs, ys)
    assert g.shape == (4,)
    for k in range(4):
        channel = KrausChannel(channels.kraus[k])
        in_order = sum(m @ rhos[k] @ m.conj().T for m in channel.kraus)
        assert np.array_equal(out[k], in_order)
        assert np.array_equal(out[k], apply_channel(channel, rhos[k]))
        assert np.array_equal(one_channel[k], apply_channel(first, rhos[k]))
        assert g[k] == metric_eval(bkm, rhos[k], xs[k], ys[k])


def test_random_density_floor_and_validity():
    for seed in range(100):
        rho = random_density(3, seed)
        assert_density(rho)
        lo = np.linalg.eigvalsh(rho)[0]
        assert lo >= 1e-3 / 3 - 1e-12


def test_random_tangent_is_tangent():
    for seed in range(20):
        assert_tangent(random_tangent(3, seed))


def test_random_kraus_channel_isometry_residual():
    for seed in range(100):
        ch = random_kraus_channel(2, 2, 2, seed)
        s = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(s - np.eye(2))) <= 1e-10


def test_kraus_channel_rejects_non_finite():
    with pytest.raises(InvariantViolation) as exc:
        KrausChannel(kraus=(np.diag([1.0, np.nan]),))
    assert exc.value.invariant == "finite"


def test_kraus_channel_rejects_non_trace_preserving():
    with pytest.raises(InvariantViolation) as exc:
        KrausChannel(kraus=(np.eye(2) * 0.5,))
    assert exc.value.invariant == "trace-preserving"


def _channel_stack():
    return random_kraus_channel(3, 2, 2, TrialStream(1, 0, 0, 4)).kraus.copy()  # (4, 2, 2, 3)


def test_kraus_stack_rejects_one_non_trace_preserving_channel():
    kraus = _channel_stack()
    KrausChannel(kraus)
    kraus[2, 1] *= 1.0 + 1e-9
    with pytest.raises(InvariantViolation) as exc:
        KrausChannel(kraus)
    assert exc.value.invariant == "trace-preserving"
    assert "slice (2,)" in str(exc.value)


def test_kraus_stack_rejects_one_non_finite_channel():
    kraus = _channel_stack()
    kraus[3, 0, 1, 2] = np.nan
    with pytest.raises(InvariantViolation) as exc:
        KrausChannel(kraus)
    assert exc.value.invariant == "finite"
    assert "slice (3,)" in str(exc.value)


@pytest.mark.parametrize("kraus", [
    np.eye(2),                                    # one matrix, no Kraus axis
    (np.eye(2), np.eye(3)),                       # ragged Kraus matrices
])
def test_kraus_stack_rejects_wrong_shape(kraus):
    with pytest.raises(InvariantViolation) as exc:
        KrausChannel(kraus)
    assert exc.value.invariant == "kraus-shape"


def test_kraus_channel_rejects_empty():
    for kraus in ((), np.zeros((3, 0, 2, 2))):
        with pytest.raises(InvariantViolation) as exc:
            KrausChannel(kraus)
        assert exc.value.invariant == "kraus-nonempty"


# ---------------------------------------------------------------------------
# Channel application
# ---------------------------------------------------------------------------

def test_apply_channel_identity():
    ch = KrausChannel(kraus=(np.eye(3),))
    x = random_tangent(3, 2)
    assert np.allclose(apply_channel(ch, x), x)


def test_apply_channel_depolarizing():
    n = 3
    kraus = []
    for i in range(n):
        for j in range(n):
            k = np.zeros((n, n), dtype=complex)
            k[i, j] = 1.0 / np.sqrt(n)
            kraus.append(k)
    ch = KrausChannel(kraus=tuple(kraus))
    rho = random_density(n, 5)
    assert np.allclose(apply_channel(ch, rho), np.eye(n) / n, atol=1e-12)


def test_apply_channel_trace_and_positivity():
    for seed in range(100):
        ch = random_kraus_channel(3, 3, 2, seed)
        rho = random_density(3, seed + 1)
        out = apply_channel(ch, rho)
        assert abs(np.trace(out).real - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(0.5 * (out + out.conj().T))[0] >= -1e-12
        a = random_tangent(3, seed + 2)
        out_a = apply_channel(ch, a)
        assert abs(np.trace(out_a)) <= 1e-10
        assert np.max(np.abs(out_a - out_a.conj().T)) <= 1e-10


def test_apply_channel_dim_mismatch():
    ch = random_kraus_channel(2, 2, 1, 0)
    with pytest.raises(InvariantViolation):
        apply_channel(ch, np.eye(3))
    # the input dimension is the Kraus array's last axis: C^3 -> C^2 takes 3 x 3, gives 2 x 2
    ch = random_kraus_channel(3, 2, 2, 0)
    assert apply_channel(ch, np.eye(3) / 3).shape == (2, 2)
    with pytest.raises(InvariantViolation, match="shape-match"):
        apply_channel(ch, np.eye(2))


def test_unitary_is_haar_unitary():
    u = random_unitary(4, 7)
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) <= 1e-12


@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_random_unitary_bits(n, seed):
    # phase-corrected QR of the Ginibre matrix drawn from rng_from(seed), written out
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    z = rng.standard_normal((2, n, n))
    q, r = np.linalg.qr(z[0] + 1j * z[1])
    d = np.diagonal(r)
    assert np.array_equal(random_unitary(n, seed), q * (d / np.abs(d))[None, :])


@pytest.mark.parametrize("draw", [
    lambda: random_unitary(0, 1),
    lambda: random_unitary(-1, 1),
    lambda: random_density(1, 1),
    lambda: random_tangent(1, 1),
    lambda: random_kraus_channel(2, 2, 0, 1),
], ids=["unitary-0", "unitary-negative", "density-1", "tangent-1", "kraus-env-0"])
def test_generators_reject_dimension(draw):
    with pytest.raises(InvariantViolation) as exc:
        draw()
    assert exc.value.invariant == "dimension"


def test_isometry_needs_rows_for_its_columns():
    with pytest.raises(InvariantViolation) as exc:
        _haar_from_gaussian(np.ones((2, 3), dtype=complex))
    assert exc.value.invariant == "isometry-dims"
