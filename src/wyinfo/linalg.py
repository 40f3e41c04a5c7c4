"""Hermitian linear-algebra substrate.

Spectral decomposition, scalar functional calculus, kernel superoperators,
Kraus channels, and seeded random generators for states, tangents and
channels.  The spectral functions
take one matrix (n, n) or a stack (..., n, n); each slice of a stack gives
the same bits as the slice on its own, and a scalar result is a float for
one matrix, an array for a stack.  `kernel_action` is the one kernel action
between two eigenbases, `_complex_step` the one derivative at a coincidence
(Squire and Trapp, SIAM Review 40, 1998), and `_divided_difference` the one
first divided difference.

Matrices are plain complex ndarrays; the validators below enforce the
structural invariants at construction/IO boundaries.  All functions are pure
and deterministic: randomness enters only through explicit seeds, an int
(one draw from rng_from) or a counter-based TrialStream (a stack of trials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, InvariantViolation

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-10
# random_density mixes with I/n at this weight so spectra stay away from the
# boundary of the positive cone.
DENSITY_FLOOR_EPS = 1e-3
# Matrix entries per block when a long run of samples or trials is stacked
# (256 matrices at n = 3): stacking all of them at once raises peak memory.
BLOCK_ENTRIES = 2304


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------

def assert_hermitian(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a square complex Hermitian ndarray."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvariantViolation("square", f"{name} has shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvariantViolation("finite", f"{name} has NaN or infinite entries")
    if a.size:
        asym = float(np.max(np.abs(a - a.conj().T)))
        if asym > HERMITICITY_ATOL:
            raise InvariantViolation("hermitian",
                                     f"{name} asymmetry {asym:.3e} > {HERMITICITY_ATOL:.1e}")
    return a


def assert_density(rho, name: str = "density") -> np.ndarray:
    """Validate a strictly positive, unit-trace Hermitian matrix."""
    rho = assert_hermitian(rho, name=name)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise InvariantViolation("unit-trace", f"{name} trace {tr.real:.12f}")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if lo <= 0.0:
        raise InvariantViolation("strict-positivity", f"{name} smallest eigenvalue {lo:.3e}")
    return rho


def assert_tangent(a, name: str = "tangent") -> np.ndarray:
    """Validate a traceless Hermitian matrix."""
    a = assert_hermitian(a, name=name)
    tr = abs(complex(np.trace(a)))
    if tr > TRACE_ATOL:
        raise InvariantViolation("traceless", f"{name} |trace| {tr:.3e}")
    return a


# ---------------------------------------------------------------------------
# Spectral calculus
# ---------------------------------------------------------------------------

class SpectralDecomposition(NamedTuple):
    eigenvalues: np.ndarray  # ascending
    unitary: np.ndarray      # columns are the eigenvectors


def spectral_decompose(h) -> SpectralDecomposition:
    """Eigendecomposition of Hermitian matrices, eigenvalues ascending."""
    h = np.asarray(h, dtype=complex)
    try:
        w, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise DomainError(f"eigendecomposition failed: {exc}") from exc
    return SpectralDecomposition(w, u)


def on_spectrum_grid(fn: Callable, shape: tuple, *grids) -> np.ndarray:
    """fn(*grids) broadcast to `shape`; fn must be numpy-vectorized (one call per grid)."""
    out = np.asarray(fn(*grids))
    if out.shape == shape:
        return out
    try:
        return np.broadcast_to(out, shape)
    except ValueError:
        raise InvariantViolation(
            "vectorized", f"{fn!r} gave shape {out.shape} on a grid of shape {shape}") from None


def matrix_function(h, phi: Callable) -> np.ndarray:
    """Apply a scalar function to Hermitian matrices: U diag(phi(w)) U^dag."""
    return spectral_function(spectral_decompose(h), phi)


def spectral_function(decomposition: SpectralDecomposition, phi: Callable) -> np.ndarray:
    """U diag(phi(w)) U^dag from a decomposition already made (see matrix_function)."""
    w, u = decomposition
    with np.errstate(all="ignore"):
        fw = on_spectrum_grid(phi, w.shape, w)
    if not np.isfinite(fw).all():
        bad = w[~np.isfinite(np.asarray(fw, dtype=complex).real)]
        raise DomainError(f"scalar function undefined on eigenvalues {bad}")
    return (u * fw[..., None, :]) @ u.conj().swapaxes(-1, -2)


def kernel_grid(kernel: Callable, left, right) -> np.ndarray:
    """kernel(x_i, y_j) on the (..., n, m) grid of left (..., n) and right (..., m), as floats.

    Raises DomainError where the kernel is not finite, and InvariantViolation
    named kernel-defined for a kernel that is None (a catalog entry lacking it).
    """
    if kernel is None:
        raise InvariantViolation("kernel-defined", "the kernel is None")
    x, y = left[..., :, None], right[..., None, :]
    with np.errstate(all="ignore"):
        k = np.asarray(on_spectrum_grid(kernel, np.broadcast(x, y).shape, x, y), dtype=float)
    if not np.isfinite(k).all():
        raise DomainError("kernel not finite on the grid")
    return k


def kernel_action(left, right, kernel: Callable, x) -> np.ndarray:
    """k(L, R) applied to X: entrywise kernel(l_i, r_j) between two SpectralDecompositions."""
    lw, lu = left
    rw, ru = right
    xt = lu.conj().swapaxes(-1, -2) @ np.asarray(x, dtype=complex) @ ru
    return lu @ (kernel_grid(kernel, lw, rw) * xt) @ ru.conj().swapaxes(-1, -2)


def _complex_step(fn: Callable, t):
    """f'(t) as Im f(t + ih) / h with h = 1e-20 t, for a vectorized fn that takes complex t."""
    h = 1e-20 * t
    ft = fn(t + 1j * h)
    if not (isinstance(ft, complex) or np.iscomplexobj(ft)):  # np.complex128 is a complex
        raise InvariantViolation("complex-evaluable", f"{fn!r} is real on a complex step")
    return np.imag(ft) / h


def _divided_difference(fn: Callable, a, b):
    """(fn(a) - fn(b)) / (a - b), fn' at the midpoint (a complex step) where the gap is tiny.

    Integers are promoted to float; real and complex values keep their bits.
    A complex midpoint in that 1e-6 window (a complex step of a function built
    from this quotient) raises ``nested-complex-step``, as the nested step is
    wrong.  Just outside it the error grows like eps/gap^2: the wy induced f
    of `dual_pair_check` reads f' = 0.50007 at t = 1 + 2e-6, where f'(1) = 0.5.
    """
    a, b = (x.astype(np.result_type(x, 1.0), copy=False) for x in map(np.asarray, (a, b)))
    near = np.abs(a - b) <= 1e-6 * np.maximum(np.abs(a), np.abs(b))
    mid = (0.5 * (a + b))[near]
    if np.any(np.imag(mid) != 0.0):
        raise InvariantViolation("nested-complex-step", "complex arguments within 1e-6 relative")
    with np.errstate(all="ignore"):
        q = np.asarray((fn(a) - fn(b)) / (a - b))
        q[near] = _complex_step(fn, mid)
    return q


def _out(x):
    """A float for one input's value, the array for a stack's."""
    return float(x) if np.ndim(x) == 0 else x


def _check(bad, invariant: str, fmt: str, values=None):
    """Raise if any slice is bad, with fmt of the first bad slice's value (and its index)."""
    if np.any(bad):
        first = tuple(int(i) for i in np.argwhere(bad)[0])
        value = None if values is None else np.asarray(values)[first]
        where = f" in slice {first}" if first else ""
        raise InvariantViolation(invariant, fmt.format(value) + where)


def apply_kernel_superop(rho, kernel: Callable, x) -> np.ndarray:
    """Apply k(L_rho, R_rho) to X: entrywise k(w_i, w_j) in the eigenbasis of rho."""
    decomposition = spectral_decompose(rho)
    return kernel_action(decomposition, decomposition, kernel, x)


def hs_inner(a, b):
    """Hilbert-Schmidt inner product Tr(A^dag B); real for Hermitian arguments.

    Two matrices give a float; two stacks (..., n, n) give an array over the stack.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise InvariantViolation("shape-match", f"{a.shape} vs {b.shape}")
    return _out(np.real(np.sum(a.conj() * b, axis=(-2, -1))))


def commutator(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return a @ b - b @ a


# ---------------------------------------------------------------------------
# Kraus channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KrausChannel:
    """A trace-preserving completely positive map given by Kraus matrices.

    ``kraus`` holds the r Kraus matrices as an array (r, out, in); a stack
    (..., r, out, in) is a stack of channels with the same Kraus count, and
    every channel in it is validated.  The trailing (out, in) are the output
    and input dimensions.
    """

    kraus: np.ndarray

    def __post_init__(self):
        try:
            ks = np.asarray(self.kraus, dtype=complex)
        except ValueError:  # ragged: Kraus matrices of different shapes
            raise InvariantViolation("kraus-shape", "Kraus matrices differ in shape") from None
        object.__setattr__(self, "kraus", ks)
        if ks.shape == (0,) or (ks.ndim >= 3 and ks.shape[-3] == 0):
            raise InvariantViolation("kraus-nonempty", "no Kraus operators")
        if ks.ndim < 3:
            raise InvariantViolation("kraus-shape", f"{ks.shape} is not (..., r, out, in)")
        _check(~np.isfinite(ks).all(axis=(-3, -2, -1)), "finite",
               "Kraus operator has NaN or infinite entries")
        s = np.sum(ks.conj().swapaxes(-1, -2) @ ks, axis=-3)
        resid = np.max(np.abs(s - np.eye(ks.shape[-1])), axis=(-2, -1))
        _check(resid > 1e-10, "trace-preserving", "sum K^dag K residual {:.3e}", resid)


def apply_channel(channel: KrausChannel, x) -> np.ndarray:
    """Apply the channel: sum_i K_i X K_i^dag, summed in Kraus order.

    A stack of channels and a stack of matrices broadcast over their leading
    dimensions; each slice gives the same bits as its channel and matrix alone.
    """
    x = np.asarray(x, dtype=complex)
    n = channel.kraus.shape[-1]
    if x.shape[-2:] != (n, n):
        raise InvariantViolation("shape-match", f"{x.shape} vs input dim {n}")
    kraus = np.moveaxis(channel.kraus, -3, 0)
    return sum(k @ x @ k.conj().swapaxes(-1, -2) for k in kraus)


# ---------------------------------------------------------------------------
# Seeded random generators
# ---------------------------------------------------------------------------

_MASK64 = 0xFFFFFFFFFFFFFFFF


def rng_from(seed: int, *stream: int) -> np.random.Generator:
    """Generator derived from (seed, stream indices); same inputs, same stream."""
    words = [int(seed) & _MASK64] + [int(s) & _MASK64 for s in stream]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


class TrialStream(NamedTuple):
    """Counter-based draws of the trials [start, stop) on the Philox4x64 key (seed, word).

    A draw of fixed consumption k counter steps (4 words each) gives trial j
    the steps [j k, (j + 1) k) of the key, so the trials of a stream are one
    contiguous read, and TrialStream(seed, word, j, j + 1) gives trial j
    alone, bit for bit (Salmon, Moraes, Dror and Shaw, "Parallel random
    numbers: as easy as 1, 2, 3", SC 2011).  The seed is masked to 64 bits;
    the word must fit in 64.
    """

    seed: int
    word: int
    start: int
    stop: int

    def uniforms(self, size: int) -> np.ndarray:
        """(trials, size) uniforms in (0, 1]: (the top 53 bits of a word + 1) / 2^53."""
        k = -(-size // 4)
        philox = np.random.Philox(key=int(self.seed) & _MASK64 | int(self.word) << 64,
                                  counter=self.start * k)
        bits = philox.random_raw((self.stop - self.start, 4 * k))[:, :size]
        bits >>= 11
        bits += 1
        return bits * 2.0**-53

    def normals(self, shape: tuple) -> np.ndarray:
        """(trials, *shape) standard normals by Box-Muller: r cos and r sin of uniform pairs."""
        size = math.prod(shape)
        half = (size + 1) // 2
        u = self.uniforms(2 * half)
        r = np.sqrt(-2.0 * np.log(u[:, :half]))
        theta = 2.0 * np.pi * u[:, half:]
        z = np.empty_like(u)
        np.multiply(r, np.cos(theta), out=z[:, :half])
        np.multiply(r, np.sin(theta), out=z[:, half:])
        return z[:, :size].reshape(self.stop - self.start, *shape)

    def dirichlet(self, shape: tuple) -> np.ndarray:
        """(trials, *shape) Dirichlet(1) vectors along the last axis: -log u, normalized."""
        e = -np.log(self.uniforms(math.prod(shape))).reshape(self.stop - self.start, *shape)
        return e / e.sum(axis=-1, keepdims=True)


def _gaussian(seed, rows: int, cols: int) -> np.ndarray:
    """Complex Ginibre matrix (rows, cols) from its real parts, then its imaginary parts.

    An int seed draws one matrix from rng_from(seed); a TrialStream draws the
    stack (trials, rows, cols).
    """
    if isinstance(seed, TrialStream):
        z = seed.normals((2, rows, cols))
    else:
        z = rng_from(seed).standard_normal((2, rows, cols))
    g = np.empty(z.shape[:-3] + (rows, cols), dtype=complex)
    g.real, g.imag = z[..., 0, :, :], z[..., 1, :, :]
    return g


def _haar_from_gaussian(g: np.ndarray) -> np.ndarray:
    """Phase-corrected Q of the QR of Ginibre matrices g (..., rows, cols): Haar isometries."""
    rows, cols = g.shape[-2:]
    if rows < cols:
        raise InvariantViolation("isometry-dims", f"{rows} rows < {cols} cols")
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


# Each generator takes an int seed (one draw, from rng_from(seed)) or a
# TrialStream (a stack over its trials, slice j the bits of trial j alone).

def random_density(n: int, seed) -> np.ndarray:
    """Wishart-style random density, mixed with I/n so eigenvalues >= DENSITY_FLOOR_EPS/n."""
    if n < 2:
        raise InvariantViolation("dimension", f"n={n} < 2")
    g = _gaussian(seed, n, n)
    rho = g @ g.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    rho = (1.0 - DENSITY_FLOOR_EPS) * rho + DENSITY_FLOOR_EPS * np.eye(n) / n
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


def random_tangent(n: int, seed) -> np.ndarray:
    """Gaussian Hermitian matrix projected onto trace zero."""
    if n < 2:
        raise InvariantViolation("dimension", f"n={n} < 2")
    m = _gaussian(seed, n, n)
    h = 0.5 * (m + m.conj().swapaxes(-1, -2))
    h -= (np.trace(h, axis1=-2, axis2=-1).real / n)[..., None, None] * np.eye(n)
    return h


def random_kraus_channel(n_in: int, n_out: int, env_dim: int, seed) -> KrausChannel:
    """Channel from a Haar-random isometry C^n_in -> C^n_out (x) C^env, env traced out.

    Its Kraus array is (env_dim, n_out, n_in), or (trials, env_dim, n_out, n_in)
    for a stream.
    """
    if env_dim < 1:
        raise InvariantViolation("dimension", f"env_dim={env_dim} < 1")
    v = _haar_from_gaussian(_gaussian(seed, n_out * env_dim, n_in))
    kraus = v.reshape(*v.shape[:-2], n_out, env_dim, n_in).swapaxes(-3, -2)
    return KrausChannel(kraus)
