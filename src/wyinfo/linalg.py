"""Hermitian linear-algebra substrate.

Spectral decomposition, scalar functional calculus, kernel superoperators,
the commuting/commutator tangent decomposition, Kraus channels, and seeded
random generators for states, tangents and channels.  The spectral functions
take one matrix (n, n) or a stack (..., n, n); each slice of a stack gives
the same bits as the slice on its own.

Matrices are plain complex ndarrays; the validators below enforce the
structural invariants at construction/IO boundaries.  All functions are pure
and deterministic: randomness enters only through explicit seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, InvariantViolation

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-10
# Eigenvalues closer than this (relative to max(1, lambda_max)) are treated
# as one degenerate block when splitting tangents.
DEGENERACY_GAP_RTOL = 1e-8
# random_density mixes with I/n at this weight so spectra stay away from the
# boundary of the positive cone.
DENSITY_FLOOR_EPS = 1e-3
# Matrix entries per block when a long run of samples or trials is stacked
# (256 matrices at n = 3): stacking all of them at once raises peak memory.
BLOCK_ENTRIES = 2304


def rng_from(seed: int, *stream: int) -> np.random.Generator:
    """Generator derived from (seed, stream indices); same inputs, same stream."""
    words = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [int(s) & 0xFFFFFFFFFFFFFFFF for s in stream]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


# numpy's SeedSequence hash (O'Neill's seed_seq, NEP 19) and PCG64's seeding
# step (O'Neill 2014), ported to block arithmetic so that a whole block of
# keys (seed, *stream) gets the PCG64 state rng_from(seed, *stream) starts
# from.  The hash constants evolve independently of the data, so every key
# of a group with the same number of entropy words shares them.
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """(count + 1) successive hash constants init * mult^i mod 2^32."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """seed_seq's hashmix of uint32 values with consts[:-1] and their successors consts[1:]."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> 16)


def _seed_state_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(words).generate_state(4, uint64) for a block of keys with L words each.

    entropy is (L, k) uint32, row j holding word j of every key; the result is
    (k, 4) uint64, row i the state words of key i.
    """
    length = len(entropy)
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * max(length, _POOL_SIZE))[:, None]
    head = entropy[:_POOL_SIZE]
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[:len(head)] = head
    pool = _hashmix(pool, consts[:_POOL_SIZE + 1])
    c = _POOL_SIZE
    # each source word mixes into every other pool word; the destinations
    # of one source are independent, so they update together
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[c:c + len(dst) + 1]))
        c += len(dst)
    for src in range(_POOL_SIZE, length):
        pool = _mix(pool, _hashmix(entropy[src], consts[c:c + _POOL_SIZE + 1]))
        c += _POOL_SIZE
    state = _hashmix(np.tile(pool, (2, 1)), _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)[:, None])
    # uint64 word i is uint32 words 2i (low half) and 2i + 1 (high half)
    return ((state[1::2].astype(np.uint64) << 32) | state[::2]).T


def _pcg64_seedings(keys) -> list:
    """(state, inc) of rng_from(*key)'s PCG64 for each key (seed, *stream) of a sequence.

    Entries are masked to 64 bits as rng_from does.  A masked entry gives
    SeedSequence its low 32-bit word, then its high word when that is
    nonzero; keys are hashed in groups of equal word count, in key order.
    """
    if not keys:
        return []
    u = np.array([int(v) & _MASK64 for key in keys for v in key], dtype=np.uint64)
    hi = u >> 32
    two = hi != 0
    words = np.stack([u, hi], axis=-1).astype(np.uint32)[np.stack([np.ones_like(two), two], -1)]
    entry_starts = np.cumsum([0] + [len(key) for key in keys[:-1]])
    lengths = np.add.reduceat(1 + two, entry_starts)
    starts = np.cumsum(lengths) - lengths
    out = [None] * len(keys)
    for length in set(lengths.tolist()):
        idx = np.flatnonzero(lengths == length)
        entropy = words[starts[idx] + np.arange(length)[:, None]]
        for i, (s_hi, s_lo, q_hi, q_lo) in zip(idx.tolist(), _seed_state_words(entropy).tolist()):
            inc = ((q_hi << 65) | (q_lo << 1) | 1) & _MASK128
            out[i] = ((((s_hi << 64) | s_lo) + inc) * _PCG64_MULT + inc) & _MASK128, inc
    return out


def seeded_stack(keys, draw: Callable[[np.random.Generator], np.ndarray]) -> np.ndarray:
    """np.stack([draw(rng_from(*key)) for key in keys]), bit for bit, without a Generator per key.

    Each key's PCG64 state is written into one generator owned by this call.
    """
    gen = np.random.Generator(np.random.PCG64(0))
    pcg = {"state": 0, "inc": 0}
    bitgen_state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    out = []
    for state, inc in _pcg64_seedings(keys):
        pcg["state"], pcg["inc"] = state, inc
        gen.bit_generator.state = bitgen_state
        out.append(draw(gen))
    return np.stack(out)


def trial_seeds(keys) -> list:
    """[int(rng_from(*key).integers(2**63)) for key in keys], bit for bit.

    That integer is PCG64's first XSL-RR output shifted right by one, so no
    Generator is built.
    """
    out = []
    for state, inc in _pcg64_seedings(keys):
        state = (state * _PCG64_MULT + inc) & _MASK128
        x = (state >> 64) ^ (state & _MASK64)
        rot = state >> 122
        out.append(((x >> rot) | (x << (64 - rot)) & _MASK64) >> 1)
    return out


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

    Raises DomainError where the kernel is not finite.
    """
    x, y = left[..., :, None], right[..., None, :]
    with np.errstate(all="ignore"):
        k = np.asarray(on_spectrum_grid(kernel, np.broadcast(x, y).shape, x, y), dtype=float)
    if not np.isfinite(k).all():
        raise DomainError("kernel not finite on the grid")
    return k


def apply_kernel_superop(rho, kernel: Callable, x) -> np.ndarray:
    """Apply k(L_rho, R_rho) to X: entrywise k(w_i, w_j) in the eigenbasis of rho."""
    w, u = spectral_decompose(rho)
    uh = u.conj().swapaxes(-1, -2)
    xt = uh @ np.asarray(x, dtype=complex) @ u
    return u @ (kernel_grid(kernel, w, w) * xt) @ uh


def hs_inner(a, b):
    """Hilbert-Schmidt inner product Tr(A^dag B); real for Hermitian arguments.

    Two matrices give a float; two stacks (..., n, n) give an array over the stack.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise InvariantViolation("shape-match", f"{a.shape} vs {b.shape}")
    ip = np.real(np.sum(a.conj() * b, axis=(-2, -1)))
    return float(ip) if ip.ndim == 0 else ip


def hs_norm(a):
    """Hilbert-Schmidt norm: a float for one matrix, an array over a stack (..., n, n)."""
    norm = np.sqrt(np.maximum(hs_inner(a, a), 0.0))
    return float(norm) if norm.ndim == 0 else norm


def commutator(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return a @ b - b @ a


# ---------------------------------------------------------------------------
# Tangent decomposition
# ---------------------------------------------------------------------------

class TangentSplit(NamedTuple):
    commuting: np.ndarray  # part commuting with rho
    generator: np.ndarray  # Hermitian U with orthogonal part i[rho, U]


def tangent_split(rho, a) -> TangentSplit:
    """Split a tangent A = A_c + i[rho, U] with [A_c, rho] = 0.

    In the eigenbasis of rho, A_c keeps the entries inside degenerate
    eigenvalue blocks and U_ij = A_ij / (i (w_i - w_j)) outside them, which is
    the unique choice making i[rho, U] reproduce the off-block part.
    """
    w, u = spectral_decompose(rho)
    at = u.conj().T @ np.asarray(a, dtype=complex) @ u
    gap = DEGENERACY_GAP_RTOL * max(1.0, float(w[-1]))
    # Chain consecutive near-equal eigenvalues into blocks (w is ascending).
    block = np.zeros(len(w), dtype=int)
    for i in range(1, len(w)):
        block[i] = block[i - 1] + (0 if w[i] - w[i - 1] <= gap else 1)
    same = block[:, None] == block[None, :]
    commuting_t = np.where(same, at, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        gen_t = at / (1j * (w[:, None] - w[None, :]))
    gen_t = np.where(same, 0.0, gen_t)
    return TangentSplit(u @ commuting_t @ u.conj().T, u @ gen_t @ u.conj().T)


# ---------------------------------------------------------------------------
# Kraus channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KrausChannel:
    """A trace-preserving completely positive map given by Kraus matrices.

    ``kraus`` holds the r Kraus matrices as an array (r, out, in); a stack
    (..., r, out, in) is a stack of channels with the same Kraus count, and
    every channel in it is validated.
    """

    kraus: np.ndarray
    input_dim: int
    output_dim: int

    def __post_init__(self):
        try:
            ks = np.asarray(self.kraus, dtype=complex)
        except ValueError:  # ragged: Kraus matrices of different shapes
            raise InvariantViolation("kraus-shape", "Kraus matrices differ in shape") from None
        object.__setattr__(self, "kraus", ks)
        if ks.shape == (0,) or (ks.ndim >= 3 and ks.shape[-3] == 0):
            raise InvariantViolation("kraus-nonempty", "no Kraus operators")
        if ks.ndim < 3 or ks.shape[-2:] != (self.output_dim, self.input_dim):
            raise InvariantViolation(
                "kraus-shape", f"{ks.shape} is not (..., r, {self.output_dim}, {self.input_dim})")
        bad = ~np.isfinite(ks).all(axis=(-3, -2, -1))
        if bad.any():
            raise InvariantViolation(
                "finite", f"Kraus operator has NaN or infinite entries{_where(bad)}")
        s = np.sum(ks.conj().swapaxes(-1, -2) @ ks, axis=-3)
        resid = np.max(np.abs(s - np.eye(self.input_dim)), axis=(-2, -1))
        bad = resid > 1e-10
        if bad.any():
            raise InvariantViolation(
                "trace-preserving",
                f"sum K^dag K residual {float(np.max(resid)):.3e}{_where(bad)}")


def _where(bad: np.ndarray) -> str:
    """' in channel (i, ...)' naming the first flagged channel of a stack; '' for one channel."""
    return f" in channel {tuple(int(i) for i in np.argwhere(bad)[0])}" if bad.ndim else ""


def apply_channel(channel: KrausChannel, x) -> np.ndarray:
    """Apply the channel: sum_i K_i X K_i^dag, summed in Kraus order.

    A stack of channels and a stack of matrices broadcast over their leading
    dimensions; each slice gives the same bits as its channel and matrix alone.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape[-2:] != (channel.input_dim, channel.input_dim):
        raise InvariantViolation("shape-match", f"{x.shape} vs input dim {channel.input_dim}")
    kraus = np.moveaxis(channel.kraus, -3, 0)
    return sum(k @ x @ k.conj().swapaxes(-1, -2) for k in kraus)


# ---------------------------------------------------------------------------
# Seeded random generators
# ---------------------------------------------------------------------------

def _complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Real parts then imaginary parts, drawn in one call (the normals are sequential)."""
    z = rng.standard_normal((2, rows, cols))
    return z[0] + 1j * z[1]


def _seeded_gaussian(seed, rows: int, cols: int) -> np.ndarray:
    """One complex Gaussian (rows, cols) per seed, each from its own rng_from stream.

    One seed gives one matrix; a sequence of seeds gives the stack (k, rows, cols).
    Seeds stay Python ints, so any 64-bit seed works.
    """
    if np.ndim(seed):
        z = seeded_stack([(s,) for s in seed], lambda rng: rng.standard_normal((2, rows, cols)))
        return z[:, 0] + 1j * z[:, 1]
    return _complex_gaussian(rng_from(seed), rows, cols)


def _haar_from_gaussian(g: np.ndarray) -> np.ndarray:
    """Phase-corrected Q of the QR of Ginibre matrices g (..., rows, cols): Haar isometries."""
    rows, cols = g.shape[-2:]
    if rows < cols:
        raise InvariantViolation("isometry-dims", f"{rows} rows < {cols} cols")
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary by phase-corrected QR of a Ginibre matrix."""
    return _haar_from_gaussian(_complex_gaussian(rng, n, n))


def random_density(n: int, seed) -> np.ndarray:
    """Wishart-style random density, mixed with I/n so eigenvalues >= DENSITY_FLOOR_EPS/n.

    One seed gives one state (n, n); a sequence of seeds gives a stack
    (k, n, n) whose slice i is, bit for bit, the state of seed i alone.
    """
    if n < 2:
        raise InvariantViolation("dimension", f"n={n} < 2")
    g = _seeded_gaussian(seed, n, n)
    rho = g @ g.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    rho = (1.0 - DENSITY_FLOOR_EPS) * rho + DENSITY_FLOOR_EPS * np.eye(n) / n
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


def random_unitary(n: int, seed: int) -> np.ndarray:
    return haar_unitary(n, rng_from(seed))


def random_tangent(n: int, seed) -> np.ndarray:
    """Gaussian Hermitian matrix projected onto trace zero.

    One seed gives one tangent; a sequence of seeds gives a stack, as for
    random_density.
    """
    if n < 2:
        raise InvariantViolation("dimension", f"n={n} < 2")
    m = _seeded_gaussian(seed, n, n)
    h = 0.5 * (m + m.conj().swapaxes(-1, -2))
    h -= (np.trace(h, axis1=-2, axis2=-1).real / n)[..., None, None] * np.eye(n)
    return h


def random_kraus_channel(n_in: int, n_out: int, env_dim: int, seed) -> KrausChannel:
    """Channel from a Haar-random isometry C^n_in -> C^n_out (x) C^env, env traced out.

    One seed gives one channel with Kraus array (env_dim, n_out, n_in); a
    sequence of seeds gives a stack of channels (k, env_dim, n_out, n_in),
    slice i the same bits as the channel of seed i alone.
    """
    if env_dim < 1:
        raise InvariantViolation("dimension", f"env_dim={env_dim} < 1")
    v = _haar_from_gaussian(_seeded_gaussian(seed, n_out * env_dim, n_in))
    kraus = v.reshape(*v.shape[:-2], n_out, env_dim, n_in).swapaxes(-3, -2)
    return KrausChannel(kraus=kraus, input_dim=n_in, output_dim=n_out)
