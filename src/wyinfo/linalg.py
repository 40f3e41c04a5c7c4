"""Hermitian linear-algebra substrate.

Spectral decomposition, scalar functional calculus, kernel superoperators,
the commuting/commutator tangent decomposition, Kraus channels, and seeded
random generators for states, tangents and channels.  The spectral functions
take one matrix (n, n) or a stack (..., n, n); each slice of a stack gives
the same bits as the slice on its own, and a scalar result is a float for
one matrix, an array for a stack.  `kernel_action` is the one kernel action
between two eigenbases, `_complex_step` the one derivative at a coincidence
(Squire and Trapp, SIAM Review 40, 1998), and `_divided_difference` the one
first divided difference.

Matrices are plain complex ndarrays; the validators below enforce the
structural invariants at construction/IO boundaries.  All functions are pure
and deterministic: randomness enters only through explicit seeds.
"""

from __future__ import annotations

import functools
import itertools
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
# step (O'Neill 2014), ported to array arithmetic so that a whole block of
# keys (seed, *stream) gets the PCG64 state rng_from(seed, *stream) starts
# from.  The hash runs on uint32 arrays, one column per key; its constants
# evolve independently of the data, so keys with the same number of entropy
# words share them.  PCG64's 128-bit values are pairs of uint64 arrays (high
# half, low half).  Array arithmetic wraps modulo 2^32 or 2^64 as the C code
# does, while arithmetic on two numpy scalars warns on overflow, so every
# operation has an array of keys as an operand.  The other operands are
# scalars of the array's dtype: a Python int operand costs a conversion.
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_MULT_HI, _PCG64_MULT_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & _MASK64)
# the two 32-bit limbs of _PCG64_MULT_LO, low first, as a column
_PCG64_MULT_LO_LIMBS = np.array([[_PCG64_MULT & _MASK32], [_PCG64_MULT >> 32 & _MASK32]],
                                dtype=np.uint64)
_LIMB_SHIFTS = np.array([[0], [32]], dtype=np.uint64)
_LIMB_BITS, _LIMB_MASK = np.uint64(32), np.uint64(_MASK32)
_U64_1, _U64_58, _U64_63 = np.uint64(1), np.uint64(58), np.uint64(63)


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """(count + 1) successive hash constants init * mult^i mod 2^32."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


@functools.cache
def _hash_plan(length: int) -> tuple:
    """(xor, multiplier) constant columns of each hashmix of a key with `length` entropy words.

    In order: the pool's first hashmix; each pool word's mix into the other
    three, in the row order _seed_state_words updates them; each entropy
    word past the pool; and generate_state's hashmix of the eight state words.
    """
    a = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * max(length, _POOL_SIZE))
    idx = [np.arange(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        # seed_seq mixes into the destinations in increasing order, skipping src
        dst = [(src + i) % _POOL_SIZE for i in range(1, _POOL_SIZE)]
        idx.append(_POOL_SIZE + (_POOL_SIZE - 1) * src + np.array([d - (d > src) for d in dst]))
    for src in range(_POOL_SIZE, length):
        idx.append(_POOL_SIZE * src + np.arange(_POOL_SIZE))
    b = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    plan = [(a[i, None], a[i + 1, None]) for i in idx]
    plan.append((b[:-1].reshape(2, _POOL_SIZE, 1), b[1:].reshape(2, _POOL_SIZE, 1)))
    for consts in plan:
        for c in consts:
            c.flags.writeable = False
    return tuple(plan)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """seed_seq's hashmix of uint32 values with the hash constants xor and their successors mult."""
    value = value ^ xor
    value *= mult
    value ^= value >> _XSHIFT
    return value


def _mix_into(x: np.ndarray, y: np.ndarray) -> None:
    """x = seed_seq's mix(x, y), in place; y is overwritten."""
    x *= _MIX_MULT_L
    y *= _MIX_MULT_R
    x -= y
    x ^= x >> _XSHIFT


def _seed_state_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(words).generate_state(4, uint64) for a block of keys with L words each.

    entropy is (L, k) uint32, row j holding word j of every key; the result is
    (4, k) uint64, row i state word i of every key.
    """
    length, k = entropy.shape
    plan = _hash_plan(length)
    # Rows 0-3 start as the pool.  Pool word s mixes into the other three
    # through rows s+1 .. s+3, which hold them in cyclic order, so each mix
    # updates one slice; then row s+4 takes word s, whose later updates
    # happen there.  At the end rows 4-7 hold the pool in order.
    buf = np.zeros((2 * _POOL_SIZE, k), dtype=np.uint32)
    buf[:min(length, _POOL_SIZE)] = entropy[:_POOL_SIZE]
    buf[:_POOL_SIZE] = _hashmix(buf[:_POOL_SIZE], *plan[0])
    for src in range(_POOL_SIZE):
        _mix_into(buf[src + 1:src + _POOL_SIZE], _hashmix(buf[src], *plan[1 + src]))
        buf[src + _POOL_SIZE] = buf[src]
    pool = buf[_POOL_SIZE:]
    for word, consts in zip(entropy[_POOL_SIZE:], plan[1 + _POOL_SIZE:-1]):
        _mix_into(pool, _hashmix(word, *consts))
    # eight uint32 state words from the pool twice over; uint64 word i is
    # words 2i (low half) and 2i + 1 (high half)
    state = _hashmix(pool, *plan[-1]).reshape(_POOL_SIZE, 2, k)
    words = state[:, 1].astype(np.uint64)
    words <<= _LIMB_BITS
    words |= state[:, 0]
    return words


def _entropy_words(keys) -> tuple:
    """SeedSequence's uint32 entropy words of all keys (flat, in key order) and each key's count.

    Entries are masked to 64 bits as rng_from does; a masked entry gives its
    low 32-bit word, then its high word when that is nonzero.
    """
    sizes = np.fromiter(map(len, keys), dtype=np.intp, count=len(keys))
    u = np.fromiter((int(v) & _MASK64 for v in itertools.chain.from_iterable(keys)),
                    dtype=np.uint64)
    halves = np.array([u, u >> _LIMB_BITS], dtype=np.uint32)  # low words, high words
    kept = halves != 0
    kept[0] = True
    counts = np.add.reduceat(kept.sum(axis=0), np.add.accumulate(sizes) - sizes)
    return halves.T[kept.T], counts


def _pcg64_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray) -> tuple:
    """PCG64's LCG step, state * _PCG64_MULT + inc mod 2^128, on uint64 halves.

    The high half of lo * _PCG64_MULT_LO is summed from the 32-bit limb
    products p[i, j] = lo_i * mult_j, which fit in 64 bits, so that no
    partial sum overflows (Warren, Hacker's Delight, 8-2).
    """
    p = (lo >> _LIMB_SHIFTS & _LIMB_MASK)[:, None] * _PCG64_MULT_LO_LIMBS
    t = p[1, 0] + (p[0, 0] >> _LIMB_BITS)
    w = (t & _LIMB_MASK) + p[0, 1]
    new_hi = p[1, 1] + (t >> _LIMB_BITS) + (w >> _LIMB_BITS)
    new_hi += hi * _PCG64_MULT_LO
    new_hi += lo * _PCG64_MULT_HI
    new_hi += inc_hi
    new_lo = lo * _PCG64_MULT_LO
    new_lo += inc_lo
    new_hi += new_lo < inc_lo
    return new_hi, new_lo


def _pcg64_seedings(keys) -> tuple:
    """(state high, state low, inc high, inc low) of each rng_from(*key)'s PCG64, as uint64 arrays.

    Keys are hashed in groups of equal word count.
    """
    words, counts = _entropy_words(keys)
    seed = np.empty((4, len(keys)), dtype=np.uint64)
    starts = np.add.accumulate(counts) - counts
    for length in set(counts.tolist()):
        idx = np.flatnonzero(counts == length)
        seed[:, idx] = _seed_state_words(words[starts[idx] + np.arange(length)[:, None]])
    # pcg64_set_seed, in place: rows 2-3 (seed words q) become inc = 2 q + 1,
    # rows 0-1 (seed words s) become s + inc; the state steps from 0 to inc,
    # adds s and steps again
    s_hi, s_lo, inc_hi, inc_lo = seed
    inc_hi <<= _U64_1
    inc_hi |= inc_lo >> _U64_63
    inc_lo <<= _U64_1
    inc_lo |= _U64_1
    s_lo += inc_lo
    s_hi += inc_hi
    s_hi += s_lo < inc_lo
    hi, lo = _pcg64_step(s_hi, s_lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def seeded_stack(keys, draw: Callable[[np.random.Generator], np.ndarray]) -> np.ndarray:
    """np.stack([draw(rng_from(*key)) for key in keys]), bit for bit, without a Generator per key.

    The PCG64 states of all keys come from one uint64 array pass
    (_pcg64_seedings); each is written into one generator owned by this call,
    and each draw, an ndarray, into its slice of one stack allocated after the
    first draw.  A draw of another shape or dtype than the first raises
    ValueError, and so does an empty block, as np.stack does.
    """
    if not keys:
        raise ValueError("need at least one key to stack")
    hi, lo, inc_hi, inc_lo = _pcg64_seedings(keys)
    gen = np.random.Generator(np.random.PCG64(0))
    bitgen = gen.bit_generator
    pcg = {"state": 0, "inc": 0}
    bitgen_state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    shape = dtype = stack = None
    for i, (s_hi, s_lo, i_hi, i_lo) in enumerate(zip(hi.tolist(), lo.tolist(),
                                                     inc_hi.tolist(), inc_lo.tolist())):
        pcg["state"], pcg["inc"] = s_hi << 64 | s_lo, i_hi << 64 | i_lo
        bitgen.state = bitgen_state
        x = draw(gen)
        if x.shape != shape or x.dtype != dtype:
            if i:
                raise ValueError(f"draw {i} has shape {x.shape} and dtype {x.dtype}, "
                                 f"draw 0 {shape} and {dtype}")
            shape, dtype = x.shape, x.dtype
            stack = np.empty((len(keys), *shape), dtype=dtype)
        stack[i] = x
    return stack


def trial_seeds(keys) -> list:
    """[int(rng_from(*key).integers(2**63)) for key in keys], bit for bit.

    That integer is PCG64's first XSL-RR output shifted right by one.  It is
    computed for all keys at once on uint64 halves, one more LCG step after
    _pcg64_seedings, so no Generator and no 128-bit Python int is built.
    """
    hi, lo, inc_hi, inc_lo = _pcg64_seedings(keys)
    hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
    x = hi ^ lo
    rot = hi >> _U64_58
    return ((x >> rot | x << (-rot & _U64_63)) >> _U64_1).tolist()


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


def hs_norm(a):
    """Hilbert-Schmidt norm: a float for one matrix, an array over a stack (..., n, n)."""
    return _out(np.sqrt(np.maximum(hs_inner(a, a), 0.0)))


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
    uh = u.conj().swapaxes(-1, -2)
    at = uh @ np.asarray(a, dtype=complex) @ u
    gap = DEGENERACY_GAP_RTOL * np.maximum(1.0, w[..., -1:])
    # Chain consecutive near-equal eigenvalues into blocks (w is ascending).
    block = np.cumsum(np.diff(w, axis=-1, prepend=w[..., :1]) > gap, axis=-1)
    same = block[..., :, None] == block[..., None, :]
    commuting_t = np.where(same, at, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        gen_t = at / (1j * (w[..., :, None] - w[..., None, :]))
    gen_t = np.where(same, 0.0, gen_t)
    return TangentSplit(u @ commuting_t @ uh, u @ gen_t @ uh)


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
    """Haar unitary (n, n), n >= 1, by phase-corrected QR of a Ginibre matrix."""
    if n < 1:
        raise InvariantViolation("dimension", f"n={n} < 1")
    return _haar_from_gaussian(_seeded_gaussian(seed, n, n))


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
