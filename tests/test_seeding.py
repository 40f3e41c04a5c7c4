"""Counter-based trial streams and the single-seed path, bit for bit.

A block of trials is one Philox read; each test here compares it against
its trials read alone, in this process (the bits of np.log, np.cos and
np.sin may differ between CPUs, never between a block and its trials).
The single-int-seed generators and `rng_from` keep their bits, which the
benchmark's inputs depend on.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from oracles import hs_norm, random_unitary
from wyinfo import linalg
from wyinfo.linalg import (
    TrialStream,
    _gaussian,
    random_density,
    random_kraus_channel,
    random_tangent,
    rng_from,
)
from wyinfo.suites import SUITES, default_config, run_suite

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**63 + 2, 2**64 - 1]
MASKED_SEEDS = [-1, 2**64 + 5]  # rng_from and TrialStream mask the seed to 64 bits
STREAMS = [(), (3,), (3, 7), (2**40, 5)]


def _alone(stream, draw):
    """draw() of each trial of the stream read alone, concatenated."""
    return np.concatenate([draw(stream._replace(start=j, stop=j + 1))
                           for j in range(stream.start, stream.stop)])


# (seed, word, start, stop): blocks from the group's start and from its middle
BLOCKS = [(0, 0, 0, 9), (2**64 - 1, 2**64 - 1, 5, 12),
          (-1, 4 << 48 | 2 << 32 | 3 << 16 | 9, 61, 70)]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("draw", [
    lambda s: s.uniforms(7),
    lambda s: s.uniforms(8),
    lambda s: s.normals((2, 3, 3)),
    lambda s: s.normals((5,)),
    lambda s: s.dirichlet((2, 4)),
    lambda s: random_density(3, s),
    lambda s: random_tangent(4, s),
    lambda s: random_unitary(3, s),
    lambda s: random_kraus_channel(2, 3, 4, s).kraus,
], ids=["uniforms-7", "uniforms-8", "normals-2x3x3", "normals-5", "dirichlet-2x4", "density",
        "tangent", "unitary", "kraus"])
def test_block_equals_its_trials_read_alone(draw, block):
    stream = TrialStream(*block)
    x = draw(stream)
    assert x.shape[0] == stream.stop - stream.start
    assert np.array_equal(x, _alone(stream, draw))


def test_stream_reads_the_philox_key_and_counter():
    # trial j of a draw of k counter steps reads steps [j k, (j + 1) k) of the key
    # (seed, word): numpy's Philox steps its counter before each 4-word output
    seed, word, j = 2**64 - 7, 3 << 48 | 1 << 32 | 5 << 16 | 2, 11
    for size, k in [(1, 1), (4, 1), (5, 2), (50, 13)]:
        key = np.array([seed, word], dtype=np.uint64)
        bits = np.random.Philox(key=key, counter=j * k).random_raw(4 * k)
        u = TrialStream(seed, word, j, j + 1).uniforms(size)[0]
        assert np.array_equal(u, ((bits[:size] >> 11) + 1) * 2.0**-53)


def test_draws_are_in_range_and_distributed():
    stream = TrialStream(3, 1, 0, 20_000)
    u = stream.uniforms(6)
    assert 0.0 < u.min() and u.max() <= 1.0
    z = stream.normals((3,))
    assert abs(z.mean()) < 0.02 and abs(z.var() - 1.0) < 0.02
    p = stream.dirichlet((3,))
    assert np.allclose(p.sum(axis=-1), 1.0, rtol=0.0, atol=1e-15) and p.min() > 0.0
    # Dirichlet(1) on 3 points: each coordinate has mean 1/3 and variance 1/18
    assert np.allclose(p.mean(axis=0), 1.0 / 3.0, atol=0.01)
    assert np.allclose(p.var(axis=0), 1.0 / 18.0, atol=0.005)


@pytest.mark.parametrize("rows, cols", [(3, 3), (6, 2)])
def test_complex_gaussian_one_draw_equals_two_draws(rows, cols):
    for seed in EDGE_SEEDS:
        rng = rng_from(seed)
        two = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        assert np.array_equal(_gaussian(seed, rows, cols), two)


@pytest.mark.parametrize("stream", STREAMS)
def test_one_key_calls_equal_rng_from(stream):
    # rng_from is PCG64 seeded by SeedSequence of the words masked to 64 bits
    for seed in EDGE_SEEDS + MASKED_SEEDS:
        words = [seed & (2**64 - 1)] + [s & (2**64 - 1) for s in stream]
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
        assert rng_from(seed, *stream).bit_generator.state == ref.bit_generator.state


def test_single_seed_bits_are_pinned():
    # the benchmark builds its curvature states and distance pairs with int seeds
    rho = random_density(3, 5)
    assert hashlib.sha256(rho.tobytes()).hexdigest() == (
        "7773e7328c0ab1def086cca0fa03800dffef4baa7347c25704e8ccea2af1c098")


def test_trial_seeds_equal_rng_from_integers():
    # the benchmark's distance oracle seeds pair t with int(rng_from(seed, t).integers(2**63)):
    # PCG64's first output under SeedSequence([seed, t]), shifted right by one
    assert int(rng_from(0, 7).integers(2**63)) == 358430033472707036
    for seed, t in [(0, 7), (1, 0), (2**64 - 1, 199)]:
        first = int(np.random.PCG64(np.random.SeedSequence([seed, t])).random_raw())
        assert int(rng_from(seed, t).integers(2**63)) == first >> 1


def test_empty_blocks():
    empty = TrialStream(0, 0, 5, 5)
    assert empty.normals((2, 3, 3)).shape == (0, 2, 3, 3)
    assert empty.dirichlet((2, 3)).shape == (0, 2, 3)
    assert random_density(3, empty).shape == (0, 3, 3)
    assert random_kraus_channel(2, 2, 3, empty).kraus.shape == (0, 3, 2, 2)


def test_interleaved_calls_equal_sequential_calls():
    # a stream holds no state: reads of other streams in between change nothing
    a, b = TrialStream(11, 0, 0, 5), TrialStream(12, 0, 3, 6)
    first = a.normals((8,))
    inner = [b.normals((2, 3, 3)), random_density(3, 4), b.uniforms(3)]
    assert np.array_equal(a.normals((8,)), first)
    assert np.array_equal(b.normals((2, 3, 3)), inner[0])
    assert np.array_equal(b.uniforms(3), inner[2])


def test_block_read_peak_memory():
    # the largest block a suite draws (BLOCK_ENTRIES matrix entries) allocates
    # about 5 times its output, the uniforms and their temporaries
    stream = TrialStream(0, 0, 0, linalg.BLOCK_ENTRIES // 4)
    random_density(2, stream)
    tracemalloc.start()
    try:
        rho = random_density(2, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * rho.nbytes


# Philox reads per suite at its defaults and seed 0: one per draw tag and block
STREAM_READS = {"wy-curvature": 3, "pullback": 12, "hessian": 18, "monotonicity": 33,
                "geodesic-length": 7, "dual-pairs": 0, "classical": 6, "skew-identity": 8,
                "alpha": 0, "distance-bound": 122}


def test_seeding_calls_per_default_pass(monkeypatch):
    # each read keys one Philox generator and sets its counter
    calls = []
    uniforms = TrialStream.uniforms
    monkeypatch.setattr(TrialStream, "uniforms",
                        lambda self, size: calls.append(None) or uniforms(self, size))
    counts = {}
    for suite in SUITES:
        before = len(calls)
        run_suite(default_config(suite))
        counts[suite] = len(calls) - before
    assert counts == STREAM_READS
    assert sum(counts.values()) == 209


def test_hs_norm_of_stack_equals_slices_bitwise():
    stack = random_tangent(3, TrialStream(1, 0, 0, 3))
    norms = hs_norm(stack)
    assert norms.shape == (3,)
    assert isinstance(hs_norm(stack[0]), float)
    assert [float(x) for x in norms] == [hs_norm(a) for a in stack]
    assert hs_norm(stack.reshape(3, 1, 3, 3)).shape == (3, 1)
