"""Block seeding against rng_from, bit for bit, under the installed numpy.

`seeded_stack` and `trial_seeds` re-derive numpy's SeedSequence hash and
PCG64 seeding step; if an upstream numpy changes either, these tests fail.
"""

import random
import tracemalloc

import numpy as np
import pytest

from wyinfo import linalg
from wyinfo.linalg import (
    _complex_gaussian,
    _pcg64_seedings,
    hs_norm,
    random_tangent,
    rng_from,
    seeded_stack,
    trial_seeds,
)
from wyinfo.suites import SUITES, default_config, run_suite

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**63 + 2, 2**64 - 1]
MASKED_SEEDS = [-1, 2**64 + 5]  # rng_from masks every entry to 64 bits
STREAMS = [(), (3,), (3, 7), (2**40, 5)]


def _keys():
    """Edge and masked seeds on every stream, then 10,007 random seeds of 1-64 bits."""
    rnd = random.Random(20031)
    keys = [(s, *stream) for s in EDGE_SEEDS + MASKED_SEEDS for stream in STREAMS]
    for i in range(10_007):
        keys.append((rnd.getrandbits(rnd.randint(1, 64)), *STREAMS[i % len(STREAMS)]))
    return keys


KEYS = _keys()


def _draw(rng):
    return rng.standard_normal((2, 3, 3))


def test_keys_span_entropy_lengths():
    # entries below 2^32 hash as one word, others as two: one block mixes 1- to 5-word keys
    lengths = {sum(1 + ((int(v) & (2**64 - 1)) >= 2**32) for v in k) for k in KEYS}
    assert lengths == {1, 2, 3, 4, 5}


def test_pcg64_state_and_inc_equal_rng_from():
    halves = zip(*(h.tolist() for h in _pcg64_seedings(KEYS)))
    for key, (s_hi, s_lo, i_hi, i_lo) in zip(KEYS, halves, strict=True):
        state, inc = s_hi << 64 | s_lo, i_hi << 64 | i_lo
        ref = rng_from(*key).bit_generator.state["state"]
        assert (state, inc) == (ref["state"], ref["inc"]), key


def test_seeded_stack_equals_rng_from_draws():
    stack = seeded_stack(KEYS, _draw)
    assert stack.shape == (len(KEYS), 2, 3, 3)
    assert np.array_equal(stack, np.stack([_draw(rng_from(*k)) for k in KEYS]))


def test_trial_seeds_equal_rng_from_integers():
    seeds = trial_seeds(KEYS)
    assert all(type(s) is int for s in seeds)
    assert seeds == [int(rng_from(*k).integers(2**63)) for k in KEYS]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("stream", STREAMS)
def test_one_key_calls_equal_rng_from(stream):
    # a one-key block runs on 1-element arrays; arithmetic on numpy scalars
    # would warn where the arrays wrap, so a scalar fallback fails here
    with pytest.raises(RuntimeWarning):
        np.uint64(2**63) * np.uint64(3)
    assert (np.array([2**63], dtype=np.uint64) * np.uint64(3)).tolist() == [2**63]
    for seed in EDGE_SEEDS + MASKED_SEEDS:
        key = (seed, *stream)
        assert trial_seeds([key]) == [int(rng_from(*key).integers(2**63))], key
        assert np.array_equal(seeded_stack([key], _draw), _draw(rng_from(*key))[None]), key


def test_empty_blocks():
    assert trial_seeds([]) == []
    with pytest.raises(ValueError):
        seeded_stack([], _draw)


@pytest.mark.parametrize("second", [(3, 3), (2, 3, 3, 1), (3,)])
def test_draws_of_another_shape_raise(second):
    # (3, 3) and (3,) would broadcast into a (2, 3, 3) slice of a preallocated stack
    shapes = iter([(2, 3, 3), second])
    with pytest.raises(ValueError, match="shape"):
        seeded_stack([(0,), (1,)], lambda rng: rng.standard_normal(next(shapes)))


def test_draws_of_another_dtype_raise():
    draws = iter([np.zeros(3), np.zeros(3, dtype=complex)])
    with pytest.raises(ValueError, match="dtype"):
        seeded_stack([(0,), (1,)], lambda rng: next(draws))


def test_trial_seeds_peak_memory():
    # 10,000 keys peaked at 5.0 MB when every key's state was a pair of
    # 128-bit Python ints; the uint64 arrays and the result list need 1.75 MB
    keys = [(0, t) for t in range(10_000)]
    trial_seeds(keys[:1])  # the hash constants of 2-word keys are cached
    tracemalloc.start()
    try:
        trial_seeds(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.4e6


def test_mixed_word_counts_keep_key_order():
    # 1-, 2- and 3-word keys interleaved, so each group's results land back in key order
    keys = [(5,), (2**40,), (2**40, 3), (7,), (2**64 - 1, 2**33), (0, 1), (9,), (2**32,)]
    assert trial_seeds(keys) == [int(rng_from(*k).integers(2**63)) for k in keys]
    assert np.array_equal(seeded_stack(keys, _draw), np.stack([_draw(rng_from(*k)) for k in keys]))


def test_interleaved_calls_equal_sequential_calls():
    outer_keys = [(11, t) for t in range(5)]
    inner_keys = [(12, t) for t in range(3)]
    inner = []

    def draw_with_inner_call(rng):
        first = rng.standard_normal(4)
        inner.append(seeded_stack(inner_keys, _draw))
        return np.concatenate([first, rng.standard_normal(4)])

    outer = seeded_stack(outer_keys, draw_with_inner_call)
    assert np.array_equal(outer, seeded_stack(outer_keys, lambda rng: rng.standard_normal(8)))
    sequential_inner = seeded_stack(inner_keys, _draw)
    assert all(np.array_equal(x, sequential_inner) for x in inner)


# Calls per suite at its defaults and seed 0.  Each call pays a fixed cost of
# about 90 us, so a suite that goes back to one draw per entry or per trial
# fails here; monotonicity drew per catalog entry at 136 calls.
SEEDING_CALLS = {"wy-curvature": 6, "pullback": 15, "hessian": 20, "monotonicity": 34,
                 "geodesic-length": 7, "dual-pairs": 0, "classical": 3, "skew-identity": 9,
                 "alpha": 0, "distance-bound": 122}


def test_seeding_calls_per_default_pass(monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "_pcg64_seedings",
                        lambda keys: calls.append(None) or _pcg64_seedings(keys))
    counts = {}
    for suite in SUITES:
        before = len(calls)
        run_suite(default_config(suite))
        counts[suite] = len(calls) - before
    assert counts == SEEDING_CALLS
    assert sum(counts.values()) == 216


@pytest.mark.parametrize("rows, cols", [(3, 3), (6, 2)])
def test_complex_gaussian_one_draw_equals_two_draws(rows, cols):
    for seed in EDGE_SEEDS:
        rng = rng_from(seed)
        two = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        assert np.array_equal(_complex_gaussian(rng_from(seed), rows, cols), two)


def test_hs_norm_of_stack_equals_slices_bitwise():
    stack = random_tangent(3, [1, 2, 3])
    norms = hs_norm(stack)
    assert norms.shape == (3,)
    assert isinstance(hs_norm(stack[0]), float)
    assert [float(x) for x in norms] == [hs_norm(a) for a in stack]
    assert hs_norm(stack.reshape(3, 1, 3, 3)).shape == (3, 1)
