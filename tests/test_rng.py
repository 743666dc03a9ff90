"""Seeded draws: numpy's standard normals on the Philox stream, taken in order, bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gframes.rng import complex_gaussian_stack, standard_normals, stream

SEEDS = st.integers(min_value=0, max_value=2**63 - 1)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(deadline=None, max_examples=80)
@given(count=st.integers(min_value=0, max_value=41), seed=SEEDS)
@example(count=7, seed=0)
def test_standard_normals_equal_numpy_draws(count, seed):
    # The reference draws one normal at a time, so a draw of count normals is
    # also count draws of one.
    gen = stream(seed)
    expected = np.array([gen.standard_normal() for _ in range(count)], dtype=np.float64)
    drawn = stream(seed)
    got = standard_normals(drawn, count)
    assert same_bits(got, expected)
    assert drawn.random() == gen.random()


@settings(deadline=None, max_examples=80)
@given(
    n=st.integers(min_value=1, max_value=7),
    counts=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=12),
    seed=SEEDS,
)
@example(n=3, counts=[1, 2, 3], seed=5)  # blocks of unequal size
def test_batched_blocks_equal_per_block_draws(n, counts, seed):
    gen = stream(seed)
    blocks = []
    for k in counts:
        parts = standard_normals(gen, 2 * k * n)
        block = np.empty(k * n, dtype=np.complex128)
        block.real, block.imag = parts[0::2], parts[1::2]
        blocks.append(block.reshape(k, n))
    reference = np.vstack(blocks)
    drawn = stream(seed)
    batched = complex_gaussian_stack([drawn], counts, n)[0]
    assert same_bits(batched, reference)
    assert drawn.random() == gen.random()


def test_complex_parts_are_standard_and_uncorrelated():
    """Real and imaginary parts of a fixed-seed stack: each of mean 0 and variance 1, uncorrelated.

    Over N = 100 000 entries of independent standard normals x and y, the
    sample mean of x has standard error 1/sqrt(N), the sample mean of x^2
    sqrt(2/N) (Var x^2 = 2), and the sample mean of x*y 1/sqrt(N)
    (Var xy = 1). Each statistic is held within 5 standard errors of its
    target.
    """
    z = complex_gaussian_stack([stream(seed) for seed in (11, 12, 13, 14)], (1,) * 2500, 10).ravel()
    size = z.size
    assert size == 100_000
    error = 1.0 / np.sqrt(size)
    for part in (z.real, z.imag):
        assert abs(part.mean()) <= 5.0 * error
        assert abs((part**2).mean() - 1.0) <= 5.0 * np.sqrt(2.0) * error
    assert abs((z.real * z.imag).mean()) <= 5.0 * error


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**62 + 7, 2**127 + 3])
@pytest.mark.parametrize("substream", [1, 2, 3, 15, 2**40])
def test_substream_is_the_base_stream_jumped(seed, substream):
    # Substream r starts where Philox.jumped(r) puts the base stream: the same state and draws.
    jumped = np.random.Philox(key=seed).jumped(substream)
    gen = stream(seed, substream)
    want, got = jumped.state, gen.bit_generator.state
    assert set(got) == set(want)
    for key in ("bit_generator", "buffer_pos", "has_uint32", "uinteger"):
        assert got[key] == want[key]
    for key in ("counter", "key"):
        assert np.array_equal(got["state"][key], want["state"][key])
    assert np.array_equal(got["buffer"], want["buffer"])
    assert same_bits(gen.standard_normal(1000), np.random.Generator(jumped).standard_normal(1000))


def test_substream_beyond_the_counter_is_refused():
    stream(7, 2**128 - 1)
    with pytest.raises(ValueError, match=r"^substream must be below 2\*\*128, got 340282366920938463463374607431768211456$"):
        stream(7, 2**128)


@pytest.mark.parametrize("seed, substream, message", [
    (-1, 0, r"^seed must be non-negative, got -1$"),
    (7, -1, r"^substream must be non-negative, got -1$"),
], ids=["seed", "substream"])
def test_negative_seed_or_substream_is_refused(seed, substream, message):
    with pytest.raises(ValueError, match=message):
        stream(seed, substream)
