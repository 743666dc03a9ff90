"""Several draws and generators from one call, each equal to drawing alone and in order."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gframes.rng import complex_gaussian_stack, standard_normals, stream


@settings(deadline=None, max_examples=60)
@given(
    batches=st.integers(min_value=0, max_value=7),
    count=st.integers(min_value=0, max_value=33),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
)
def test_batches_equal_consecutive_draws(batches, count, seed):
    # The duals suite draws its five canonical probes of 2n normals this way.
    drawn = stream(seed)
    got = standard_normals(drawn, batches * count).reshape(batches, count)
    gen = stream(seed)
    expected = np.array([standard_normals(gen, count) for _ in range(batches)]).reshape(batches, count)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert drawn.random() == gen.random()


def reference_blocks(seed, counts, cols):
    """One generator's row of complex_gaussian_stack by the stream definition alone: one standard_normal call per entry part."""
    gen = stream(seed)
    blocks = []
    for k in counts:
        block = np.empty(k * cols, dtype=np.complex128)
        for j in range(k * cols):  # each entry's real part, then its imaginary part
            block.real[j] = gen.standard_normal()
            block.imag[j] = gen.standard_normal()
        blocks.append(block.reshape(k, cols))
    return np.vstack(blocks), gen


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(deadline=None, max_examples=60)
@given(
    cols=st.integers(min_value=1, max_value=7),
    counts=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=12),
    seeds=st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=4),
)
# The benchmark workloads' draws: companion and dual batches of verify-vectors-n4 and
# verify-blocks-n48, and the 256 x 32 frame of construct-n32.
@example(cols=4, counts=[1] * 256, seeds=list(range(8)))
@example(cols=48, counts=[12] * 4, seeds=[5, 6, 7])
@example(cols=32, counts=[1] * 256, seeds=[3])
@example(cols=33, counts=[3, 5] * 40, seeds=[4, 9])  # unequal counts
@example(cols=3, counts=[1, 3, 5], seeds=[1, 2])  # odd k * cols
def test_stack_rows_equal_each_generator_alone(cols, counts, seeds):
    gens = [stream(seed) for seed in seeds]
    stack = complex_gaussian_stack(gens, counts, cols)
    assert stack.shape == (len(seeds), sum(counts), cols)
    for gen, row, seed in zip(gens, stack, seeds):
        expected, ref_gen = reference_blocks(seed, counts, cols)
        assert same_bits(row, expected)
        assert gen.random() == ref_gen.random()
