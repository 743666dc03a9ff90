"""Several Box-Muller batches and generators from one call, and the layout built once per draw shape."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gframes import rng
from gframes.rng import complex_gaussian_stack, standard_normal_batches, standard_normals, stream


@settings(deadline=None, max_examples=60)
@given(
    batches=st.integers(min_value=0, max_value=7),
    count=st.integers(min_value=0, max_value=33),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
)
def test_batches_equal_consecutive_draws(batches, count, seed):
    # The duals suite draws its five canonical probes of 2n normals this way.
    drawn = stream(seed)
    got = standard_normal_batches(drawn, batches, count)
    gen = stream(seed)
    expected = np.array([standard_normals(gen, count) for _ in range(batches)]).reshape(batches, count)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert drawn.random() == gen.random()


def reference_blocks(seed, counts, cols):
    """One generator's row of complex_gaussian_stack by the stream definition alone: one uniform call per batch, per-element Box-Muller."""
    gen = stream(seed)
    blocks = []
    for k in counts:
        parts = []
        for _ in range(2):  # the real batch, then the imaginary batch
            size = k * cols
            pairs = (size + 1) // 2
            u = gen.random(2 * pairs)
            radius = np.sqrt(-2.0 * np.log(1.0 - u[:pairs]))
            angle = (2.0 * np.pi) * u[pairs:]
            parts.append(np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:size])
        block = np.empty(k * cols, dtype=np.complex128)
        block.real, block.imag = parts
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
# verify-blocks-n48, and the 256 x 32 frame of construct-n32, which is above MEMO_VARIATES.
@example(cols=4, counts=[1] * 256, seeds=list(range(8)))
@example(cols=48, counts=[12] * 4, seeds=[5, 6, 7])
@example(cols=32, counts=[1] * 256, seeds=[3])
@example(cols=33, counts=[3, 5] * 40, seeds=[4, 9])  # unequal counts, above MEMO_VARIATES
@example(cols=3, counts=[1, 3, 5], seeds=[1, 2])  # odd k * n: the last sin value of a batch is dropped
def test_stack_rows_equal_each_generator_alone(cols, counts, seeds):
    gens = [stream(seed) for seed in seeds]
    stack = complex_gaussian_stack(gens, counts, cols)
    assert stack.shape == (len(seeds), sum(counts), cols)
    for gen, row, seed in zip(gens, stack, seeds):
        expected, ref_gen = reference_blocks(seed, counts, cols)
        assert same_bits(row, expected)
        assert gen.random() == ref_gen.random()


def test_layout_is_built_once_per_shape():
    real = rng._box_muller_layout
    built = []  # the shapes built outside the memo

    def counting(*shape):
        built.append(shape)
        return real(*shape)

    rng._memo_layout.cache_clear()
    with mock.patch.object(rng, "_box_muller_layout", counting):
        for seed in range(3):
            complex_gaussian_stack([stream(seed)], (2, 3, 1), 4)
            complex_gaussian_stack([stream(seed), stream(seed + 3)], (2, 3, 1), 4)  # same shape, two rows
            standard_normals(stream(seed), 8)
            standard_normals(stream(seed), rng.MEMO_VARIATES + 1)  # too large to keep
            complex_gaussian_stack([stream(seed)], (1,) * 256, 32)  # 16384 complex variates: too large to keep
    info = rng._memo_layout.cache_info()
    # Two small shapes, each built once and read from the memo 7 more times in all.
    assert (info.misses, info.hits, info.currsize) == (2, 7, 2)
    assert built == [((1,), rng.MEMO_VARIATES + 1, False), ((1,) * 256, 32, True)] * 3
    for shape in (((2, 3, 1), 4, True), ((1,), 8, False), ((1,) * 256, 32, True), ((3, 5) * 40, 33, True)):
        assert not any(index.flags.writeable for index in real(*shape))
