"""Seeded draws: one batched draw per family reproduces the per-block Box-Muller sequence."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gframes.rng import complex_gaussian_stack, standard_normals, stream

SEEDS = st.integers(min_value=0, max_value=2**63 - 1)


@settings(deadline=None, max_examples=80)
@given(count=st.integers(min_value=0, max_value=41), seed=SEEDS)
@example(count=7, seed=0)
def test_standard_normals_follow_box_muller(count, seed):
    gen = stream(seed)
    pairs = (count + 1) // 2
    u1 = 1.0 - gen.random(pairs)
    u2 = gen.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    expected = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:count]
    drawn = stream(seed)
    got = standard_normals(drawn, count)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert drawn.random() == gen.random()


@settings(deadline=None, max_examples=80)
@given(
    n=st.integers(min_value=1, max_value=7),
    counts=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=12),
    seed=SEEDS,
)
@example(n=3, counts=[1, 2, 3], seed=5)  # odd k * n: the last sin value of a batch is dropped
def test_batched_blocks_equal_per_block_draws(n, counts, seed):
    gen = stream(seed)
    blocks = []
    for k in counts:
        re = standard_normals(gen, k * n)
        im = standard_normals(gen, k * n)
        blocks.append((re + 1j * im).reshape(k, n))
    reference = np.vstack(blocks)
    drawn = stream(seed)
    batched = complex_gaussian_stack([drawn], counts, n)[0]
    assert batched.shape == reference.shape
    assert np.array_equal(batched.view(np.uint64), reference.view(np.uint64))
    assert drawn.random() == gen.random()
