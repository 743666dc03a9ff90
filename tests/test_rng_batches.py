"""Several Box-Muller batches from one call, and the index arrays built once per batch sizes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gframes import rng
from gframes.rng import complex_gaussian_blocks, standard_normal_batches, standard_normals, stream


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


def test_index_arrays_are_built_once_per_sizes():
    rng._memo_indices.cache_clear()
    for seed in range(3):
        complex_gaussian_blocks(stream(seed), (2, 3, 1), 4)
        standard_normals(stream(seed), 8)
        standard_normals(stream(seed), rng.MEMO_VARIATES + 1)  # too large to keep
    info = rng._memo_indices.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 4, 2)
    first, second, pick = rng._box_muller_indices((8,))
    assert not (first.flags.writeable or second.flags.writeable or pick.flags.writeable)
