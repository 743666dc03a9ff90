"""Seeded random streams used by all generators.

The stream is the counter-based Philox 4x64 generator keyed directly by the
user seed, so a (seed, substream) pair identifies the draws exactly.
Substream r is the base stream jumped r times. Gaussian variates come from
the Box-Muller transform applied to consecutive uniform doubles: a batch of
m variates takes p = ceil(m/2) uniforms u1 followed by p uniforms u2, and
each pair (u1, u2) yields r*cos and r*sin with r = sqrt(-2 ln(1 - u1)); the
cos block of a batch precedes the sin block, and when m is odd the last sin
value is discarded. A complex Gaussian block draws its real batch first,
then its imaginary batch; a family of blocks draws them in order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def stream(seed: int, substream: int = 0) -> np.random.Generator:
    """Deterministic generator for (seed, substream)."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if seed >= 1 << 128:  # Philox's key is 128 bits
        raise ValueError(f"seed must be below 2**128, got {seed}")
    if substream < 0:
        raise ValueError(f"substream must be non-negative, got {substream}")
    bits = np.random.Philox(key=seed)
    if substream:
        bits = bits.jumped(substream)
    return np.random.Generator(bits)


# Draws of at most this many variates keep their index arrays in a memo: there
# building the indices costs more than the draw itself (36 us against 15 us for
# 8 normals). Larger draws rebuild them: memoizing the 256 KiB of indices of a
# 256 x 32 frame raised the peak RSS of a construct-n32 process by 2.2 MB.
MEMO_VARIATES = 1 << 13


def _box_muller_indices(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only gather indices (first, second, pick) of _box_muller_batches for these batch sizes."""
    sizes = np.array(sizes, dtype=np.int64)
    pairs = (sizes + 1) // 2
    total = int(pairs.sum())
    # Batch b owns uniforms [2*P_b, 2*P_b + 2*p_b) with P_b the pairs before it:
    # u1 of its j-th pair sits at 2*P_b + j and u2 at 2*P_b + p_b + j.
    first = np.repeat(np.cumsum(pairs) - pairs, pairs) + np.arange(total)
    second = first + np.repeat(pairs, pairs)
    # Variate q of batch b is cos[P_b + q] for q < p_b, else sin[P_b + q - p_b].
    offset = np.repeat(np.cumsum(pairs) - pairs, sizes)
    q = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    width = np.repeat(pairs, sizes)
    pick = np.where(q < width, offset + q, total + offset + q - width)
    for index in (first, second, pick):
        index.setflags(write=False)
    return first, second, pick


_memo_indices = lru_cache(maxsize=16)(_box_muller_indices)


def _box_muller_batches(gens, sizes: tuple[int, ...]) -> np.ndarray:
    """Consecutive Box-Muller batches of the given sizes, one row per generator.

    Row r holds exactly the variates gens[r] alone would give. The index
    arrays depend only on `sizes`, so they are built once per call (once per
    distinct sizes for small draws) and applied along the generator axis.
    Each generator's uniforms come from one gen.random call; Philox hands out
    the same doubles whether they are requested in one call or in many.
    """
    indices = _memo_indices if sum(sizes) <= MEMO_VARIATES else _box_muller_indices
    first, second, pick = indices(sizes)
    # Each intermediate below is released once used, so a batch peaks at a few times its size.
    u = np.empty((len(gens), 2 * first.size))
    for row, gen in zip(u, gens):
        gen.random(out=row)
    # take keeps every row contiguous (u[:, idx] would return a column-major array).
    u1 = 1.0 - u.take(first, axis=1)  # (0, 1], keeps the log finite
    u2 = u.take(second, axis=1)
    del u
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    del u1, u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    del radius, angle
    return z.take(pick, axis=1)


def standard_normals(gen: np.random.Generator, count: int) -> np.ndarray:
    """Box-Muller standard normals drawn from the uniform stream."""
    return _box_muller_batches([gen], (count,))[0]


def standard_normal_batches(gen: np.random.Generator, batches: int, count: int) -> np.ndarray:
    """batches x count array whose row b is the b-th of `batches` consecutive standard_normals(gen, count) draws."""
    return _box_muller_batches([gen], (count,) * batches)[0].reshape(batches, count)


def complex_gaussian_stack(gens, counts, cols: int) -> np.ndarray:
    """complex_gaussian_blocks for each generator, as one len(gens) x sum(counts) x cols array.

    Each generator draws exactly what it would draw alone; only the index
    arithmetic and the transform are shared along the generator axis.
    """
    sizes = tuple(np.repeat(np.asarray(counts, dtype=np.int64) * cols, 2).tolist())
    # Batches alternate real, imaginary per block; split by the batch parity.
    real = np.repeat(np.arange(len(sizes)) % 2 == 0, sizes)
    z = _box_muller_batches(gens, sizes)
    re = z.compress(real, axis=1)
    im = z.compress(~real, axis=1)
    del z
    return (re + 1j * im).reshape(len(gens), sum(counts), cols)


def complex_gaussian_blocks(gen: np.random.Generator, counts, cols: int) -> np.ndarray:
    """Blocks of counts[i] x cols complex Gaussians, stacked into one sum(counts) x cols array.

    Each block has independent standard-Gaussian real and imaginary parts,
    its real batch drawn before its imaginary batch, so the result equals
    stacking complex_gaussian_matrix draws made one block after another.
    """
    return complex_gaussian_stack([gen], counts, cols)[0]


def complex_gaussian_matrix(gen: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Independent standard-Gaussian real and imaginary parts (real block drawn first)."""
    return complex_gaussian_blocks(gen, (rows,), cols)
