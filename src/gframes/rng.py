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


# Draws of at most this many variates keep their layout in a memo: there
# building the gathers costs more than the draw itself (36 us against 15 us for
# 8 normals). Larger draws rebuild them: memoizing the 256 KiB of index arrays
# of a 256 x 32 frame raised the peak RSS of a construct-n32 process by 2.2 MB.
MEMO_VARIATES = 1 << 13


def _box_muller_layout(counts: tuple[int, ...], cols: int, pair: bool) -> tuple[np.ndarray, ...]:
    """Read-only gathers (first, second, out) of _box_muller_batches for one draw shape.

    Each k in counts stands for one batch of k * cols variates, or with `pair`
    for two such batches, a real one and then an imaginary one. A batch of
    s variates owns 2p uniforms, p = ceil(s/2), at 2P onward, with P the pairs
    of the batches before it: u1 of its j-th pair sits at 2P + j and u2 at
    2P + p + j (first, second). Its variate q is r*cos of pair P + q for q < p,
    else r*sin of pair P + q - p, read from w = [r*cos of every pair | r*sin of
    every pair] (out). With `pair`, out interleaves each real batch with its
    imaginary one, so the variates view as complex128 in row order.
    """
    sizes = np.repeat(np.asarray(counts, dtype=np.int64) * cols, 2 if pair else 1)
    pairs = (sizes + 1) // 2
    total = int(pairs.sum())
    start = np.cumsum(pairs) - pairs
    first = np.repeat(start, pairs) + np.arange(total)
    second = first + np.repeat(pairs, pairs)
    offset = np.repeat(start, sizes)
    q = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    width = np.repeat(pairs, sizes)
    out = np.where(q < width, offset + q, total + offset + q - width)
    if pair:
        real = np.repeat(np.arange(sizes.size) % 2 == 0, sizes)
        out = np.stack([out[real], out[~real]], axis=1).ravel()
    for index in (first, second, out):
        index.setflags(write=False)
    return first, second, out


_memo_layout = lru_cache(maxsize=16)(_box_muller_layout)


def _box_muller_batches(gens, counts: tuple[int, ...], cols: int, pair: bool = False) -> np.ndarray:
    """Consecutive Box-Muller batches of one draw shape (_box_muller_layout), one row per generator.

    Row r holds exactly the variates gens[r] alone would give, in batch order,
    or with `pair` as complex128 pairs (real batch, imaginary batch) in row
    order. The layout depends only on the shape, so it is built once per call
    (once per distinct shape for small draws) and applied along the generator
    axis. Each generator's uniforms come from one gen.random call; Philox
    hands out the same doubles whether they are requested in one call or in
    many.
    """
    variates = sum(counts) * cols * (2 if pair else 1)
    layout = _memo_layout if variates <= MEMO_VARIATES else _box_muller_layout
    first, second, out = layout(counts, cols, pair)
    # Each intermediate below is released once used, so a batch peaks at a few times its size.
    u = np.empty((len(gens), 2 * first.size))
    for row, gen in zip(u, gens):
        gen.random(out=row)
    # take keeps every row contiguous (u[:, idx] would return a column-major array).
    radius = u.take(first, axis=1)
    angle = u.take(second, axis=1)
    del u
    np.subtract(1.0, radius, out=radius)  # (0, 1], keeps the log finite
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    w = np.empty((len(gens), 2, first.size))
    np.cos(angle, out=w[:, 0])
    np.sin(angle, out=w[:, 1])
    del angle
    w *= radius[:, np.newaxis]
    del radius
    z = w.reshape(len(gens), -1).take(out, axis=1)
    return z.view(np.complex128) if pair else z


def standard_normals(gen: np.random.Generator, count: int) -> np.ndarray:
    """Box-Muller standard normals drawn from the uniform stream."""
    return _box_muller_batches([gen], (1,), count)[0]


def standard_normal_batches(gen: np.random.Generator, batches: int, count: int) -> np.ndarray:
    """batches x count array whose row b is the b-th of `batches` consecutive standard_normals(gen, count) draws."""
    return _box_muller_batches([gen], (1,) * batches, count)[0].reshape(batches, count)


def complex_gaussian_stack(gens, counts, cols: int) -> np.ndarray:
    """Blocks of counts[i] x cols complex Gaussians for each generator, as one len(gens) x sum(counts) x cols array.

    A generator's row equals stacking the complex_gaussian_matrix draws it
    would make alone, one block after another: each block's real batch is
    drawn before its imaginary batch. Only the layout and the transform are
    shared along the generator axis.
    """
    counts = tuple(counts)
    return _box_muller_batches(gens, counts, cols, pair=True).reshape(len(gens), sum(counts), cols)


def complex_gaussian_matrix(gen: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Independent standard-Gaussian real and imaginary parts (real block drawn first)."""
    return complex_gaussian_stack([gen], (rows,), cols)[0]
