"""Seeded random streams used by all generators.

The stream is the counter-based Philox 4x64 generator keyed directly by the
user seed, so a (seed, substream) pair identifies the draws exactly.
Substream r starts at counter r·2**128, as the base stream jumped r times.
Gaussian variates are numpy's Generator.standard_normal on that stream,
taken in order: a draw of m normals followed by a draw of k equals one draw
of m + k. A complex Gaussian block of rows x cols takes 2·rows·cols
consecutive normals viewed as complex128, so each entry's real part is drawn
just before its imaginary part; a family of blocks draws them in order.
numpy may change standard_normal between releases (NEP 19), so a seed pins
the draws within one numpy build.
"""

from __future__ import annotations

import numpy as np


def stream(seed: int, substream: int = 0) -> np.random.Generator:
    """Deterministic generator for (seed, substream)."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if seed >= 1 << 128:  # Philox's key is 128 bits
        raise ValueError(f"seed must be below 2**128, got {seed}")
    if substream < 0:
        raise ValueError(f"substream must be non-negative, got {substream}")
    if substream >= 1 << 128:  # substream r starts at r·2**128 on Philox's 256-bit counter
        raise ValueError(f"substream must be below 2**128, got {substream}")
    return np.random.Generator(np.random.Philox(key=seed, counter=substream << 128))


def standard_normals(gen: np.random.Generator, count: int) -> np.ndarray:
    """The next count standard normals of gen."""
    return gen.standard_normal(count)


def complex_gaussian_stack(gens, counts, cols: int) -> np.ndarray:
    """Blocks of counts[i] x cols complex Gaussians for each generator, as one len(gens) x sum(counts) x cols array.

    A generator's row equals stacking the complex_gaussian_matrix draws it
    would make alone, one block after another: the whole row is one
    standard_normal draw of 2·sum(counts)·cols normals, read as complex128.
    """
    rows = sum(counts)
    z = np.empty((len(gens), 2 * rows * cols))
    for row, gen in zip(z, gens):
        gen.standard_normal(out=row)
    return z.view(np.complex128).reshape(len(gens), rows, cols)


def complex_gaussian_matrix(gen: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """rows x cols complex Gaussians: 2·rows·cols consecutive normals, real and imaginary parts interleaved."""
    return complex_gaussian_stack([gen], (rows,), cols)[0]
