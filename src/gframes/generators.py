"""Deterministic constructors for test frames.

All constructors are pure functions of their parameters and a seed; see the
rng module for the exact stream definition.
"""

from __future__ import annotations

import numpy as np

from .errors import EpsilonOutOfRangeError, GFrameError, NotAFrameError
from .model import GFrame, canonical_parseval, validate_frame
from .rng import complex_gaussian_blocks, complex_gaussian_matrix, stream

RETRY_CAP = 16


def _check_params(n: int, counts) -> tuple[int, ...]:
    counts = tuple(int(k) for k in counts)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not counts or any(k < 1 for k in counts):
        raise ValueError(f"counts must be positive integers, got {list(counts)}")
    if sum(counts) < n:
        raise ValueError(
            f"infeasible: sum of counts {sum(counts)} is below n = {n}, "
            "the family cannot span the space"
        )
    return counts


def _random_gframe(n: int, counts, seed: int) -> tuple[GFrame, np.random.Generator]:
    """Gaussian frame plus the live stream that produced it (for follow-up draws)."""
    counts = _check_params(n, counts)
    for retry in range(RETRY_CAP):
        gen = stream(seed, substream=retry)
        f = GFrame.from_stacked(complex_gaussian_blocks(gen, counts, n), counts)
        try:
            validate_frame(f)
        except NotAFrameError:
            continue
        return f, gen
    raise GFrameError(
        f"no frame obtained after {RETRY_CAP} attempts for n = {n}, counts = {list(counts)}"
    )


def random_gframe(n: int, counts, seed: int) -> GFrame:
    """Operators with independent standard-Gaussian real and imaginary entries.

    Draws are retried on a fresh substream until the family certifies as a
    frame, which for a Gaussian family is all but guaranteed on the first try.
    """
    return _random_gframe(n, counts, seed)[0]


def random_parseval_gframe(n: int, counts, seed: int) -> GFrame:
    """Canonical Parseval transform of a random Gaussian frame."""
    return canonical_parseval(_random_gframe(n, counts, seed)[0])


def random_unitary(gen: np.random.Generator, n: int) -> np.ndarray:
    """Orthonormalize a Gaussian matrix: its QR factor Q, with R's diagonal made positive."""
    q, r = np.linalg.qr(complex_gaussian_matrix(gen, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def nearly_parseval_gframe(n: int, counts, epsilon: float, seed: int) -> GFrame:
    """Frame whose rating is exactly the requested epsilon.

    A random Parseval frame is shaped by a Hermitian factor D with spectrum
    sqrt(mu_k), so the resulting frame operator D S D has spectrum {mu_k}.
    Both endpoints 1 + epsilon and 1 - epsilon appear in the spectrum, which
    pins the rating; interior values are uniform in between.
    """
    if not 0.0 <= epsilon < 1.0:
        raise EpsilonOutOfRangeError("epsilon must lie in [0,1)", epsilon=epsilon)
    if epsilon > 0.0 and n < 2:
        raise ValueError("n must be at least 2 when epsilon is positive")
    base, gen = _random_gframe(n, counts, seed)
    parseval = canonical_parseval(base)
    mu = np.empty(n)
    mu[0] = 1.0 + epsilon
    if n > 1:
        mu[-1] = 1.0 - epsilon
        mu[1:-1] = 1.0 - epsilon + 2.0 * epsilon * gen.random(n - 2)
    q = random_unitary(gen, n)
    shaper = (q * np.sqrt(mu)) @ q.conj().T
    return GFrame.from_stacked(parseval.stacked @ shaper, parseval.counts)


def embed_vector_frame(vectors) -> GFrame:
    """Vectors f_k as rank-one operators x -> <x, f_k>, one 1 x n row each."""
    vecs = [np.asarray(v, dtype=np.complex128) for v in vectors]
    if not vecs:
        raise ValueError("need at least one vector")
    n = vecs[0].shape[0] if vecs[0].ndim == 1 else -1
    for idx, v in enumerate(vecs):
        if v.ndim != 1 or v.shape[0] != n:
            raise ValueError(f"vector {idx} must be one-dimensional of length {n}")
    return GFrame.from_stacked(np.conj(vecs), (1,) * len(vecs))
