"""Deterministic constructors for test frames.

All constructors are pure functions of their parameters and a seed; see the
rng module for the exact stream definition.
"""

from __future__ import annotations

import numpy as np

from .errors import EpsilonOutOfRangeError, GFrameError, NotAFrameError
from .model import GFrame, canonical_parseval, stacked_frames, validate_frame
from .rng import complex_gaussian_matrix, complex_gaussian_stack, stream

RETRY_CAP = 16
# A batch of random frames holds at most this many bytes of stacked T
# (K * n * 16 per frame). Batching pays on small frames, where per-call
# overhead dominates; a batch's temporaries peak at a few times its T, so a
# larger budget would raise peak memory without saving time on large frames.
BATCH_BYTES = 1 << 17


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


def unwrap(outcome):
    """The value of one outcome of random_parseval_gframes; raises the exception it holds."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _random_gframes(n: int, counts: tuple[int, ...], seeds: list[int]) -> list:
    """Gaussian frames for several seeds, drawn and decomposed as stacks.

    Each outcome is a (frame, live stream) pair, the stream kept for
    follow-up draws, or the GFrameError of a seed that never drew a frame.
    A seed whose draw fails the rank gate is drawn again on its next
    substream, alone with the other failed seeds; the seeds that passed keep
    their frames.
    """
    outcomes: list = [None] * len(seeds)
    pending = list(range(len(seeds)))
    for retry in range(RETRY_CAP):
        if not pending:
            break
        gens = [stream(seeds[i], substream=retry) for i in pending]
        frames = stacked_frames(complex_gaussian_stack(gens, counts, n), counts)
        rejected = []
        for i, f, gen in zip(pending, frames, gens):
            try:
                validate_frame(f)
            except NotAFrameError:
                rejected.append(i)
            else:
                outcomes[i] = (f, gen)
        pending = rejected
    for i in pending:
        outcomes[i] = GFrameError(
            f"no frame obtained after {RETRY_CAP} attempts for n = {n}, counts = {list(counts)}"
        )
    return outcomes


def _random_gframe(n: int, counts, seed: int) -> tuple[GFrame, np.random.Generator]:
    """Gaussian frame plus the live stream that produced it (for follow-up draws)."""
    return unwrap(_random_gframes(n, _check_params(n, counts), [seed])[0])


def random_gframe(n: int, counts, seed: int) -> GFrame:
    """Operators with independent standard-Gaussian real and imaginary entries.

    Draws are retried on a fresh substream until the family certifies as a
    frame, which for a Gaussian family is all but guaranteed on the first try.
    """
    return _random_gframe(n, counts, seed)[0]


def _parseval_batch(n: int, counts: tuple[int, ...], seeds: list[int]) -> list:
    try:
        drawn = _random_gframes(n, counts, seeds)
    except Exception as exc:  # a stacked step failed: rebuild seed by seed to find whose error it is
        if len(seeds) == 1:
            return [exc]
        return [outcome for seed in seeds for outcome in _parseval_batch(n, counts, [seed])]
    outcomes = []
    for outcome in drawn:
        try:
            outcomes.append(canonical_parseval(unwrap(outcome)[0]))
        except Exception as exc:  # the error belongs to this seed alone
            outcomes.append(exc)
    return outcomes


def random_parseval_gframes(n: int, counts, seeds):
    """Canonical Parseval transforms of random Gaussian frames, one per seed, in seed order.

    Yields, for each seed, the frame random_parseval_gframe(n, counts, seed)
    returns, or the exception it raises, so a failure stays with its seed
    (read either with `unwrap`). The frames are drawn and decomposed in
    stacked batches of at most BATCH_BYTES of T, built as the iteration
    reaches them.
    """
    counts = _check_params(n, counts)
    seeds = list(seeds)
    size = max(1, BATCH_BYTES // (16 * sum(counts) * n))
    for start in range(0, len(seeds), size):
        yield from _parseval_batch(n, counts, seeds[start : start + size])


def random_parseval_gframe(n: int, counts, seed: int) -> GFrame:
    """Canonical Parseval transform of a random Gaussian frame."""
    (companion,) = random_parseval_gframes(n, counts, [seed])
    return unwrap(companion)


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
    return GFrame.from_stacked(parseval.stacked @ shaper, like=parseval)


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
