"""Deterministic constructors for test frames.

All constructors are pure functions of their parameters and a seed; see the
rng module for the exact stream definition.
"""

from __future__ import annotations

import numpy as np

from .errors import EpsilonOutOfRangeError, GFrameError
from .model import (
    FrameOperator,
    GFrame,
    ParsevalStack,
    canonical_parseval,
    canonical_parseval_stack,
    frame_matrices,
)
from .rng import complex_gaussian_matrix, complex_gaussian_stack, stream

RETRY_CAP = 16
# Batches of in_batches hold items whose working sets (batch_item_bytes) add up
# to at most this. Batching pays on small frames, where per-call overhead
# dominates: 1 MiB holds 15 companions of a 256 x 4 frame, 3 of a 48 x 48 one.
BATCH_BYTES = 1 << 20


def batch_item_bytes(k: int, n: int, companion: bool) -> int:
    """Working set of one random dual, or one random Parseval companion, of a K x n frame in a batch.

    Four K x n stacks of 16-byte entries, and for a companion four n x n ones
    (S, its eigenvectors, the power): within a few percent of the traced peak, or above it.
    """
    return 16 * 4 * (k * n + (n * n if companion else 0))


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
    """The value of one outcome of in_batches; raises the exception it holds."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def in_batches(build, items, item_bytes: int):
    """Yield build's outcome for each item, in order, building batches of at most BATCH_BYTES.

    build(batch) returns one outcome per item of the batch: a value, or the
    exception that stopped that item (read either with `unwrap`). item_bytes
    is the working set one item adds to a build (batch_item_bytes), and a
    batch holds max(1, BATCH_BYTES // item_bytes) items. When a whole build
    raises, its items are built again one at a time, so each exception stays
    with its own item.
    """
    items = list(items)
    size = max(1, BATCH_BYTES // item_bytes)
    for start in range(0, len(items), size):
        batch = items[start : start + size]
        try:
            outcomes = build(batch)
        except Exception as exc:  # a stacked step failed: redo item by item to find whose error it is
            outcomes = [exc] if len(batch) == 1 else [
                outcome for item in batch for outcome in in_batches(build, [item], item_bytes)]
        yield from outcomes
        del outcomes  # free this batch before the next one is built


def _random_frames(n: int, counts: tuple[int, ...], seeds: list[int]) -> tuple:
    """Gaussian frames for several seeds, drawn and decomposed as stacks.

    Returns (t, fo, outcomes). outcomes[i] is the live stream that drew seed
    i's frame, kept for follow-up draws, or the GFrameError of a seed that
    never drew one. t is the (B, K, n) stack of the drawn frames in seed
    order, and fo its FrameOperator; both are None when no seed drew a frame.
    A seed whose draw fails the rank gate is drawn again on its next
    substream, alone with the other failed seeds; the seeds that passed keep
    their frames, and S and its eigendecomposition are then built again for
    the frames that stay.
    """
    gens = [stream(seed) for seed in seeds]
    t = complex_gaussian_stack(gens, counts, n)
    fo = FrameOperator(frame_matrices(t))
    passed = fo.is_frame
    for retry in range(1, RETRY_CAP):
        failed = np.flatnonzero(~passed)
        if not failed.size:
            break
        for i in failed:
            gens[i] = stream(seeds[i], substream=retry)
        t[failed] = complex_gaussian_stack([gens[i] for i in failed], counts, n)
        passed[failed] = FrameOperator(frame_matrices(t[failed])).is_frame
        fo = None
    outcomes = [gen if ok else GFrameError(
        f"no frame obtained after {RETRY_CAP} attempts for n = {n}, counts = {list(counts)}")
        for gen, ok in zip(gens, passed.tolist())]
    if not passed.any():
        return None, None, outcomes
    if fo is None or not passed.all():
        t = t[passed]
        fo = FrameOperator(frame_matrices(t))
    return t, fo, outcomes


def _random_gframe(n: int, counts, seed: int) -> tuple[GFrame, np.random.Generator]:
    """Gaussian frame plus the live stream that produced it (for follow-up draws)."""
    counts = _check_params(n, counts)
    t, fo, (outcome,) = _random_frames(n, counts, [seed])
    gen = unwrap(outcome)
    return GFrame.from_stacked(t[0], counts, frame_op=fo[0]), gen


def random_gframe(n: int, counts, seed: int) -> GFrame:
    """Operators with independent standard-Gaussian real and imaginary entries.

    Draws are retried on a fresh substream until the family certifies as a
    frame, which for a Gaussian family is all but guaranteed on the first try.
    """
    return _random_gframe(n, counts, seed)[0]


def parseval_companions(n: int, counts: tuple[int, ...], seeds: list[int]) -> tuple[ParsevalStack | None, list]:
    """Canonical Parseval transforms of the seeds' random Gaussian frames, as one stack.

    n and counts are taken as checked: counts is a tuple of positive ints
    adding up to at least n, as random_parseval_gframes checks once per call
    and as a frame's own shape is. Returns (companions, outcomes).
    outcomes[i] is None when seed i drew a frame, and otherwise the
    GFrameError of a seed that never drew one. companions is the
    model.ParsevalStack of the transforms of the seeds that drew a frame, in
    seed order (None when no seed did). The frames are drawn and decomposed
    as stacks, and their transforms come from one
    model.canonical_parseval_stack call; when that raises, the whole call
    raises, and in_batches redoes it seed by seed.
    """
    t, fo, outcomes = _random_frames(n, counts, seeds)
    return (None if t is None else canonical_parseval_stack(t, fo)), [
        outcome if isinstance(outcome, Exception) else None for outcome in outcomes]


def random_parseval_gframes(n: int, counts, seeds):
    """Canonical Parseval transforms of random Gaussian frames, one per seed, in seed order.

    Yields, for each seed, the frame random_parseval_gframe(n, counts, seed)
    returns, or the exception it raises, so a failure stays with its seed
    (read either with `unwrap`). The frames are built by parseval_companions,
    in the batches of `in_batches`, as the iteration reaches them.
    """
    counts = _check_params(n, counts)

    def build(batch: list[int]) -> list:
        companions, outcomes = parseval_companions(n, counts, batch)
        made = iter(() if companions is None else companions.families)
        return [GFrame.from_stacked(next(made), counts) if outcome is None else outcome
                for outcome in outcomes]

    yield from in_batches(build, seeds, batch_item_bytes(sum(counts), n, companion=True))


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
