"""Deterministic constructors for test frames.

All constructors are pure functions of their parameters and a seed; see the
rng module for the exact stream definition.
"""

from __future__ import annotations

import numpy as np

from .errors import EpsilonOutOfRangeError, GFrameError
from .model import FrameOperator, GFrame, canonical_parseval, frame_matrices, parseval_stack
from .rng import complex_gaussian_matrix, complex_gaussian_stack, stream

RETRY_CAP = 16
# Batches of in_batches hold items whose working sets (batch_item_bytes) add up
# to at most this. Batching pays on small frames, where per-call overhead
# dominates: 1 MiB holds 15 companions of a 256 x 4 frame, 3 of a 48 x 48 one.
BATCH_BYTES = 1 << 20


def batch_item_bytes(k: int, n: int, companion: bool) -> int:
    """Working set of one random dual, or one random Parseval companion, of a K x n frame in a batch.

    Four K x n stacks of 16-byte entries, within a few percent of a dual's
    traced peak. A companion adds four n x n ones: an upper bound on its QR
    working set (the draw, Q, its phased copy and S'), whose traced slope per
    item is 218 KB against 295 KB on 48 x 48, and 57 KB against 67 KB on 256 x 4.
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
    exception that stopped that item (read either with `unwrap`); the suites'
    builds return values and raise when any item fails. item_bytes is the
    working set one item adds to a build (batch_item_bytes), and a batch
    holds max(1, BATCH_BYTES // item_bytes) items. When a whole build raises,
    its items are built again one at a time, so each exception stays with its
    own item.
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


def _random_gframe(n: int, counts, seed: int) -> tuple[GFrame, np.random.Generator]:
    """Gaussian frame plus the live stream that produced it (for follow-up draws).

    A draw that fails the rank gate is drawn again on the seed's next
    substream. Raises GFrameError when no frame is drawn in RETRY_CAP attempts.
    """
    counts = _check_params(n, counts)
    for substream in range(RETRY_CAP):
        gen = stream(seed, substream)
        t = complex_gaussian_stack([gen], counts, n)[0]
        fo = FrameOperator(frame_matrices(t))
        if fo.is_frame:
            return GFrame.from_stacked(t, counts, frame_op=fo), gen
    raise GFrameError(f"no frame obtained after {RETRY_CAP} attempts for n = {n}, counts = {list(counts)}")


def random_gframe(n: int, counts, seed: int) -> GFrame:
    """Operators with independent standard-Gaussian real and imaginary entries.

    Draws are retried on a fresh substream until the family certifies as a
    frame, which for a Gaussian family is all but guaranteed on the first try.
    """
    return _random_gframe(n, counts, seed)[0]


def parseval_companions(n: int, counts: tuple[int, ...], seeds: list[int]) -> np.ndarray:
    """Random Parseval frames of one shape, one per seed in seed order, as one read-only (B, K, n) stack.

    n and counts are taken as checked: counts is a tuple of positive ints
    adding up to at least n, as random_parseval_gframe checks and as a
    frame's own shape is. Each seed draws a Gaussian K x n frame T on its
    stream, and its companion is the Q factor of T = QR with R's diagonal
    made positive (_unit_pivots): Parseval by construction, and distributed
    as the polar factor T·S^(-1/2) is, uniformly on the K x n isometries
    (Mezzadri, Notices AMS 2007). The draws and the QR are stacked. Raises
    what parseval_stack raises; in the suites, in_batches then redoes the
    call seed by seed.
    """
    q, r = np.linalg.qr(complex_gaussian_stack([stream(seed) for seed in seeds], counts, n))
    companions = _unit_pivots(q, r)
    parseval_stack(companions, "random Parseval companion")
    return companions


def random_parseval_gframe(n: int, counts, seed: int) -> GFrame:
    """Random Parseval frame: the one-seed case of parseval_companions."""
    counts = _check_params(n, counts)
    return GFrame.from_stacked(parseval_companions(n, counts, [seed])[0], counts)


def _unit_pivots(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """q of a QR, or of a stack of QRs, with each column times the phase of its pivot in R.

    This makes R's diagonal non-negative and keeps q's columns orthonormal. A
    zero pivot takes phase 1.
    """
    d = np.diagonal(r, axis1=-2, axis2=-1)
    size = np.abs(d)
    return q * np.divide(d, size, out=np.ones_like(d), where=size > 0)[..., np.newaxis, :]


def random_unitary(gen: np.random.Generator, n: int) -> np.ndarray:
    """Orthonormalize a Gaussian matrix: its QR factor Q, with R's diagonal made positive."""
    return _unit_pivots(*np.linalg.qr(complex_gaussian_matrix(gen, n, n)))


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
    return parseval.derived(parseval.stacked @ shaper)


def embed_vector_frame(vectors) -> GFrame:
    """Vectors f_k as rank-one operators x -> <x, f_k>, one 1 x n row each."""
    vecs = [np.asarray(v, dtype=np.complex128) for v in vectors]
    if not vecs:
        raise ValueError("need at least one vector")
    for idx, v in enumerate(vecs):
        if v.ndim != 1 or v.shape != vecs[0].shape:
            raise ValueError(f"vector {idx} has shape {v.shape}; need one-dimensional vectors of one length")
    return GFrame.from_stacked(np.conj(vecs), (1,) * len(vecs))
