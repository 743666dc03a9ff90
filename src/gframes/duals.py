"""Alternate duals and the two optimal proximity bounds with their extremal frames."""

from __future__ import annotations

from math import isfinite, sqrt

import numpy as np

from .errors import EpsilonOutOfRangeError, FrameOverflowError, PostconditionError
from .identities import canonical_dual_gap, parseval_gap, require_alternate_dual
from .model import (  # DualCertificate and verify_alternate_dual are re-exported here
    DualCertificate,
    GFrame,
    canonical_dual,
    frame_operator,
    validate_frame,
    verify_alternate_dual,
)
from .rng import complex_gaussian_blocks, stream


def random_alternate_dual(lam: GFrame, magnitude: float, seed: int) -> GFrame:
    """A verified alternate dual at a chosen distance scale from the canonical one.

    Starting from the canonical dual, each operator gains a perturbation
    theta_i = delta_i - lam_i S^(-1) (sum_j adjoint(lam_j) delta_j) where the
    delta_i are seeded Gaussian blocks rescaled to Frobenius norm `magnitude`.
    The projection annihilates sum(adjoint(lam_i) theta_i), so the dual
    equation survives any magnitude; magnitude 0 returns the canonical dual.
    Raises FrameOverflowError when the perturbation overflows, and
    NotADualError when round-off at a huge magnitude breaks the equation.
    """
    if not isfinite(magnitude):
        raise ValueError(f"magnitude must be finite, got {magnitude}")
    if magnitude < 0:
        raise ValueError(f"magnitude must be non-negative, got {magnitude}")
    canonical = canonical_dual(lam).stacked
    inv = frame_operator(lam).power(-1.0)
    t = lam.stacked
    blocks = complex_gaussian_blocks(stream(seed), lam.counts, lam.dim_h)
    row_sq = np.sum(blocks.real**2 + blocks.imag**2, axis=1)
    norms = np.sqrt(np.add.reduceat(row_sq, lam.offsets[:-1]))
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.divide(magnitude, norms, out=np.zeros_like(norms), where=norms > 0)
        deltas = blocks * np.repeat(scale, lam.counts)[:, np.newaxis]
        correction = inv @ (t.conj().T @ deltas)
        stacked = canonical + deltas - t @ correction
    if not np.isfinite(stacked).all():
        raise FrameOverflowError(
            f"dual perturbation at magnitude {magnitude!r} overflows double precision"
        )
    dual = GFrame.from_stacked(stacked, like=lam)
    require_alternate_dual(lam, dual)
    return dual


def _require_epsilon(f: GFrame) -> tuple[float, float, int]:
    """(eps, 1 - eps, n); 1 - eps is min(A, 2 - B), exact where the subtraction would cancel."""
    bounds = validate_frame(f)
    eps = bounds.epsilon
    if eps >= 1.0:
        raise EpsilonOutOfRangeError(
            f"nearly-Parseval rating must be below 1, got epsilon = {eps!r}", epsilon=eps
        )
    return eps, min(bounds.lower, 2.0 - bounds.upper), f.dim_h


def parseval_proximity_bound(g: GFrame) -> tuple[float, float]:
    """Distance to the canonical Parseval family against its optimal ceiling.

    Returns (gap, bound) with bound = n * (1 - sqrt(1 - eps))^2; requires the
    nearly-Parseval rating eps to be below 1. The bound uses the stable form
    eps / (1 + sqrt(1 - eps)) for 1 - sqrt(1 - eps).
    """
    eps, margin, n = _require_epsilon(g)
    gap = parseval_gap(g)
    shrink = eps / (1.0 + sqrt(margin))
    stretch = eps / (sqrt(1.0 + eps) + 1.0)
    # The shrink side always dominates; the bound would be wrong otherwise.
    if max(shrink, stretch) != shrink:
        raise PostconditionError(
            f"binding side inverted: shrink {shrink!r} < stretch {stretch!r}"
        )
    bound = n * shrink * shrink
    if gap > bound + 1e-9 * n:
        raise PostconditionError(
            f"proximity bound violated: gap {gap!r} exceeds bound {bound!r}"
        )
    return gap, bound


def dual_proximity_bound(g: GFrame) -> tuple[float, float]:
    """Distance to the canonical dual against its optimal ceiling.

    Returns (gap, bound) with gap the spectral form sum_k (lambda_k - 1)^2 /
    lambda_k and bound = n * eps^2 / (1 - eps); requires eps below 1.
    """
    eps, margin, n = _require_epsilon(g)
    gap = canonical_dual_gap(g)
    bound = n * eps * eps / margin if eps > 0.0 else 0.0
    if gap > bound + 1e-9 * n:
        raise PostconditionError(
            f"dual proximity bound violated: gap {gap!r} exceeds bound {bound!r}"
        )
    return gap, bound


def extremal_frame(n: int, epsilon: float) -> GFrame:
    """Scaled orthonormal rows sqrt(1 - epsilon) * e_k, one per index.

    The frame operator is (1 - epsilon) * I, the rating is exactly epsilon,
    and both proximity bounds are attained with equality.
    """
    if not 0.0 <= epsilon < 1.0:
        raise EpsilonOutOfRangeError("epsilon must lie in [0,1)", epsilon=epsilon)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return GFrame.from_stacked(sqrt(1.0 - epsilon) * np.eye(n), (1,) * n)
