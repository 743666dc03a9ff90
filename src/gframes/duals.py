"""Alternate duals and the two optimal proximity bounds with their extremal frames."""

from __future__ import annotations

from math import isfinite, sqrt

import numpy as np

from .errors import EpsilonOutOfRangeError, FrameOverflowError, PostconditionError
from .identities import canonical_dual_gap, parseval_gap
from .model import (  # verify_alternate_dual is re-exported here
    DualCertificate,
    GFrame,
    canonical_dual,
    dual_certificates,
    validate_frame,
    verify_alternate_dual,
)
from .rng import complex_gaussian_stack, stream


def _perturbed_duals(lam: GFrame, magnitude: float, seeds: list[int]) -> np.ndarray:
    """canonical + delta - D T* delta for each seed's Gaussian delta, D = T S^(-1) the canonical dual, as a (B, K, n) stack."""
    if not isfinite(magnitude):
        raise ValueError(f"magnitude must be finite, got {magnitude}")
    if magnitude < 0:
        raise ValueError(f"magnitude must be non-negative, got {magnitude}")
    canonical = canonical_dual(lam).stacked
    deltas = complex_gaussian_stack([stream(seed) for seed in seeds], lam.counts, lam.dim_h)
    row_sq = np.sum(deltas.real**2 + deltas.imag**2, axis=-1)
    norms = np.sqrt(np.add.reduceat(row_sq, lam.offsets[:-1], axis=-1))
    # In place: each stack-sized temporary adds to the peak memory of a batch.
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.divide(magnitude, norms, out=np.zeros_like(norms), where=norms > 0)
        deltas *= np.repeat(scale, lam.counts, axis=-1)[..., np.newaxis]
        correction = canonical @ (lam.stacked.conj().T @ deltas)
        np.add(canonical, deltas, out=deltas)
        deltas -= correction
    return deltas


def certified_duals(lam: GFrame, magnitude: float, seeds: list[int]) -> tuple[np.ndarray, list[DualCertificate]]:
    """The seeds' duals as one read-only (B, K, n) stack, with each dual's certificate, in seed order.

    For the first seed whose dual fails, raises FrameOverflowError when the
    dual is not finite, else NotADualError; a failed step of the whole stack
    raises too. In the suites, generators.in_batches then redoes the call
    seed by seed.
    """
    duals = _perturbed_duals(lam, magnitude, seeds)
    certificates = dual_certificates(lam, duals)
    for finite, cert in zip(np.isfinite(duals).all(axis=(1, 2)).tolist(), certificates):
        if not finite:
            raise FrameOverflowError(
                f"dual perturbation at magnitude {magnitude!r} overflows double precision"
            )
        cert.require()
    duals.setflags(write=False)
    return duals, certificates


def random_alternate_dual(lam: GFrame, magnitude: float, seed: int) -> GFrame:
    """A verified alternate dual at a chosen distance scale from the canonical one.

    Starting from the canonical dual, each operator gains a perturbation
    theta_i = delta_i - D_i (sum_j adjoint(lam_j) delta_j), D the canonical dual,
    where the delta_i are seeded Gaussian blocks rescaled to Frobenius norm `magnitude`.
    The projection annihilates sum(adjoint(lam_i) theta_i), so the dual
    equation survives any magnitude; magnitude 0 gives the canonical dual.

    The one-seed case of certified_duals: raises FrameOverflowError when the
    perturbation overflows, and NotADualError when round-off at a huge
    magnitude breaks the equation. The dual carries no certificate;
    verify_alternate_dual(lam, dual) forms it again.
    """
    duals, _ = certified_duals(lam, magnitude, [seed])
    return lam.derived(duals[0])


def _require_epsilon(f: GFrame) -> tuple[float, float, int]:
    """(eps, 1 - eps, n); 1 - eps is min(A, 2 - B), exact where the subtraction would cancel."""
    bounds = validate_frame(f)
    eps = bounds.epsilon
    if eps >= 1.0:
        raise EpsilonOutOfRangeError(
            f"nearly-Parseval rating must be below 1, got epsilon = {eps!r}", epsilon=eps
        )
    return eps, min(bounds.lower, 2.0 - bounds.upper), f.dim_h


def proximity_slack(n: int) -> float:
    """Slack of both proximity bounds: gap <= bound + proximity_slack(n)."""
    return 1e-9 * n


def parseval_proximity_bound(g: GFrame) -> tuple[float, float]:
    """Distance to the canonical Parseval family against its optimal ceiling.

    Returns (gap, bound) with bound = n * (1 - sqrt(1 - eps))^2; requires the
    nearly-Parseval rating eps to be below 1. The bound uses the stable form
    eps / (1 + sqrt(1 - eps)) for 1 - sqrt(1 - eps).
    """
    eps, margin, n = _require_epsilon(g)
    gap = parseval_gap(g)
    # Binding side: margin <= 1 <= 1 + eps, so shrink >= the stretch side eps / (1 + sqrt(1 + eps)).
    shrink = eps / (1.0 + sqrt(margin))
    bound = n * shrink * shrink
    if gap > bound + proximity_slack(n):
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
    if gap > bound + proximity_slack(n):
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
