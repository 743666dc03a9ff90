"""Executable equalities tying operator families to functions of their frame operator.

Every operation returns the computed terms so callers can report residuals;
pass/fail at a tolerance is the caller's job. Each operation also checks its
own terms against each other and raises PostconditionError when they
disagree. That check uses the same tolerance as the matching row of the
verification report, so a drift shows there as an error row (lhs = rhs = 0,
tolerance -1), never as a FAIL row carrying the values.
"""

from __future__ import annotations

import numpy as np

from .errors import FrameOverflowError, NotADualError, NotParsevalError, PostconditionError
from .linalg import as_matrix, as_vector, frobenius_norm_sq, trace
from .model import (
    DUAL_TOLERANCE,
    PARSEVAL_TOLERANCE,
    GFrame,
    frame_operator,
    parseval_defect,
    require_matching_shapes,
    total_frobenius_energy,
    validate_frame,
    verify_alternate_dual,
)


def require_parseval(g: GFrame, name: str = "frame") -> None:
    defect = parseval_defect(g)
    if not defect <= PARSEVAL_TOLERANCE * g.dim_h:
        raise NotParsevalError(
            f"{name} is not Parseval: ||S - I||_F = {defect:.3e} exceeds "
            f"{PARSEVAL_TOLERANCE:.0e} * n",
            residual=defect,
        )


def require_alternate_dual(lam: GFrame, gam: GFrame) -> None:
    cert = verify_alternate_dual(lam, gam)
    if not cert.passed:
        raise NotADualError(
            f"family is not an alternate dual: residual {cert.residual:.3e} exceeds "
            f"{DUAL_TOLERANCE:.0e} * n",
            residual=cert.residual,
        )


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise PostconditionError(message)


def parseval_weighted_energy(weight, g: GFrame) -> float:
    """Sum of ||W adjoint(op)||_F^2 over a Parseval family.

    The value is independent of the particular Parseval family and equals
    ||W||_F^2; the weight must act on the domain, i.e. have dim_h columns.
    """
    w = as_matrix(weight, "weight")
    if w.shape[1] != g.dim_h:
        raise ValueError(f"weight must have {g.dim_h} columns, got {w.shape[1]}")
    require_parseval(g)
    value = frobenius_norm_sq(g.stacked @ w.conj().T)
    closed = frobenius_norm_sq(w)
    _check(
        abs(value - closed) <= 1e-8 * (1.0 + closed),
        f"weighted energy {value!r} drifted from ||W||_F^2 = {closed!r}",
    )
    return value


def parseval_frobenius_budget(g: GFrame) -> float:
    """Total Frobenius energy of a Parseval family; always the dimension n."""
    require_parseval(g)
    value = total_frobenius_energy(g)
    n = g.dim_h
    _check(abs(value - n) <= 1e-8 * n, f"Parseval energy budget {value!r} is not n = {n}")
    return value


def power_trace_identity(g: GFrame, a: float) -> tuple[float, float]:
    """Two routes to the same number: energy of the S^a-weighted family vs a trace.

    Returns (lhs, rhs) with lhs the sum of ||op @ S^a||_F^2 over the
    operators, i.e. ||T S^a||_F^2, and rhs the trace of S^(2a + 1). Raises
    FrameOverflowError when either side exceeds the double range.
    """
    fo = frame_operator(g)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = frobenius_norm_sq(g.stacked @ fo.power(a))
        rhs = trace(fo.power(2.0 * a + 1.0)).real
    if not (np.isfinite(lhs) and np.isfinite(rhs)):
        raise FrameOverflowError(
            f"frame is too large: the power-trace terms at a = {a} overflow double precision"
        )
    _check(
        abs(lhs - rhs) <= 1e-8 * (1.0 + rhs),
        f"power-trace identity drifted: lhs {lhs!r} vs rhs {rhs!r} at a = {a}",
    )
    return lhs, rhs


def parseval_approx_decomposition(lam: GFrame, gam: GFrame) -> tuple[float, float, float]:
    """Split the Frobenius distance to a Parseval family into two non-negative sums.

    Returns (total, canonical_gap, cross_term):
      total          sum ||lam_i - gam_i||_F^2
      canonical_gap  sum ||lam_i - lam_i S^(-1/2)||_F^2
      cross_term     sum ||gam_i S^(1/4) - lam_i S^(-1/4)||_F^2
    with total = canonical_gap + cross_term; the cross term vanishes exactly
    when gam is the canonical Parseval family of lam.
    """
    validate_frame(lam)
    require_parseval(gam, "second family")
    require_matching_shapes(lam, gam)
    fo = frame_operator(lam)
    a, b = lam.stacked, gam.stacked
    total = frobenius_norm_sq(a - b)
    canonical_gap = frobenius_norm_sq(a - a @ fo.power(-0.5))
    cross_term = frobenius_norm_sq(b @ fo.power(0.25) - a @ fo.power(-0.25))
    _check(
        abs(total - canonical_gap - cross_term) <= 1e-7 * (1.0 + total),
        f"decomposition drifted: {total!r} vs {canonical_gap!r} + {cross_term!r}",
    )
    return total, canonical_gap, cross_term


def parseval_gap(lam: GFrame) -> float:
    """Frobenius distance (squared) from a frame to its canonical Parseval family.

    Computed from the definition sum and cross-checked against the spectral
    closed form sum_k (sqrt(lambda_k) - 1)^2.
    """
    fo = frame_operator(lam)
    t = lam.stacked
    value = frobenius_norm_sq(t - t @ fo.power(-0.5))
    closed = float(np.sum((np.sqrt(fo.eig.eigenvalues) - 1.0) ** 2))
    _check(
        abs(value - closed) <= 1e-8 * (1.0 + value),
        f"gap paths disagree: definition {value!r} vs spectral {closed!r}",
    )
    return value


def canonical_dual_gap(lam: GFrame) -> float:
    """Spectral form sum_k (lambda_k - 1)^2 / lambda_k of the distance to the canonical dual."""
    validate_frame(lam)
    lam_k = frame_operator(lam).eig.eigenvalues
    # Dividing before multiplying keeps (lambda - 1)^2 from overflowing at large lambda.
    return float(np.sum((lam_k - 1.0) * ((lam_k - 1.0) / lam_k)))


def pointwise_dual_decomposition(lam: GFrame, gam: GFrame, x) -> tuple[float, float, float]:
    """Split the coefficient distance at one vector between a frame and a dual.

    Returns (total, canonical, residual):
      total      sum ||lam_i x - gam_i x||^2
      canonical  sum ||lam_i x - lam_i S^(-1) x||^2
      residual   sum ||lam_i S^(-1) x - gam_i x||^2
    with total = canonical + residual; the residual vanishes when gam is the
    canonical dual.
    """
    validate_frame(lam)
    require_alternate_dual(lam, gam)
    vec = as_vector(x, lam.dim_h, "x")
    lam_x = lam.stacked @ vec
    gam_x = gam.stacked @ vec
    can_x = lam.stacked @ (frame_operator(lam).power(-1.0) @ vec)
    total = float(np.sum(np.abs(lam_x - gam_x) ** 2))
    canonical = float(np.sum(np.abs(lam_x - can_x) ** 2))
    residual = float(np.sum(np.abs(can_x - gam_x) ** 2))
    _check(
        abs(total - canonical - residual) <= 1e-8 * (1.0 + total),
        f"pointwise decomposition drifted: {total!r} vs {canonical!r} + {residual!r}",
    )
    return total, canonical, residual


def frobenius_dual_decomposition(lam: GFrame, gam: GFrame) -> tuple[float, float, float]:
    """Split the Frobenius distance between a frame and an alternate dual.

    Returns (total, canonical, residual):
      total      sum ||lam_i - gam_i||_F^2
      canonical  sum ||lam_i - lam_i S^(-1)||_F^2
      residual   sum ||lam_i S^(-1) - gam_i||_F^2
    with total = canonical + residual; canonical matches the spectral form
    sum_k (lambda_k - 1)^2 / lambda_k.
    """
    validate_frame(lam)
    require_alternate_dual(lam, gam)
    fo = frame_operator(lam)
    a, b = lam.stacked, gam.stacked
    c = a @ fo.power(-1.0)
    total = frobenius_norm_sq(a - b)
    canonical = frobenius_norm_sq(a - c)
    residual = frobenius_norm_sq(c - b)
    _check(
        abs(total - canonical - residual) <= 1e-7 * (1.0 + total),
        f"dual decomposition drifted: {total!r} vs {canonical!r} + {residual!r}",
    )
    closed = canonical_dual_gap(lam)
    _check(
        abs(canonical - closed) <= 1e-8 * (1.0 + canonical),
        f"canonical term drifted from spectral form: {canonical!r} vs {closed!r}",
    )
    return total, canonical, residual
