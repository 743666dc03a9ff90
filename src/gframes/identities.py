"""Executable equalities tying operator families to functions of their frame operator.

Every operation returns the computed terms so callers can report residuals;
pass/fail at a tolerance is the caller's job. Each operation also checks its
own terms against each other and raises PostconditionError when they
disagree. The band of that check is one function of the terms, defined
beside the operation (`*_tolerance`), and the matching row of the
verification report calls the same function, so a drift shows there as an
error row (lhs = rhs = 0, tolerance -1), never as a FAIL row carrying the
values. The Parseval rule is model.parseval_tolerance, the slack of both
proximity bounds is duals.proximity_slack, and report rows with no identity
behind them keep their own tolerance in report.
"""

from __future__ import annotations

import numpy as np

from .errors import FrameOverflowError, NotParsevalError, PostconditionError
from .linalg import as_matrix, as_vector, frobenius_norm_sq, frobenius_norms_sq, trace
from .model import (
    PARSEVAL_TOLERANCE,
    DualStack,
    GFrame,
    ParsevalStack,
    canonical_dual,
    canonical_parseval,
    dual_certificates,
    frame_matrices,
    frame_operator,
    parseval_defects,
    parseval_tolerance,
    require_matching_shapes,
    total_frobenius_energy,
    validate_frame,
    verify_alternate_dual,
)


def _stack(gam, what: str, like: GFrame | None = None):
    """gam as a (B, K, n) stack of analysis operators, and the function giving a call's terms in gam's form.

    gam is a GFrame, taken as the stack of its one analysis operator, whose
    terms come back as floats; or a (B, K, n) stack of `what`, bare or as a
    builder's ParsevalStack or DualStack, whose terms come back as they are.
    A term that does not depend on gam stays a float. With `like`, gam must
    have like's shape: a GFrame its dim_h and counts
    (require_matching_shapes), a stack its K x n.
    """
    if isinstance(gam, GFrame):
        if like is not None:
            require_matching_shapes(like, gam)
        return gam.stacked[np.newaxis], lambda *terms: tuple(float(t[0]) if np.ndim(t) else t for t in terms)
    if isinstance(gam, (ParsevalStack, DualStack)):
        gam = gam.families
    families = np.asarray(gam, dtype=np.complex128)
    rows, cols = ("K", "n") if like is None else like.stacked.shape
    if families.ndim != 3 or min(families.shape) < 1 or (
            like is not None and families.shape[1:] != like.stacked.shape):
        raise ValueError(f"a stack of {what} must have shape (B, {rows}, {cols}), got {families.shape}")
    return families, lambda *terms: terms


def require_parseval(gam, name: str = "frame", like: GFrame | None = None):
    """gam as a (B, K, n) stack and its terms' form (see _stack), once each family is Parseval.

    gam is a GFrame, whose memoized S is read, a (B, K, n) stack of analysis
    operators, or a ParsevalStack, whose families canonical_parseval_stack
    has already checked. Raises NotParsevalError for the first family that
    misses the Parseval rule.
    """
    families, given = _stack(gam, "families", like)
    if isinstance(gam, ParsevalStack):
        return families, given
    s = frame_operator(gam).matrix if isinstance(gam, GFrame) else frame_matrices(families)
    defects = parseval_defects(s).reshape(-1)
    failed = np.flatnonzero(~(defects <= parseval_tolerance(families.shape[-1])))
    if failed.size:
        defect = float(defects[failed[0]])
        raise NotParsevalError(
            f"{name} is not Parseval: ||S - I||_F = {defect:.3e} exceeds "
            f"{PARSEVAL_TOLERANCE:.0e} * n",
            residual=defect,
        )
    return families, given


def require_alternate_dual(lam: GFrame, gam):
    """gam as a (B, K, n) stack and its terms' form (see _stack), once each is an alternate dual of lam.

    gam is a GFrame, checked by verify_alternate_dual (which reads its
    builder's certificate), a (B, K, n) stack of analysis operators of lam's
    shape, or a DualStack of lam, whose duals certified_duals has already
    checked. Raises NotADualError for the first that misses the dual equation.
    """
    duals, given = _stack(gam, "duals", like=lam)
    if isinstance(gam, DualStack) and gam.frame is lam:
        return duals, given
    certs = [verify_alternate_dual(lam, gam)] if isinstance(gam, GFrame) else dual_certificates(lam, duals)
    for cert in certs:
        cert.require()
    return duals, given


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise PostconditionError(message)


def _check_each(conditions: np.ndarray, message) -> None:
    """_check for each entry of a boolean array; message(i) describes entry i."""
    failed = np.flatnonzero(~conditions)
    if failed.size:
        raise PostconditionError(message(int(failed[0])))


def weighted_energy_tolerance(closed: float) -> float:
    """Band of parseval_weighted_energy around its closed form ||W||_F^2."""
    return 1e-8 * (1.0 + closed)


def parseval_weighted_energy(weight, g):
    """Sum of ||W adjoint(op)||_F^2 over a Parseval family.

    The value is independent of the particular Parseval family and equals
    ||W||_F^2; the weight must act on the domain, i.e. have dim_h columns.

    g may also be a (B, K, n) stack of analysis operators of Parseval
    families: the values then come back as a length-B array, entry b what
    the call on family b alone returns.
    """
    w = as_matrix(weight, "weight")
    families, given = require_parseval(g)
    if w.shape[1] != families.shape[-1]:
        raise ValueError(f"weight must have {families.shape[-1]} columns, got {w.shape[1]}")
    values = frobenius_norms_sq(families @ w.conj().T)
    closed = frobenius_norm_sq(w)
    _check_each(
        abs(values - closed) <= weighted_energy_tolerance(closed),
        lambda i: f"weighted energy {float(values[i])!r} drifted from ||W||_F^2 = {closed!r}",
    )
    return given(values)[0]


def parseval_budget_tolerance(n: int) -> float:
    """Band of parseval_frobenius_budget around the dimension n."""
    return 1e-8 * n


def parseval_frobenius_budget(g: GFrame) -> float:
    """Total Frobenius energy of a Parseval family; always the dimension n."""
    require_parseval(g)
    value = total_frobenius_energy(g)
    n = g.dim_h
    _check(
        abs(value - n) <= parseval_budget_tolerance(n),
        f"Parseval energy budget {value!r} is not n = {n}",
    )
    return value


def power_trace_tolerance(rhs: float) -> float:
    """Band of power_trace_identity around its trace side rhs."""
    return 1e-8 * (1.0 + abs(rhs))


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
        abs(lhs - rhs) <= power_trace_tolerance(rhs),
        f"power-trace identity drifted: lhs {lhs!r} vs rhs {rhs!r} at a = {a}",
    )
    return lhs, rhs


def parseval_approx_tolerance(total: float) -> float:
    """Band of parseval_approx_decomposition: total against canonical_gap + cross_term."""
    return 1e-7 * (1.0 + total)


def parseval_approx_decomposition(lam: GFrame, gam):
    """Split the Frobenius distance to a Parseval family into two non-negative sums.

    Returns (total, canonical_gap, cross_term):
      total          sum ||lam_i - gam_i||_F^2
      canonical_gap  sum ||lam_i - lam_i S^(-1/2)||_F^2
      cross_term     sum ||gam_i S^(1/4) - lam_i S^(-1/4)||_F^2
    with total = canonical_gap + cross_term; the cross term vanishes exactly
    when gam is the canonical Parseval family of lam.

    gam may also be a (B, K, n) stack of analysis operators of Parseval
    families: total and cross_term then come back as length-B arrays, entry b
    what the call on family b alone returns, and canonical_gap, which depends
    on lam alone, as one float, built once.
    """
    validate_frame(lam)
    b, given = require_parseval(gam, "second family", like=lam)
    fo = frame_operator(lam)
    a = lam.stacked
    total = frobenius_norms_sq(a - b)
    canonical_gap = frobenius_norm_sq(a - canonical_parseval(lam).stacked)
    cross_term = frobenius_norms_sq(b @ fo.power(0.25) - a @ fo.power(-0.25))
    _check_each(
        abs(total - canonical_gap - cross_term) <= parseval_approx_tolerance(total),
        lambda i: f"decomposition drifted: {float(total[i])!r} vs {canonical_gap!r} + "
        f"{float(cross_term[i])!r}",
    )
    return given(total, canonical_gap, cross_term)


def parseval_gap_tolerance(value: float) -> float:
    """Band of parseval_gap: its definition value against spectral_parseval_gap."""
    return 1e-8 * (1.0 + value)


def parseval_gap(lam: GFrame) -> float:
    """Frobenius distance (squared) from a frame to its canonical Parseval family.

    Computed from the definition sum and cross-checked against the spectral
    closed form (spectral_parseval_gap).
    """
    value = frobenius_norm_sq(lam.stacked - canonical_parseval(lam).stacked)
    closed = spectral_parseval_gap(lam)
    _check(
        abs(value - closed) <= parseval_gap_tolerance(value),
        f"gap paths disagree: definition {value!r} vs spectral {closed!r}",
    )
    return value


def spectral_parseval_gap(lam: GFrame) -> float:
    """Spectral form sum_k (sqrt(lambda_k) - 1)^2 of the distance to the canonical Parseval family."""
    validate_frame(lam)
    return float(np.sum((np.sqrt(frame_operator(lam).eig.eigenvalues) - 1.0) ** 2))


def canonical_dual_gap(lam: GFrame) -> float:
    """Spectral form sum_k (lambda_k - 1)^2 / lambda_k of the distance to the canonical dual.

    Raises FrameOverflowError beyond the double range (a subnormal lambda_min(S)).
    """
    validate_frame(lam)
    lam_k = frame_operator(lam).eig.eigenvalues
    # Dividing before multiplying keeps (lambda - 1)^2 from overflowing at large lambda.
    with np.errstate(over="ignore"):
        gap = float(np.sum((lam_k - 1.0) * ((lam_k - 1.0) / lam_k)))
    if not np.isfinite(gap):
        raise FrameOverflowError(f"frame is too small: the canonical dual gap overflows double precision "
                                 f"(lambda_min(S) = {float(lam_k[-1]):.3e})")
    return gap


def pointwise_dual_tolerance(total):
    """Band of pointwise_dual_decomposition: total against canonical + residual (entrywise)."""
    return 1e-8 * (1.0 + total)


def pointwise_dual_decomposition(lam: GFrame, gam, x):
    """Split the coefficient distance at one vector between a frame and a dual.

    Returns (total, canonical, residual):
      total      sum ||lam_i x - gam_i x||^2
      canonical  sum ||lam_i x - lam_i S^(-1) x||^2
      residual   sum ||lam_i S^(-1) x - gam_i x||^2
    with total = canonical + residual; the residual vanishes when gam is the
    canonical dual.

    gam may also be a (B, K, n) stack of analysis operators of duals, and x
    an n x m block of probe vectors: the terms then come back as arrays, entry
    j pairing column j of x with dual j (a single dual or vector serves every
    entry), each entry what the call on that dual and vector alone returns.
    """
    validate_frame(lam)
    duals, given = require_alternate_dual(lam, gam)
    if np.ndim(x) == 2:
        probes = as_matrix(x, "x", require_finite=True)
        if probes.shape[0] != lam.dim_h:
            raise ValueError(f"x must have {lam.dim_h} rows, got {probes.shape[0]}")
        vecs = np.ascontiguousarray(probes.T)[..., np.newaxis]
    else:
        vecs = as_vector(x, lam.dim_h, "x")[np.newaxis, :, np.newaxis]
    # One matrix-vector product per probe: the products of the one-vector call, bit for bit.
    lam_x = lam.stacked @ vecs
    gam_x = duals @ vecs
    can_x = lam.stacked @ (frame_operator(lam).power(-1.0) @ vecs)
    total = np.sum(np.abs(lam_x - gam_x) ** 2, axis=(-2, -1))
    canonical = np.sum(np.abs(lam_x - can_x) ** 2, axis=(-2, -1))
    residual = np.sum(np.abs(can_x - gam_x) ** 2, axis=(-2, -1))
    total, canonical, residual = np.broadcast_arrays(total, canonical, residual)
    _check_each(
        abs(total - canonical - residual) <= pointwise_dual_tolerance(total),
        lambda i: f"pointwise decomposition drifted: {float(total[i])!r} vs "
        f"{float(canonical[i])!r} + {float(residual[i])!r}",
    )
    # A block of probes makes the call stacked, whatever gam is.
    return (total, canonical, residual) if np.ndim(x) == 2 else given(total, canonical, residual)


def frobenius_dual_tolerance(total):
    """Band of frobenius_dual_decomposition: total against canonical + residual (entrywise)."""
    return 1e-7 * (1.0 + total)


def dual_closed_form_tolerance(canonical: float) -> float:
    """Band of frobenius_dual_decomposition: its canonical term against canonical_dual_gap."""
    return 1e-8 * (1.0 + canonical)


def frobenius_dual_decomposition(lam: GFrame, gam):
    """Split the Frobenius distance between a frame and an alternate dual.

    Returns (total, canonical, residual):
      total      sum ||lam_i - gam_i||_F^2
      canonical  sum ||lam_i - lam_i S^(-1)||_F^2
      residual   sum ||lam_i S^(-1) - gam_i||_F^2
    with total = canonical + residual; canonical matches the spectral form
    sum_k (lambda_k - 1)^2 / lambda_k.

    gam may also be a (B, K, n) stack of analysis operators of duals: total
    and residual then come back as length-B arrays, entry b what the call on
    dual b alone returns, and canonical, which depends on lam alone, as one
    float, built and checked once.
    """
    validate_frame(lam)
    b, given = require_alternate_dual(lam, gam)
    a = lam.stacked
    c = canonical_dual(lam).stacked
    total = frobenius_norms_sq(a - b)
    canonical = frobenius_norm_sq(a - c)
    residual = frobenius_norms_sq(c - b)
    _check_each(
        abs(total - canonical - residual) <= frobenius_dual_tolerance(total),
        lambda i: f"dual decomposition drifted: {float(total[i])!r} vs {canonical!r} + "
        f"{float(residual[i])!r}",
    )
    closed = canonical_dual_gap(lam)
    _check(
        abs(canonical - closed) <= dual_closed_form_tolerance(canonical),
        f"canonical term drifted from spectral form: {canonical!r} vs {closed!r}",
    )
    return given(total, canonical, residual)
