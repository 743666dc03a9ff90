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

The public operations take GFrames and one vector, check them, and return
floats; the four companion identities raise TypeError for a family given
as anything but a GFrame (an array, say). The companion identities each
run on a stacked core (weighted_energies, parseval_approx_terms,
pointwise_dual_terms, frobenius_dual_terms) that takes a (B, K, n) stack
of families and returns the terms that vary with the family as length-B
arrays. A one-frame call is its core on the stack of that one frame, so it
and a batch run the same arithmetic, bit for bit. The cores check no
input: the report suites pass them the stacks a builder has just checked.
"""

from __future__ import annotations

import numpy as np

from .errors import FrameOverflowError, NotParsevalError, PostconditionError
from .linalg import as_matrix, as_vector, frobenius_norm_sq, frobenius_norms_sq
from .model import (
    PARSEVAL_TOLERANCE,
    GFrame,
    canonical_dual,
    canonical_parseval,
    frame_operator,
    parseval_failure,
    require_matching_shapes,
    total_frobenius_energy,
    validate_frame,
    verify_alternate_dual,
)


def require_parseval(g: GFrame, name: str = "frame") -> None:
    """Raise NotParsevalError unless g, read through its memoized S, meets the Parseval rule."""
    defect = parseval_failure(frame_operator(g).matrix)
    if defect is not None:
        raise NotParsevalError(
            f"{name} is not Parseval: ||S - I||_F = {defect:.3e} exceeds "
            f"{PARSEVAL_TOLERANCE:.0e} * n",
            residual=defect,
        )


def _require_gframes(**frames) -> None:
    """Raise TypeError naming the first argument that is not a GFrame, and its type."""
    for name, value in frames.items():
        if not isinstance(value, GFrame):
            raise TypeError(f"{name} must be a GFrame, got {type(value).__name__}")


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


def parseval_weighted_energy(weight, g: GFrame) -> float:
    """Sum of ||W adjoint(op)||_F^2 over a Parseval family.

    The value is independent of the particular Parseval family and equals
    ||W||_F^2; the weight must act on the domain, i.e. have dim_h columns.
    """
    _require_gframes(g=g)
    w = as_matrix(weight, "weight", require_finite=True)
    require_parseval(g)
    if w.shape[1] != g.dim_h:
        raise ValueError(f"weight must have {g.dim_h} columns, got {w.shape[1]}")
    return float(weighted_energies(w, g.stacked[np.newaxis])[0])


def weighted_energies(w: np.ndarray, families: np.ndarray) -> np.ndarray:
    """parseval_weighted_energy of the finite weight w on each family of a (B, K, n) stack, as a length-B array.

    Checks no input: the caller's builder has checked that each family is
    Parseval, and w is a finite complex matrix with n columns.
    """
    values = frobenius_norms_sq(families @ w.conj().T)
    closed = frobenius_norm_sq(w)
    _check_each(
        abs(values - closed) <= weighted_energy_tolerance(closed),
        lambda i: f"weighted energy {float(values[i])!r} drifted from ||W||_F^2 = {closed!r}",
    )
    return values


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
        rhs = float(np.trace(fo.power(2.0 * a + 1.0)).real)
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


def parseval_approx_decomposition(lam: GFrame, gam: GFrame) -> tuple[float, float, float]:
    """Split the Frobenius distance to a Parseval family into two non-negative sums.

    Returns (total, canonical_gap, cross_term):
      total          sum ||lam_i - gam_i||_F^2
      canonical_gap  sum ||lam_i - lam_i S^(-1/2)||_F^2
      cross_term     sum ||gam_i S^(1/4) - lam_i S^(-1/4)||_F^2
    with total = canonical_gap + cross_term; the cross term vanishes exactly
    when gam is the canonical Parseval family of lam.
    """
    _require_gframes(lam=lam, gam=gam)
    validate_frame(lam)
    require_matching_shapes(lam, gam)
    require_parseval(gam, "second family")
    total, canonical_gap, cross_term = parseval_approx_terms(lam, gam.stacked[np.newaxis])
    return float(total[0]), canonical_gap, float(cross_term[0])


def parseval_approx_terms(lam: GFrame, families: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """parseval_approx_decomposition of lam against each family of a (B, K, n) stack.

    total and cross_term come back as length-B arrays and canonical_gap,
    which depends on lam alone, as one float, built once. Checks no input:
    the caller's builder has checked that each family is Parseval and has
    lam's shape.
    """
    fo = frame_operator(lam)
    a = lam.stacked
    total = frobenius_norms_sq(a - families)
    canonical_gap = frobenius_norm_sq(a - canonical_parseval(lam).stacked)
    cross_term = frobenius_norms_sq(families @ fo.power(0.25) - a @ fo.power(-0.25))
    _check_each(
        abs(total - canonical_gap - cross_term) <= parseval_approx_tolerance(total),
        lambda i: f"decomposition drifted: {float(total[i])!r} vs {canonical_gap!r} + "
        f"{float(cross_term[i])!r}",
    )
    return total, canonical_gap, cross_term


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


def pointwise_dual_decomposition(lam: GFrame, gam: GFrame, x) -> tuple[float, float, float]:
    """Split the coefficient distance at one vector between a frame and a dual.

    Returns (total, canonical, residual):
      total      sum ||lam_i x - gam_i x||^2
      canonical  sum ||lam_i x - lam_i S^(-1) x||^2
      residual   sum ||lam_i S^(-1) x - gam_i x||^2
    with total = canonical + residual; the residual vanishes when gam is the
    canonical dual.
    """
    _require_gframes(lam=lam, gam=gam)
    validate_frame(lam)
    verify_alternate_dual(lam, gam).require()
    vec = as_vector(x, lam.dim_h, "x")
    total, canonical, residual = pointwise_dual_terms(lam, gam.stacked[np.newaxis], vec[:, np.newaxis])
    return float(total[0]), float(canonical[0]), float(residual[0])


def pointwise_dual_terms(lam: GFrame, duals: np.ndarray, probes: np.ndarray) -> tuple[np.ndarray, ...]:
    """pointwise_dual_decomposition of lam for each dual of a (B, K, n) stack and each column of n x m probes.

    The terms come back as arrays, entry j pairing column j of probes with
    dual j (a single dual or probe serves every entry). Checks no input: the
    caller's builder has checked that each dual is an alternate dual of lam,
    and the probes are finite complex vectors of length n.
    """
    vecs = np.ascontiguousarray(probes.T)[..., np.newaxis]
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
    return total, canonical, residual


def frobenius_dual_tolerance(total):
    """Band of frobenius_dual_decomposition: total against canonical + residual (entrywise)."""
    return 1e-7 * (1.0 + total)


def dual_closed_form_tolerance(canonical: float) -> float:
    """Band of frobenius_dual_decomposition: its canonical term against canonical_dual_gap."""
    return 1e-8 * (1.0 + canonical)


def frobenius_dual_decomposition(lam: GFrame, gam: GFrame) -> tuple[float, float, float]:
    """Split the Frobenius distance between a frame and an alternate dual.

    Returns (total, canonical, residual):
      total      sum ||lam_i - gam_i||_F^2
      canonical  sum ||lam_i - lam_i S^(-1)||_F^2
      residual   sum ||lam_i S^(-1) - gam_i||_F^2
    with total = canonical + residual; canonical matches the spectral form
    sum_k (lambda_k - 1)^2 / lambda_k.
    """
    _require_gframes(lam=lam, gam=gam)
    validate_frame(lam)
    verify_alternate_dual(lam, gam).require()
    total, canonical, residual = frobenius_dual_terms(lam, gam.stacked[np.newaxis])
    return float(total[0]), canonical, float(residual[0])


def frobenius_dual_terms(lam: GFrame, duals: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """frobenius_dual_decomposition of lam against each dual of a (B, K, n) stack.

    total and residual come back as length-B arrays and canonical, which
    depends on lam alone, as one float, built and checked once. Checks no
    input: the caller's builder has checked that each dual is an alternate
    dual of lam.
    """
    a = lam.stacked
    c = canonical_dual(lam).stacked
    total = frobenius_norms_sq(a - duals)
    canonical = frobenius_norm_sq(a - c)
    residual = frobenius_norms_sq(c - duals)
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
    return total, canonical, residual
