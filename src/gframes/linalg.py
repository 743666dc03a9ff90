"""Dense complex matrix arithmetic and a Hermitian eigensolver.

Matrices are numpy arrays with dtype complex128 (one 64-bit float per real
and imaginary part). The eigensolver is LAPACK's Hermitian driver, reached
through numpy.linalg.eigh, behind input checks (finite, square, Hermitian to
a relative tolerance) and a stable sort into non-increasing order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NotHermitianError, NotPositiveDefiniteError

# lambda_min must exceed RANK_TOLERANCE * lambda_max for powers/inverses.
RANK_TOLERANCE = 1e-10
# Admissible input asymmetry, relative to 1 + ||M||_F.
HERMITIAN_INPUT_TOLERANCE = 1e-8


def as_matrix(value, name: str = "matrix", require_finite: bool = False) -> np.ndarray:
    """Coerce to a 2-d complex128 array; optionally reject NaN/Inf entries."""
    arr = np.asarray(value, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got shape {arr.shape}")
    if require_finite and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(value, length: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-d complex128 array of the expected length."""
    arr = np.asarray(value, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def frobenius_norm_sq(m) -> float:
    """Sum of squared moduli of all entries."""
    return float(frobenius_norms_sq(as_matrix(m)))


def frobenius_norms_sq(m: np.ndarray) -> np.ndarray:
    """frobenius_norm_sq of each matrix of a (..., r, c) complex stack, as an array of its leading shape."""
    sq = m.real * m.real
    sq += m.imag * m.imag  # in place: one real temporary fewer per stack
    return np.sum(sq, axis=(-2, -1))


def frobenius_norm(m) -> float:
    return float(np.sqrt(frobenius_norm_sq(m)))


def trace(m) -> complex:
    """Sum of diagonal entries of a square matrix."""
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"trace needs a square matrix, got shape {arr.shape}")
    return complex(np.trace(arr))


@dataclass(frozen=True, eq=False)
class HermitianEigen:
    """Eigenvalues (non-increasing) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _require_hermitian(a: np.ndarray) -> None:
    """Raise NotHermitianError unless the square matrix `a` is Hermitian.

    The criterion ||M - M*||_F > tol * (1 + ||M||_F) is evaluated on M / s
    with s = max |m_ij|, so squaring the entries can neither overflow nor
    flush the largest of them to zero. A matrix whose s is zero or subnormal
    is divided by 1 instead, since 1 / s would overflow; its ||M - M*||_F,
    at most 2n * s, is then far below the tolerance, and it passes.
    """
    scale = float(np.abs(a).max())
    divisor = scale if scale >= np.finfo(np.float64).tiny else 1.0
    unit = a / divisor
    norm = frobenius_norm(unit)
    asym = frobenius_norm(unit - unit.conj().T)
    if asym > HERMITIAN_INPUT_TOLERANCE * (1.0 / divisor + norm):
        raise NotHermitianError(
            f"matrix is not Hermitian: ||M - M*||_F = {asym * scale:.3e} "
            f"exceeds {HERMITIAN_INPUT_TOLERANCE:.0e} * (1 + ||M||_F)"
        )


def hermitian_eig(m, *, check: bool = True) -> HermitianEigen:
    """Full eigendecomposition of a Hermitian matrix by LAPACK (numpy.linalg.eigh).

    The input must be square and finite. Asymmetry beyond
    HERMITIAN_INPUT_TOLERANCE * (1 + ||M||_F) is rejected; the rest is removed
    by symmetrizing to (M + M*)/2. Eigenvalues come back non-increasing; a
    stable sort keeps the solver's order inside blocks of equal eigenvalues.
    Raises ConvergenceError if LAPACK reports that it did not converge.

    check=False skips the input checks, for an S = T* T from model.frame_matrices:
    finite, as that function checked, and Hermitian by construction.
    """
    a = np.asarray(m, dtype=np.complex128)
    if check:
        a = as_matrix(a, "m", require_finite=True)
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"eigendecomposition needs a square matrix, got shape {a.shape}")
        _require_hermitian(a)

    try:
        # Halving each term first keeps the sum finite for entries up to the double maximum.
        w, vec = np.linalg.eigh(0.5 * a + 0.5 * a.conj().T)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigh did not converge: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    eigenvalues = w[order]
    eigenvectors = vec.take(order, axis=1)  # C-contiguous, unlike vec[:, order]
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return HermitianEigen(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def full_rank(eigenvalues: np.ndarray) -> bool:
    """The rank rule lambda_min > RANK_TOLERANCE * lambda_max, on a non-increasing spectrum."""
    return bool(eigenvalues[-1] > RANK_TOLERANCE * eigenvalues[0])


def matrix_power_eig(eig: HermitianEigen, a: float) -> np.ndarray:
    """U diag(lambda^a) U* from a precomputed decomposition; gates on positive definiteness."""
    lam = eig.eigenvalues
    if not full_rank(lam):
        raise NotPositiveDefiniteError(
            f"matrix power needs lambda_min > {RANK_TOLERANCE:.0e} * lambda_max; "
            f"got lambda_min = {float(lam[-1]):.6e}, lambda_max = {float(lam[0]):.6e}",
            lambda_min=float(lam[-1]),
        )
    u = eig.eigenvectors
    return (u * np.power(lam, a)) @ u.conj().T


def matrix_power(m, a: float) -> np.ndarray:
    """Fractional power of a Hermitian positive definite matrix."""
    return matrix_power_eig(hermitian_eig(m), a)
