"""Input coercion, squared Frobenius norms and a Hermitian eigensolver.

Matrices are numpy arrays with dtype complex128 (one 64-bit float per real
and imaginary part). Traces and norms are numpy's (np.trace,
np.linalg.norm); frobenius_norm_sq keeps a name because it reads outside
input through as_matrix. The eigensolver (LAPACK's, through
numpy.linalg.eigh) and the fractional power serve model.FrameOperator, the
one route to a decomposition or a power of S, and check nothing;
FrameOperator holds the rank rule and gates it before any power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError


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


@dataclass(frozen=True, eq=False)
class HermitianEigen:
    """Eigenvalues (non-increasing) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m) -> HermitianEigen:
    """Eigendecomposition of S for FrameOperator by LAPACK (numpy.linalg.eigh); checks nothing.

    S = T* T comes from model.frame_matrices, finite and Hermitian by
    construction; symmetrizing to (S + S*)/2 removes rounding asymmetry.
    Eigenvalues come back non-increasing; a stable sort keeps the solver's
    order inside blocks of equal eigenvalues. Raises ConvergenceError if
    LAPACK reports that it did not converge.
    """
    a = np.asarray(m, dtype=np.complex128)
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


def matrix_power_eig(eig: HermitianEigen, a: float) -> np.ndarray:
    """U diag(lambda^a) U* for FrameOperator.power, which gates the rank first; checks nothing."""
    u = eig.eigenvectors
    return (u * np.power(eig.eigenvalues, a)) @ u.conj().T
