"""Operator-valued frames on a finite-dimensional complex space.

A GFrame is a finite family of operators, the i-th mapping C^n into C^(k_i),
stored as k_i x n complex matrices. The family is held as its analysis
operator T: the operators stacked by rows into one K x n matrix, with
K = sum of the k_i. The frame operator is S = T* T; its spectrum supplies the
optimal frame bounds, the nearly-Parseval rating, and every canonical
transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrameOverflowError, NotADualError, NotAFrameError, PostconditionError
from .linalg import (
    HermitianEigen,
    as_vector,
    frobenius_norm_sq,
    frobenius_norms_sq,
    hermitian_eig,
    matrix_power_eig,
)

# Families qualify as Parseval when ||S - I||_F is at most this times n (parseval_tolerance).
PARSEVAL_TOLERANCE = 1e-6
# Alternate duals must satisfy ||sum adjoint(lam_i) gam_i - I||_F <= DUAL_TOLERANCE * n.
DUAL_TOLERANCE = 1e-8


class GFrame:
    """Immutable finite family of operators with a common domain dimension.

    The operators live, in order, as the row blocks of one read-only K x n
    array, the analysis operator T (`stacked`); `operators` are read-only
    views of those blocks. S and both canonical families are memoized once
    they are built and pass their check; no check's outcome is kept.

    Arrays from outside are copied and their counts checked (`from_stacked`).
    A frame derived from this one (`derived`: the canonical families, shaped
    and dual frames) adopts its fresh product as T and shares this frame's
    counts and offsets, which were checked when it was built.
    """

    __slots__ = ("_stacked", "_counts", "_offsets", "_frame_op", "_parseval", "_dual")

    def __init__(self, operators, dim_h: int | None = None):
        blocks = []
        for idx, op in enumerate(operators):
            arr = np.asarray(op, dtype=np.complex128)
            if arr.ndim != 2:
                raise ValueError(f"operator {idx} must be a matrix, got shape {arr.shape}")
            if arr.shape[0] < 1 or arr.shape[1] < 1:
                raise ValueError(f"operator {idx} must have positive dimensions")
            blocks.append(arr)
        if not blocks:
            raise ValueError("a frame needs at least one operator")
        if dim_h is None:
            dim_h = blocks[0].shape[1]
        if dim_h < 1:
            raise ValueError(f"dim_h must be positive, got {dim_h}")
        for idx, arr in enumerate(blocks):
            if arr.shape[1] != dim_h:
                raise ValueError(
                    f"operator {idx} has {arr.shape[1]} columns, expected dim_h = {dim_h}"
                )
        self._setup(np.concatenate(blocks), [arr.shape[0] for arr in blocks])

    @classmethod
    def from_stacked(cls, stacked, counts, *, frame_op: FrameOperator | None = None) -> GFrame:
        """Frame whose analysis operator is a copy of `stacked`, cut into blocks of counts[i] rows.

        `frame_op`, when given, is the frame's FrameOperator, already built.
        """
        t = np.array(stacked, dtype=np.complex128)
        if t.ndim != 2 or t.shape[1] < 1:
            raise ValueError(f"stacked operators must form a matrix with columns, got shape {t.shape}")
        f = cls.__new__(cls)
        f._setup(t, counts, frame_op)
        return f

    def derived(self, t: np.ndarray, *, frame_op: FrameOperator | None = None) -> GFrame:
        """Frame whose analysis operator is t itself, made read-only, cut into this frame's blocks.

        t is a fresh K x n complex product that nothing else holds, so it is
        not copied, and this frame's counts and offsets are shared. `frame_op`
        is as in from_stacked. Raises ValueError naming the first operator
        with a non-finite entry.
        """
        f = GFrame.__new__(GFrame)
        f._adopt(t, self._counts, self._offsets, frame_op)
        return f

    def _setup(self, t: np.ndarray, counts, frame_op: FrameOperator | None = None) -> None:
        counts = tuple(int(k) for k in counts)
        if not counts or min(counts) < 1 or sum(counts) != t.shape[0]:
            raise ValueError(
                f"counts {list(counts)} must be positive and add up to the {t.shape[0]} rows"
            )
        self._adopt(t, counts, (0, *np.cumsum(counts).tolist()), frame_op)

    def _adopt(self, t: np.ndarray, counts: tuple[int, ...], offsets: tuple[int, ...],
               frame_op: FrameOperator | None) -> None:
        """Hold t, made read-only, as T with checked counts and offsets; ValueError names an operator with a non-finite entry."""
        bad_rows = np.flatnonzero(~np.isfinite(t).all(axis=1))
        if bad_rows.size:
            idx = int(np.searchsorted(offsets, bad_rows[0], side="right")) - 1
            raise ValueError(f"operator {idx} contains non-finite entries")
        t.setflags(write=False)
        self._stacked = t
        self._counts = counts
        self._offsets = offsets
        self._frame_op = frame_op
        self._parseval = self._dual = None

    @property
    def dim_h(self) -> int:
        return self._stacked.shape[1]

    @property
    def stacked(self) -> np.ndarray:
        """The analysis operator T: all operators stacked by rows, read-only, K x n."""
        return self._stacked

    @property
    def offsets(self) -> tuple[int, ...]:
        """Row offsets into `stacked`: operator i is rows offsets[i] to offsets[i + 1]."""
        return self._offsets

    @property
    def operators(self) -> tuple[np.ndarray, ...]:
        return tuple(np.split(self._stacked, self._offsets[1:-1]))

    @property
    def counts(self) -> tuple[int, ...]:
        """Output dimension k_i of each operator."""
        return self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        return f"GFrame(dim_h={self.dim_h}, counts={list(self.counts)})"


# The rank rule: lambda_min(S) must exceed RANK_TOLERANCE * lambda_max(S) for powers/inverses.
RANK_TOLERANCE = 1e-10


class FrameOperator:
    """The n x n matrix S of one frame: the one route to its eigendecomposition and powers.

    The eigendecomposition, the rank gate, the bounds and the powers are
    computed on first use. `matrix` is S as frame_matrices forms it: finite
    and Hermitian by construction, so only its shape is checked: one square
    matrix, not a stack (ValueError).
    """

    __slots__ = ("matrix", "_eig", "_bounds", "_powers")

    def __init__(self, matrix: np.ndarray):
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"S must be one square matrix, got shape {matrix.shape}")
        self.matrix = matrix
        self._eig = None
        self._bounds = None
        self._powers = {}

    @property
    def eig(self) -> HermitianEigen:
        if self._eig is None:
            self._eig = hermitian_eig(self.matrix)
        return self._eig

    @property
    def is_frame(self) -> bool:
        """The rank gate: lambda_min(S) > RANK_TOLERANCE * lambda_max(S)."""
        lam = self.eig.eigenvalues  # non-increasing
        return bool(lam[-1] > RANK_TOLERANCE * lam[0])

    def require_frame(self) -> None:
        """Raise NotAFrameError unless the frame passes the rank gate."""
        if not self.is_frame:
            lam = self.eig.eigenvalues
            upper, lower = float(lam[0]), float(lam[-1])
            raise NotAFrameError(
                f"not a frame: lambda_min(S) = {lower:.6e} is at or below "
                f"{RANK_TOLERANCE:.0e} * lambda_max(S) = {RANK_TOLERANCE * upper:.6e}",
                lambda_min=lower,
            )

    @property
    def bounds(self) -> FrameBounds:
        """Optimal bounds of the frame, built once; raises NotAFrameError as require_frame does."""
        if self._bounds is None:
            self.require_frame()
            upper = float(self.eig.eigenvalues[0])
            lower = float(self.eig.eigenvalues[-1])
            self._bounds = FrameBounds(lower=lower, upper=upper, epsilon=max(1.0 - lower, upper - 1.0))
        return self._bounds

    def power(self, a: float) -> np.ndarray:
        """S^a (read-only), memoized per exponent; raises NotAFrameError as require_frame does.

        Raises FrameOverflowError when an entry of S^a exceeds the double range.
        """
        cached = self._powers.get(a)
        if cached is None:
            self.require_frame()
            with np.errstate(over="ignore", invalid="ignore"):
                cached = matrix_power_eig(self.eig, a)
            if not np.isfinite(cached).all():
                raise FrameOverflowError(f"frame is too large: S^{a!r} overflows double precision")
            cached.setflags(write=False)
            self._powers[a] = cached
        return cached


@dataclass(frozen=True)
class FrameBounds:
    """Optimal constants: lower = lambda_min(S), upper = lambda_max(S).

    epsilon is the nearly-Parseval rating max(1 - lower, upper - 1); values
    below 1 mean the spectrum sits inside (0, 2).
    """

    lower: float
    upper: float
    epsilon: float


def frame_matrices(t: np.ndarray) -> np.ndarray:
    """S = T* T, read-only, for a K x n analysis operator or a (..., K, n) stack of them.

    Raises FrameOverflowError when an entry of S, or its trace, exceeds the
    double range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = t.conj().swapaxes(-1, -2) @ t
        trace_s = s.trace(axis1=-2, axis2=-1).real
    if not (np.isfinite(s).all() and np.isfinite(trace_s).all()):
        what = "trace(S) = ||T||_F^2" if np.isfinite(s).all() else "S = T* T"
        raise FrameOverflowError(
            f"frame is too large: {what} overflows double precision "
            f"(largest operator entry modulus {float(np.max(np.abs(t))):.3e})"
        )
    s.setflags(write=False)
    return s


def frame_operator(f: GFrame) -> FrameOperator:
    """S = T* T as one product; cached per frame.

    Raises FrameOverflowError when an entry of S, or its trace, exceeds the
    double range.
    """
    if f._frame_op is None:
        f._frame_op = FrameOperator(frame_matrices(f.stacked))
    return f._frame_op


def validate_frame(f: GFrame) -> FrameBounds:
    """Certify the family as a frame and return its optimal bounds (cached per frame).

    Raises NotAFrameError when lambda_min(S) <= RANK_TOLERANCE * lambda_max(S).
    """
    return frame_operator(f).bounds


def parseval_defects(s: np.ndarray) -> np.ndarray:
    """||S - I||_F of each frame operator of a (..., n, n) stack."""
    return np.sqrt(frobenius_norms_sq(s - np.eye(s.shape[-1])))


def parseval_tolerance(n: int) -> float:
    """The Parseval rule: a family on C^n qualifies as Parseval when its ||S - I||_F is at most this."""
    return PARSEVAL_TOLERANCE * n


def parseval_failure(s: np.ndarray) -> float | None:
    """The first ||S - I||_F of a (..., n, n) stack that breaks the Parseval rule, or None."""
    defects = parseval_defects(s)
    failed = np.flatnonzero(~(defects <= parseval_tolerance(s.shape[-1])))
    return float(defects.flat[failed[0]]) if failed.size else None


def analysis_apply(f: GFrame, x) -> list[np.ndarray]:
    """The coefficient family (op @ x) for each operator."""
    vec = as_vector(x, f.dim_h, "x")
    return np.split(f.stacked @ vec, f.offsets[1:-1])


def synthesis_apply(f: GFrame, y) -> np.ndarray:
    """Adjoint of analysis: sum of adjoint(op) @ y_i."""
    parts = list(y)
    if len(parts) != len(f):
        raise ValueError(f"expected {len(f)} coefficient blocks, got {len(parts)}")
    blocks = [as_vector(block, k, f"y[{idx}]") for idx, (k, block) in enumerate(zip(f.counts, parts))]
    return f.stacked.conj().T @ np.concatenate(blocks)


def parseval_stack(p: np.ndarray, family: str) -> np.ndarray:
    """The frame operator S' (read-only) of a K x n analysis operator, or a (B, K, n) stack of them, made read-only.

    The postcondition of every Parseval builder; `family` names the builder's
    family in the error. Raises PostconditionError when a family misses the
    Parseval rule (parseval_tolerance), and what frame_matrices raises.
    """
    p.setflags(write=False)
    s = frame_matrices(p)
    defect = parseval_failure(s)
    if defect is not None:
        raise PostconditionError(
            f"{family} is not Parseval: ||S' - I||_F = {defect:.3e} "
            f"exceeds {PARSEVAL_TOLERANCE:.0e} * n"
        )
    return s


def canonical_parseval(f: GFrame) -> GFrame:
    """Right-multiply every operator by S^(-1/2); the result has frame operator I.

    Checked by parseval_stack, whose PostconditionError every failing call
    raises anew; a family that passes is memoized per frame, with S' cached on it.
    """
    if f._parseval is None:
        p = f.stacked @ frame_operator(f).power(-0.5)
        s = parseval_stack(p, "canonical Parseval frame")
        f._parseval = f.derived(p, frame_op=FrameOperator(s))
    return f._parseval


def canonical_dual(f: GFrame) -> GFrame:
    """Right-multiply every operator by S^(-1); the canonical alternate dual.

    Raises PostconditionError when the result misses the dual equation by
    more than DUAL_TOLERANCE * n, on every call that builds it; a dual that
    passes is memoized per frame.
    """
    if f._dual is None:
        d = f.derived(f.stacked @ frame_operator(f).power(-1.0))
        cert = verify_alternate_dual(f, d)
        if not cert.passed:
            raise PostconditionError(
                f"canonical dual fails the dual equation: residual {cert.residual:.3e} "
                f"exceeds {DUAL_TOLERANCE:.0e} * n")
        f._dual = d
    return f._dual


def reconstruct(f: GFrame, x) -> np.ndarray:
    """Recover x as S^(-1) applied to the synthesis of the analysis coefficients."""
    t = f.stacked
    return frame_operator(f).power(-1.0) @ (t.conj().T @ (t @ as_vector(x, f.dim_h, "x")))


def total_frobenius_energy(f: GFrame) -> float:
    """Sum of squared Frobenius norms over the family; finite-dimension diagnostic.

    For a certified frame the value lies in [lower * n, upper * n].
    """
    return frobenius_norm_sq(f.stacked)


def require_matching_shapes(a: GFrame, b: GFrame) -> None:
    if a.dim_h != b.dim_h or a.counts != b.counts:
        raise ValueError(
            f"families do not match: dim_h {a.dim_h} vs {b.dim_h}, "
            f"counts {list(a.counts)} vs {list(b.counts)}"
        )


def dual_residuals(lam: GFrame, duals: np.ndarray) -> np.ndarray:
    """dual_residual of lam against each K x n analysis operator of the (..., K, n) stack duals."""
    with np.errstate(over="ignore", invalid="ignore"):
        gap = lam.stacked.conj().T @ duals - np.eye(lam.dim_h)
        norms = np.sqrt(frobenius_norms_sq(gap))
        if np.isinf(norms).any():  # the squares of a finite gap above ~1e154 overflow; its hypots do not
            hypots = np.hypot.reduce(np.abs(gap).reshape(*gap.shape[:-2], -1), axis=-1)
            norms = np.where(np.isinf(norms), hypots, norms)
    # An overflowing product holds inf, and nan where inf meets 0.
    return np.where(np.isfinite(gap).all(axis=(-2, -1)), norms, np.inf)


def dual_residual(lam: GFrame, gam: GFrame) -> float:
    """Frobenius distance of sum(adjoint(lam_i) @ gam_i) from the identity; inf if it overflows."""
    require_matching_shapes(lam, gam)
    return float(dual_residuals(lam, gam.stacked))


@dataclass(frozen=True)
class DualCertificate:
    """Outcome of checking sum(adjoint(lam_i) @ gam_i) against the identity."""

    residual: float
    tolerance: float
    passed: bool

    def require(self) -> None:
        """Raise NotADualError unless the dual equation held."""
        if not self.passed:
            raise NotADualError(
                f"family is not an alternate dual: residual {self.residual:.3e} exceeds "
                f"{DUAL_TOLERANCE:.0e} * n",
                residual=self.residual,
            )


def dual_certificates(lam: GFrame, duals: np.ndarray) -> list[DualCertificate]:
    """verify_alternate_dual for each K x n analysis operator of the (B, K, n) stack duals."""
    tolerance = DUAL_TOLERANCE * lam.dim_h
    return [
        DualCertificate(residual=r, tolerance=tolerance, passed=r <= tolerance)
        for r in dual_residuals(lam, duals).tolist()
    ]


def verify_alternate_dual(lam: GFrame, gam: GFrame) -> DualCertificate:
    """Certificate for the dual equation at tolerance DUAL_TOLERANCE * dim_h, formed on each call."""
    require_matching_shapes(lam, gam)
    (cert,) = dual_certificates(lam, gam.stacked[np.newaxis])
    return cert
