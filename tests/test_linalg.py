"""Numeric core: squared Frobenius norms, eigensolver, fractional powers of S through FrameOperator."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gframes.errors import ConvergenceError, NotAFrameError
from gframes.linalg import as_matrix, as_vector, frobenius_norm_sq, hermitian_eig
from gframes.model import RANK_TOLERANCE, FrameOperator

from conftest import random_complex, random_hermitian, random_spd


@pytest.mark.parametrize("coerce, value, message", [
    (as_matrix, np.ones(3), r"^matrix must be two-dimensional, got shape \(3,\)$"),
    (as_matrix, np.ones((0, 2)), r"^matrix must have positive dimensions, got shape \(0, 2\)$"),
    (as_vector, np.ones((2, 2)), r"^vector must be one-dimensional, got shape \(2, 2\)$"),
    (as_vector, np.array([1.0, np.nan]), r"^vector contains non-finite entries$"),
], ids=["matrix-not-2d", "matrix-zero-size", "vector-not-1d", "vector-non-finite"])
def test_coercion_refuses_malformed_input(coerce, value, message):
    with pytest.raises(ValueError, match=message):
        coerce(value)


class TestFrobenius:
    def test_identity(self):
        assert frobenius_norm_sq(np.eye(3)) == 3.0

    def test_zero(self):
        assert frobenius_norm_sq(np.zeros((2, 4))) == 0.0

    def test_column_sum_oracle(self, rng):
        m = random_complex(rng, 4, 6)
        by_columns = sum(float(np.sum(np.abs(m @ e) ** 2)) for e in np.eye(6))
        assert abs(frobenius_norm_sq(m) - by_columns) <= 1e-12 * (1 + by_columns)

    def test_adjoint_invariance(self, rng):
        m = random_complex(rng, 5, 3)
        a = frobenius_norm_sq(m)
        b = frobenius_norm_sq(m.conj().T)
        assert math.isclose(a, b, rel_tol=1e-14)


class TestHermitianEig:
    def test_diagonal_case(self):
        e = hermitian_eig(np.diag([3.0, 1.0]))
        assert np.array_equal(e.eigenvalues, [3.0, 1.0])
        assert np.array_equal(e.eigenvectors, np.eye(2))

    def test_subnormal_matrix_warns_nothing(self):
        # 1 / max |m_ij| overflows here; nothing may divide by it.
        e = hermitian_eig(1e-320 * np.eye(2))
        assert np.array_equal(e.eigenvalues, [1e-320, 1e-320])

    def test_two_by_two_hand_values(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-t)^2 - 1, roots 3 and 1
        e = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.abs(e.eigenvalues - np.array([3.0, 1.0])).max() <= 1e-12

    def test_reconstruction_8x8(self, rng):
        m = random_hermitian(rng, 8)
        e = hermitian_eig(m)
        u = e.eigenvectors
        rec = (u * e.eigenvalues) @ u.conj().T
        assert np.linalg.norm(rec - m) <= 1e-9

    def test_invariants_random_sizes(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 33))
            m = random_hermitian(rng, n)
            e = hermitian_eig(m)
            u = e.eigenvectors
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10 * n
            rec = (u * e.eigenvalues) @ u.conj().T
            assert np.linalg.norm(rec - m) <= 1e-9 * (1 + np.linalg.norm(m))
            assert (np.diff(e.eigenvalues) <= 1e-12).all()

    def test_matches_lapack_eigenvalues(self, rng):
        m = random_hermitian(rng, 12)
        e = hermitian_eig(m)
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.abs(e.eigenvalues - ref).max() <= 1e-10 * (1 + np.linalg.norm(m))

    def test_accepts_tiny_asymmetry(self, rng):
        m = random_hermitian(rng, 4)
        m = m + 1e-12 * random_complex(rng, 4, 4)
        hermitian_eig(m)  # symmetrized internally

    def test_zero_matrix(self):
        e = hermitian_eig(np.zeros((3, 3)))
        assert np.array_equal(e.eigenvalues, np.zeros(3))
        assert np.array_equal(e.eigenvectors, np.eye(3))

    def test_lapack_failure_maps_to_convergence_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError):
            hermitian_eig(np.eye(2))

    # Scales of the frame operator of a frame whose entries are 1e-90, 1e80
    # and 1e150: squared entries underflow or overflow at the first two.
    @pytest.mark.parametrize("c", (1e-180, 1e160, 1e300))
    def test_extreme_scale_emits_no_warning(self, rng, c):
        m = random_hermitian(rng, 6)
        ref = hermitian_eig(m).eigenvalues
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = hermitian_eig(c * m)
        assert np.abs(e.eigenvalues / c - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_entries_near_double_maximum(self):
        # 2 * 1e308 overflows, so symmetrizing as (M + M*) / 2 would turn the
        # top entry into inf; halving each term first keeps it finite.
        m = np.diag([1e308, 1e300, 1e300, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = hermitian_eig(m)
        assert np.array_equal(e.eigenvalues, np.linalg.eigvalsh(m)[::-1])


class TestMatrixPower:
    """Fractional powers of S and their rank gate, through FrameOperator.power."""

    def test_identity_any_exponent(self):
        for a in (-1.0, -0.5, 0.0, 0.25, 2.0):
            assert np.linalg.norm(FrameOperator(np.eye(3)).power(a) - np.eye(3)) <= 1e-12

    def test_diagonal_square_root(self):
        r = FrameOperator(np.diag([4.0, 1.0])).power(0.5)
        assert np.linalg.norm(r - np.diag([2.0, 1.0])) <= 1e-12

    def test_square_root_multiplies_back(self, rng):
        s = random_spd(rng, 6)
        r = FrameOperator(s).power(0.5)
        assert np.linalg.norm(r @ r - s) <= 1e-9 * (1 + np.linalg.norm(s))

    def test_power_zero_is_identity(self, rng):
        s = random_spd(rng, 5)
        assert np.linalg.norm(FrameOperator(s).power(0.0) - np.eye(5)) <= 1e-10

    def test_power_one_is_input(self, rng):
        s = random_spd(rng, 5)
        assert np.linalg.norm(FrameOperator(s).power(1.0) - s) <= 1e-9 * (1 + np.linalg.norm(s))

    def test_power_law_family(self, rng):
        exponents = (-1.0, -0.5, -0.25, 0.25, 0.5, 1.0)
        for n in (4, 8, 12):
            s = random_spd(rng, n)
            cond = np.linalg.cond(s)
            assert cond <= 1e4  # construction keeps conditioning moderate
            op = FrameOperator(s)  # memoizes each power
            for a in exponents:
                for b in exponents:
                    target = op.power(a + b)
                    gap = np.linalg.norm(op.power(a) @ op.power(b) - target)
                    assert gap <= 1e-8 * np.linalg.norm(target)

    def test_rejects_indefinite(self):
        with pytest.raises(NotAFrameError) as info:
            FrameOperator(np.diag([1.0, -1.0])).power(0.5)
        assert info.value.lambda_min == -1.0

    def test_rejects_singular(self):
        with pytest.raises(NotAFrameError):
            FrameOperator(np.diag([1.0, 0.0])).power(-1.0)

    def test_gate_is_relative(self):
        # spectrum {1, 2e-10}: above the relative gate, power must succeed
        FrameOperator(np.diag([1.0, 2.0 * RANK_TOLERANCE])).power(-1.0)
        with pytest.raises(NotAFrameError):
            FrameOperator(np.diag([1.0, 0.5 * RANK_TOLERANCE])).power(-1.0)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def hermitian_of(rng, kind, n):
    """An n x n Hermitian matrix: a Gram matrix, one with repeated eigenvalues, or zero."""
    if kind == "gram":
        t = rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n))
        return t.conj().T @ t
    if kind == "repeated":
        return np.diag(rng.choice([1.0, 2.0], n)).astype(complex)
    return np.zeros((n, n), dtype=complex)


class TestHermitianEigReference:
    """hermitian_eig is LAPACK's pairs of the symmetrized matrix, stably sorted non-increasing."""

    @settings(deadline=None, max_examples=60)
    @given(
        kind=st.sampled_from(["gram", "repeated", "zero"]),
        n=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_equals_sorted_lapack_pairs(self, kind, n, seed):
        m = hermitian_of(np.random.default_rng(seed), kind, n)
        got = hermitian_eig(m)
        # Independent of the library's gather: plain indexing of eigh's output.
        w, v = np.linalg.eigh(0.5 * m + 0.5 * m.conj().T)
        order = np.argsort(-w, kind="stable")
        assert np.array_equal(bits(got.eigenvalues), bits(w[order]))
        assert np.array_equal(bits(got.eigenvectors), bits(v[:, order]))
        # The powers' BLAS products read this layout.
        assert got.eigenvectors.flags.c_contiguous
