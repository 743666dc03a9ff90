"""Numeric core: products, adjoints, norms, traces, eigensolver, fractional powers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gframes.errors import ConvergenceError, NotHermitianError, NotPositiveDefiniteError
from gframes.linalg import (
    HERMITIAN_INPUT_TOLERANCE,
    RANK_TOLERANCE,
    adjoint,
    frobenius_norm,
    frobenius_norm_sq,
    hermitian_eig,
    matmul,
    matrix_power,
    matrix_power_eig,
    trace,
)

from conftest import random_complex, random_hermitian, random_spd


def naive_matmul(a, b):
    """Triple-loop product oracle, independent of the library path."""
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.zeros((rows, cols), dtype=complex)
    for i in range(rows):
        for j in range(cols):
            acc = 0j
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self, rng):
        m = random_complex(rng, 2, 2)
        assert np.array_equal(matmul(np.eye(2), m), m)

    def test_involution(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(matmul(swap, swap), np.eye(2))

    def test_matches_triple_loop(self, rng):
        a = random_complex(rng, 3, 3)
        b = random_complex(rng, 3, 3)
        assert np.abs(matmul(a, b) - naive_matmul(a, b)).max() <= 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            matmul(random_complex(rng, 2, 3), random_complex(rng, 2, 3))


class TestAdjoint:
    def test_real_symmetric_fixed_point(self):
        m = np.array([[1.0, 2.0], [2.0, 5.0]])
        assert np.array_equal(adjoint(m), m)

    def test_hand_conjugation(self):
        m = np.array([[0.0, 1j], [0.0, 0.0]])
        expected = np.array([[0.0, 0.0], [-1j, 0.0]])
        assert np.array_equal(adjoint(m), expected)

    def test_involution_exact(self, rng):
        m = random_complex(rng, 3, 5)
        assert np.array_equal(adjoint(adjoint(m)), m)

    def test_inner_product_oracle(self, rng):
        m = random_complex(rng, 4, 3)
        for _ in range(20):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            lhs = np.vdot(y, m @ x)  # <Mx, y> with numpy's conjugate-first convention
            rhs = np.vdot(adjoint(m) @ y, x)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


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
        b = frobenius_norm_sq(adjoint(m))
        assert math.isclose(a, b, rel_tol=1e-14)


class TestTrace:
    def test_identity(self):
        assert trace(np.eye(4)) == 4.0

    def test_diagonal(self):
        assert trace(np.diag([1.0, 2.0, 3.0])) == 6.0

    def test_cyclicity(self, rng):
        a = random_complex(rng, 3, 3)
        b = random_complex(rng, 3, 3)
        lhs = trace(matmul(a, b))
        rhs = trace(matmul(b, a))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_cyclicity_scaled_tolerance(self, rng):
        for _ in range(20):
            a = random_complex(rng, 6, 6)
            b = random_complex(rng, 6, 6)
            gap = abs(trace(matmul(a, b)) - trace(matmul(b, a)))
            assert gap <= 1e-10 * (1 + frobenius_norm(a) * frobenius_norm(b))

    def test_rejects_non_square(self, rng):
        with pytest.raises(ValueError):
            trace(random_complex(rng, 2, 3))


class TestHermitianEig:
    def test_diagonal_case(self):
        e = hermitian_eig(np.diag([3.0, 1.0]))
        assert np.array_equal(e.eigenvalues, [3.0, 1.0])
        assert np.array_equal(e.eigenvectors, np.eye(2))

    def test_subnormal_matrix_warns_nothing(self):
        # 1 / max |m_ij| overflows here; the Hermitian check must not divide by it.
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
        assert frobenius_norm(rec - m) <= 1e-9

    def test_invariants_random_sizes(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 33))
            m = random_hermitian(rng, n)
            e = hermitian_eig(m)
            u = e.eigenvectors
            assert frobenius_norm(u.conj().T @ u - np.eye(n)) <= 1e-10 * n
            rec = (u * e.eigenvalues) @ u.conj().T
            assert frobenius_norm(rec - m) <= 1e-9 * (1 + frobenius_norm(m))
            assert (np.diff(e.eigenvalues) <= 1e-12).all()

    def test_matches_lapack_eigenvalues(self, rng):
        m = random_hermitian(rng, 12)
        e = hermitian_eig(m)
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.abs(e.eigenvalues - ref).max() <= 1e-10 * (1 + frobenius_norm(m))

    def test_accepts_tiny_asymmetry(self, rng):
        m = random_hermitian(rng, 4)
        m = m + 1e-12 * random_complex(rng, 4, 4)
        hermitian_eig(m)  # symmetrized internally

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(NotHermitianError):
            hermitian_eig(random_complex(rng, 4, 4))

    def test_rejects_non_square(self, rng):
        with pytest.raises(ValueError):
            hermitian_eig(random_complex(rng, 2, 3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

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

    @pytest.mark.parametrize("c", (1.0, 1e-180, 1e160, 1e300))
    def test_hermitian_check_decision_at_any_scale(self, rng, c):
        # M = c (H + t K) with K skew-Hermitian, so ||M - M*||_F = 2 c t ||K||_F
        # and ||M||_F = c hypot(||H||_F, t ||K||_F). The reference decision
        # uses only these scalars, so it stays in range at every c; the
        # matrices sit 1e-6 (relative) either side of its threshold.
        h = random_hermitian(rng, 5)
        g = random_complex(rng, 5, 5)
        k = 0.5 * (g - g.conj().T)
        h_norm, k_norm = frobenius_norm(h), frobenius_norm(k)

        def rejected(t):
            asym = 2.0 * c * t * k_norm
            return asym > HERMITIAN_INPUT_TOLERANCE * (1.0 + c * math.hypot(h_norm, t * k_norm))

        lo, hi = 1e-300, 1e300
        for _ in range(200):
            mid = math.sqrt(lo) * math.sqrt(hi)
            lo, hi = (lo, mid) if rejected(mid) else (mid, hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hermitian_eig(c * h + (c * lo * (1 - 1e-6)) * k)
            with pytest.raises(NotHermitianError):
                hermitian_eig(c * h + (c * hi * (1 + 1e-6)) * k)


class TestMatrixPower:
    def test_identity_any_exponent(self):
        for a in (-1.0, -0.5, 0.0, 0.25, 2.0):
            assert frobenius_norm(matrix_power(np.eye(3), a) - np.eye(3)) <= 1e-12

    def test_diagonal_square_root(self):
        r = matrix_power(np.diag([4.0, 1.0]), 0.5)
        assert frobenius_norm(r - np.diag([2.0, 1.0])) <= 1e-12

    def test_square_root_multiplies_back(self, rng):
        s = random_spd(rng, 6)
        r = matrix_power(s, 0.5)
        assert frobenius_norm(r @ r - s) <= 1e-9 * (1 + frobenius_norm(s))

    def test_power_zero_is_identity(self, rng):
        s = random_spd(rng, 5)
        assert frobenius_norm(matrix_power(s, 0.0) - np.eye(5)) <= 1e-10

    def test_power_one_is_input(self, rng):
        s = random_spd(rng, 5)
        assert frobenius_norm(matrix_power(s, 1.0) - s) <= 1e-9 * (1 + frobenius_norm(s))

    def test_power_law_family(self, rng):
        exponents = (-1.0, -0.5, -0.25, 0.25, 0.5, 1.0)
        for n in (4, 8, 12):
            s = random_spd(rng, n)
            cond = np.linalg.cond(s)
            assert cond <= 1e4  # construction keeps conditioning moderate
            powers = {a: matrix_power(s, a) for a in exponents}
            sums = {}
            for a in exponents:
                for b in exponents:
                    c = a + b
                    if c not in sums:
                        sums[c] = matrix_power(s, c)
                    target = sums[c]
                    gap = frobenius_norm(powers[a] @ powers[b] - target)
                    assert gap <= 1e-8 * frobenius_norm(target)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError) as info:
            matrix_power(np.diag([1.0, -1.0]), 0.5)
        assert info.value.lambda_min == -1.0

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            matrix_power(np.diag([1.0, 0.0]), -1.0)

    def test_gate_is_relative(self):
        # spectrum {1, 2e-10}: above the relative gate, power must succeed
        matrix_power(np.diag([1.0, 2.0 * RANK_TOLERANCE]), -1.0)
        with pytest.raises(NotPositiveDefiniteError):
            matrix_power(np.diag([1.0, 0.5 * RANK_TOLERANCE]), -1.0)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def stack_of(rng, kind, count, n):
    """A stack of count n x n Hermitian matrices: Gram matrices, with repeated eigenvalues, or zero."""
    if kind == "gram":
        t = rng.standard_normal((count, 2 * n, n)) + 1j * rng.standard_normal((count, 2 * n, n))
        return np.swapaxes(t.conj(), -1, -2) @ t
    if kind == "repeated":
        return np.stack([np.diag(rng.choice([1.0, 2.0], n)).astype(complex) for _ in range(count)])
    return np.zeros((count, n, n), dtype=complex)


class TestStackedHermitianEig:
    """A (..., n, n) stack is decomposed as each of its matrices would be alone."""

    @settings(deadline=None, max_examples=60)
    @given(
        kind=st.sampled_from(["gram", "repeated", "zero"]),
        count=st.integers(min_value=1, max_value=6),
        n=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_stack_equals_per_matrix_calls(self, kind, count, n, seed):
        m = stack_of(np.random.default_rng(seed), kind, count, n)
        stacked = hermitian_eig(m)
        assert stacked.eigenvalues.shape == (count, n)
        assert stacked.eigenvectors.shape == (count, n, n)
        for j in range(count):
            alone = hermitian_eig(m[j])
            assert np.array_equal(bits(stacked.eigenvalues[j]), bits(alone.eigenvalues))
            assert np.array_equal(bits(stacked.eigenvectors[j]), bits(alone.eigenvectors))

    def test_two_level_stack(self, rng):
        m = stack_of(rng, "gram", 6, 3).reshape(2, 3, 3, 3)
        stacked = hermitian_eig(m)
        alone = hermitian_eig(m[1, 2])
        assert np.array_equal(bits(stacked.eigenvectors[1, 2]), bits(alone.eigenvectors))

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_non_hermitian_slice_raises_its_own_error(self, rng, where):
        m = stack_of(rng, "gram", 5, 4)
        m[where, 0, 1] += 1.0
        with pytest.raises(NotHermitianError) as alone:
            hermitian_eig(m[where])
        with pytest.raises(NotHermitianError) as stacked:
            hermitian_eig(m)
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_slice_raises_its_own_error(self, rng, value):
        m = stack_of(rng, "gram", 5, 4)
        m[3, 2, 2] = value
        with pytest.raises(ValueError) as alone:
            hermitian_eig(m[3])
        with pytest.raises(ValueError) as stacked:
            hermitian_eig(m)
        assert str(stacked.value) == str(alone.value)


class TestStackedMatrixPower:
    """Powers of a stacked decomposition equal each matrix's power alone, bit for bit."""

    @settings(deadline=None, max_examples=40)
    @given(
        count=st.integers(min_value=1, max_value=6),
        n=st.integers(min_value=1, max_value=9),
        a=st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 3.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_stack_equals_per_matrix_calls(self, count, n, a, seed):
        m = stack_of(np.random.default_rng(seed), "gram", count, n)
        stacked = matrix_power_eig(hermitian_eig(m), a)
        assert stacked.shape == (count, n, n)
        for j in range(count):
            assert np.array_equal(bits(stacked[j]), bits(matrix_power_eig(hermitian_eig(m[j]), a)))

    def test_failing_slice_raises_its_own_error(self):
        m = np.stack([np.eye(2), np.diag([1.0, -1.0]), np.diag([1.0, 0.0])]).astype(complex)
        with pytest.raises(NotPositiveDefiniteError) as alone:
            matrix_power(m[1], 0.5)
        with pytest.raises(NotPositiveDefiniteError) as stacked:
            matrix_power(m, 0.5)
        assert str(stacked.value) == str(alone.value)
        assert stacked.value.lambda_min == -1.0
