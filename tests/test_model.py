"""Frame model: frame operator, bounds, transforms, analysis/synthesis, reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gframes import model
from gframes.duals import extremal_frame, random_alternate_dual
from gframes.errors import FrameOverflowError, NotAFrameError, PostconditionError
from gframes.identities import (
    frobenius_dual_decomposition,
    parseval_approx_decomposition,
    parseval_frobenius_budget,
    parseval_gap,
)
from gframes.model import (
    FrameOperator,
    GFrame,
    analysis_apply,
    canonical_dual,
    canonical_parseval,
    dual_residual,
    frame_matrices,
    frame_operator,
    parseval_defects,
    parseval_stack,
    reconstruct,
    synthesis_apply,
    total_frobenius_energy,
    validate_frame,
)
from gframes.generators import random_gframe, random_parseval_gframe

from conftest import random_complex


def orthonormal_rows_frame(n=2):
    eye = np.eye(n)
    return GFrame([eye[k : k + 1, :] for k in range(n)])


def diagonal_frame(values):
    """Single-operator frame whose frame operator is diag(values)."""
    return GFrame([np.diag(np.sqrt(np.asarray(values, dtype=float)))])


class TestGFrame:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GFrame([])

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            GFrame([np.eye(2), np.ones((1, 3))])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            GFrame([np.array([[np.inf, 0.0]])])

    def test_operators_are_immutable(self):
        f = orthonormal_rows_frame()
        with pytest.raises(ValueError):
            f.operators[0][0, 0] = 5.0

    def test_counts(self):
        f = GFrame([np.ones((2, 3)), np.ones((1, 3))])
        assert f.counts == (2, 1)
        assert f.dim_h == 3
        assert len(f) == 2

    def test_from_stacked_needs_counts(self):
        with pytest.raises(TypeError):
            GFrame.from_stacked(np.eye(3))
        with pytest.raises(ValueError, match="add up to the 3 rows"):
            GFrame.from_stacked(np.eye(3), (1, 1))
        assert GFrame.from_stacked(2 * np.eye(3), (1, 2)).counts == (1, 2)


class TestFrameOperator:
    def test_single_identity_operator(self):
        f = GFrame([np.eye(2)])
        assert np.allclose(frame_operator(f).matrix, np.eye(2), atol=1e-15)

    def test_orthonormal_rows_give_identity(self):
        f = orthonormal_rows_frame(2)
        assert np.array_equal(frame_operator(f).matrix, np.eye(2))

    def test_hand_computed_sum(self):
        f = GFrame([np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])])
        assert np.allclose(frame_operator(f).matrix, np.diag([2.0, 1.0]), atol=1e-15)

    def test_matches_explicit_sum(self, rng):
        f = random_gframe(3, (2, 1, 2), seed=5)
        explicit = sum(op.conj().T @ op for op in f.operators)
        s = frame_operator(f).matrix
        assert np.linalg.norm(s - explicit) <= 1e-10 * (1 + np.linalg.norm(s))

    def test_hermitian(self):
        f = random_gframe(5, (3, 3), seed=11)
        s = frame_operator(f).matrix
        assert np.linalg.norm(s - s.conj().T) <= 1e-12 * (1 + np.linalg.norm(s))

    def test_cached(self):
        f = random_gframe(3, (2, 2), seed=1)
        assert frame_operator(f) is frame_operator(f)

    def test_rejects_a_stack(self):
        # frame_matrices of a stack of analysis operators is a stack of S, not one S.
        t = np.stack([2 * np.eye(3), np.eye(3), np.eye(3)])
        with pytest.raises(ValueError, match=r"^S must be one square matrix, got shape \(3, 3, 3\)$"):
            FrameOperator(frame_matrices(t))

    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(ValueError, match=r"^S must be one square matrix, got shape \(2, 3\)$"):
            FrameOperator(np.ones((2, 3)))


class TestValidateFrame:
    def test_orthonormal_is_parseval(self):
        b = validate_frame(orthonormal_rows_frame(2))
        assert b.lower == pytest.approx(1.0, abs=1e-12)
        assert b.upper == pytest.approx(1.0, abs=1e-12)
        assert b.epsilon == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_bounds(self):
        b = validate_frame(diagonal_frame([2.0, 1.0]))
        assert b.lower == pytest.approx(1.0, abs=1e-12)
        assert b.upper == pytest.approx(2.0, abs=1e-12)

    def test_epsilon_picks_binding_side(self):
        b = validate_frame(diagonal_frame([1.5, 0.8]))
        assert b.epsilon == pytest.approx(0.5, abs=1e-12)

    def test_subnormal_frame_operator_warns_nothing(self):
        # S = 1e-320 I: every entry of S is subnormal.
        b = validate_frame(GFrame([1e-160 * np.eye(3)]))
        assert b.lower == b.upper > 0.0

    def test_rank_deficient_rejected(self):
        f = GFrame([np.array([[1.0, 0.0]])])  # single row cannot span C^2
        with pytest.raises(NotAFrameError) as info:
            validate_frame(f)
        assert info.value.lambda_min <= 1e-12

    def test_zero_operator_allowed_inside_frame(self):
        f = GFrame([np.eye(2), np.zeros((1, 2))])
        b = validate_frame(f)
        assert b.lower == pytest.approx(1.0, abs=1e-12)

    def test_bounds_attained_on_eigenvectors(self):
        f = random_gframe(4, (2, 2, 2), seed=3)
        b = validate_frame(f)
        eig = frame_operator(f).eig
        top = eig.eigenvectors[:, 0]
        bottom = eig.eigenvectors[:, -1]
        top_energy = sum(float(np.sum(np.abs(block) ** 2)) for block in analysis_apply(f, top))
        bottom_energy = sum(float(np.sum(np.abs(block) ** 2)) for block in analysis_apply(f, bottom))
        assert abs(top_energy - b.upper) <= 1e-9 * (1 + b.upper)
        assert abs(bottom_energy - b.lower) <= 1e-9 * (1 + b.lower)


class TestAnalysisSynthesis:
    def test_zero_vector(self):
        f = orthonormal_rows_frame(2)
        blocks = analysis_apply(f, np.zeros(2))
        assert all(np.array_equal(b, np.zeros(1)) for b in blocks)

    def test_orthonormal_basis_coefficients(self):
        f = orthonormal_rows_frame(2)
        blocks = analysis_apply(f, np.array([1.0, 0.0]))
        assert blocks[0] == pytest.approx(1.0)
        assert blocks[1] == pytest.approx(0.0)

    def test_energy_identity(self, rng):
        f = random_gframe(4, (2, 3), seed=9)
        s = frame_operator(f).matrix
        for _ in range(10):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            energy = sum(float(np.sum(np.abs(b) ** 2)) for b in analysis_apply(f, x))
            quad = float(np.vdot(x, s @ x).real)
            assert abs(energy - quad) <= 1e-10 * (1 + float(np.vdot(x, x).real))

    def test_energy_within_bounds(self, rng):
        f = random_gframe(3, (2, 2), seed=2)
        b = validate_frame(f)
        for _ in range(10):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            norm_sq = float(np.vdot(x, x).real)
            energy = sum(float(np.sum(np.abs(blk) ** 2)) for blk in analysis_apply(f, x))
            assert b.lower * norm_sq - 1e-9 <= energy <= b.upper * norm_sq + 1e-9

    def test_synthesis_round_trip_orthonormal(self):
        f = orthonormal_rows_frame(2)
        e1 = np.array([1.0, 0.0])
        assert np.allclose(synthesis_apply(f, analysis_apply(f, e1)), e1, atol=1e-15)

    def test_synthesis_zero(self):
        f = orthonormal_rows_frame(2)
        out = synthesis_apply(f, [np.zeros(1), np.zeros(1)])
        assert np.array_equal(out, np.zeros(2))

    def test_adjoint_relation(self, rng):
        f = random_gframe(3, (2, 2), seed=4)
        for _ in range(10):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2)]
            lhs = complex(np.vdot(x, synthesis_apply(f, y)))
            rhs = sum(complex(np.vdot(bx, by)) for bx, by in zip(analysis_apply(f, x), y))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    def test_synthesis_of_analysis_is_frame_operator(self, rng):
        f = random_gframe(4, (3, 2), seed=8)
        s = frame_operator(f).matrix
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        direct = synthesis_apply(f, analysis_apply(f, x))
        assert np.linalg.norm(direct - s @ x) <= 1e-10 * (1 + np.linalg.norm(x))

    def test_dimension_mismatch(self):
        f = orthonormal_rows_frame(2)
        with pytest.raises(ValueError):
            analysis_apply(f, np.zeros(3))
        with pytest.raises(ValueError):
            synthesis_apply(f, [np.zeros(1)])


class TestCanonicalParseval:
    def test_parseval_fixed_point(self):
        f = random_parseval_gframe(3, (2, 2), seed=6)
        p = canonical_parseval(f)
        gap = sum(np.linalg.norm(a - b) for a, b in zip(f.operators, p.operators))
        assert gap <= 1e-9

    def test_diagonal_oracle(self):
        f = diagonal_frame([4.0, 1.0])
        p = canonical_parseval(f)
        expected = f.operators[0] @ np.diag([0.5, 1.0])
        assert np.linalg.norm(p.operators[0] - expected) <= 1e-12

    def test_output_is_parseval(self):
        f = random_gframe(5, (3, 3), seed=13)
        p = canonical_parseval(f)
        s = frame_operator(p).matrix
        assert np.linalg.norm(s - np.eye(5)) <= 1e-8 * 5

    def test_output_budget_is_dimension(self):
        f = random_gframe(6, (4, 4), seed=17)
        p = canonical_parseval(f)
        assert abs(total_frobenius_energy(p) - 6) <= 1e-8 * 6

    def test_requires_frame(self):
        f = GFrame([np.array([[1.0, 0.0]])])
        with pytest.raises(NotAFrameError):
            canonical_parseval(f)


class TestParsevalDefect:
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    @pytest.mark.parametrize("epsilon", [0.0, 1e-9, 0.25, 0.9])
    def test_extremal_frame_is_epsilon_root_n(self, n, epsilon):
        # S = (1 - epsilon) I, so S - I = -epsilon I; forming each diagonal entry
        # of S and subtracting 1 rounds by a few units of 1.
        want = epsilon * math.sqrt(n)
        defect = parseval_defects(frame_operator(extremal_frame(n, epsilon)).matrix)
        assert float(defect) == pytest.approx(want, rel=1e-14, abs=4 * np.finfo(float).eps * math.sqrt(n))


class TestCanonicalDual:
    def test_parseval_fixed_point(self):
        f = random_parseval_gframe(3, (2, 2), seed=21)
        d = canonical_dual(f)
        gap = sum(np.linalg.norm(a - b) for a, b in zip(f.operators, d.operators))
        assert gap <= 1e-9

    def test_diagonal_oracle(self):
        f = diagonal_frame([2.0, 1.0])
        d = canonical_dual(f)
        expected = f.operators[0] @ np.diag([0.5, 1.0])
        assert np.linalg.norm(d.operators[0] - expected) <= 1e-12

    def test_dual_equation_holds(self):
        f = random_gframe(4, (2, 2, 1), seed=23)
        d = canonical_dual(f)
        assert dual_residual(f, d) <= 1e-9

    def test_dual_frame_operator_is_inverse(self):
        f = random_gframe(4, (3, 3), seed=29)
        d = canonical_dual(f)
        s = frame_operator(f).matrix
        s_dual = frame_operator(d).matrix
        inv = np.linalg.inv(s)
        assert np.linalg.norm(s_dual - inv) <= 1e-8 * (1 + np.linalg.norm(inv))


class TestReconstruct:
    def test_zero(self):
        f = orthonormal_rows_frame(2)
        assert np.array_equal(reconstruct(f, np.zeros(2)), np.zeros(2))

    def test_orthonormal_exact(self, rng):
        f = orthonormal_rows_frame(3)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.linalg.norm(reconstruct(f, x) - x) <= 1e-12 * np.linalg.norm(x)

    def test_random_frames(self, rng):
        for seed in range(5):
            n = int(rng.integers(2, 7))
            f = random_gframe(n, (n, n), seed=seed)
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.linalg.norm(reconstruct(f, x) - x) <= 1e-8 * np.linalg.norm(x)

    def test_requires_frame(self):
        f = GFrame([np.array([[1.0, 0.0]])])
        with pytest.raises(NotAFrameError):
            reconstruct(f, np.zeros(2))


class TestEnergyDiagnostic:
    def test_interval_containment(self):
        for seed in range(5):
            f = random_gframe(4, (2, 2, 2), seed=seed)
            b = validate_frame(f)
            energy = total_frobenius_energy(f)
            assert b.lower * 4 - 1e-9 <= energy <= b.upper * 4 + 1e-9

    def test_matches_trace(self):
        f = random_gframe(3, (2, 2), seed=31)
        s = frame_operator(f).matrix
        assert abs(total_frobenius_energy(f) - float(np.trace(s).real)) <= 1e-10 * (
            1 + abs(float(np.trace(s).real))
        )


# Entry scales at which the squared entries of S underflow (1e-90) or
# overflow (1e80, 1e150).
EXTREME_SCALES = (1e-90, 1e80, 1e150)


def four_operator_frame():
    """A fixed random frame of four 2 x 4 operators in C^4."""
    rng = np.random.default_rng(41)
    return GFrame([random_complex(rng, 2, 4) for _ in range(4)])


def scaled(f, c):
    return GFrame([c * op for op in f.operators], dim_h=f.dim_h)


def assert_bounds_scale_as_c_squared(c):
    f = four_operator_frame()
    ref = validate_frame(f)
    got = validate_frame(scaled(f, c))
    assert math.isclose(got.lower, c * c * ref.lower, rel_tol=1e-12)
    assert math.isclose(got.upper, c * c * ref.upper, rel_tol=1e-12)


class TestScaleInvariance:
    @pytest.mark.parametrize("c", EXTREME_SCALES)
    def test_bounds_scale_as_c_squared(self, c):
        assert_bounds_scale_as_c_squared(c)

    @pytest.mark.parametrize("c", EXTREME_SCALES)
    def test_canonical_parseval_is_parseval(self, c):
        p = canonical_parseval(scaled(four_operator_frame(), c))
        n = p.dim_h
        assert np.linalg.norm(frame_operator(p).matrix - np.eye(n)) <= 1e-12 * n

    @settings(deadline=None)
    @given(k=st.integers(min_value=-90, max_value=150))
    def test_bounds_scale_property(self, k):
        assert_bounds_scale_as_c_squared(10.0**k)


class TestTransformPostconditions:
    """A transform whose output misses its defining identity raises instead of returning it."""

    @pytest.fixture
    def perturbed_powers(self, monkeypatch):
        exact = model.matrix_power_eig
        monkeypatch.setattr(model, "matrix_power_eig", lambda eig, a: 1.01 * exact(eig, a))

    def test_canonical_parseval_rejects_perturbed_power(self, perturbed_powers):
        with pytest.raises(PostconditionError, match="is not Parseval"):
            canonical_parseval(random_gframe(4, (2, 3), seed=7))

    def test_canonical_dual_rejects_perturbed_power(self, perturbed_powers):
        with pytest.raises(PostconditionError, match="fails the dual equation"):
            canonical_dual(random_gframe(4, (2, 3), seed=7))

    @pytest.mark.parametrize(
        "consumer, message",
        [
            (lambda f, p, d: parseval_gap(f), "is not Parseval"),
            (lambda f, p, d: parseval_approx_decomposition(f, p), "is not Parseval"),
            (lambda f, p, d: frobenius_dual_decomposition(f, d), "fails the dual equation"),
            (lambda f, p, d: random_alternate_dual(f, magnitude=1.0, seed=3), "fails the dual equation"),
        ],
        ids=["parseval_gap", "parseval_approx_decomposition", "frobenius_dual_decomposition",
             "random_alternate_dual"],
    )
    def test_consumers_read_the_checked_family(self, consumer, message, perturbed_powers):
        f = random_gframe(4, (2, 3), seed=7)
        # A Parseval family and an alternate dual built with numpy alone, not from powers of S.
        t = f.stacked
        parseval = GFrame.from_stacked(np.linalg.qr(t)[0], f.counts)
        dual = GFrame.from_stacked(t @ np.linalg.inv(t.conj().T @ t), f.counts)
        with pytest.raises(PostconditionError, match=message):
            consumer(f, parseval, dual)

    def test_parseval_check_needs_no_eigendecomposition(self, monkeypatch):
        p = canonical_parseval(random_gframe(4, (2, 3), seed=7))

        def refuse(*_, **__):
            raise AssertionError("a Parseval check must not decompose S")

        monkeypatch.setattr(model, "hermitian_eig", refuse)
        assert abs(parseval_frobenius_budget(p) - 4.0) <= 1e-8 * 4


class TestSingleFrameGate:
    """The rank gate lives on FrameOperator.require_frame; every frame path reads it there."""

    def test_power_raises_the_frame_error(self):
        f = GFrame([np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]])])
        with pytest.raises(NotAFrameError) as expected:
            validate_frame(f)
        with pytest.raises(NotAFrameError) as got:
            frame_operator(f).power(-1.0)
        assert str(got.value) == str(expected.value)
        assert got.value.lambda_min == expected.value.lambda_min

    def test_bounds_built_once(self):
        f = random_gframe(3, (2, 2), seed=1)
        assert validate_frame(f) is validate_frame(f)

    def test_overflowing_trace_raises(self):
        # S = 1e308 I is finite, but trace(S) = ||T||_F^2 = 4e308 is not.
        with pytest.raises(FrameOverflowError, match=r"trace\(S\) = \|\|T\|\|_F\^2 overflows"):
            frame_operator(GFrame([1e154 * np.eye(4)]))


class TestPowerOverflow:
    def test_overflowing_power_raises_and_is_not_memoized(self):
        # S = 1e120 I is finite; S^3 = 1e360 I is not.
        fo = frame_operator(GFrame([1e60 * np.eye(2)]))
        for _ in range(2):
            with pytest.raises(FrameOverflowError, match=r"S\^3\.0 overflows"):
                fo.power(3.0)
        assert np.allclose(fo.power(-1.0), 1e-120 * np.eye(2), rtol=1e-15, atol=0.0)


class TestCanonicalMemo:
    """Each canonical family that passes its check is built once per frame; its consumers read that one."""

    def test_built_once_per_frame(self):
        f = random_gframe(4, (2, 3), seed=7)
        assert canonical_parseval(f) is canonical_parseval(f)
        assert canonical_dual(f) is canonical_dual(f)

    def test_consumers_leave_the_memo_unchanged(self):
        f = random_gframe(4, (2, 3), seed=7)
        p, d = canonical_parseval(f), canonical_dual(f)
        p_entries, d_entries = p.stacked.copy(), d.stacked.copy()
        parseval_gap(f)
        parseval_approx_decomposition(f, random_parseval_gframe(4, (2, 3), seed=8))
        frobenius_dual_decomposition(f, random_alternate_dual(f, magnitude=1.0, seed=9))
        assert canonical_parseval(f) is p
        assert canonical_dual(f) is d
        assert np.array_equal(p.stacked, p_entries)
        assert np.array_equal(d.stacked, d_entries)

    def test_failed_postconditions_are_raised_anew(self, monkeypatch):
        f = random_gframe(4, (2, 3), seed=7)
        exact = model.matrix_power_eig
        monkeypatch.setattr(model, "matrix_power_eig", lambda eig, a: 1.01 * exact(eig, a))
        built = []
        for name in ("parseval_stack", "dual_residuals"):
            real = getattr(model, name)
            monkeypatch.setattr(model, name, lambda *args, real=real, name=name: built.append(name) or real(*args))
        for family in (canonical_parseval, canonical_dual):
            with pytest.raises(PostconditionError) as first:
                family(f)
            with pytest.raises(PostconditionError) as again:
                family(f)
            assert str(again.value) == str(first.value)
        # Only a family that passes is memoized: each call builds and checks a failing one again.
        assert built == ["parseval_stack", "parseval_stack", "dual_residuals", "dual_residuals"]


class TestParsevalStack:
    """parseval_stack checks each family of a stack and names the builder's family in its error."""

    def test_parseval_stack_checks_each_transform(self):
        p = np.stack([canonical_parseval(random_gframe(4, (2, 3), seed=s)).stacked for s in range(3)])
        p[1] *= 2.0  # S' = 4 I, so ||S' - I||_F = 6
        with pytest.raises(PostconditionError, match=r"^random Parseval companion is not Parseval: "
                                                     r"\|\|S' - I\|\|_F = 6\.000e\+00 exceeds 1e-06 \* n$"):
            parseval_stack(p, "random Parseval companion")


class TestLibraryFormedS:
    """S from frame_matrices is Hermitian by construction, so FrameOperator decomposes it unchecked.

    The reference is plain numpy.linalg.eigh of S, sorted non-increasing. The
    band is 8 n (u max|lambda| + eta): u the unit roundoff, eta the smallest
    subnormal, the absolute rounding of gradual underflow, without which the
    band underflows to 0 when every entry of S is subnormal.
    """

    @settings(deadline=None, max_examples=80)
    @given(
        n=st.integers(min_value=1, max_value=6),
        counts=st.one_of(
            st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5),  # blocked
            st.integers(min_value=1, max_value=12).map(lambda k: [1] * k),  # rank-one
        ),
        frames=st.integers(min_value=1, max_value=3),
        j=st.integers(min_value=-545, max_value=515),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n=4, counts=[2, 3], frames=2, j=-530, seed=1)  # every entry of S subnormal
    @example(n=4, counts=[1] * 6, frames=1, j=-520, seed=2)
    @example(n=3, counts=[3, 3], frames=3, j=509, seed=3)  # S near the double maximum
    def test_decomposition_matches_plain_eigh_and_rebuilds_s(self, n, counts, frames, j, seed):
        rng = np.random.default_rng(seed)
        shape = (frames, sum(counts), n)
        t = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 2.0**j
        try:
            matrices = [frame_matrices(slice_) for slice_ in t]  # each frame's S alone
        except FrameOverflowError:
            assume(False)  # S is not finite: no FrameOperator is built
        u, eta = np.finfo(float).eps / 2, np.finfo(float).smallest_subnormal
        for matrix in matrices:
            eig = FrameOperator(matrix).eig
            reference = np.linalg.eigh(matrix)[0][::-1]
            band = 8 * n * (u * np.abs(reference).max() + eta)
            assert np.abs(eig.eigenvalues - reference).max() <= band
            rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
            assert np.abs(rebuilt - matrix).max() <= band


def test_dual_residual_overflow_is_inf():
    # sum adjoint(lam_i) gam_i = 1e400 I is beyond the double range.
    lam = GFrame([1e200 * np.eye(2)])
    assert dual_residual(lam, lam) == math.inf
