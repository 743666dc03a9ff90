"""Identity operations: energy budgets, power-trace equality, distance decompositions."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gframes import duals, identities, model
from gframes.errors import (
    FrameOverflowError,
    NotADualError,
    NotAFrameError,
    NotParsevalError,
    PostconditionError,
)
from gframes.linalg import frobenius_norm_sq
from gframes.identities import (
    canonical_dual_gap,
    frobenius_dual_decomposition,
    parseval_approx_decomposition,
    parseval_frobenius_budget,
    parseval_gap,
    parseval_weighted_energy,
    pointwise_dual_decomposition,
    power_trace_identity,
    require_parseval,
)
from gframes.duals import dual_proximity_bound, parseval_proximity_bound, random_alternate_dual
from gframes.generators import (
    embed_vector_frame,
    nearly_parseval_gframe,
    random_gframe,
    random_parseval_gframe,
)
from gframes.io import load_frame
from gframes.model import GFrame, canonical_dual, canonical_parseval, frame_operator

from conftest import random_complex


def orthonormal_rows_frame(n):
    eye = np.eye(n)
    return GFrame([eye[k : k + 1, :] for k in range(n)])


def diagonal_frame(values):
    return GFrame([np.diag(np.sqrt(np.asarray(values, dtype=float)))])


class TestWeightedEnergy:
    def test_identity_weight_reduces_to_budget(self):
        g = random_parseval_gframe(3, (2, 2), seed=1)
        assert parseval_weighted_energy(np.eye(3), g) == pytest.approx(3.0, abs=1e-8)

    def test_zero_weight(self):
        g = random_parseval_gframe(3, (2, 2), seed=2)
        assert parseval_weighted_energy(np.zeros((3, 3)), g) == 0.0

    def test_invariant_across_independent_families(self, rng):
        weight = random_complex(rng, 4, 3)
        g1 = random_parseval_gframe(3, (2, 2), seed=3)
        g2 = random_parseval_gframe(3, (1, 1, 1, 1), seed=4)
        v1 = parseval_weighted_energy(weight, g1)
        v2 = parseval_weighted_energy(weight, g2)
        scale = 1 + frobenius_norm_sq(weight)
        assert abs(v1 - v2) <= 1e-8 * scale

    def test_equals_weight_energy(self, rng):
        weight = random_complex(rng, 2, 5)
        g = random_parseval_gframe(5, (3, 3), seed=5)
        value = parseval_weighted_energy(weight, g)
        assert abs(value - frobenius_norm_sq(weight)) <= 1e-8 * (1 + frobenius_norm_sq(weight))

    def test_spread_over_many_families(self, rng):
        weight = random_complex(rng, 3, 3)
        values = [
            parseval_weighted_energy(weight, random_parseval_gframe(3, (2, 2), seed=s))
            for s in range(50)
        ]
        assert max(values) - min(values) <= 1e-7 * (1 + frobenius_norm_sq(weight))

    def test_rejects_non_parseval(self, rng):
        g = random_gframe(3, (2, 2), seed=6)
        with pytest.raises(NotParsevalError):
            parseval_weighted_energy(np.eye(3), g)

    def test_rejects_wrong_columns(self):
        g = random_parseval_gframe(3, (2, 2), seed=7)
        with pytest.raises(ValueError):
            parseval_weighted_energy(np.eye(2), g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weight(self, bad):
        # A caller's bad weight is refused before any product: no numpy warning, no PostconditionError.
        g = random_parseval_gframe(3, (2, 2), seed=7)
        with pytest.raises(ValueError, match=r"^weight contains non-finite entries$"):
            parseval_weighted_energy(np.full((3, 3), bad), g)


class TestFrobeniusBudget:
    def test_orthonormal_basis(self):
        assert parseval_frobenius_budget(orthonormal_rows_frame(3)) == pytest.approx(3.0, abs=1e-12)

    def test_canonical_parseval_of_random(self):
        g = canonical_parseval(random_gframe(5, (3, 3), seed=8))
        assert abs(parseval_frobenius_budget(g) - 5.0) <= 1e-8 * 5

    def test_scaled_union_of_parseval(self):
        g1 = random_parseval_gframe(4, (2, 2), seed=9)
        g2 = random_parseval_gframe(4, (2, 2), seed=10)
        scale = 1.0 / np.sqrt(2.0)
        union = GFrame([scale * op for op in list(g1.operators) + list(g2.operators)])
        assert abs(parseval_frobenius_budget(union) - 4.0) <= 1e-8 * 4

    def test_rejects_non_parseval(self):
        with pytest.raises(NotParsevalError):
            parseval_frobenius_budget(diagonal_frame([2.0, 1.0]))


class TestPowerTrace:
    def test_power_zero(self):
        g = random_gframe(3, (2, 2), seed=11)
        lhs, rhs = power_trace_identity(g, 0.0)
        energy = sum(frobenius_norm_sq(op) for op in g.operators)
        trace_s = float(np.trace(frame_operator(g).matrix).real)
        assert lhs == pytest.approx(energy, rel=1e-12)
        assert rhs == pytest.approx(trace_s, rel=1e-10)

    def test_power_minus_half_gives_dimension(self):
        g = random_gframe(4, (3, 3), seed=12)
        lhs, rhs = power_trace_identity(g, -0.5)
        assert lhs == pytest.approx(4.0, abs=1e-8)
        assert rhs == pytest.approx(4.0, abs=1e-8)

    @pytest.mark.parametrize("a", [-1.0, 0.5, 1.0])
    def test_two_paths_agree(self, a):
        g = random_gframe(4, (2, 2, 2), seed=13)
        lhs, rhs = power_trace_identity(g, a)
        assert abs(lhs - rhs) <= 1e-8 * (1 + abs(rhs))

    def test_rejects_non_frame(self):
        f = GFrame([np.array([[1.0, 0.0]])])
        with pytest.raises(NotAFrameError):
            power_trace_identity(f, 1.0)


class TestParsevalApproxDecomposition:
    def test_canonical_companion_kills_cross_term(self):
        lam = random_gframe(4, (2, 2, 2), seed=14)
        total, gap, cross = parseval_approx_decomposition(lam, canonical_parseval(lam))
        assert cross <= 1e-8
        assert abs(total - gap) <= 1e-8 * (1 + total)

    def test_parseval_self_comparison_is_zero(self):
        lam = orthonormal_rows_frame(3)
        total, gap, cross = parseval_approx_decomposition(lam, lam)
        assert total == 0.0
        assert gap == 0.0
        assert cross == 0.0

    def test_identity_random_pairs(self):
        for seed in range(10):
            lam = random_gframe(3, (2, 2), seed=seed)
            gam = random_parseval_gframe(3, (2, 2), seed=seed + 100)
            total, gap, cross = parseval_approx_decomposition(lam, gam)
            assert total >= 0.0 and gap >= 0.0 and cross >= 0.0
            assert abs(total - gap - cross) <= 1e-7 * (1 + total)

    def test_rejects_shape_mismatch(self):
        lam = random_gframe(3, (2, 2), seed=15)
        gam = random_parseval_gframe(3, (1, 1, 1, 1), seed=16)
        with pytest.raises(ValueError):
            parseval_approx_decomposition(lam, gam)

    def test_rejects_non_parseval_companion(self):
        lam = random_gframe(3, (2, 2), seed=17)
        with pytest.raises(NotParsevalError):
            parseval_approx_decomposition(lam, lam)


class TestParsevalGap:
    def test_parseval_input_is_zero(self):
        assert parseval_gap(orthonormal_rows_frame(3)) == 0.0

    def test_diagonal_hand_value(self):
        # spectrum {4, 1}: (sqrt(4)-1)^2 + (sqrt(1)-1)^2 = 1
        assert parseval_gap(diagonal_frame([4.0, 1.0])) == pytest.approx(1.0, abs=1e-10)

    def test_two_paths_agree(self):
        for seed in range(5):
            lam = random_gframe(4, (2, 2, 2), seed=seed)
            value = parseval_gap(lam)
            lam_k = frame_operator(lam).eig.eigenvalues
            spectral = float(np.sum((np.sqrt(lam_k) - 1.0) ** 2))
            assert abs(value - spectral) <= 1e-8

    def test_minimality_over_random_competitors(self):
        lam = random_gframe(3, (2, 2), seed=18)
        gap = parseval_gap(lam)
        for seed in range(100):
            gam = random_parseval_gframe(3, (2, 2), seed=seed)
            total, _, _ = parseval_approx_decomposition(lam, gam)
            assert total >= gap - 1e-9


class TestPointwiseDualDecomposition:
    def test_canonical_dual_residual_vanishes(self, rng):
        lam = random_gframe(3, (2, 2), seed=19)
        dual = canonical_dual(lam)
        for _ in range(10):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            total, canonical, residual = pointwise_dual_decomposition(lam, dual, x)
            assert residual <= 1e-10
            assert abs(total - canonical) <= 1e-8 * (1 + total)

    def test_zero_vector(self):
        lam = random_gframe(3, (2, 2), seed=20)
        total, canonical, residual = pointwise_dual_decomposition(
            lam, canonical_dual(lam), np.zeros(3)
        )
        assert (total, canonical, residual) == (0.0, 0.0, 0.0)

    def test_identity_with_perturbed_dual(self, rng):
        lam = random_gframe(4, (2, 2, 2), seed=21)
        dual = random_alternate_dual(lam, magnitude=0.5, seed=22)
        for _ in range(10):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            total, canonical, residual = pointwise_dual_decomposition(lam, dual, x)
            assert abs(total - canonical - residual) <= 1e-8 * (1 + total)
            assert total >= canonical - 1e-9  # canonical dual is pointwise closest

    def test_rejects_non_dual(self):
        lam = random_gframe(3, (2, 2), seed=23)
        with pytest.raises(NotADualError):
            pointwise_dual_decomposition(lam, lam, np.zeros(3))


class TestFrobeniusDualDecomposition:
    def test_canonical_dual(self):
        lam = random_gframe(3, (2, 2), seed=24)
        total, canonical, residual = frobenius_dual_decomposition(lam, canonical_dual(lam))
        assert residual <= 1e-9
        assert abs(total - canonical) <= 1e-9 * (1 + total)

    def test_parseval_self_dual_is_zero(self):
        lam = orthonormal_rows_frame(2)
        total, canonical, residual = frobenius_dual_decomposition(lam, lam)
        assert (total, canonical, residual) == (0.0, 0.0, 0.0)

    def test_diagonal_hand_value(self):
        # spectrum {2, 1}: canonical term (2-1)^2/2 + 0 = 0.5
        lam = diagonal_frame([2.0, 1.0])
        dual = random_alternate_dual(lam, magnitude=0.25, seed=25)
        total, canonical, residual = frobenius_dual_decomposition(lam, dual)
        assert canonical == pytest.approx(0.5, abs=1e-10)
        assert abs(total - canonical - residual) <= 1e-7 * (1 + total)

    def test_closed_form_agreement(self):
        for seed in range(5):
            lam = random_gframe(4, (3, 2), seed=seed)
            _, canonical, _ = frobenius_dual_decomposition(lam, canonical_dual(lam))
            assert abs(canonical - canonical_dual_gap(lam)) <= 1e-8

    def test_rejects_shape_mismatch(self):
        lam = random_gframe(3, (2, 2), seed=26)
        gam = random_gframe(3, (2, 1, 1), seed=27)
        with pytest.raises(ValueError):
            frobenius_dual_decomposition(lam, gam)


class TestStackedDualDecompositions:
    """A (B, K, n) stack of duals and an n x m block of probes give each per-dual call's terms, bit for bit."""

    @staticmethod
    def duals_of(lam, seeds):
        return [canonical_dual(lam)] + [random_alternate_dual(lam, magnitude=0.5 + s, seed=s) for s in seeds]

    @pytest.mark.parametrize("n, counts", [(1, (1,)), (3, (2, 2)), (4, (1,) * 9), (6, (3, 4, 2))])
    def test_frobenius_stack_equals_each_call(self, n, counts):
        lam = random_gframe(n, counts, seed=n)
        frames = self.duals_of(lam, [1, 2, 3])
        total, canonical, residual = frobenius_dual_decomposition(lam, np.stack([d.stacked for d in frames]))
        for b, dual in enumerate(frames):
            assert (float(total[b]), canonical, float(residual[b])) == frobenius_dual_decomposition(lam, dual)

    @pytest.mark.parametrize("n, counts", [(1, (1,)), (3, (2, 2)), (4, (1,) * 9), (6, (3, 4, 2))])
    def test_pointwise_stack_and_block_equal_each_call(self, n, counts, rng):
        lam = random_gframe(n, counts, seed=n)
        frames = self.duals_of(lam, [4, 5, 6])
        stack = np.stack([d.stacked for d in frames])
        x = random_complex(rng, n, len(frames))
        paired = pointwise_dual_decomposition(lam, stack, x)
        one_dual = pointwise_dual_decomposition(lam, frames[1], x)
        one_vector = pointwise_dual_decomposition(lam, stack, x[:, 2])
        for b, dual in enumerate(frames):
            assert tuple(float(term[b]) for term in paired) == pointwise_dual_decomposition(lam, dual, x[:, b])
            assert tuple(float(term[b]) for term in one_dual) == pointwise_dual_decomposition(
                lam, frames[1], x[:, b])
            assert tuple(float(term[b]) for term in one_vector) == pointwise_dual_decomposition(
                lam, dual, x[:, 2])

    def test_non_dual_slice_raises_its_own_error(self):
        lam = random_gframe(3, (2, 2), seed=28)
        frames = self.duals_of(lam, [7]) + [lam]
        stack = np.stack([d.stacked for d in frames])
        with pytest.raises(NotADualError) as alone:
            frobenius_dual_decomposition(lam, lam)
        for call in (lambda: frobenius_dual_decomposition(lam, stack),
                     lambda: pointwise_dual_decomposition(lam, stack, np.ones((3, 3)))):
            with pytest.raises(NotADualError) as stacked:
                call()
            assert str(stacked.value) == str(alone.value)

    def test_rejects_stack_of_other_shape(self):
        lam = random_gframe(3, (2, 2), seed=29)
        with pytest.raises(ValueError, match="must have shape"):
            frobenius_dual_decomposition(lam, canonical_dual(lam).stacked)
        with pytest.raises(ValueError, match="must have 3 rows"):
            pointwise_dual_decomposition(lam, canonical_dual(lam), np.ones((2, 4)))


GOLDEN_FRAMES = sorted((Path(__file__).parent / "data" / "golden").glob("*.frame.json"))


def float_bits(*values):
    return tuple(float(v).hex() for v in values)


class TestStackedParsevalIdentities:
    """A (B, K, n) stack of Parseval families gives each one-family call's terms, bit for bit."""

    @staticmethod
    def assert_stack_equals_each_call(lam, families, weight):
        stack = np.stack([g.stacked for g in families])
        energies = parseval_weighted_energy(weight, stack)
        total, gap, cross = parseval_approx_decomposition(lam, stack)
        assert energies.shape == total.shape == cross.shape == (len(families),)
        for b, g in enumerate(families):
            assert float_bits(energies[b]) == float_bits(parseval_weighted_energy(weight, g))
            assert float_bits(total[b], gap, cross[b]) == float_bits(*parseval_approx_decomposition(lam, g))

    @pytest.mark.parametrize("path", GOLDEN_FRAMES, ids=lambda p: p.name.split(".")[0])
    def test_golden_frames(self, path, rng):
        lam = load_frame(path)
        families = [canonical_parseval(lam)] + [
            random_parseval_gframe(lam.dim_h, lam.counts, seed=s) for s in (1, 2, 3)]
        self.assert_stack_equals_each_call(lam, families, random_complex(rng, 3, lam.dim_h))

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(min_value=1, max_value=6),
        extra=st.lists(st.integers(min_value=1, max_value=3), max_size=6),
        size=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32),
        weight_rows=st.integers(min_value=1, max_value=3),
    )
    def test_stack_equals_each_call(self, n, extra, size, seed, weight_rows):
        counts = (n, *extra)
        lam = random_gframe(n, counts, seed=seed)
        families = [random_parseval_gframe(n, counts, seed=seed + 1 + b) for b in range(size)]
        weight = random_complex(np.random.default_rng(seed), weight_rows, n)
        self.assert_stack_equals_each_call(lam, families, weight)

    def test_non_parseval_slice_raises_its_own_error(self):
        lam = random_gframe(3, (2, 2), seed=30)
        stack = np.stack([random_parseval_gframe(3, (2, 2), seed=31).stacked, lam.stacked])
        with pytest.raises(NotParsevalError) as alone:
            parseval_approx_decomposition(lam, lam)
        with pytest.raises(NotParsevalError) as stacked:
            parseval_approx_decomposition(lam, stack)
        assert str(stacked.value) == str(alone.value)
        with pytest.raises(NotParsevalError, match=r"^frame is not Parseval"):
            parseval_weighted_energy(np.eye(3), stack)

    def test_rejects_stack_of_other_shape(self):
        lam = random_gframe(3, (2, 2), seed=32)
        companion = random_parseval_gframe(3, (1, 1, 1), seed=33)
        with pytest.raises(ValueError, match="must have shape"):
            parseval_approx_decomposition(lam, companion.stacked[np.newaxis])
        with pytest.raises(ValueError, match="must have shape"):
            parseval_weighted_energy(np.eye(3), companion.stacked)
        with pytest.raises(ValueError, match="weight must have 3 columns"):
            parseval_weighted_energy(np.eye(2), companion.stacked[np.newaxis])


class TestVectorFrameEmbedding:
    def test_classical_sum_matches_embedding(self, rng):
        vectors = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(5)]
        f = embed_vector_frame(vectors)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        classical = sum(abs(np.vdot(v, x)) ** 2 for v in vectors)
        embedded = sum(
            float(np.sum(np.abs(op @ x) ** 2)) for op in f.operators
        )
        assert abs(classical - embedded) <= 1e-12 * (1 + classical)

    def test_frame_operator_is_outer_product_sum(self, rng):
        vectors = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(4)]
        f = embed_vector_frame(vectors)
        expected = sum(np.outer(v, v.conj()) for v in vectors)
        s = frame_operator(f).matrix
        assert np.abs(s - expected).max() <= 1e-12 * (1 + np.abs(expected).max())


class TestCanonicalDualGapAtLargeScale:
    """The spectral form sum (lambda - 1)^2 / lambda must not overflow while lambda is finite."""

    @pytest.mark.parametrize("c", (1e78, 1e150))
    def test_matches_eigvalsh_oracle(self, c):
        g = nearly_parseval_gframe(4, (2, 2, 2), 0.3, seed=5)
        f = GFrame.from_stacked(c * g.stacked, g.counts)
        mu = np.linalg.eigvalsh(frame_operator(f).matrix)
        oracle = float(np.sum(mu - 2.0 + 1.0 / mu))
        assert canonical_dual_gap(f) == pytest.approx(oracle, rel=1e-12)


class TestCanonicalDualGapAtSmallScale:
    """A gap beyond the double range, as a subnormal lambda_min(S) gives, is FrameOverflowError, not inf."""

    @pytest.mark.parametrize("name", ["extremal", "nearly-parseval", "wide-vectors"])
    def test_subnormal_spectrum_raises(self, name):
        g = load_frame(Path(__file__).parent / "data" / "golden" / f"{name}.frame.json")
        f = GFrame.from_stacked(1e-155 * g.stacked, g.counts)
        assert frame_operator(f).eig.eigenvalues[-1] < np.finfo(np.float64).tiny
        with pytest.raises(FrameOverflowError, match="canonical dual gap overflows"):
            canonical_dual_gap(f)


class TestPowerTraceOverflow:
    """Terms beyond the double range raise FrameOverflowError instead of leaking inf or warnings."""

    def test_overflowing_trace_names_the_exponent(self):
        # At entry scale 1e77, S^2 is finite but its trace is not.
        g = nearly_parseval_gframe(8, (3, 3, 3, 3), 0.3, seed=5)
        f = GFrame.from_stacked(1e77 * g.stacked, g.counts)
        with pytest.raises(FrameOverflowError, match=r"a = 0\.5"):
            power_trace_identity(f, 0.5)

    def test_finite_exponents_still_agree(self):
        g = nearly_parseval_gframe(8, (3, 3, 3, 3), 0.3, seed=5)
        f = GFrame.from_stacked(1e77 * g.stacked, g.counts)
        lhs, rhs = power_trace_identity(f, -0.5)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def _np_frame():
    return nearly_parseval_gframe(4, (2, 2, 2), 0.3, seed=1)


class TestToleranceOwners:
    """Each postcondition reads its band from the one function the report rows call."""

    @pytest.mark.parametrize("module, owner, call", [
        (identities, "weighted_energy_tolerance",
         lambda f: parseval_weighted_energy(np.eye(4), canonical_parseval(f))),
        (identities, "parseval_budget_tolerance",
         lambda f: parseval_frobenius_budget(canonical_parseval(f))),
        (identities, "power_trace_tolerance", lambda f: power_trace_identity(f, 0.5)),
        (identities, "parseval_approx_tolerance",
         lambda f: parseval_approx_decomposition(f, canonical_parseval(f))),
        (identities, "parseval_gap_tolerance", parseval_gap),
        (identities, "pointwise_dual_tolerance",
         lambda f: pointwise_dual_decomposition(f, canonical_dual(f), np.ones(4))),
        (identities, "frobenius_dual_tolerance",
         lambda f: frobenius_dual_decomposition(f, canonical_dual(f))),
        (identities, "dual_closed_form_tolerance",
         lambda f: frobenius_dual_decomposition(f, canonical_dual(f))),
        (duals, "proximity_slack", parseval_proximity_bound),
        (duals, "proximity_slack", dual_proximity_bound),
    ])
    def test_postcondition_reads_its_owner(self, monkeypatch, module, owner, call):
        call(_np_frame())  # holds with the owner in place
        monkeypatch.setattr(module, owner, lambda *_: -1.0)
        with pytest.raises(PostconditionError):
            call(_np_frame())

    def test_one_parseval_rule(self, monkeypatch):
        companion = canonical_parseval(_np_frame())
        monkeypatch.setattr(model, "PARSEVAL_TOLERANCE", -1.0)
        with pytest.raises(NotParsevalError):
            require_parseval(companion)
        with pytest.raises(PostconditionError):
            canonical_parseval(_np_frame())
        monkeypatch.setattr(model, "PARSEVAL_TOLERANCE", 1.0)
        require_parseval(_np_frame())  # ||S - I||_F <= 0.3 * sqrt(n), within 1.0 * n
