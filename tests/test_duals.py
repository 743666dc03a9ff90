"""Alternate duals, proximity bounds, and the bound-attaining extremal frames."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gframes import duals
from gframes.errors import (
    EpsilonOutOfRangeError,
    FrameOverflowError,
    NotADualError,
    NotAFrameError,
    PostconditionError,
)
from gframes.duals import (
    certified_duals,
    dual_proximity_bound,
    extremal_frame,
    parseval_proximity_bound,
    random_alternate_dual,
    verify_alternate_dual,
)
from gframes.identities import canonical_dual_gap, parseval_gap, pointwise_dual_decomposition
from gframes.model import DualCertificate, GFrame, canonical_dual, canonical_parseval, frame_operator, validate_frame
from gframes.generators import in_batches, nearly_parseval_gframe, random_gframe, random_parseval_gframe
from gframes.rng import complex_gaussian_matrix, stream


def diagonal_frame(values):
    return GFrame([np.diag(np.sqrt(np.asarray(values, dtype=float)))])


class TestVerifyAlternateDual:
    def test_canonical_dual_passes(self):
        lam = random_gframe(4, (2, 2, 2), seed=1)
        cert = verify_alternate_dual(lam, canonical_dual(lam))
        assert cert.passed
        assert cert.residual <= cert.tolerance == pytest.approx(1e-8 * 4)

    def test_parseval_self_dual_passes(self):
        lam = random_parseval_gframe(3, (2, 2), seed=2)
        assert verify_alternate_dual(lam, lam).passed

    def test_canonical_parseval_of_wide_frame_fails(self):
        lam = random_gframe(3, (2, 2), seed=3)
        cert = verify_alternate_dual(lam, canonical_parseval(lam))
        assert not cert.passed
        # the mismatch is exactly the distance of S^(1/2) from the identity
        s_root = frame_operator(lam).power(0.5)
        expected = np.linalg.norm(s_root - np.eye(3))
        assert cert.residual == pytest.approx(expected, abs=1e-8)

    def test_shape_mismatch(self):
        lam = random_gframe(3, (2, 2), seed=4)
        gam = random_gframe(3, (1, 1, 1, 1), seed=5)
        with pytest.raises(ValueError):
            verify_alternate_dual(lam, gam)


class TestRandomAlternateDual:
    def test_zero_magnitude_is_canonical(self):
        lam = random_gframe(4, (2, 3), seed=6)
        dual = random_alternate_dual(lam, magnitude=0.0, seed=7)
        canonical = canonical_dual(lam)
        for a, b in zip(dual.operators, canonical.operators):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("magnitude", [0.1, 1.0, 10.0, 100.0])
    def test_dual_equation_survives_any_magnitude(self, magnitude):
        lam = random_gframe(4, (2, 2, 2), seed=8)
        dual = random_alternate_dual(lam, magnitude=magnitude, seed=9)
        cert = verify_alternate_dual(lam, dual)
        assert cert.passed, f"residual {cert.residual} at magnitude {magnitude}"

    def test_large_dimension_and_magnitude(self):
        lam = random_gframe(16, (8, 8, 8), seed=10)
        dual = random_alternate_dual(lam, magnitude=100.0, seed=11)
        assert verify_alternate_dual(lam, dual).passed

    def test_deterministic(self):
        lam = random_gframe(3, (2, 2), seed=12)
        d1 = random_alternate_dual(lam, magnitude=2.0, seed=13)
        d2 = random_alternate_dual(lam, magnitude=2.0, seed=13)
        for a, b in zip(d1.operators, d2.operators):
            assert np.array_equal(a, b)

    def test_perturbation_magnitude_is_respected(self):
        lam = random_parseval_gframe(3, (2, 2), seed=14)
        dual = random_alternate_dual(lam, magnitude=0.5, seed=15)
        canonical = canonical_dual(lam)
        distance = sum(
            np.linalg.norm(a - b) for a, b in zip(dual.operators, canonical.operators)
        )
        assert distance > 0.01  # genuinely perturbed

    def test_rejects_negative_magnitude(self):
        lam = random_gframe(3, (2, 2), seed=16)
        with pytest.raises(ValueError):
            random_alternate_dual(lam, magnitude=-1.0, seed=17)

    def test_rejects_non_frame(self):
        f = GFrame([np.array([[1.0, 0.0]])])
        with pytest.raises(NotAFrameError):
            random_alternate_dual(f, magnitude=1.0, seed=18)

    @pytest.mark.parametrize("magnitude", [float("inf"), float("nan")])
    def test_rejects_non_finite_magnitude(self, magnitude):
        lam = random_gframe(3, (2, 2), seed=16)
        with pytest.raises(ValueError, match=f"magnitude must be finite, got {magnitude}"):
            random_alternate_dual(lam, magnitude=magnitude, seed=17)

    def test_overflowing_perturbation_is_named(self):
        # Each perturbation block has norm 1e308, which is finite; its products with T are not.
        lam = random_gframe(4, (1,) * 8, seed=3)
        with pytest.raises(FrameOverflowError, match="magnitude 1e\\+308"):
            random_alternate_dual(lam, magnitude=1e308, seed=0)

    def test_output_that_misses_the_dual_equation_raises(self):
        # T is square, so the projection cancels the 1e308 blocks down to round-off near
        # 1e291: finite entries, far from a dual.
        with pytest.raises(NotADualError, match="not an alternate dual") as raised:
            random_alternate_dual(extremal_frame(4, 0.25), magnitude=1e308, seed=0)
        # The squares of the gap's entries overflow; its norm does not.
        assert np.isfinite(raised.value.residual) and raised.value.residual > 1e290


class TestParsevalProximityBound:
    def test_parseval_frame_is_at_zero(self):
        g = random_parseval_gframe(3, (2, 2), seed=19)
        gap, bound = parseval_proximity_bound(g)
        assert gap <= 1e-9
        assert bound <= 1e-9

    def test_extremal_attains_desk_value(self):
        gap, bound = parseval_proximity_bound(extremal_frame(2, 0.19))
        assert bound == pytest.approx(0.02, abs=1e-9)
        assert gap == pytest.approx(bound, abs=1e-9)

    def test_nearly_parseval_respects_bound(self):
        g = nearly_parseval_gframe(4, (2, 2, 2), 0.3, seed=20)
        gap, bound = parseval_proximity_bound(g)
        assert bound == pytest.approx(4 * (1 - np.sqrt(0.7)) ** 2, rel=1e-12)
        assert gap <= bound + 1e-9 * 4

    def test_bound_sweep(self):
        for eps in (0.05, 0.2, 0.45, 0.7, 0.9):
            for seed in range(3):
                g = nearly_parseval_gframe(5, (3, 3), eps, seed=seed)
                gap, bound = parseval_proximity_bound(g)
                assert gap <= bound + 1e-9 * 5

    def test_rejects_wide_rating(self):
        g = diagonal_frame([4.0, 1.0])  # epsilon = 3
        with pytest.raises(EpsilonOutOfRangeError):
            parseval_proximity_bound(g)

    def test_matches_gap_function(self):
        g = nearly_parseval_gframe(3, (2, 2), 0.4, seed=21)
        gap, _ = parseval_proximity_bound(g)
        assert gap == pytest.approx(parseval_gap(g), rel=1e-12)


class TestDualProximityBound:
    def test_parseval_frame_is_at_zero(self):
        g = random_parseval_gframe(3, (2, 2), seed=22)
        gap, bound = dual_proximity_bound(g)
        assert gap <= 1e-9
        assert bound <= 1e-9

    def test_extremal_attains_desk_value(self):
        gap, bound = dual_proximity_bound(extremal_frame(2, 0.5))
        assert bound == pytest.approx(1.0, abs=1e-9)
        assert gap == pytest.approx(bound, abs=1e-9)

    def test_nearly_parseval_respects_bound(self):
        g = nearly_parseval_gframe(8, (4, 4, 4), 0.4, seed=23)
        gap, bound = dual_proximity_bound(g)
        assert bound == pytest.approx(8 * 0.16 / 0.6, rel=1e-12)
        assert gap <= bound + 1e-9 * 8

    def test_gap_is_spectral_form(self):
        g = nearly_parseval_gframe(4, (2, 2), 0.25, seed=24)
        gap, _ = dual_proximity_bound(g)
        assert gap == pytest.approx(canonical_dual_gap(g), rel=1e-12)

    def test_shrinking_spectrum_toward_floor_raises_gap(self):
        # (v - 1)^2 / v decreases on (0, 1], so pushing eigenvalues down
        # toward 1 - eps can only increase the distance to the canonical dual
        eps = 0.6
        rng = np.random.default_rng(25)
        spectrum = 1.0 - eps * rng.random(6)  # inside [1 - eps, 1]
        gaps = []
        for t in np.linspace(0.0, 1.0, 8):
            shrunk = spectrum - t * (spectrum - (1.0 - eps))
            g = diagonal_frame(shrunk)
            gap, bound = dual_proximity_bound(g)
            gaps.append(gap)
            assert gap <= bound + 1e-9 * 6
        assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_rejects_wide_rating(self):
        with pytest.raises(EpsilonOutOfRangeError):
            dual_proximity_bound(diagonal_frame([2.5, 1.0]))


class TestExtremalFrame:
    def test_zero_epsilon_is_parseval(self):
        f = extremal_frame(3, 0.0)
        b = validate_frame(f)
        assert b.lower == b.upper == 1.0
        assert b.epsilon == 0.0

    def test_frame_operator_is_scaled_identity(self):
        f = extremal_frame(3, 0.19)
        s = frame_operator(f).matrix
        assert np.abs(s - 0.81 * np.eye(3)).max() <= 1e-15

    def test_rating_is_exact(self):
        for eps in (0.0, 0.19, 0.5, 0.9):
            b = validate_frame(extremal_frame(4, eps))
            assert abs(b.epsilon - eps) <= 1e-12

    def test_attains_both_bounds(self):
        for n in (1, 2, 5, 16):
            for eps in (0.05, 0.5, 0.9):
                f = extremal_frame(n, eps)
                gap, bound = parseval_proximity_bound(f)
                assert abs(gap - bound) <= 1e-9 * n
                gap2, bound2 = dual_proximity_bound(f)
                assert abs(gap2 - bound2) <= 1e-9 * n

    def test_pointwise_minimality_with_random_duals(self, rng):
        f = extremal_frame(3, 0.4)
        dual = random_alternate_dual(f, magnitude=1.0, seed=26)
        for _ in range(20):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            total, canonical, _ = pointwise_dual_decomposition(f, dual, x)
            assert total >= canonical - 1e-9

    def test_rejects_bad_epsilon(self):
        with pytest.raises(EpsilonOutOfRangeError):
            extremal_frame(2, 1.0)
        with pytest.raises(EpsilonOutOfRangeError):
            extremal_frame(2, -0.1)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            extremal_frame(0, 0.1)


def reference_dual(lam, magnitude, seed):
    """One seed at a time, on K x n arrays: draw block by block, rescale each block to norm `magnitude`, project."""
    t = lam.stacked
    gen = stream(seed)
    blocks = np.vstack([complex_gaussian_matrix(gen, k, lam.dim_h) for k in lam.counts])
    norms = np.sqrt(np.add.reduceat(np.sum(blocks.real**2 + blocks.imag**2, axis=1), lam.offsets[:-1]))
    scale = np.divide(magnitude, norms, out=np.zeros_like(norms), where=norms > 0)
    deltas = blocks * np.repeat(scale, lam.counts)[:, np.newaxis]
    canonical = canonical_dual(lam).stacked
    return canonical + deltas - canonical @ (t.conj().T @ deltas)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestRandomAlternateDualBatches:
    """Duals built as one stack equal the one-seed-at-a-time construction bit for bit."""

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(min_value=1, max_value=5),
        extra=st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=6),
        seeds=st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=9),
        magnitude=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_batches_equal_one_seed_calls(self, n, extra, seeds, magnitude):
        lam = random_gframe(n, (n, *extra), seed=len(extra))
        sizes = []
        real_stack = duals.complex_gaussian_stack

        def counting_stack(gens, counts, cols):
            sizes.append(len(gens))
            return real_stack(gens, counts, cols)

        with mock.patch.object(duals, "complex_gaussian_stack", counting_stack):
            stack, outcomes = certified_duals(lam, magnitude, seeds)
        # Every seed is drawn in one stacked call.
        assert sizes == [len(seeds)]
        assert all(isinstance(outcome, DualCertificate) for outcome in outcomes)
        assert stack.shape == (len(seeds), *lam.stacked.shape) and not stack.flags.writeable
        for seed, family, cert in zip(seeds, stack, outcomes):
            reference = reference_dual(lam, magnitude, seed)
            assert same_bits(family, reference)
            dual = random_alternate_dual(lam, magnitude, seed)
            assert isinstance(dual, GFrame) and dual.counts == lam.counts
            assert same_bits(dual.stacked, reference)
            assert verify_alternate_dual(lam, dual) == cert

    def test_failed_stacked_step_stays_with_its_seed(self, monkeypatch):
        lam = random_gframe(3, (2, 2), seed=4)
        seeds, bad = [31, 32, 33], 32
        origin = {}
        real_stream, real_stack = duals.stream, duals.complex_gaussian_stack

        def recording_stream(seed, substream=0):
            gen = real_stream(seed, substream)
            origin[id(gen)] = seed
            return gen

        def poisoned_stack(gens, counts, cols):
            if any(origin[id(gen)] == bad for gen in gens):
                raise RuntimeError("poisoned draw")
            return real_stack(gens, counts, cols)

        monkeypatch.setattr(duals, "stream", recording_stream)
        monkeypatch.setattr(duals, "complex_gaussian_stack", poisoned_stack)
        with pytest.raises(RuntimeError, match="poisoned draw"):
            certified_duals(lam, 1.0, seeds)
        with pytest.raises(RuntimeError, match="poisoned draw"):
            random_alternate_dual(lam, 1.0, bad)
        for seed in seeds:
            if seed != bad:
                assert same_bits(random_alternate_dual(lam, 1.0, seed).stacked, reference_dual(lam, 1.0, seed))

    def test_each_seed_keeps_its_own_check_failure(self):
        # At magnitude 1e10 the round-off of each seed's projection misses the dual equation.
        lam, seeds = extremal_frame(4, 0.25), [0, 1, 2]
        alone = []
        for seed in seeds:
            with pytest.raises(NotADualError) as raised:
                random_alternate_dual(lam, magnitude=1e10, seed=seed)
            alone.append(raised.value)
        assert len({exc.residual for exc in alone}) == len(seeds)
        # The stack raises its first seed's error; in_batches gives each seed its own.
        with pytest.raises(NotADualError) as stacked:
            certified_duals(lam, 1e10, seeds)
        assert (str(stacked.value), stacked.value.residual) == (str(alone[0]), alone[0].residual)
        got = list(in_batches(lambda batch: certified_duals(lam, 1e10, batch)[1], seeds, 1))  # one batch of 3
        assert all(isinstance(outcome, NotADualError) for outcome in got)
        assert [(str(o), o.residual) for o in got] == [(str(exc), exc.residual) for exc in alone]

    def test_setup_failure_raises_for_every_seed(self, monkeypatch):
        def fail(f):
            raise PostconditionError("canonical dual fails the dual equation")

        monkeypatch.setattr(duals, "canonical_dual", fail)
        lam = random_gframe(3, (2, 2), seed=4)
        with pytest.raises(PostconditionError):
            certified_duals(lam, 1.0, [1, 2, 3])
        for seed in (1, 2, 3):
            with pytest.raises(PostconditionError):
                random_alternate_dual(lam, 1.0, seed)
        with pytest.raises(ValueError, match="magnitude must be non-negative"):
            certified_duals(lam, -1.0, [1])
