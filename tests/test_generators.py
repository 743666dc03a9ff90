"""Seeded constructors: determinism, certification, exact spectral shaping."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gframes import generators, model
from gframes.errors import EpsilonOutOfRangeError, GFrameError, NotAFrameError
from gframes.linalg import RANK_TOLERANCE, frobenius_norm
from gframes.model import GFrame, frame_operator, total_frobenius_energy, validate_frame
from gframes.generators import (
    batch_item_bytes,
    embed_vector_frame,
    in_batches,
    nearly_parseval_gframe,
    random_gframe,
    random_parseval_gframe,
    random_parseval_gframes,
    random_unitary,
    unwrap,
)
from gframes.rng import stream


class TestRandomGFrame:
    def test_deterministic(self):
        f1 = random_gframe(4, (2, 2, 2), seed=5)
        f2 = random_gframe(4, (2, 2, 2), seed=5)
        for a, b in zip(f1.operators, f2.operators):
            assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        f1 = random_gframe(3, (2, 2), seed=1)
        f2 = random_gframe(3, (2, 2), seed=2)
        assert not np.array_equal(f1.operators[0], f2.operators[0])

    def test_certifies_as_frame(self):
        for seed in range(10):
            f = random_gframe(4, (2, 2, 2), seed=seed)
            assert validate_frame(f).lower > 0

    def test_counts_respected(self):
        f = random_gframe(5, (1, 4, 2), seed=3)
        assert f.counts == (1, 4, 2)
        assert f.dim_h == 5

    def test_rejects_infeasible_counts(self):
        with pytest.raises(ValueError):
            random_gframe(2, (1,), seed=0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            random_gframe(0, (1,), seed=0)
        with pytest.raises(ValueError):
            random_gframe(2, (), seed=0)
        with pytest.raises(ValueError):
            random_gframe(2, (0, 3), seed=0)


class TestRandomParsevalGFrame:
    def test_budget_is_dimension(self):
        g = random_parseval_gframe(5, (3, 3), seed=6)
        assert abs(total_frobenius_energy(g) - 5.0) <= 1e-8 * 5

    def test_deterministic(self):
        g1 = random_parseval_gframe(3, (2, 2), seed=7)
        g2 = random_parseval_gframe(3, (2, 2), seed=7)
        for a, b in zip(g1.operators, g2.operators):
            assert np.array_equal(a, b)

    def test_frame_operator_near_identity(self):
        g = random_parseval_gframe(8, (4, 4, 4), seed=8)
        s = frame_operator(g).matrix
        assert frobenius_norm(s - np.eye(8)) <= 1e-8 * 8


class TestNearlyParsevalGFrame:
    def test_zero_epsilon_is_parseval(self):
        g = nearly_parseval_gframe(4, (2, 2, 2), 0.0, seed=9)
        b = validate_frame(g)
        assert b.epsilon <= 1e-9

    def test_endpoint_eigenvalues_forced(self):
        g = nearly_parseval_gframe(2, (1, 1, 1), 0.5, seed=10)
        b = validate_frame(g)
        assert b.lower == pytest.approx(0.5, abs=1e-9)
        assert b.upper == pytest.approx(1.5, abs=1e-9)

    def test_rating_exact_across_grid(self):
        for eps in (0.0, 0.1, 0.35, 0.7, 0.95):
            for n in (2, 5, 16):
                g = nearly_parseval_gframe(n, (n, n), eps, seed=11)
                achieved = validate_frame(g).epsilon
                assert abs(achieved - eps) <= 1e-9

    def test_output_feeds_bounds_without_error(self):
        from gframes.duals import parseval_proximity_bound

        for eps in (0.2, 0.8, 0.99 - 0.05):
            g = nearly_parseval_gframe(3, (2, 2), eps, seed=12)
            parseval_proximity_bound(g)

    def test_deterministic(self):
        g1 = nearly_parseval_gframe(3, (2, 2), 0.3, seed=13)
        g2 = nearly_parseval_gframe(3, (2, 2), 0.3, seed=13)
        for a, b in zip(g1.operators, g2.operators):
            assert np.array_equal(a, b)

    def test_rejects_out_of_range_epsilon(self):
        with pytest.raises(EpsilonOutOfRangeError):
            nearly_parseval_gframe(3, (2, 2), 1.2, seed=0)
        with pytest.raises(EpsilonOutOfRangeError):
            nearly_parseval_gframe(3, (2, 2), -0.2, seed=0)

    def test_rejects_dimension_one_with_positive_epsilon(self):
        with pytest.raises(ValueError):
            nearly_parseval_gframe(1, (2,), 0.3, seed=0)


class TestEmbedVectorFrame:
    def test_standard_basis_is_parseval(self):
        f = embed_vector_frame([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        b = validate_frame(f)
        assert b.lower == b.upper == pytest.approx(1.0, abs=1e-15)

    def test_three_unit_vectors_at_equal_angles(self):
        # 3 unit vectors at 120 degrees in the plane form a tight frame at 3/2
        angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
        vectors = [np.array([np.cos(t), np.sin(t)]) for t in angles]
        f = embed_vector_frame(vectors)
        s = frame_operator(f).matrix
        assert np.abs(s - 1.5 * np.eye(2)).max() <= 1e-12
        b = validate_frame(f)
        assert b.lower == pytest.approx(1.5, abs=1e-12)
        assert b.upper == pytest.approx(1.5, abs=1e-12)

    def test_single_vector_is_not_a_frame(self):
        f = embed_vector_frame([np.array([1.0, 0.0])])
        with pytest.raises(NotAFrameError):
            validate_frame(f)

    def test_row_is_conjugate(self):
        v = np.array([1.0 + 1.0j, 2.0])
        f = embed_vector_frame([v])
        assert np.array_equal(f.operators[0][0], v.conj())

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError):
            embed_vector_frame([])
        with pytest.raises(ValueError):
            embed_vector_frame([np.zeros(2), np.zeros(3)])


class TestRandomUnitary:
    def test_unitary_to_tight_tolerance(self):
        for n in (1, 2, 7, 16):
            q = random_unitary(stream(14), n)
            assert frobenius_norm(q.conj().T @ q - np.eye(n)) <= 1e-10


def reference_blocks(gen, counts, n):
    """Gaussian blocks drawn one Box-Muller batch at a time, straight from the uniforms."""
    blocks = []
    for k in counts:
        parts = []
        for _ in range(2):  # the real batch, then the imaginary batch
            size = k * n
            pairs = (size + 1) // 2
            u1 = 1.0 - gen.random(pairs)
            u2 = gen.random(pairs)
            radius = np.sqrt(-2.0 * np.log(u1))
            angle = (2.0 * np.pi) * u2
            parts.append(np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:size])
        blocks.append((parts[0] + 1j * parts[1]).reshape(k, n))
    return np.vstack(blocks)


def reference_companion(n, counts, seed, first_substream=0):
    """One seed at a time: draw, S, eigh, rank gate, S^(-1/2), product."""
    for substream in range(first_substream, generators.RETRY_CAP):
        t = reference_blocks(stream(seed, substream), counts, n)
        s = t.conj().T @ t
        w, v = np.linalg.eigh(0.5 * s + 0.5 * s.conj().T)
        order = np.argsort(-w, kind="stable")
        w, v = w[order], np.ascontiguousarray(v[:, order])
        if w[-1] > RANK_TOLERANCE * w[0]:
            return t @ ((v * np.power(w, -0.5)) @ v.conj().T)
    raise AssertionError("the reference drew no frame")


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestInBatches:
    @settings(deadline=None, max_examples=200)
    @given(
        count=st.integers(min_value=0, max_value=12),
        item_bytes=st.integers(min_value=1, max_value=64),
        budget=st.integers(min_value=1, max_value=256),
        raising=st.sets(st.integers(min_value=0, max_value=11)),
        stopped=st.sets(st.integers(min_value=0, max_value=11)),
    )
    def test_outcomes_equal_building_each_item_alone(self, count, item_bytes, budget, raising, stopped):
        # A build raises when its batch holds an item of `raising`; an item of
        # `stopped` gets an exception as its outcome without stopping the batch.
        calls = []

        def build(batch):
            calls.append(list(batch))
            for item in batch:
                if item in raising:
                    raise RuntimeError(f"item {item}")
            return [ValueError(f"item {item}") if item in stopped else 10 * item for item in batch]

        def alone(item):
            try:
                (outcome,) = build([item])
            except RuntimeError as exc:
                return exc
            return outcome

        def described(outcome):
            return (type(outcome), str(outcome)) if isinstance(outcome, Exception) else outcome

        items = list(range(count))
        with mock.patch.object(generators, "BATCH_BYTES", budget):
            outcomes = in_batches(build, iter(items), item_bytes)
            assert calls == []  # nothing is built before the iteration reaches it
            got = list(outcomes)
        built, calls = calls, []
        assert [described(o) for o in got] == [described(alone(item)) for item in items]
        # Batches of at most the budget cover the items in order; a batch whose
        # build raised is followed by its items built one at a time.
        size = max(1, budget // item_bytes)
        want = []
        for start in range(0, count, size):
            batch = items[start : start + size]
            want.append(batch)
            if len(batch) > 1 and raising.intersection(batch):
                want.extend([item] for item in batch)
        assert built == want
        assert all(len(batch) * item_bytes <= budget or len(batch) == 1 for batch in built)


class TestRandomParsevalBatches:
    """Companions built in stacked batches equal the one-seed-at-a-time construction bit for bit."""

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(min_value=1, max_value=6),
        extra=st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=8),
        per_batch=st.integers(min_value=1, max_value=4),
        seeds=st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=11),
    )
    def test_batches_equal_per_seed_reference(self, n, extra, per_batch, seeds):
        counts = (n, *extra)
        budget = per_batch * batch_item_bytes(sum(counts), n, companion=True)
        sizes = []
        real_eig = model.hermitian_eig

        def counting_eig(m, **kwargs):
            sizes.append(m.shape[0])
            return real_eig(m, **kwargs)

        with mock.patch.object(generators, "BATCH_BYTES", budget), \
                mock.patch.object(model, "hermitian_eig", counting_eig):
            got = list(random_parseval_gframes(n, counts, seeds))
        # Each batch held at most the budget's items, and the seeds crossed it when there were enough.
        assert sum(sizes) == len(seeds) and max(sizes) <= per_batch
        assert len(sizes) == -(-len(seeds) // per_batch)
        for seed, companion in zip(seeds, got):
            assert isinstance(companion, GFrame)
            assert companion.counts == counts
            assert same_bits(companion.stacked, reference_companion(n, counts, seed))

    def test_one_seed_case(self):
        (companion,) = random_parseval_gframes(3, (2, 2), [7])
        assert same_bits(companion.stacked, random_parseval_gframe(3, (2, 2), seed=7).stacked)

    def test_rank_failure_redraws_only_that_seed_on_substream_1(self, monkeypatch):
        seeds, bad = [11, 12, 13, 14], 13
        calls, origin = [], {}
        real_stream, real_stack = generators.stream, generators.complex_gaussian_stack

        def recording_stream(seed, substream=0):
            gen = real_stream(seed, substream)
            calls.append((seed, substream))
            origin[id(gen)] = (seed, substream)
            return gen

        def deficient_stack(gens, counts, cols):
            t = real_stack(gens, counts, cols)
            for j, gen in enumerate(gens):
                if origin[id(gen)] == (bad, 0):
                    t[j, :, 0] = 0.0  # a zero column: S is singular and the rank gate rejects it
            return t

        monkeypatch.setattr(generators, "stream", recording_stream)
        monkeypatch.setattr(generators, "complex_gaussian_stack", deficient_stack)
        got = list(random_parseval_gframes(3, (2, 2), seeds))
        assert calls == [(s, 0) for s in seeds] + [(bad, 1)]
        for seed, companion in zip(seeds, got):
            first = 1 if seed == bad else 0
            assert same_bits(companion.stacked, reference_companion(3, (2, 2), seed, first))

    def test_failed_stacked_step_stays_with_its_seed(self, monkeypatch):
        seeds, bad = [21, 22, 23], 22
        origin = {}
        real_stream, real_stack = generators.stream, generators.complex_gaussian_stack

        def recording_stream(seed, substream=0):
            gen = real_stream(seed, substream)
            origin[id(gen)] = seed
            return gen

        def poisoned_stack(gens, counts, cols):
            t = real_stack(gens, counts, cols)
            for j, gen in enumerate(gens):
                if origin[id(gen)] == bad:
                    t[j, 0, 0] = np.nan  # fails the whole stacked product
            return t

        monkeypatch.setattr(generators, "stream", recording_stream)
        monkeypatch.setattr(generators, "complex_gaussian_stack", poisoned_stack)
        got = list(random_parseval_gframes(3, (2, 2), seeds))
        assert isinstance(got[1], GFrameError)
        with pytest.raises(type(got[1])):
            unwrap(got[1])
        for j in (0, 2):
            assert same_bits(got[j].stacked, reference_companion(3, (2, 2), seeds[j]))
