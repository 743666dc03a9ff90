"""Seeded constructors: determinism, certification, exact spectral shaping."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gframes import generators
from gframes.errors import EpsilonOutOfRangeError, GFrameError, NotAFrameError
from gframes.model import GFrame, frame_matrices, frame_operator, total_frobenius_energy, validate_frame
from gframes.generators import (
    embed_vector_frame,
    in_batches,
    nearly_parseval_gframe,
    parseval_companions,
    random_gframe,
    random_parseval_gframe,
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

    def test_gives_up_after_retry_cap_substreams(self, monkeypatch, capsys):
        from gframes.cli import main

        substreams = []
        real_stream = generators.stream

        def recording_stream(seed, substream=0):
            substreams.append((seed, substream))
            return real_stream(seed, substream)

        def rank_deficient(gens, counts, cols):
            t = np.zeros((len(gens), sum(counts), cols), dtype=np.complex128)
            t[:, 0, 0] = 1.0  # S = e_0 e_0*, which the rank gate refuses
            return t

        monkeypatch.setattr(generators, "stream", recording_stream)
        monkeypatch.setattr(generators, "complex_gaussian_stack", rank_deficient)
        with pytest.raises(GFrameError, match=r"^no frame obtained after 16 attempts for n = 3, counts = \[2, 2\]$"):
            random_gframe(3, (2, 2), seed=5)
        assert substreams == [(5, k) for k in range(generators.RETRY_CAP)] and generators.RETRY_CAP == 16
        code = main(["gen", "random", "--n", "3", "--counts", "2,2", "--seed", "5"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: no frame obtained after 16 attempts for n = 3, counts = [2, 2]\n"


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
        assert np.linalg.norm(s - np.eye(8)) <= 1e-8 * 8


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
        with pytest.raises(ValueError, match=r"vector 0 has shape \(2, 2\)"):
            embed_vector_frame([np.eye(2)])


class TestRandomUnitary:
    def test_unitary_to_tight_tolerance(self):
        for n in (1, 2, 7, 16):
            q = random_unitary(stream(14), n)
            assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= 1e-10


def reference_blocks(gen, counts, n):
    """Gaussian blocks drawn one block at a time: 2·k·n normals, each entry's real part before its imaginary part."""
    blocks = []
    for k in counts:
        parts = gen.standard_normal(2 * k * n)
        block = np.empty(k * n, dtype=np.complex128)
        block.real, block.imag = parts[0::2], parts[1::2]
        blocks.append(block.reshape(k, n))
    return np.vstack(blocks)


def reference_companion(n, counts, seed):
    """One seed at a time: draw on substream 0, QR, and R's pivots made positive."""
    q, r = np.linalg.qr(reference_blocks(stream(seed), counts, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


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
        for outcome in got:  # unwrap gives a value back and raises an exception
            if isinstance(outcome, Exception):
                with pytest.raises(type(outcome)):
                    unwrap(outcome)
            else:
                assert unwrap(outcome) == outcome
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
    """Companions built as one stack equal the one-seed-at-a-time construction bit for bit."""

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(min_value=1, max_value=6),
        extra=st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=8),
        seeds=st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=11),
    )
    # The benchmark's shapes, 48 x 48 and 256 x 4, and 1 x 1.
    @example(n=48, extra=[], seeds=[5, 6, 7])
    @example(n=4, extra=[1] * 252, seeds=list(range(10)))
    @example(n=1, extra=[], seeds=[3])
    def test_batches_equal_per_seed_reference(self, n, extra, seeds):
        counts = (n, *extra)
        calls = []
        real_qr, real_eigh = np.linalg.qr, np.linalg.eigh

        def counting(name, real):
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        with mock.patch.object(np.linalg, "qr", counting("qr", real_qr)), \
                mock.patch.object(np.linalg, "eigh", counting("eigh", real_eigh)):
            companions = parseval_companions(n, counts, seeds)
        # Every seed's draw is factored in one stacked QR, and no S is decomposed.
        assert calls == ["qr"]
        assert companions.shape == (len(seeds), sum(counts), n) and not companions.flags.writeable
        for seed, family in zip(seeds, companions):
            reference = reference_companion(n, counts, seed)
            assert same_bits(family, reference)
            companion = random_parseval_gframe(n, counts, seed)
            assert isinstance(companion, GFrame)
            assert companion.counts == counts
            assert same_bits(companion.stacked, reference)

    def test_one_seed_case(self):
        companions = parseval_companions(3, (2, 2), [7])
        assert same_bits(companions[0], random_parseval_gframe(3, (2, 2), seed=7).stacked)

    def test_zero_column_draw_gives_a_parseval_companion(self, monkeypatch):
        # A zero column is a zero pivot of R, whose phase is taken as 1: Q keeps
        # orthonormal columns, and nothing is redrawn or divided by zero.
        seeds, bad = [11, 12, 13, 14], 13
        calls, origin = [], {}
        real_stream, real_stack = generators.stream, generators.complex_gaussian_stack

        def recording_stream(seed, substream=0):
            gen = real_stream(seed, substream)
            calls.append((seed, substream))
            origin[id(gen)] = seed
            return gen

        def deficient_stack(gens, counts, cols):
            t = real_stack(gens, counts, cols)
            for j, gen in enumerate(gens):
                if origin[id(gen)] == bad:
                    t[j, :, 0] = 0.0
            return t

        monkeypatch.setattr(generators, "stream", recording_stream)
        monkeypatch.setattr(generators, "complex_gaussian_stack", deficient_stack)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            companions = parseval_companions(3, (2, 2), seeds)
            calls_stacked = list(calls)
            calls.clear()
            alone = random_parseval_gframe(3, (2, 2), seed=bad)
        assert calls_stacked == [(s, 0) for s in seeds]
        assert calls == [(bad, 0)]
        for seed, family, s in zip(seeds, companions, frame_matrices(companions)):
            assert np.linalg.norm(s - np.eye(3)) <= 1e-14 * 3
            if seed != bad:
                assert same_bits(family, reference_companion(3, (2, 2), seed))
        assert same_bits(alone.stacked, companions[seeds.index(bad)])

    def test_ill_conditioned_draw_gives_a_parseval_companion(self, monkeypatch):
        # A draw with kappa(T) = 1e4 has kappa(S) = 1e8. Its polar factor
        # T·S^(-1/2) misses Parseval by 1e-10 * n to 1e-9 * n on these seeds;
        # Q stays orthonormal at round-off.
        real_stack = generators.complex_gaussian_stack

        def ill_conditioned_stack(gens, counts, cols):
            t = real_stack(gens, counts, cols)
            u, _, vh = np.linalg.svd(t, full_matrices=False)
            return (u * np.geomspace(1.0, 1e-4, cols)) @ vh

        monkeypatch.setattr(generators, "complex_gaussian_stack", ill_conditioned_stack)
        companions = parseval_companions(6, (3, 3), [1, 2, 3])
        for s in frame_matrices(companions):
            assert np.linalg.norm(s - np.eye(6)) <= 1e-14 * 6

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
        with pytest.raises(GFrameError) as stacked:
            parseval_companions(3, (2, 2), seeds)
        with pytest.raises(type(stacked.value)) as alone:
            random_parseval_gframe(3, (2, 2), seed=bad)
        assert str(alone.value) == str(stacked.value)
        for seed in seeds:
            if seed != bad:
                assert same_bits(random_parseval_gframe(3, (2, 2), seed=seed).stacked,
                                 reference_companion(3, (2, 2), seed))


class TestCompanionDistribution:
    """Random Parseval companions against Haar measure on the K x n isometries.

    Under Haar measure every column of Q is uniform on the unit sphere of C^K,
    so |Q_ij|^2 is Beta(1, K - 1): E|Q_ij|^2 = 1/K, E|Q_ij|^4 = 2/(K(K + 1)),
    and E Q_ij = 0. Companions of distinct seeds are independent, so each
    statistic is averaged per companion and compared with its target within
    5 standard errors, the standard error taken from the sample variance of
    those per-companion averages. A Q whose pivots keep LAPACK's signs has
    E Q_11 < 0; real Gaussian draws give E|Q_ij|^4 = 3/(K(K + 2)), 36 % above
    the target at K = 9.
    """

    @pytest.mark.parametrize("n, counts", [(6, (3, 3, 3)), (4, (1,) * 10)])
    def test_moments_match_haar(self, n, counts):
        k = sum(counts)
        companions = parseval_companions(n, counts, list(range(1000, 3000)))
        q = companions
        # Every family is Parseval at round-off, so the mean of |Q_ij|^2 is 1/K exactly.
        defects = np.sqrt((np.abs(frame_matrices(companions) - np.eye(n)) ** 2).sum(axis=(1, 2)))
        assert defects.max() <= 1e-14 * n
        squares = np.abs(q) ** 2
        assert np.abs(squares.mean(axis=(1, 2)) - 1.0 / k).max() <= 1e-14 / k

        def within_five_errors(per_companion, target):
            error = per_companion.std(ddof=1) / np.sqrt(per_companion.size)
            return abs(per_companion.mean() - target) <= 5.0 * error

        fourth = (squares ** 2).mean(axis=(1, 2))
        assert fourth.std(ddof=1) / np.sqrt(fourth.size) <= 0.01 * 2.0 / (k * (k + 1))
        assert within_five_errors(fourth, 2.0 / (k * (k + 1)))
        for part in (q.real, q.imag):
            assert within_five_errors(part[:, 0, 0], 0.0)
            assert within_five_errors(part.mean(axis=(1, 2)), 0.0)
