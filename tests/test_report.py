"""Verification suites and report rendering."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import orjson
import pytest

from gframes import duals, generators, identities, model, report
from gframes.cli import main
from gframes.duals import extremal_frame
from gframes.errors import PostconditionError
from gframes.generators import nearly_parseval_gframe, random_gframe
from gframes.io import load_frame, save_frame
from gframes.model import GFrame, canonical_dual
from gframes.report import (
    CheckResult,
    VerificationReport,
    _guard,
    at_least_check,
    at_most_check,
    equality_check,
    render_json,
    render_text,
    report_to_dict,
    run_suite,
)

GOLDEN = Path(__file__).parent / "data" / "golden"
GOLDEN_NEARLY_PARSEVAL = GOLDEN / "nearly-parseval.frame.json"


def scaled_golden_frame(c):
    g = load_frame(GOLDEN_NEARLY_PARSEVAL)
    return GFrame.from_stacked(c * g.stacked, g.counts)


def poison_duals(monkeypatch, fails):
    """Make the random dual of each seed that fails(seed) picks miss the dual equation (it gives 2 I).

    By seed, so a batch that in_batches builds again is poisoned alike.
    """
    real = duals._perturbed_duals

    def not_dual(lam, magnitude, seeds):
        stack = real(lam, magnitude, seeds)
        for b, seed in enumerate(seeds):
            if fails(seed):
                stack[b] *= 2.0
        return stack

    monkeypatch.setattr(duals, "_perturbed_duals", not_dual)


def float_bits(obj):
    """obj with each float replaced by its bits, so == compares doubles bit for bit."""
    if isinstance(obj, float):
        return ("float", np.float64(obj).view(np.uint64).item())
    if isinstance(obj, dict):
        return {key: float_bits(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [float_bits(item) for item in obj]
    return obj


def kappa_frame():
    """n = 6, two 6 x 6 blocks, T = U diag(sigma) V* with kappa(S) = 9e9: the rank gate accepts it."""
    rng = np.random.default_rng(2)
    u, _ = np.linalg.qr(rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    sigma = np.geomspace(1.0, 1.0 / np.sqrt(9e9), 6)
    return GFrame.from_stacked((u * sigma) @ v.conj().T, (6, 6))


def batches_of(monkeypatch, items):
    """Make each in_batches batch of the suites hold `items` companions or duals (the last may hold fewer)."""
    monkeypatch.setattr(generators, "BATCH_BYTES", items)
    monkeypatch.setattr(report, "batch_item_bytes", lambda k, n, companion: 1)


class TestChecks:
    def test_equality_check(self):
        c = equality_check("x", 1.0, 1.0 + 1e-12, 1e-9)
        assert c.passed and c.residual == pytest.approx(1e-12, rel=1e-3)

    def test_at_most_check(self):
        assert at_most_check("x", 1.0, 2.0, 0.0).passed
        assert at_most_check("x", 1.0, 2.0, 0.0).residual == 0.0
        assert not at_most_check("x", 2.5, 2.0, 0.1).passed

    def test_at_least_check(self):
        assert at_least_check("x", 2.0, 1.0, 0.0).passed
        assert not at_least_check("x", 0.5, 1.0, 0.1).passed

    def test_guard_converts_exceptions_to_failed_rows(self):
        rows = []
        with _guard(rows, "exploding-check"):
            raise RuntimeError("kaput")
        assert len(rows) == 1
        assert not rows[0].passed
        assert "kaput" in rows[0].name
        assert rows[0].residual >= 0.0

    def test_guard_keeps_no_partial_rows_of_a_failed_step(self):
        rows = []
        with _guard(rows, "whole-step") as add:
            add(equality_check, 1.0, 1.0, 1e-9)
            add(at_most_check, 1.0, 2.0, 0.0, row="whole-step-second")
        with _guard(rows, "two-row-step") as add:
            add(equality_check, 1.0, 1.0, 1e-9, row="two-row-step-first")
            raise RuntimeError("kaput")
        assert rows == [
            equality_check("whole-step", 1.0, 1.0, 1e-9),
            at_most_check("whole-step-second", 1.0, 2.0, 0.0),
            CheckResult("two-row-step [error: RuntimeError: kaput]", 0.0, 0.0, 0.0, -1.0, False),
        ]


class TestRunSuite:
    def test_all_pass_on_extremal(self):
        report = run_suite(extremal_frame(3, 0.25), "all", trials=4, seed=1)
        assert report.overall
        assert report.frame_summary["dim_h"] == 3
        assert report.frame_summary["epsilon"] == pytest.approx(0.25, abs=1e-12)

    def test_all_pass_on_nearly_parseval(self):
        f = nearly_parseval_gframe(4, (2, 2, 2), 0.35, seed=2)
        report = run_suite(f, "all", trials=4, seed=3)
        assert report.overall, [c for c in report.checks if not c.passed]

    def test_identity_suites_pass_on_wide_frame(self):
        f = random_gframe(3, (2, 2), seed=4)
        for suite in ("budgets", "parseval-approx", "duals"):
            report = run_suite(f, suite, trials=3, seed=5)
            assert report.overall, (suite, [c for c in report.checks if not c.passed])

    def test_bounds_suite_fails_on_wide_frame(self):
        f = random_gframe(3, (2, 2), seed=6)  # Gaussian families sit far from Parseval
        report = run_suite(f, "bounds", trials=3, seed=7)
        assert not report.overall
        assert report.checks[0].name == "epsilon-in-range"

    def test_overall_is_conjunction(self):
        f = random_gframe(3, (2, 2), seed=8)
        report = run_suite(f, "all", trials=2, seed=9)
        assert report.overall == all(c.passed for c in report.checks)

    def test_rows_pass_by_their_residual_and_error_rows_are_zero(self):
        golden = [load_frame(GOLDEN / f"{name}.frame.json")
                  for name in ("extremal", "nearly-parseval", "wide-vectors")]
        errors = 0
        # Two 1 x 1 operators equal to 1: S = 2, so epsilon is exactly 1 and out of range.
        epsilon_one = GFrame([np.ones((1, 1)), np.ones((1, 1))])
        for f in golden + [kappa_frame(), epsilon_one]:
            for c in run_suite(f, "all", trials=4, seed=7).checks:
                if "[error: " in c.name:
                    errors += 1
                    assert (c.lhs, c.rhs, c.residual, c.tolerance, c.passed) == (0.0, 0.0, 0.0, -1.0, False), c
                else:
                    assert c.passed == (c.residual <= c.tolerance), c
        assert errors  # the kappa frame's report has error rows

    def test_rejects_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite(extremal_frame(2, 0.1), "nope")

    def test_deterministic_per_seed(self):
        f = nearly_parseval_gframe(3, (2, 2), 0.2, seed=10)
        r1 = run_suite(f, "all", trials=3, seed=11)
        r2 = run_suite(f, "all", trials=3, seed=11)
        assert render_json(report_to_dict(r1)) == render_json(report_to_dict(r2))


    def test_pointwise_minimality_slack_scales_with_values(self):
        # Scaled by 1e-8 the pointwise terms reach ~1e17; an absolute slack
        # of 1e-9 fails valid frames on round-off alone.
        g = nearly_parseval_gframe(6, (3, 3, 3), 0.3, seed=5)
        f = GFrame.from_stacked(1e-8 * g.stacked, g.counts)
        report = run_suite(f, "all", trials=4, seed=7)
        rows = [c for c in report.checks if c.name.startswith("pointwise-dual-minimality")]
        assert len(rows) == 4
        assert all(c.passed for c in rows)

    def test_proximity_bounds_hold_at_small_scale(self):
        # Scaled by 1e-8, lambda_min = 7e-17 and epsilon = 1 - 7e-17: 1 - epsilon
        # formed by subtraction keeps no correct digit.
        report = run_suite(scaled_golden_frame(1e-8), "all", trials=4, seed=7)
        rows = [c for c in report.checks if "proximity-bound" in c.name]
        assert [c.name for c in rows] == ["parseval-proximity-bound", "dual-proximity-bound"]
        assert all(c.passed for c in rows)
        assert report.overall, [c.name for c in report.checks if not c.passed]

    @pytest.mark.parametrize("c", (1e60, 1e77, 1e100, 1e150))
    def test_power_trace_overflow_is_a_named_error(self, c):
        # Run under the suite's error::RuntimeWarning filter: a leaked numpy
        # warning would surface as an error row or fail the test.
        report = run_suite(scaled_golden_frame(c), "all", trials=4, seed=7)
        rows = [r.name for r in report.checks if r.name.startswith("power-trace")]
        errors = [name for name in rows if "[error:" in name]
        assert errors
        assert all("[error: FrameOverflowError: " in name for name in errors), errors
        assert not any("RuntimeWarning" in r.name for r in report.checks)


def fail_canonical_dual(monkeypatch):
    """Make every consumer's canonical_dual miss its postcondition."""

    def fail(f):
        raise PostconditionError("canonical dual fails the dual equation: residual 2e-07 exceeds 1e-08 * n")

    for module in (report, duals, identities):
        monkeypatch.setattr(module, "canonical_dual", fail)


class TestCanonicalDualFailure:
    def test_failure_becomes_error_rows(self, monkeypatch):
        f = load_frame(GOLDEN_NEARLY_PARSEVAL)
        good = run_suite(f, "all", trials=3, seed=7)
        fail_canonical_dual(monkeypatch)
        bad = run_suite(load_frame(GOLDEN_NEARLY_PARSEVAL), "all", trials=3, seed=7)
        assert not bad.overall
        errors = [c.name for c in bad.checks if "[error: PostconditionError: " in c.name]
        assert [name.split(" [error")[0] for name in errors] == [
            "dual-equation-canonical",
            "pointwise-dual-canonical-residual",
            "frobenius-dual-closed-form",
            "dual-trial[trial=0]",
            "dual-trial[trial=1]",
            "dual-trial[trial=2]",
        ]
        # Every row outside the duals suite is kept, value for value.
        kept = [c for c in bad.checks if "[error: " not in c.name]
        assert kept == [c for c in good.checks if not c.name.startswith(
            ("dual-equation", "pointwise-dual", "frobenius-dual", "dual-trial"))]

    def test_verify_exits_4_with_a_report(self, monkeypatch, capsys):
        fail_canonical_dual(monkeypatch)
        code = main(["verify", str(GOLDEN_NEARLY_PARSEVAL), "--trials", "2", "--seed", "7"])
        out, err = capsys.readouterr()
        assert code == 4
        assert err == ""
        assert "FAIL dual-equation-canonical [error: PostconditionError: " in out
        assert "PASS parseval-proximity-bound" in out
        assert out.rstrip().endswith("overall: FAIL")


# Rows whose tolerance is also the band of an identity's postcondition, by name
# before any "[", with the owner's value for the row (c) on a frame of dimension n.
TWIN_ROWS = {
    "parseval-budget-canonical": lambda c, n: identities.parseval_budget_tolerance(n),
    "power-trace": lambda c, n: identities.power_trace_tolerance(c.rhs),
    "weighted-energy": lambda c, n: identities.weighted_energy_tolerance(c.rhs),
    "parseval-gap-two-path": lambda c, n: identities.parseval_gap_tolerance(c.lhs),
    "parseval-approx-identity": lambda c, n: identities.parseval_approx_tolerance(c.lhs),
    "frobenius-dual-closed-form": lambda c, n: identities.dual_closed_form_tolerance(c.lhs),
    "frobenius-dual-identity": lambda c, n: identities.frobenius_dual_tolerance(c.lhs),
    "pointwise-dual-identity": lambda c, n: identities.pointwise_dual_tolerance(c.lhs),
    "parseval-proximity-bound": lambda c, n: duals.proximity_slack(n),
    "dual-proximity-bound": lambda c, n: duals.proximity_slack(n),
}


def test_twin_rows_read_their_owner():
    seen = set()
    for path in sorted(GOLDEN.glob("*.frame.json")):
        f = load_frame(path)
        for c in run_suite(f, "all", trials=3, seed=7).checks:
            base = c.name.split("[")[0]
            if base in TWIN_ROWS:
                assert c.tolerance == TWIN_ROWS[base](c, f.dim_h), (path.name, c)
                seen.add(base)
    assert seen == set(TWIN_ROWS)


class TestParsevalGapFailure:
    def test_failure_becomes_its_two_error_rows(self, monkeypatch):
        good = run_suite(load_frame(GOLDEN_NEARLY_PARSEVAL), "all", trials=3, seed=7)

        def fail(f):
            raise PostconditionError("gap paths disagree: injected")

        monkeypatch.setattr(report, "parseval_gap", fail)
        bad = run_suite(load_frame(GOLDEN_NEARLY_PARSEVAL), "all", trials=3, seed=7)
        assert [c.name for c in bad.checks if "[error: " in c.name] == [
            "parseval-gap-two-path [error: PostconditionError: gap paths disagree: injected]",
            "parseval-gap-minimality [error: PostconditionError: gap paths disagree: injected]",
        ]
        assert [c.name.split(" [error")[0] for c in bad.checks] == [c.name for c in good.checks]
        kept = [c for c in bad.checks if "[error: " not in c.name]
        assert kept == [c for c in good.checks if not c.name.startswith("parseval-gap-")]

    def test_ill_conditioned_frame_keeps_its_report(self, tmp_path, capsys):
        # On the kappa(S) = 9e9 frame the gap's two paths disagree.
        path = tmp_path / "kappa.frame.json"
        save_frame(kappa_frame(), path)
        code = main(["verify", str(path), "--trials", "2", "--seed", "7"])
        out, err = capsys.readouterr()
        assert code in (0, 4)
        assert err == ""
        assert out.rstrip().endswith("overall: PASS" if code == 0 else "overall: FAIL")


class TestCompanionBatches:
    def test_failed_companion_is_only_its_own_row(self, monkeypatch):
        good = run_suite(load_frame(GOLDEN_NEARLY_PARSEVAL), "all", trials=4, seed=7)
        real = generators.parseval_stack
        built = []

        def recording(p, family):
            built.extend(p)
            return real(p, family)

        monkeypatch.setattr(generators, "parseval_stack", recording)
        run_suite(load_frame(GOLDEN_NEARLY_PARSEVAL), "all", trials=4, seed=7)
        third = built[2]  # the third companion, built for weighted-energy[trial=2]

        def flaky(p, family):
            if any(np.array_equal(q, third) for q in p):
                raise PostconditionError("injected")
            return real(p, family)

        monkeypatch.setattr(generators, "parseval_stack", flaky)
        bad = run_suite(load_frame(GOLDEN_NEARLY_PARSEVAL), "all", trials=4, seed=7)
        assert [c.name for c in bad.checks if "[error: " in c.name] == [
            "weighted-energy[trial=2] [error: PostconditionError: injected]"]
        assert [c.name.split(" [error")[0] for c in bad.checks] == [c.name for c in good.checks]
        by_name = {c.name: c for c in good.checks}
        for c in bad.checks:
            if "[error: " not in c.name and c.name != "weighted-energy-spread":
                assert c == by_name[c.name]
        # The spread is taken over the trials that kept their values.
        kept = [by_name[f"weighted-energy[trial={j}]"].lhs for j in (0, 1, 3)]
        (spread,) = [c for c in bad.checks if c.name == "weighted-energy-spread"]
        assert spread.lhs == max(kept) - min(kept)

    def test_trials_do_not_grow_peak_memory(self):
        # Built one companion at a time, this run peaks at 1.10 MB of traced
        # allocations; with all 50 companions of a suite in one stack, at 11.9 MB.
        f = nearly_parseval_gframe(48, (12, 12, 12, 12), 0.3, seed=3)
        run_suite(nearly_parseval_gframe(48, (12, 12, 12, 12), 0.3, seed=4), "all", trials=2, seed=1)
        tracemalloc.start()
        try:
            run_suite(f, "all", trials=50, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 1.10e6


class TestBatchBudget:
    @pytest.mark.parametrize("name", ["extremal", "nearly-parseval", "wide-vectors", "nearly-parseval-5e7"])
    def test_report_ignores_the_batch_budget(self, monkeypatch, name):
        # On the golden nearly-Parseval frame scaled by 5e7, the duals of odd
        # seeds are made to fail, so batches hold failed and passed duals.
        def report_json(items=None):
            with monkeypatch.context() as patched:
                if items:
                    batches_of(patched, items)
                if name == "nearly-parseval-5e7":
                    f = scaled_golden_frame(5e7)
                    poison_duals(patched, lambda seed: seed % 2 == 1)
                else:
                    f = load_frame(GOLDEN / f"{name}.frame.json")
                return render_json(run_suite(f, "all", trials=6, seed=11))

        default = report_json()
        assert report_json(items=1) == default  # one companion or dual per batch
        assert report_json(items=6) == default  # every trial of a suite in one batch
        if name == "nearly-parseval-5e7":
            assert 0 < default.count("[error: NotADualError: ") < 6

    def test_budget_fits_the_benchmark_shapes(self):
        def per_batch(k, n, companion):
            return generators.BATCH_BYTES // generators.batch_item_bytes(k, n, companion)

        # 10 vectors-n4 trials (256 x 4) in one build per suite, companions and duals alike.
        assert per_batch(256, 4, companion=True) >= 10 and per_batch(256, 4, companion=False) >= 10
        # blocks-n48 (48 x 48): 5 duals in one build, companions 3 at a time.
        assert per_batch(48, 48, companion=False) >= 5
        assert per_batch(48, 48, companion=True) == 3


class TestDualBatches:
    @pytest.mark.parametrize("per_batch", [None, 2])
    def test_failed_dual_is_only_its_own_row(self, monkeypatch, per_batch):
        f = load_frame(GOLDEN_NEARLY_PARSEVAL)
        if per_batch:
            batches_of(monkeypatch, per_batch)
        real_stream, real_stack = duals.stream, duals.complex_gaussian_stack
        trial_seeds, origin = [], {}

        def recording_stream(seed, substream=0):
            gen = real_stream(seed, substream)
            trial_seeds.append(seed)
            origin[id(gen)] = seed
            return gen

        monkeypatch.setattr(duals, "stream", recording_stream)
        good = run_suite(f, "all", trials=4, seed=7)
        bad_seed = trial_seeds[2]  # the seed of the third dual, built for dual-trial[trial=2]

        def flaky(gens, counts, cols):
            t = real_stack(gens, counts, cols)
            for b, gen in enumerate(gens):
                if origin[id(gen)] == bad_seed:  # by seed, so a rebuilt batch is poisoned alike
                    t[b, 0, 0] = np.nan
            return t

        monkeypatch.setattr(duals, "complex_gaussian_stack", flaky)
        bad = run_suite(load_frame(GOLDEN_NEARLY_PARSEVAL), "all", trials=4, seed=7)
        assert [c.name for c in bad.checks if "[error: " in c.name] == [
            "dual-trial[trial=2] [error: FrameOverflowError: "
            "dual perturbation at magnitude 1.0 overflows double precision]"]
        # The other trials keep every row value for value, the later one included.
        assert [c for c in bad.checks if "[error: " not in c.name] == [
            c for c in good.checks if not c.name.endswith("[trial=2]") or "dual" not in c.name]

    @pytest.mark.parametrize("per_batch", [None, 2])
    def test_failed_stacked_terms_are_only_their_own_row(self, monkeypatch, per_batch):
        f = load_frame(GOLDEN_NEARLY_PARSEVAL)
        if per_batch:
            batches_of(monkeypatch, per_batch)
        real = report.frobenius_dual_decomposition
        trial_duals = []

        def recording(lam, gam):
            if not isinstance(gam, GFrame):  # a DualStack of the trials' certified duals
                trial_duals.extend(gam.families)
            return real(lam, gam)

        monkeypatch.setattr(report, "frobenius_dual_decomposition", recording)
        good = run_suite(f, "all", trials=4, seed=7)
        third = trial_duals[2]  # the dual built for dual-trial[trial=2]

        def flaky(lam, gam):
            if not isinstance(gam, GFrame) and any(np.array_equal(d, third) for d in gam.families):
                raise PostconditionError("injected")
            return real(lam, gam)

        monkeypatch.setattr(report, "frobenius_dual_decomposition", flaky)
        bad = run_suite(load_frame(GOLDEN_NEARLY_PARSEVAL), "all", trials=4, seed=7)
        assert [c.name for c in bad.checks if "[error: " in c.name] == [
            "dual-trial[trial=2] [error: PostconditionError: injected]"]
        assert [c for c in bad.checks if "[error: " not in c.name] == [
            c for c in good.checks if not c.name.endswith("[trial=2]") or "dual" not in c.name]

    def test_failed_duals_make_no_redo_calls(self, monkeypatch):
        # Every dual fails its check. certified_duals raises, in_batches redoes
        # the builder seed by seed, and the identities are not called for a
        # trial: the only calls left are the canonical rows', one per identity.
        poison_duals(monkeypatch, lambda seed: True)
        want = run_suite(load_frame(GOLDEN_NEARLY_PARSEVAL), "duals", trials=10, seed=7)
        calls = {"frobenius": 0, "pointwise": 0}
        real_frobenius = report.frobenius_dual_decomposition
        real_pointwise = report.pointwise_dual_decomposition

        def frobenius(*args):
            calls["frobenius"] += 1
            return real_frobenius(*args)

        def pointwise(*args):
            calls["pointwise"] += 1
            return real_pointwise(*args)

        monkeypatch.setattr(report, "frobenius_dual_decomposition", frobenius)
        monkeypatch.setattr(report, "pointwise_dual_decomposition", pointwise)
        got = run_suite(load_frame(GOLDEN_NEARLY_PARSEVAL), "duals", trials=10, seed=7)
        assert got.checks == want.checks
        assert [c.name.split(" [error")[0] for c in got.checks if "[error: NotADualError: " in c.name] == [
            f"dual-trial[trial={j}]" for j in range(10)]
        # All 10 trials fit one batch, and no dual is certified.
        assert calls == {"frobenius": 1, "pointwise": 1}

    def test_trial_draws_depend_on_seed_and_index_alone(self, monkeypatch):
        f = load_frame(GOLDEN_NEARLY_PARSEVAL)
        long = run_suite(f, "duals", trials=7, seed=5)
        monkeypatch.setattr(generators, "BATCH_BYTES", 1)
        short = run_suite(load_frame(GOLDEN_NEARLY_PARSEVAL), "duals", trials=3, seed=5)
        assert short.checks == long.checks[: len(short.checks)]
        assert len(long.checks) == len(short.checks) + 4 * 4


class TestScaleFreeDuals:
    @pytest.mark.parametrize("c", [1e8, 1e10, 1e40])
    def test_large_frames_certify_their_trial_duals(self, c):
        # The trials perturb at min(1, 256 sqrt(n) / ||T||_F), so the round-off
        # stays within the dual equation's tolerance (at magnitude 1 every
        # trial errored with NotADualError at these scales).
        checks = run_suite(scaled_golden_frame(c), "duals", trials=4, seed=7).checks
        assert not [x.name for x in checks if "[error: " in x.name]
        trials = [x for x in checks if x.name.startswith("dual-equation[trial=")]
        assert len(trials) == 4 and all(x.passed for x in trials)


class TestChecksOncePerFamily:
    """Each random family is checked once, by its builder; the identities read that check."""

    def test_each_family_is_checked_once(self, monkeypatch):
        f = load_frame(GOLDEN_NEARLY_PARSEVAL)
        trials = 7
        batches_of(monkeypatch, 3)  # batches of 3, 3 and 1 trials in each suite
        want = run_suite(load_frame(GOLDEN_NEARLY_PARSEVAL), "all", trials=trials, seed=7)
        residual_stacks, gram_inputs, companions = [], [], []
        real_residuals, real_matrices = model.dual_residuals, model.frame_matrices
        real_companions = generators.parseval_stack

        def dual_residuals(lam, stack):
            residual_stacks.append(stack)
            return real_residuals(lam, stack)

        def frame_matrices(t):
            gram_inputs.append(t)
            return real_matrices(t)

        def parseval_stack(p, family):
            made = real_companions(p, family)
            companions.append(made[0])
            return made

        monkeypatch.setattr(model, "dual_residuals", dual_residuals)
        monkeypatch.setattr(model, "frame_matrices", frame_matrices)
        monkeypatch.setattr(identities, "frame_matrices", frame_matrices)
        monkeypatch.setattr(generators, "parseval_stack", parseval_stack)
        got = run_suite(f, "all", trials=trials, seed=7)
        assert got.checks == want.checks
        canonical = canonical_dual(f).stacked
        of_canonical = [d for d in residual_stacks if len(d) == 1 and np.array_equal(d[0], canonical)]
        # The canonical dual's residual is formed by its postcondition, by the dual-equation-canonical
        # row and by each of the two canonical decompositions, which check the dual they are given.
        assert len(of_canonical) == 4
        # Each trial's dual is one slice of one residual stack, its builder's (was 3).
        assert sum(len(d) for d in residual_stacks) - len(of_canonical) == trials
        # Per batch, S' of the companions is formed once, by their postcondition parseval_stack (was twice).
        assert len(companions) == 2 * 3
        assert [sum(t is p for t in gram_inputs) for p in companions] == [1] * len(companions)

    def test_failed_canonical_dual_is_formed_anew_by_each_caller(self, monkeypatch):
        # On the kappa(S) = 9e9 frame the canonical dual misses the dual equation
        # (residual ~8e-7 against 6e-8). No verdict is memoized, so the three
        # canonical rows, the trials' batch and each of its six one-seed redos
        # form the dual and its residual anew, and each raises the same error.
        residual_stacks = []
        real = model.dual_residuals

        def dual_residuals(lam, stack):
            residual_stacks.append(stack)
            return real(lam, stack)

        monkeypatch.setattr(model, "dual_residuals", dual_residuals)
        got = run_suite(kappa_frame(), "duals", trials=6, seed=7)
        assert len(residual_stacks) == 10
        errors = [c.name.split(" [error: ") for c in got.checks]
        assert [name for name, _ in errors] == [
            "dual-equation-canonical", "pointwise-dual-canonical-residual", "frobenius-dual-closed-form",
        ] + [f"dual-trial[trial={j}]" for j in range(6)]
        (message,) = {message for _, message in errors}
        assert message.startswith("PostconditionError: canonical dual fails the dual equation: residual ")

    def test_dual_command_forms_the_residual_once_per_dual(self, monkeypatch, capsys):
        want = main(["dual", str(GOLDEN_NEARLY_PARSEVAL), "--magnitude", "1", "--seed", "3"]), capsys.readouterr()
        residual_stacks = []
        real = model.dual_residuals

        def dual_residuals(lam, stack):
            residual_stacks.append(stack)
            return real(lam, stack)

        monkeypatch.setattr(model, "dual_residuals", dual_residuals)
        got = main(["dual", str(GOLDEN_NEARLY_PARSEVAL), "--magnitude", "1", "--seed", "3"]), capsys.readouterr()
        assert got == want
        # The canonical dual's postcondition, the random dual's builder, and the check the command prints.
        assert [len(d) for d in residual_stacks] == [1, 1, 1]

    def test_injected_failures_get_the_builders_errors(self, monkeypatch):
        f = load_frame(GOLDEN_NEARLY_PARSEVAL)
        batches_of(monkeypatch, 2)
        real_companions, real_duals = generators.parseval_stack, duals._perturbed_duals
        trial_seeds = []

        def recording_duals(lam, magnitude, seeds):
            trial_seeds.extend(seeds)
            return real_duals(lam, magnitude, seeds)

        monkeypatch.setattr(duals, "_perturbed_duals", recording_duals)
        good = run_suite(f, "all", trials=4, seed=7)
        poisoned = {trial_seeds[1], trial_seeds[3]}  # the last dual of each batch of 2

        def not_parseval(p, family):
            return real_companions(2.0 * p, family)  # each companion has S' = 4 I

        monkeypatch.setattr(generators, "parseval_stack", not_parseval)
        poison_duals(monkeypatch, poisoned.__contains__)
        bad = run_suite(load_frame(GOLDEN_NEARLY_PARSEVAL), "all", trials=4, seed=7)
        errors = [c.name for c in bad.checks if "[error: " in c.name]
        companion_rows = [f"{row}[trial={j}]" for row in ("weighted-energy", "parseval-approx-identity")
                          for j in range(4)]
        assert [name.split(" [error")[0] for name in errors] == companion_rows + [
            "dual-trial[trial=1]", "dual-trial[trial=3]"]
        assert all("[error: PostconditionError: random Parseval companion is not Parseval: " in name
                   for name in errors[:8])
        assert all("[error: NotADualError: family is not an alternate dual: " in name for name in errors[8:])
        # Trials 0 and 2 keep their dual rows value for value.
        kept = [c for c in bad.checks if c.name.startswith(("dual-equation[", "frobenius-dual-identity[",
                                                            "pointwise-dual-"))]
        assert kept == [c for c in good.checks if c.name.startswith((
            "dual-equation[", "frobenius-dual-identity[", "pointwise-dual-"))
            and not c.name.endswith(("[trial=1]", "[trial=3]"))]


class TestRendering:
    def test_json_floats_shortest_or_17_digits(self):
        # Floats are spelled as orjson spells them: the shortest digits that parse back to each.
        doc = {"value": 1.0 / 3.0, "small": 1e-05, "large": 1e16, "zero": 0.0, "sub": -5e-324}
        text = render_json(doc)
        assert text == orjson.dumps(doc, option=orjson.OPT_INDENT_2).decode()
        assert float_bits(json.loads(text)) == float_bits(doc)

    def test_rows_hold_builtin_floats_and_bools(self):
        x = np.float64
        rows = [
            equality_check("equal", x(1.0), x(1.0) + x(1e-12), x(1e-9)),
            at_most_check("at-most", x(2.0), x(1.0), x(0.5)),
            at_least_check("at-least", x(0.5), x(1.0), x(1.0)),
        ]
        for c in rows:
            assert [type(v) for v in (c.lhs, c.rhs, c.residual, c.tolerance, c.passed)] == [float] * 4 + [bool]
        assert [c.passed for c in rows] == [True, False, True]
        r = VerificationReport(frame_summary={"dim_h": 1, "counts": [1], "lower": 0.5, "upper": 1.5, "epsilon": 0.5},
                               checks=rows, overall=False)
        text = render_text(r)
        assert "np." not in text and "lhs=2.0 rhs=1.0 residual=1.0 tolerance=0.5" in text
        assert float_bits(json.loads(render_json(r))) == float_bits(report_to_dict(r))

    def test_json_parses_back(self):
        f = extremal_frame(2, 0.19)
        report = run_suite(f, "bounds", trials=1, seed=0)
        doc = json.loads(render_json(report_to_dict(report)))
        assert doc["overall"] is True

    def test_int_lists_keep_the_generic_layout(self):
        doc = {"counts": [1, 22, 3], "nested": [[4], [5, 6], []], "mixed": [1, True, None, "x"]}
        assert render_json(doc) == json.dumps(doc, indent=2)

    def test_json_rejects_non_finite(self):
        with pytest.raises(ValueError):
            render_json({"x": float("inf")})

    @pytest.mark.parametrize("name", ["extremal", "nearly-parseval", "wide-vectors", "nearly-parseval-1e8"])
    def test_flat_writer_equals_generic_render(self, monkeypatch, name):
        if name == "nearly-parseval-1e8":
            f = scaled_golden_frame(1e8)
            poison_duals(monkeypatch, lambda seed: True)  # error rows with a long name
        else:
            f = load_frame(GOLDEN / f"{name}.frame.json")
        for trials in (0, 4):
            r = run_suite(f, "all", trials=trials, seed=7)
            doc, text = report_to_dict(r), render_json(r)
            assert text == render_json(doc)
            assert text == orjson.dumps(doc, option=orjson.OPT_INDENT_2).decode()
            assert float_bits(json.loads(text)) == float_bits(doc)
        if name == "nearly-parseval-1e8":
            assert any("[error: " in c.name for c in r.checks)

    def test_flat_writer_escapes_names(self):
        name = 'quote " backslash \\ tab \t newline \n \u00fcmlaut \u2713 \U0001d4d5'
        summary = {"dim_h": 2, "counts": [1, 1], "lower": 0.5, "upper": 1.5, "epsilon": 0.5}
        for checks in ([], [CheckResult(name, 1.0 / 3.0, -0.0, 5e-324, 1e300, False),
                            CheckResult("plain", 1.0, 1.0, 0.0, 1e-9, True)]):
            r = VerificationReport(frame_summary=summary, checks=checks, overall=not checks)
            assert render_json(r) == render_json(report_to_dict(r))
        assert json.loads(render_json(r))["checks"][0]["name"] == name

    @pytest.mark.parametrize("field", ["lhs", "rhs", "residual", "tolerance"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_flat_writer_rejects_non_finite_as_before(self, field, value):
        fields = dict(name="x", lhs=1.0, rhs=1.0, residual=0.0, tolerance=1.0, passed=True)
        fields[field] = value
        r = VerificationReport(frame_summary={"dim_h": 1}, checks=[CheckResult(**fields)], overall=True)
        with pytest.raises(ValueError) as before:
            render_json(report_to_dict(r))
        with pytest.raises(ValueError) as now:
            render_json(r)
        assert str(now.value) == str(before.value)

    def test_non_finite_report_exits_2(self, monkeypatch, capsys):
        summary = {"dim_h": 1, "counts": [1], "lower": 0.5, "upper": 1.5, "epsilon": 0.5}
        rows = [CheckResult("x", 1.0, float("-inf"), float("inf"), 1.0, False)]
        monkeypatch.setattr("gframes.cli.run_suite", lambda *args, **kwargs: VerificationReport(summary, rows, False))
        assert main(["verify", str(GOLDEN / "extremal.frame.json"), "--json"]) == 2
        assert capsys.readouterr() == ("", "error: non-finite value in report: -inf\n")

    def test_text_has_status_per_row(self):
        report = run_suite(extremal_frame(2, 0.1), "bounds", trials=1, seed=0)
        text = render_text(report)
        assert text.count("PASS") >= len(report.checks)
        assert text.splitlines()[-1] == "overall: PASS"

    def test_residuals_non_negative_and_finite(self):
        report = run_suite(extremal_frame(4, 0.3), "all", trials=3, seed=1)
        for c in report.checks:
            assert c.residual >= 0.0
            assert c.residual < float("inf")
