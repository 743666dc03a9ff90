"""Verification suites and report rendering."""

import json

import pytest

from gframes.duals import extremal_frame
from gframes.generators import nearly_parseval_gframe, random_gframe
from gframes.model import GFrame
from gframes.report import (
    _guard,
    at_least_check,
    at_most_check,
    equality_check,
    render_json,
    render_text,
    report_to_dict,
    run_suite,
)


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

        def boom():
            raise RuntimeError("kaput")

        _guard(rows, "exploding-check", boom)
        assert len(rows) == 1
        assert not rows[0].passed
        assert "kaput" in rows[0].name
        assert rows[0].residual >= 0.0


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


class TestRendering:
    def test_json_floats_shortest_or_17_digits(self):
        text = render_json({"value": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_json_parses_back(self):
        f = extremal_frame(2, 0.19)
        report = run_suite(f, "bounds", trials=1, seed=0)
        doc = json.loads(render_json(report_to_dict(report)))
        assert doc["overall"] is True

    def test_json_rejects_non_finite(self):
        with pytest.raises(ValueError):
            render_json({"x": float("inf")})

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
