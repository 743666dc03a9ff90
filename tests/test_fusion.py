"""Fusion frames: S, the canonical families and the report against their exact values.

A fusion frame here is v * rows, cut into operators v_i E_i* with E_i an
n x k_i isometry (conftest.fusion_frames). rows* rows = I, so S = v^2 I,
S^a = v^(2a) I, the canonical Parseval family is rows and the canonical dual
is rows / v. Unlike harmonic frames, the operators have blocks k_i > 1. S is
one repeated eigenvalue, so the eigenvectors eigh returns are arbitrary.

Tolerances are those of test_harmonic: 8 * K * n * u * (1 + |exact|).
"""

import numpy as np
from hypothesis import given, settings

from gframes.model import GFrame, canonical_dual, canonical_parseval, frame_operator, verify_alternate_dual
from gframes.report import run_suite

from conftest import fusion_frames
from test_harmonic import assert_exact

EXAMPLES = settings(deadline=None, max_examples=40)


def fusion_frame(rows, counts, v):
    return GFrame.from_stacked(v * rows, counts)


class TestFusionFrames:
    @EXAMPLES
    @given(fusion_frames())
    def test_frame_operator_and_canonical_families(self, frame):
        rows, counts, v = frame
        k, n = rows.shape
        f = fusion_frame(*frame)
        assert max(counts) > 1
        assert_exact(frame_operator(f).matrix, v * v * np.eye(n), k, n)
        assert_exact(canonical_parseval(f).stacked, rows, k, n)
        assert_exact(canonical_dual(f).stacked, rows / v, k, n)
        assert verify_alternate_dual(f, canonical_dual(f)).passed

    @EXAMPLES
    @given(fusion_frames())
    def test_report_fails_only_an_out_of_range_rating(self, frame):
        # The rating is |v^2 - 1|; every other row holds at any weight.
        v = frame[2]
        report = run_suite(fusion_frame(*frame), "all", trials=3)
        assert "epsilon-in-range" in [c.name for c in report.checks]
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ([] if abs(v * v - 1.0) < 1.0 else ["epsilon-in-range"])
