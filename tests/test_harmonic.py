"""Harmonic frames: every reported quantity against its exact value.

A harmonic frame is T = sqrt(c) * F, with F the first n columns of the K x K
DFT matrix over sqrt(K) (conftest.harmonic_rows), cut into K rank-one
operators. F* F = I, so S = c I, A = B = c and S^a = c^a I; the canonical
Parseval family is F, the canonical dual is F / sqrt(c), and the gaps are
n (sqrt(c) - 1)^2 and n (c - 1)^2 / c. The spectrum of S is one repeated
eigenvalue, so the eigenvectors eigh returns are arbitrary; only their span
is fixed.

Every tolerance is M * K * n * u * (1 + |exact|), with u the unit round-off
and |exact| the largest modulus of the exact value.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from gframes.duals import dual_proximity_bound, parseval_proximity_bound
from gframes.errors import EpsilonOutOfRangeError
from gframes.identities import canonical_dual_gap, parseval_gap
from gframes.model import GFrame, canonical_dual, canonical_parseval, frame_operator, validate_frame

from conftest import harmonic_frames, harmonic_rows

M = 8
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
EXPONENTS = (-1.0, -0.5, 0.5, 1.0, 2.0)
EXAMPLES = settings(deadline=None, max_examples=40)


def harmonic_frame(k, n, c):
    return GFrame.from_stacked(math.sqrt(c) * harmonic_rows(k, n), (1,) * k)


def assert_exact(got, exact, k, n):
    error = float(np.max(np.abs(np.asarray(got) - exact)))
    tolerance = M * k * n * UNIT_ROUNDOFF * (1.0 + float(np.max(np.abs(exact))))
    assert error <= tolerance, f"error {error:.3e} exceeds {tolerance:.3e}"


def parseval_gap_of(n, c):
    return n * (math.sqrt(c) - 1.0) ** 2


def dual_gap_of(n, c):
    return n * (c - 1.0) ** 2 / c


class TestHarmonicFrames:
    @EXAMPLES
    @given(harmonic_frames())
    @example((9, 4, 1.7))
    def test_frame_operator_bounds_and_powers(self, shape):
        k, n, c = shape
        f = harmonic_frame(k, n, c)
        fo = frame_operator(f)
        eye = np.eye(n)
        assert_exact(fo.matrix, c * eye, k, n)
        bounds = validate_frame(f)
        assert_exact(bounds.lower, c, k, n)
        assert_exact(bounds.upper, c, k, n)
        for a in EXPONENTS:
            assert_exact(fo.power(a), c**a * eye, k, n)

    @EXAMPLES
    @given(harmonic_frames())
    @example((9, 4, 1.7))
    def test_canonical_families(self, shape):
        k, n, c = shape
        f = harmonic_frame(k, n, c)
        assert_exact(canonical_parseval(f).stacked, harmonic_rows(k, n), k, n)
        assert_exact(canonical_dual(f).stacked, harmonic_rows(k, n) / math.sqrt(c), k, n)

    @EXAMPLES
    @given(harmonic_frames())
    @example((9, 4, 1.7))
    def test_gaps(self, shape):
        k, n, c = shape
        f = harmonic_frame(k, n, c)
        assert_exact(parseval_gap(f), parseval_gap_of(n, c), k, n)
        assert_exact(canonical_dual_gap(f), dual_gap_of(n, c), k, n)


class TestHarmonicProximityBounds:
    """For c < 1 the rating is 1 - c and both bounds are attained; for 1 < c < 2 it is c - 1 and they are not."""

    @EXAMPLES
    @given(harmonic_frames(max_c=1.0))
    def test_attained_below_one(self, shape):
        k, n, c = shape
        f = harmonic_frame(k, n, c)
        for bound_of, gap in ((parseval_proximity_bound, parseval_gap_of(n, c)),
                              (dual_proximity_bound, dual_gap_of(n, c))):
            got_gap, bound = bound_of(f)
            assert_exact(got_gap, gap, k, n)
            assert_exact(bound, gap, k, n)

    # The bounds read 2 - B, so their forward error grows as 1 / (2 - c)^2; 2 - c >= 1/2 keeps it near the gaps'.
    @EXAMPLES
    @given(harmonic_frames(min_c=1.0, max_c=1.5))
    def test_not_attained_above_one(self, shape):
        k, n, c = shape
        f = harmonic_frame(k, n, c)
        for bound_of, gap, bound in (
                (parseval_proximity_bound, parseval_gap_of(n, c), n * (1.0 - math.sqrt(2.0 - c)) ** 2),
                (dual_proximity_bound, dual_gap_of(n, c), n * (c - 1.0) ** 2 / (2.0 - c))):
            got_gap, got_bound = bound_of(f)
            assert_exact(got_gap, gap, k, n)
            assert_exact(got_bound, bound, k, n)

    def test_ratios_at_c_1_2(self):
        f = harmonic_frame(9, 4, 1.2)
        gap, bound = parseval_proximity_bound(f)
        assert round(gap / bound, 2) == 0.82
        gap, bound = dual_proximity_bound(f)
        assert round(gap / bound, 2) == 0.67

    @EXAMPLES
    @given(harmonic_frames(min_c=2.01, max_c=3.0))
    def test_rating_of_one_or_more_raises(self, shape):
        f = harmonic_frame(*shape)
        for bound_of in (parseval_proximity_bound, dual_proximity_bound):
            with pytest.raises(EpsilonOutOfRangeError):
                bound_of(f)
