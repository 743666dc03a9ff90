"""Randomized verification suites and their report type.

A report row carries the two compared values, a non-negative residual, and
the tolerance the residual was judged against, so disagreements stay
auditable. Suites draw companion families, duals, and probe vectors from
child seeds of one master stream; the same seed reproduces the report
byte for byte. Rows hold builtin floats and bools, whatever their callers
pass, and the JSON report is orjson's text of the report dataclass.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, is_dataclass

import numpy as np
import orjson

from .duals import (
    certified_duals,
    dual_proximity_bound,
    parseval_proximity_bound,
    proximity_slack,
    verify_alternate_dual,
)
from .generators import batch_item_bytes, in_batches, parseval_companions, unwrap
from .identities import (
    canonical_dual_gap,
    dual_closed_form_tolerance,
    frobenius_dual_decomposition,
    frobenius_dual_tolerance,
    parseval_approx_decomposition,
    parseval_approx_tolerance,
    parseval_budget_tolerance,
    parseval_frobenius_budget,
    parseval_gap,
    parseval_gap_tolerance,
    parseval_weighted_energy,
    pointwise_dual_decomposition,
    pointwise_dual_tolerance,
    power_trace_identity,
    power_trace_tolerance,
    spectral_parseval_gap,
    weighted_energy_tolerance,
)
from .linalg import frobenius_norm_sq
from .model import (
    GFrame,
    canonical_dual,
    canonical_parseval,
    frame_operator,
    total_frobenius_energy,
    validate_frame,
)
from .rng import complex_gaussian_matrix, standard_normals, stream

SUITE_NAMES = ("budgets", "parseval-approx", "duals", "bounds", "all")
POWER_EXPONENTS = (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)
DEFAULT_TRIALS = 50


@dataclass(frozen=True)
class CheckResult:
    name: str
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    frame_summary: dict
    checks: list[CheckResult]
    overall: bool


def equality_check(name: str, lhs: float, rhs: float, tolerance: float) -> CheckResult:
    residual = float(abs(lhs - rhs))
    return CheckResult(name, float(lhs), float(rhs), residual, float(tolerance), bool(residual <= tolerance))


def at_most_check(name: str, lhs: float, rhs: float, slack: float) -> CheckResult:
    """Passes when lhs <= rhs + slack; residual is the excess over rhs."""
    residual = float(max(0.0, lhs - rhs))
    return CheckResult(name, float(lhs), float(rhs), residual, float(slack), bool(residual <= slack))


def at_least_check(name: str, lhs: float, rhs: float, slack: float) -> CheckResult:
    """Passes when lhs >= rhs - slack; residual is the shortfall below rhs."""
    residual = float(max(0.0, rhs - lhs))
    return CheckResult(name, float(lhs), float(rhs), residual, float(slack), bool(residual <= slack))


@contextmanager
def _guard(checks: list[CheckResult], name: str):
    """Yield add(check, lhs, rhs, tolerance, row=name) for one step's rows.

    The rows join checks only when the block completes; an exception in it
    becomes one failed row under the step's name instead.
    """
    rows: list[CheckResult] = []

    def add(check, lhs: float, rhs: float, tolerance: float, row: str = name) -> None:
        rows.append(check(row, lhs, rhs, tolerance))

    try:
        yield add
    except Exception as exc:  # any check exception marks the report failed
        checks.append(
            CheckResult(f"{name} [error: {type(exc).__name__}: {exc}]", 0.0, 0.0, 0.0, -1.0, False)
        )
    else:
        checks.extend(rows)


def _child_seed(master: np.random.Generator) -> int:
    return int(master.integers(1 << 62))


def _companion_terms(f: GFrame, seeds: list[int], terms):
    """Per seed: its entry of terms(companions), or the exception that stopped it.

    terms maps a (B, K, n) stack of random Parseval companions of f's shape
    to one value per companion. The companions and terms are built per batch
    of generators.in_batches, with one call of each per batch, as the
    iteration reaches them.
    """
    return in_batches(lambda batch: terms(parseval_companions(f.dim_h, f.counts, batch)),
                      seeds, batch_item_bytes(*f.stacked.shape, companion=True))


def budgets_suite(f: GFrame, trials: int, seed: int) -> list[CheckResult]:
    """Energy interval, Parseval budget, power-trace equality, weighted-energy invariance."""
    checks: list[CheckResult] = []
    master = stream(seed, substream=1)
    bounds = validate_frame(f)
    n = f.dim_h

    energy = total_frobenius_energy(f)
    trace_s = float(np.trace(frame_operator(f).matrix).real)
    with _guard(checks, "energy-equals-trace") as add:
        add(equality_check, energy, trace_s, 1e-10 * (1.0 + trace_s))
    with _guard(checks, "energy-interval-lower") as add:
        add(at_least_check, energy, bounds.lower * n, 1e-9 * (1.0 + bounds.lower * n))
    with _guard(checks, "energy-interval-upper") as add:
        add(at_most_check, energy, bounds.upper * n, 1e-9 * (1.0 + bounds.upper * n))
    with _guard(checks, "parseval-budget-canonical") as add:
        value = parseval_frobenius_budget(canonical_parseval(f))
        add(equality_check, value, float(n), parseval_budget_tolerance(n))
    for a in POWER_EXPONENTS:
        with _guard(checks, f"power-trace[a={a}]") as add:
            lhs, rhs = power_trace_identity(f, a)
            add(equality_check, lhs, rhs, power_trace_tolerance(rhs))

    weight = complex_gaussian_matrix(master, n, n)
    weight_sq = frobenius_norm_sq(weight)
    values: list[float] = []
    seeds = [_child_seed(master) for _ in range(trials)]
    energies = _companion_terms(f, seeds, lambda stack: parseval_weighted_energy(weight, stack).tolist())
    for j, outcome in enumerate(energies):
        with _guard(checks, f"weighted-energy[trial={j}]") as add:
            value = unwrap(outcome)
            values.append(value)
            add(equality_check, value, weight_sq, weighted_energy_tolerance(weight_sq))
    if values:
        with _guard(checks, "weighted-energy-spread") as add:
            add(at_most_check, max(values) - min(values), 0.0, 1e-7 * (1.0 + weight_sq))
    return checks


def parseval_approx_suite(f: GFrame, trials: int, seed: int) -> list[CheckResult]:
    """Distance decomposition against Parseval companions and its minimality."""
    checks: list[CheckResult] = []
    master = stream(seed, substream=2)

    with _guard(checks, "parseval-gap-two-path") as add:
        gap = parseval_gap(f)
        add(equality_check, gap, spectral_parseval_gap(f), parseval_gap_tolerance(gap))
    with _guard(checks, "parseval-approx-canonical") as add:
        total, canonical_gap, cross = parseval_approx_decomposition(f, canonical_parseval(f))
        add(at_most_check, cross, 0.0, 1e-8, row="parseval-approx-canonical-cross")
        add(equality_check, total, canonical_gap, 1e-8 * (1.0 + total), row="parseval-approx-canonical-total")

    def decompositions(companions) -> list:
        total, canonical_gap, cross = parseval_approx_decomposition(f, companions)
        return [(t, canonical_gap, c) for t, c in zip(total.tolist(), cross.tolist())]

    totals: list[float] = []
    seeds = [_child_seed(master) for _ in range(trials)]
    for j, outcome in enumerate(_companion_terms(f, seeds, decompositions)):
        with _guard(checks, f"parseval-approx-identity[trial={j}]") as add:
            total, canonical_gap, cross = unwrap(outcome)
            totals.append(total)
            add(equality_check, total, canonical_gap + cross, parseval_approx_tolerance(total))
    if totals:
        # parseval_gap again, not the row above's value, so a gap that cannot be
        # computed errors this row with its own exception.
        with _guard(checks, "parseval-gap-minimality") as add:
            add(at_least_check, min(totals), parseval_gap(f), 1e-9)
    return checks


def duals_suite(f: GFrame, trials: int, seed: int) -> list[CheckResult]:
    """Dual equation, both dual decompositions, and canonical-dual minimality."""
    checks: list[CheckResult] = []
    master = stream(seed, substream=3)
    n = f.dim_h
    # The trials' perturbations shrink with a large frame, so their round-off keeps
    # within the dual equation's tolerance; on a frame with ||T||_F <= 256 sqrt(n) it is 1.
    magnitude = min(1.0, 256.0 * math.sqrt(n / total_frobenius_energy(f)))

    # Each step calls canonical_dual itself, so a failed postcondition
    # becomes that step's error instead of ending the report.
    with _guard(checks, "dual-equation-canonical") as add:
        cert = verify_alternate_dual(f, canonical_dual(f))
        add(at_most_check, cert.residual, 0.0, cert.tolerance)
    with _guard(checks, "pointwise-dual-canonical-residual") as add:
        # One draw of the 5 probes, made first, so the trials' seeds never depend on the dual.
        parts = standard_normals(master, 5 * 2 * n).reshape(5, 2 * n)
        probes = parts[:, :n] + 1j * parts[:, n:]
        _, _, residual = pointwise_dual_decomposition(f, canonical_dual(f), probes.T)
        add(at_most_check, float(np.max(residual)), 0.0, 1e-10)
    with _guard(checks, "frobenius-dual-closed-form") as add:
        total, canonical_term, residual = frobenius_dual_decomposition(f, canonical_dual(f))
        add(at_most_check, residual, 0.0, 1e-9, row="frobenius-dual-canonical-residual")
        add(equality_check, canonical_term, canonical_dual_gap(f), dual_closed_form_tolerance(canonical_term))

    def probe() -> np.ndarray:
        parts = standard_normals(master, 2 * n)
        return parts[:n] + 1j * parts[n:]

    def build(batch: list) -> list:
        """Per trial: its certificate and Frobenius and pointwise terms, from one stacked call per identity."""
        stack, certificates = certified_duals(f, magnitude, [child for child, _ in batch])
        probes = np.array([vector for _, vector in batch]).T
        total, canonical_term, residual = frobenius_dual_decomposition(f, stack)
        ptotal, pcanon, pres = pointwise_dual_decomposition(f, stack, probes)
        return [(cert, (t, canonical_term, r), (pt, pc, pr)) for cert, t, r, pt, pc, pr in zip(
            certificates, total.tolist(), residual.tolist(), ptotal.tolist(), pcanon.tolist(), pres.tolist())]

    # Every trial's (seed, probe) pair is drawn before any dual, so trial j's draws depend on (seed, j) alone.
    drawn = [(_child_seed(master), probe()) for _ in range(trials)]
    item_bytes = batch_item_bytes(*f.stacked.shape, companion=False)
    for j, outcome in enumerate(in_batches(build, drawn, item_bytes)):
        with _guard(checks, f"dual-trial[trial={j}]") as add:
            cert, (total, canonical_term, residual), (ptotal, pcanon, pres) = unwrap(outcome)
            add(at_most_check, cert.residual, 0.0, cert.tolerance, row=f"dual-equation[trial={j}]")
            add(equality_check, total, canonical_term + residual, frobenius_dual_tolerance(total),
                row=f"frobenius-dual-identity[trial={j}]")
            add(equality_check, ptotal, pcanon + pres, pointwise_dual_tolerance(ptotal),
                row=f"pointwise-dual-identity[trial={j}]")
            add(at_least_check, ptotal, pcanon, 1e-9 * (1.0 + ptotal), row=f"pointwise-dual-minimality[trial={j}]")
    return checks


def bounds_suite(f: GFrame) -> list[CheckResult]:
    """Both proximity bounds; requires the nearly-Parseval rating below 1."""
    checks: list[CheckResult] = []
    bounds = validate_frame(f)
    eps = bounds.epsilon
    n = f.dim_h
    # eps < 1 exactly when eps <= pred(1), so the row passes by residual <= tolerance.
    checks.append(at_most_check("epsilon-in-range", eps, math.nextafter(1.0, 0.0), 0.0))
    if not checks[-1].passed:
        return checks

    with _guard(checks, "parseval-proximity-bound") as add:
        gap, bound = parseval_proximity_bound(f)
        add(at_most_check, gap, bound, proximity_slack(n))
    with _guard(checks, "dual-proximity-bound") as add:
        gap, bound = dual_proximity_bound(f)
        add(at_most_check, gap, bound, proximity_slack(n))
    return checks


def run_suite(f: GFrame, suite: str = "all", trials: int = DEFAULT_TRIALS, seed: int = 0) -> VerificationReport:
    """Assemble the report for one suite (or all of them) on a certified frame."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITE_NAMES}")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    bounds = validate_frame(f)
    summary = {
        "dim_h": f.dim_h,
        "counts": list(f.counts),
        "lower": bounds.lower,
        "upper": bounds.upper,
        "epsilon": bounds.epsilon,
    }
    checks: list[CheckResult] = []
    if suite in ("budgets", "all"):
        checks.extend(budgets_suite(f, trials, seed))
    if suite in ("parseval-approx", "all"):
        checks.extend(parseval_approx_suite(f, trials, seed))
    if suite in ("duals", "all"):
        checks.extend(duals_suite(f, trials, seed))
    if suite in ("bounds", "all"):
        checks.extend(bounds_suite(f))
    overall = all(c.passed for c in checks)
    return VerificationReport(frame_summary=summary, checks=checks, overall=overall)


def report_to_dict(report: VerificationReport) -> dict:
    return asdict(report)


def _first_non_finite(obj):
    """The first non-finite float in obj, a report or a document of dicts and lists, in document order; else None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else obj
    if is_dataclass(obj):
        obj = vars(obj)
    items = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, (list, tuple)) else ()
    return next((x for x in map(_first_non_finite, items) if x is not None), None)


def render_json(obj) -> str:
    """obj, a report or a document of dicts, lists and scalars, as orjson's JSON text indented by 2.

    orjson writes each float in the shortest digits that parse back to it,
    and a dataclass as the object of its fields in order. A non-finite float
    raises ValueError.
    """
    text = orjson.dumps(obj, option=orjson.OPT_INDENT_2)
    if b"null" in text:  # orjson writes NaN and +-inf as null
        value = _first_non_finite(obj)
        if value is not None:
            raise ValueError(f"non-finite value in report: {value!r}")
    return text.decode()


def render_text(report: VerificationReport) -> str:
    s = report.frame_summary
    lines = [
        f"frame: n={s['dim_h']} operators={len(s['counts'])} "
        f"counts={','.join(str(k) for k in s['counts'])}",
        f"bounds: A={s['lower']!r} B={s['upper']!r} epsilon={s['epsilon']!r}",
        "checks:",
    ]
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"  {status} {c.name} lhs={c.lhs!r} rhs={c.rhs!r} "
            f"residual={c.residual!r} tolerance={c.tolerance!r}"
        )
    lines.append(f"overall: {'PASS' if report.overall else 'FAIL'}")
    return "\n".join(lines)
