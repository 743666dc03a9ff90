"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, not tuned at runtime.
"""

import time

import numpy as np
import pytest

from gframes.duals import (
    dual_proximity_bound,
    extremal_frame,
    parseval_proximity_bound,
    random_alternate_dual,
)
from gframes.generators import nearly_parseval_gframe, random_gframe, random_parseval_gframe
from gframes.identities import (
    canonical_dual_gap,
    frobenius_dual_decomposition,
    parseval_approx_decomposition,
    parseval_gap,
    parseval_weighted_energy,
    pointwise_dual_decomposition,
    power_trace_identity,
)
from gframes.linalg import frobenius_norm_sq, hermitian_eig
from gframes.model import FrameOperator, canonical_dual, canonical_parseval, reconstruct, total_frobenius_energy
from gframes.cli import main as cli_main
from gframes.io import save_frame
from gframes.model import GFrame


POWER_SET = (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)


def report_line(name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {name}: {status} in {elapsed:.2f}s{suffix}")


def random_counts(rng, n):
    """Output dimensions with mild redundancy so conditioning stays moderate."""
    counts = []
    total = 0
    while total < 2 * n:
        k = int(rng.integers(1, max(2, n // 2) + 1))
        counts.append(k)
        total += k
    return tuple(counts)


def test_criterion_01_parseval_budget():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 17))
        g = random_parseval_gframe(n, random_counts(rng, n), seed=trial)
        worst = max(worst, abs(total_frobenius_energy(g) - n) / n)
        assert abs(total_frobenius_energy(g) - n) <= 1e-8 * n
    elapsed = time.perf_counter() - start
    report_line("01 parseval-budget", True, elapsed, f"worst rel dev {worst:.2e}")
    assert elapsed < 5.0


def test_criterion_02_power_trace_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 17))
        f = random_gframe(n, random_counts(rng, n), seed=1000 + trial)
        for a in POWER_SET:
            lhs, rhs = power_trace_identity(f, a)
            rel = abs(lhs - rhs) / rhs
            worst = max(worst, rel)
            assert rel <= 1e-8
    elapsed = time.perf_counter() - start
    report_line("02 power-trace", True, elapsed, f"worst rel dev {worst:.2e}")
    assert elapsed < 20.0


def test_criterion_03_parseval_approx_decomposition():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst_identity = 0.0
    worst_cross = 0.0
    for trial in range(500):
        n = int(rng.integers(2, 17))
        counts = random_counts(rng, n)
        lam = random_gframe(n, counts, seed=2000 + trial)
        gam = random_parseval_gframe(n, counts, seed=600000 + trial)
        total, gap, cross = parseval_approx_decomposition(lam, gam)
        residual = abs(total - gap - cross)
        worst_identity = max(worst_identity, residual / (1 + total))
        assert residual <= 1e-7 * (1 + total)
        _, _, canonical_cross = parseval_approx_decomposition(lam, canonical_parseval(lam))
        worst_cross = max(worst_cross, canonical_cross)
        assert canonical_cross <= 1e-8
    elapsed = time.perf_counter() - start
    report_line(
        "03 parseval-approx-decomposition", True, elapsed,
        f"worst identity {worst_identity:.2e}, worst canonical cross {worst_cross:.2e}",
    )
    assert elapsed < 30.0


def test_criterion_04_parseval_gap_minimality():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    for frame_idx in range(3):
        n = int(rng.integers(2, 9))
        counts = random_counts(rng, n)
        lam = random_gframe(n, counts, seed=3000 + frame_idx)
        gap = parseval_gap(lam)
        totals = []
        for competitor in range(200):
            gam = random_parseval_gframe(n, counts, seed=700000 + 1000 * frame_idx + competitor)
            total, _, _ = parseval_approx_decomposition(lam, gam)
            totals.append(total)
        assert min(totals) >= gap - 1e-9
        canonical_total, _, _ = parseval_approx_decomposition(lam, canonical_parseval(lam))
        assert abs(canonical_total - gap) <= 1e-8 * (1 + gap)
        assert canonical_total <= min(totals) + 1e-9
    elapsed = time.perf_counter() - start
    report_line("04 parseval-gap-minimality", True, elapsed)


def test_criterion_05_parseval_proximity_bound_and_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    eps_grid = [round(0.05 * k, 2) for k in range(1, 19)]  # 0.05 .. 0.90
    for eps in eps_grid:
        for trial in range(28):
            n = int(rng.integers(2, 9))
            g = nearly_parseval_gframe(n, random_counts(rng, n), eps, seed=4000 + trial)
            gap, bound = parseval_proximity_bound(g)
            assert gap <= bound + 1e-9 * n
    for n in range(1, 17):
        for eps in eps_grid:
            f = extremal_frame(n, eps)
            gap, bound = parseval_proximity_bound(f)
            assert abs(gap - bound) <= 1e-9 * n
    spot_gap, spot_bound = parseval_proximity_bound(extremal_frame(2, 0.19))
    assert spot_bound == pytest.approx(0.02, abs=1e-9)
    assert spot_gap == pytest.approx(0.02, abs=1e-9)
    elapsed = time.perf_counter() - start
    report_line("05 parseval-proximity-bound", True, elapsed, "spot value 0.02 confirmed")


def test_criterion_06_pointwise_dual_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    worst = 0.0
    worst_canonical = 0.0
    for pair in range(100):
        n = int(rng.integers(2, 9))
        lam = random_gframe(n, random_counts(rng, n), seed=5000 + pair)
        dual = random_alternate_dual(lam, magnitude=float(rng.uniform(0.1, 5.0)), seed=pair)
        canonical = canonical_dual(lam)
        for _ in range(100):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            total, canon, residual = pointwise_dual_decomposition(lam, dual, x)
            gap = abs(total - canon - residual)
            worst = max(worst, gap / (1 + total))
            assert gap <= 1e-8 * (1 + total)
        _, _, canonical_residual = pointwise_dual_decomposition(
            lam, canonical, rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        worst_canonical = max(worst_canonical, canonical_residual)
        assert canonical_residual <= 1e-10
    elapsed = time.perf_counter() - start
    report_line(
        "06 pointwise-dual-identity", True, elapsed,
        f"worst identity {worst:.2e}, worst canonical residual {worst_canonical:.2e}",
    )


def test_criterion_07_frobenius_dual_identity_and_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    for pair in range(100):
        n = int(rng.integers(2, 9))
        lam = random_gframe(n, random_counts(rng, n), seed=6000 + pair)
        dual = random_alternate_dual(lam, magnitude=float(rng.uniform(0.1, 3.0)), seed=pair)
        total, canonical, residual = frobenius_dual_decomposition(lam, dual)
        assert abs(total - canonical - residual) <= 1e-7 * (1 + total)
        assert abs(canonical - canonical_dual_gap(lam)) <= 1e-8 * (1 + canonical)
    eps_grid = [round(0.05 * k, 2) for k in range(1, 19)]
    for n in range(1, 17):
        for eps in eps_grid:
            gap, bound = dual_proximity_bound(extremal_frame(n, eps))
            assert abs(gap - bound) <= 1e-9 * n
    for eps in eps_grid:
        for trial in range(5):
            n = int(rng.integers(2, 9))
            g = nearly_parseval_gframe(n, random_counts(rng, n), eps, seed=6500 + trial)
            gap, bound = dual_proximity_bound(g)
            assert gap <= bound + 1e-9 * n
    spot_gap, spot_bound = dual_proximity_bound(extremal_frame(2, 0.5))
    assert spot_bound == pytest.approx(1.0, abs=1e-9)
    assert spot_gap == pytest.approx(1.0, abs=1e-9)
    elapsed = time.perf_counter() - start
    report_line("07 frobenius-dual-identity-and-bound", True, elapsed, "spot value 1.0 confirmed")


def test_criterion_08_weighted_energy_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(108)
    n = 5
    weight = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    weight_sq = frobenius_norm_sq(weight)
    tol = 1e-7 * (1 + weight_sq)
    values = []
    for trial in range(50):
        counts = random_counts(rng, n)
        g = random_parseval_gframe(n, counts, seed=7000 + trial)
        value = parseval_weighted_energy(weight, g)
        values.append(value)
        assert abs(value - weight_sq) <= tol
    assert max(values) - min(values) <= tol
    elapsed = time.perf_counter() - start
    report_line(
        "08 weighted-energy-invariance", True, elapsed,
        f"spread {max(values) - min(values):.2e}",
    )


def test_criterion_09_core_numerics():
    start = time.perf_counter()
    rng = np.random.default_rng(109)
    for _ in range(1000):
        n = int(rng.integers(2, 33))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = g + g.conj().T
        eig = hermitian_eig(m)
        u = eig.eigenvectors
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10 * n
        rec = (u * eig.eigenvalues) @ u.conj().T
        assert np.linalg.norm(rec - m) <= 1e-9 * (1 + np.linalg.norm(m))

    exponents = (-1.0, -0.5, -0.25, 0.25, 0.5, 1.0)
    for n in (4, 8, 16):
        for cond in (1e1, 1e2, 1e4):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            basis = hermitian_eig(g + g.conj().T).eigenvectors
            spectrum = np.geomspace(1.0, 1.0 / cond, n)
            s = (basis * spectrum) @ basis.conj().T
            op = FrameOperator(s)  # memoizes each power
            for a in exponents:
                for b in exponents:
                    target = op.power(a + b)
                    gap = np.linalg.norm(op.power(a) @ op.power(b) - target)
                    assert gap <= 1e-8 * np.linalg.norm(target)
    elapsed = time.perf_counter() - start
    report_line("09 core-numerics", True, elapsed)
    assert elapsed < 60.0


def test_criterion_10_reconstruction():
    start = time.perf_counter()
    rng = np.random.default_rng(110)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 13))
        f = random_gframe(n, random_counts(rng, n), seed=8000 + trial)
        for _ in range(20):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            err = np.linalg.norm(reconstruct(f, x) - x) / np.linalg.norm(x)
            worst = max(worst, err)
            assert err <= 1e-8
    elapsed = time.perf_counter() - start
    report_line("10 reconstruction", True, elapsed, f"worst rel err {worst:.2e}")


def test_criterion_11_cli_contract(tmp_path, capsys):
    start = time.perf_counter()

    def run(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # round trip: generator bounds reappear under analyze
    frame_path = tmp_path / "near.json"
    code, gen_out, _ = run(
        "gen", "nearly-parseval", "--n", "4", "--counts", "2,2,2",
        "--epsilon", "0.3", "--seed", "9", "-o", str(frame_path),
    )
    assert code == 0
    code, analyze_out, _ = run("analyze", str(frame_path))
    assert code == 0
    gen_fields = dict(line.split(": ", 1) for line in gen_out.splitlines() if ": " in line)
    an_fields = dict(line.split(": ", 1) for line in analyze_out.splitlines() if ": " in line)
    for key in ("A", "B", "epsilon"):
        assert abs(float(an_fields[key]) - float(gen_fields[key])) <= 1e-8

    # determinism: same flags and seed give identical files and identical reports
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run("gen", "parseval", "--n", "3", "--counts", "2,2", "--seed", "4", "-o", str(p1))
    run("gen", "parseval", "--n", "3", "--counts", "2,2", "--seed", "4", "-o", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    _, rep1, _ = run("verify", str(p1), "--suite", "all", "--trials", "3", "--seed", "1", "--json")
    _, rep2, _ = run("verify", str(p1), "--suite", "all", "--trials", "3", "--seed", "1", "--json")
    assert rep1 == rep2

    # exit codes per command
    assert run("gen", "nearly-parseval", "--n", "2", "--epsilon", "1.2")[0] == 2
    assert run("analyze", str(tmp_path / "missing.json"))[0] == 2
    bad_path = tmp_path / "bessel.json"
    save_frame(GFrame([np.array([[1.0, 0.0]])]), bad_path)
    assert run("analyze", str(bad_path))[0] == 3
    assert run("verify", str(bad_path))[0] == 3
    wide_path = tmp_path / "wide.json"
    save_frame(GFrame([np.diag([2.0, 1.0])]), wide_path)
    assert run("verify", str(wide_path), "--suite", "bounds")[0] == 4
    assert run("dual", str(bad_path))[0] == 3

    # full verification on a generated extremal frame
    extremal_path = tmp_path / "extremal.json"
    assert run("gen", "extremal", "--n", "3", "--epsilon", "0.2", "-o", str(extremal_path))[0] == 0
    code, out, _ = run("verify", str(extremal_path), "--suite", "all")
    assert code == 0
    assert "overall: PASS" in out

    elapsed = time.perf_counter() - start
    report_line("11 cli-contract", True, elapsed)
