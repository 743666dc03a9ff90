"""The three benchmark workloads: inputs, ops and the numpy oracle for each.

A workload builds its inputs from the workload seed with numpy alone, so a
change to `gframes.generators` cannot change what the program receives.
Op `i` derives its own seeds from the workload seed and `i`. Each op is a
list of `gframe` command lines run in-process; the oracle checks their exit
codes, their stdout and the files they wrote against values computed here
with numpy, independently of the package.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

POWER_EXPONENTS = (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)
# Frame bounds and rating must match eigvalsh(T^H T) to this relative band.
BOUNDS_RTOL = 1e-9
# Gaps computed by the program must match their spectral forms to this band.
GAP_RTOL = 1e-8
# The written dual must satisfy ||sum adjoint(lam_i) gam_i - I||_F <= this * n.
DUAL_TOL = 1e-8
# Distinct input frames per verify workload; op i uses frame i mod POOL.
POOL = 8


class OracleError(Exception):
    """An op's output disagrees with the oracle."""


def derive_seed(seed: int, *keys: int) -> int:
    """A non-negative 63-bit seed derived from the workload seed and keys."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


def _close(got, want: float, rtol: float, what: str) -> None:
    if not isinstance(got, (int, float)) or not abs(got - want) <= rtol * (1.0 + abs(want)):
        raise OracleError(f"{what} = {got!r}, expected {want!r} within {rtol:g}*(1+|x|)")


def _equal(got, want, what: str) -> None:
    if got != want:
        raise OracleError(f"{what} = {got!r}, expected {want!r}")


def _write_frame(path: Path, t: np.ndarray, counts) -> None:
    """Interchange JSON for the stacked analysis operator t split into row blocks."""
    operators = []
    row = 0
    for k in counts:
        block = t[row : row + k]
        operators.append({"rows": k, "re": block.real.tolist(), "im": block.imag.tolist()})
        row += k
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim_h": t.shape[1], "operators": operators}, fh)


def _read_stacked(path: Path) -> np.ndarray:
    """The K x n analysis operator of an interchange document, read with numpy."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    blocks = []
    for op in doc["operators"]:
        block = np.array(op["re"], dtype=np.complex128)
        if "im" in op:
            block += 1j * np.array(op["im"], dtype=float)
        blocks.append(block)
    return np.vstack(blocks)


def _spectrum(t: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of S = T^H T."""
    return np.linalg.eigvalsh(t.conj().T @ t)


def _gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def nearly_parseval_blocks(rng: np.random.Generator, n: int, rows: int, epsilon: float) -> np.ndarray:
    """A rows x n analysis operator whose frame operator has spectrum in [1-eps, 1+eps].

    Both endpoints are in the spectrum. The Parseval factor comes from the
    SVD of a Gaussian matrix and the shaping unitary from a QR factorization.
    """
    u, _, vh = np.linalg.svd(_gaussian(rng, rows, n), full_matrices=False)
    mu = np.empty(n)
    mu[0] = 1.0 + epsilon
    mu[-1] = 1.0 - epsilon
    mu[1:-1] = rng.uniform(1.0 - epsilon, 1.0 + epsilon, n - 2)
    q, _ = np.linalg.qr(_gaussian(rng, n, n))
    return (u @ vh) @ ((q * np.sqrt(mu)) @ q.conj().T)


def expected_check_names(trials: int, epsilon_in_range: bool) -> list[str]:
    """Row names of `verify --suite all`, in report order, when no check errors."""
    names = ["energy-equals-trace", "energy-interval-lower", "energy-interval-upper",
             "parseval-budget-canonical"]
    names += [f"power-trace[a={a}]" for a in POWER_EXPONENTS]
    names += [f"weighted-energy[trial={j}]" for j in range(trials)]
    names += ["weighted-energy-spread"] if trials else []
    names += ["parseval-gap-two-path", "parseval-approx-canonical-cross",
              "parseval-approx-canonical-total"]
    names += [f"parseval-approx-identity[trial={j}]" for j in range(trials)]
    names += ["parseval-gap-minimality"] if trials else []
    names += ["dual-equation-canonical", "pointwise-dual-canonical-residual",
              "frobenius-dual-canonical-residual", "frobenius-dual-closed-form"]
    for j in range(trials):
        names += [f"dual-equation[trial={j}]", f"frobenius-dual-identity[trial={j}]",
                  f"pointwise-dual-identity[trial={j}]", f"pointwise-dual-minimality[trial={j}]"]
    names += ["epsilon-in-range"]
    names += ["parseval-proximity-bound", "dual-proximity-bound"] if epsilon_in_range else []
    return names


class VerifyWorkload:
    """`gframe verify F --suite all --trials T --json` on a pool of prepared frames."""

    def __init__(self, name: str, trials: int, make_frame, expected_failures: frozenset[str]):
        self.name = name
        self.trials = trials
        self.make_frame = make_frame
        self.expected_failures = expected_failures

    def build(self, seed: int, workdir: Path) -> None:
        self.frames = []
        for k in range(POOL):
            t, counts = self.make_frame(np.random.default_rng([seed, 0, k]))
            path = workdir / f"frame{k}.json"
            _write_frame(path, t, counts)
            w = _spectrum(_read_stacked(path))
            self.frames.append((path, t.shape[1], list(counts), float(w[0]), float(w[-1])))
        self.names = expected_check_names(self.trials, "epsilon-in-range" not in self.expected_failures)
        self.exit_code = 4 if self.expected_failures else 0
        self.seed = seed

    def commands(self, i: int) -> list[list[str]]:
        path = self.frames[i % POOL][0]
        return [["verify", str(path), "--suite", "all", "--trials", str(self.trials),
                 "--seed", str(derive_seed(self.seed, 1, i)), "--json"]]

    def check(self, i: int, results) -> None:
        _, n, counts, lower, upper = self.frames[i % POOL]
        (code, out, _), = results
        _equal(code, self.exit_code, "exit code")
        doc = json.loads(out)
        _equal([c["name"] for c in doc["checks"]], self.names, "check names")
        failed = {c["name"] for c in doc["checks"] if not c["passed"]}
        _equal(failed, set(self.expected_failures), "failing checks")
        _equal(doc["overall"], not self.expected_failures, "overall")
        summary = doc["frame_summary"]
        _equal(summary["dim_h"], n, "dim_h")
        _equal(summary["counts"], counts, "counts")
        _close(summary["lower"], lower, BOUNDS_RTOL, "lower")
        _close(summary["upper"], upper, BOUNDS_RTOL, "upper")
        _close(summary["epsilon"], max(1.0 - lower, upper - 1.0), BOUNDS_RTOL, "epsilon")


def _blocks_n48(rng):
    counts = (12, 12, 12, 12)
    return nearly_parseval_blocks(rng, 48, sum(counts), 0.3), counts


def _vectors_n4(rng):
    return _gaussian(rng, 256, 4), (1,) * 256


class ConstructWorkload:
    """gen nearly-parseval, then analyze --json, then dual --magnitude 1, on fresh files."""

    name = "construct-n32"
    n = 32
    count = 256
    epsilon = 0.3

    def build(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.frame_path = workdir / "frame.json"
        self.dual_path = workdir / "dual.json"

    def commands(self, i: int) -> list[list[str]]:
        counts = ",".join(["1"] * self.count)
        return [
            ["gen", "nearly-parseval", "--n", str(self.n), "--counts", counts,
             "--epsilon", repr(self.epsilon), "--seed", str(derive_seed(self.seed, 2, i)),
             "-o", str(self.frame_path)],
            ["analyze", str(self.frame_path), "--json"],
            ["dual", str(self.frame_path), "--magnitude", "1",
             "--seed", str(derive_seed(self.seed, 3, i)), "-o", str(self.dual_path)],
        ]

    def check(self, i: int, results) -> None:
        _equal([code for code, _, _ in results], [0, 0, 0], "exit codes")
        t = _read_stacked(self.frame_path)
        _equal(t.shape, (self.count, self.n), "frame shape")
        w = _spectrum(t)
        doc = json.loads(results[1][1])
        _close(doc["epsilon"], self.epsilon, BOUNDS_RTOL, "epsilon")
        _close(doc["lower"], 1.0 - self.epsilon, BOUNDS_RTOL, "lower")
        _close(doc["upper"], 1.0 + self.epsilon, BOUNDS_RTOL, "upper")
        _close(doc["lower"], float(w[0]), BOUNDS_RTOL, "lower vs eigvalsh")
        _close(doc["upper"], float(w[-1]), BOUNDS_RTOL, "upper vs eigvalsh")
        _close(doc["parseval_gap"], float(np.sum((np.sqrt(w) - 1.0) ** 2)), GAP_RTOL,
               "parseval_gap")
        _close(doc["canonical_dual_gap"], float(np.sum((w - 1.0) ** 2 / w)), GAP_RTOL,
               "canonical_dual_gap")
        g = _read_stacked(self.dual_path)
        _equal(g.shape, t.shape, "dual shape")
        residual = float(np.linalg.norm(t.conj().T @ g - np.eye(self.n)))
        if not residual <= DUAL_TOL * self.n:
            raise OracleError(f"dual residual {residual!r} exceeds {DUAL_TOL:g} * n")


WORKLOADS = {
    "verify-blocks-n48": lambda: VerifyWorkload("verify-blocks-n48", 5, _blocks_n48, frozenset()),
    "verify-vectors-n4": lambda: VerifyWorkload(
        "verify-vectors-n4", 10, _vectors_n4, frozenset({"epsilon-in-range"})),
    "construct-n32": ConstructWorkload,
}
