"""Benchmark of the `gframe` CLI: one workload per run, end-to-end or per-layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports `gframes` from `src/`.
One process, one thread, one caller in a closed loop: each op calls
`gframes.cli.main(argv)` in-process with stdout and stderr captured, and
the next op starts when it returns. Every op is checked by the numpy oracle
in workloads.py; the check is not timed.

--trace 0 reports the end-to-end metrics. Their times are scaled to the
reference speed of the host by the kernel in calibrate.py, timed between
ops; the unscaled wall times are printed beside them. --trace 1 first runs ops
untraced for half of --seconds, then replays the same ops with every
public function of the package wrapped (spans.py), requires byte-identical
stdout and exit codes, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it, and a result file in
bench/out/, record the metrics with their units and sample counts and the
environment of the run.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are pinned before numpy is imported.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import REFERENCE_MS, reference_ms  # noqa: E402
from spans import Tracer, layer_metrics, metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 5

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def import_cli():
    """Import gframes.cli afresh from src/, dropping any earlier import of the package."""
    for name in [m for m in sys.modules if m == "gframes" or m.startswith("gframes.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("gframes.cli")
    if Path(cli.__file__).resolve().parent != SRC / "gframes":
        raise RuntimeError(f"imported gframes from {cli.__file__}, not from {SRC}")
    return cli


def run_op(cli, workload, i: int):
    """Run op i; returns (seconds in the program, [(exit, stdout, stderr)] per command)."""
    results = []
    elapsed = 0.0
    for argv in workload.commands(i):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        elapsed += time.perf_counter() - start
        results.append((code, out.getvalue(), err.getvalue()))
    return elapsed, results


class Loop:
    """Closed-loop op runner that checks each op and keeps the tallies."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.times: list[float] = []
        self.scales: list[float] = []  # per timed op, when calibrated: REFERENCE_MS / kernel ms
        self.outputs: dict[int, list] = {}
        self.attempted = 0
        self.failures: dict[int, str] = {}

    def op(self, i: int, keep_output: bool = False, reference=None) -> None:
        self.attempted += 1
        try:
            elapsed, results = run_op(self.cli, self.workload, i)
            self.workload.check(i, results)
            if reference is not None:
                got = [(code, out) for code, out, _ in results]
                if got != reference.get(i):
                    raise AssertionError("stdout or exit code differs from the untraced run")
        except Exception as exc:  # any failure of one op is counted, and the run goes on
            self.failures[i] = f"{type(exc).__name__}: {exc}"
            return
        self.times.append(elapsed)
        if keep_output:
            self.outputs[i] = [(code, out) for code, out, _ in results]

    def for_seconds(self, seconds: float, first: int, keep_output: bool = False,
                    calibrate: bool = False) -> list[int]:
        """Run ops from `first` on for `seconds`; with `calibrate`, time the kernel around each."""
        done = []
        start = time.perf_counter()
        before = reference_ms() if calibrate else 0.0
        i = first
        while time.perf_counter() - start < seconds:
            timed = len(self.times)
            self.op(i, keep_output)
            if calibrate:
                after = reference_ms()
                if len(self.times) > timed:
                    self.scales.append(2.0 * REFERENCE_MS / (before + after))
                before = after
            done.append(i)
            i += 1
        return done

    def ops_per_s(self) -> float:
        return len(self.times) / sum(self.times) if self.times else 0.0

    def scaled_times(self) -> list[float]:
        """Op times at the reference speed of the host (see calibrate.py)."""
        return [t * s for t, s in zip(self.times, self.scales)]


def set_up(workload_name: str, seed: int, workdir: Path):
    """Import, build inputs and oracle data, run one warm-up op; returns (seconds, cli, loop)."""
    start = time.perf_counter()
    cli = import_cli()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[workload_name]()
    workload.build(seed, workdir)
    loop = Loop(cli, workload)
    loop.op(0)
    return time.perf_counter() - start, cli, loop


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in PINNED},
        "src_lines": src_lines,
    }


@dataclass
class Outcome:
    metrics: dict  # the reported metrics, as {"value", "unit"}
    shown: dict  # what the table prints: the metrics, plus error_rate end to end
    notes: dict  # sample counts printed beside a metric
    attempted: int
    failures: list[str]
    samples: dict  # raw samples kept in the result file


def end_to_end(args, workdir: Path) -> Outcome:
    setups, wall_setups, attempted, failures = [], [], 0, []
    for _ in range(SETUP_REPEATS):
        before = reference_ms()
        seconds, cli, loop = set_up(args.workload, args.seed, workdir)
        setups.append(seconds * 2.0 * REFERENCE_MS / (before + reference_ms()))
        wall_setups.append(seconds)
        attempted += loop.attempted
        failures += [f"warm-up: {msg}" for msg in loop.failures.values()]
    loop = Loop(cli, loop.workload)
    loop.for_seconds(args.seconds, first=1, calibrate=True)
    attempted += loop.attempted
    failures += [f"op {i}: {msg}" for i, msg in loop.failures.items()]
    times_ms = [t * 1e3 for t in loop.scaled_times()]
    wall_ms = [t * 1e3 for t in loop.times]
    values = {
        "ops_per_s": len(times_ms) / sum(times_ms) * 1e3 if times_ms else 0.0,
        "op_p50_ms": percentile(times_ms, 50),
        "op_p90_ms": percentile(times_ms, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    shown = dict(
        metrics,
        error_rate={"value": len(failures) / attempted, "unit": "ratio"},
        wall_ops_per_s={"value": loop.ops_per_s(), "unit": "1/s"},
        wall_op_p50_ms={"value": percentile(wall_ms, 50), "unit": "ms"},
        wall_op_p90_ms={"value": percentile(wall_ms, 90), "unit": "ms"},
        wall_setup_s={"value": statistics.median(wall_setups), "unit": "s"},
        host_speed={"value": statistics.median(loop.scales) if loop.scales else 0.0,
                    "unit": "ratio"},
    )
    notes = {
        "ops_per_s": "at reference speed",
        "op_p50_ms": f"n={len(times_ms)}, at reference speed",
        "op_p90_ms": f"n={len(times_ms)}, at reference speed",
        "setup_s": f"median of {len(setups)}, at reference speed",
        "error_rate": f"{len(failures)}/{attempted} ops failed",
        "wall_op_p50_ms": f"n={len(wall_ms)}",
        "wall_op_p90_ms": f"n={len(wall_ms)}",
        "wall_setup_s": f"median of {len(wall_setups)}",
        "host_speed": "median of reference kernel speed / its fast-phase speed",
    }
    return Outcome(metrics, shown, notes, attempted, failures,
                   {"op_ms": times_ms, "wall_op_ms": wall_ms, "scale": loop.scales})


def per_layer(args, workdir: Path) -> Outcome:
    _, cli, warm = set_up(args.workload, args.seed, workdir)
    loop = Loop(cli, warm.workload)
    ops = loop.for_seconds(args.seconds / 2.0, first=1, keep_output=True)

    traced = Loop(cli, loop.workload)
    tracer = Tracer()
    tracer.install()
    try:
        for i in ops:
            tracer.op = i
            traced.op(i, reference=loop.outputs)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans-{args.workload}.txt.gz")

    values = layer_metrics(tracer, len(ops))
    values["trace.overhead_ratio"] = traced.ops_per_s() / loop.ops_per_s() if loop.times else 0.0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in metric_names()}
    notes = {"trace.overhead_ratio": f"{len(ops)} ops each side, {len(tracer.spans)} spans"}
    # An op that failed untraced, traced or both counts once.
    failed = {**traced.failures, **loop.failures}
    failures = [f"warm-up: {msg}" for msg in warm.failures.values()]
    failures += [f"op {i}: {msg}" for i, msg in sorted(failed.items())]
    return Outcome(metrics, metrics, notes, warm.attempted + loop.attempted, failures, {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "gframes" / "__init__.py").is_file():
        print(f"error: no gframes package under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        measure = per_layer if args.trace else end_to_end
        outcome = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args)
    for key, value in env.items():
        print(f"# {key}: {value}")
    for name, metric in outcome.shown.items():
        note = outcome.notes.get(name, "")
        print(f"{name:<48} {metric['value']:>16.6f} {metric['unit']:<6} {note}")
    for failure in outcome.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": outcome.metrics,
    }
    record = dict(result, environment=env, notes=outcome.notes, failures=outcome.failures,
                  samples=outcome.samples)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
