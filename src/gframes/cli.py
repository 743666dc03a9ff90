"""Command-line surface: gframe <gen|analyze|verify|dual>.

Exit codes: 0 success, 2 usage or parse problems, 3 not a frame,
4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .duals import certified_duals, extremal_frame
from .errors import GFrameError, NotAFrameError
from .generators import nearly_parseval_gframe, random_gframe, random_parseval_gframe
from .identities import canonical_dual_gap, parseval_gap
from .io import load_frame, save_frame, write_frame
from .linalg import frobenius_norm_sq
from .model import GFrame, canonical_dual, frame_operator, total_frobenius_energy, validate_frame
from .report import DEFAULT_TRIALS, SUITE_NAMES, render_json, render_text, run_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_A_FRAME = 3
EXIT_VERIFY_FAILED = 4


def _parse_counts(text: str) -> tuple[int, ...]:
    try:
        counts = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"counts must be comma-separated integers, got {text!r}")
    return counts


def _summary_lines(f: GFrame) -> list[str]:
    bounds = validate_frame(f)
    return [
        f"n: {f.dim_h}",
        f"operators: {len(f)}",
        f"counts: {','.join(str(k) for k in f.counts)}",
        f"A: {bounds.lower!r}",
        f"B: {bounds.upper!r}",
        f"epsilon: {bounds.epsilon!r}",
    ]


def _write_frame(frame: GFrame, lines: list[str], out: str | None) -> int:
    """Save to `out` and print the summary, or print the summary to stderr and the frame's JSON."""
    if out:
        save_frame(frame, out)
        lines.append(f"wrote: {out}")
        print("\n".join(lines))
    else:
        print("\n".join(lines), file=sys.stderr)
        write_frame(frame, sys.stdout)
    return EXIT_OK


def cmd_gen(args) -> int:
    kind = args.kind
    epsilon = args.epsilon
    if kind == "extremal" and epsilon is None:
        epsilon = 0.0
    if kind == "nearly-parseval" and epsilon is None:
        raise ValueError("nearly-parseval needs --epsilon")
    if args.n is None:
        raise ValueError(f"{kind} needs --n")

    if kind == "extremal":
        frame = extremal_frame(args.n, epsilon)
    else:
        counts = _parse_counts(args.counts) if args.counts is not None else (1,) * (2 * args.n)
        if kind == "random":
            frame = random_gframe(args.n, counts, args.seed)
        elif kind == "parseval":
            frame = random_parseval_gframe(args.n, counts, args.seed)
        else:
            frame = nearly_parseval_gframe(args.n, counts, epsilon, args.seed)
    return _write_frame(frame, _summary_lines(frame), args.out)


def cmd_analyze(args) -> int:
    frame = load_frame(args.path)
    bounds = validate_frame(frame)
    energy = total_frobenius_energy(frame)
    trace_s = float(np.trace(frame_operator(frame).matrix).real)
    gap = parseval_gap(frame)
    dual_gap = canonical_dual_gap(frame)
    if args.json:
        doc = {
            "dim_h": frame.dim_h,
            "operator_count": len(frame),
            "counts": list(frame.counts),
            "lower": bounds.lower,
            "upper": bounds.upper,
            "epsilon": bounds.epsilon,
            "frobenius_energy": energy,
            "trace_s": trace_s,
            "parseval_gap": gap,
            "canonical_dual_gap": dual_gap,
        }
        print(render_json(doc))
    else:
        lines = _summary_lines(frame)
        lines.append(f"frobenius_energy: {energy!r}")
        lines.append(f"trace_s: {trace_s!r}")
        lines.append(f"parseval_gap: {gap!r}")
        lines.append(f"canonical_dual_gap: {dual_gap!r}")
        print("\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    frame = load_frame(args.path)
    report = run_suite(frame, suite=args.suite, trials=args.trials, seed=args.seed)
    if args.json:
        print(render_json(report))
    else:
        print(render_text(report))
    return EXIT_OK if report.overall else EXIT_VERIFY_FAILED


def cmd_dual(args) -> int:
    frame = load_frame(args.path)
    duals, (cert,) = certified_duals(frame, args.magnitude, [args.seed])
    dual = frame.derived(duals[0])
    distance_sq = frobenius_norm_sq(dual.stacked - canonical_dual(frame).stacked)
    lines = [
        f"dual_residual: {cert.residual!r}",
        f"dual_tolerance: {cert.tolerance!r}",
        f"dual_passed: {cert.passed}",
        f"distance_to_canonical: {float(distance_sq) ** 0.5!r}",
    ]
    return _write_frame(dual, lines, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gframe",
        description="Construct, analyze, and verify finite-dimensional operator-valued frames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a frame and write the interchange JSON")
    gen.add_argument("kind", choices=("random", "parseval", "nearly-parseval", "extremal"))
    gen.add_argument("--n", type=int, default=None, help="domain dimension")
    gen.add_argument("--counts", default=None, help="comma-separated output dimensions k_i")
    gen.add_argument("--epsilon", type=float, default=None, help="nearly-Parseval rating in [0,1)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", "-o", default=None, help="output path (default: stdout)")
    gen.set_defaults(func=cmd_gen)

    analyze = sub.add_parser("analyze", help="print bounds, rating, energies, and gaps")
    analyze.add_argument("path")
    analyze.add_argument("--json", action="store_true", help="machine-readable output")
    analyze.set_defaults(func=cmd_analyze)

    verify = sub.add_parser("verify", help="run randomized identity and bound checks")
    verify.add_argument("path")
    verify.add_argument("--suite", choices=SUITE_NAMES, default="all")
    verify.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--json", action="store_true", help="machine-readable output")
    verify.set_defaults(func=cmd_verify)

    dual = sub.add_parser("dual", help="write a verified alternate dual")
    dual.add_argument("path")
    dual.add_argument("--magnitude", type=float, default=0.0,
                      help="Frobenius size of the dual perturbation (0 = canonical)")
    dual.add_argument("--seed", type=int, default=0)
    dual.add_argument("--out", "-o", default=None, help="output path (default: stdout)")
    dual.set_defaults(func=cmd_dual)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: building it costs as much as rendering a report."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except NotAFrameError as exc:
        print(f"error: {exc} (lambda_min = {exc.lambda_min!r})", file=sys.stderr)
        return EXIT_NOT_A_FRAME
    except (GFrameError, ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
