"""Golden reports: `gen` and `verify --json` outputs stored in tests/data/golden.

The `*.frame.json` files are the inputs of verify. They were written by the
per-operator implementation that preceded the stacked analysis operator,
with the commands in CASES, and are kept byte for byte. When the Gaussian
draws became numpy's standard normals in place of a Box-Muller transform,
the seeded frames that `gen nearly-parseval` and `gen random` write moved;
what they write now is pinned in `nearly-parseval.gen.json` and
`wide-vectors.gen.json`. `gen extremal` draws nothing, so its frame file
pins its output too.

Each report is `verify <frame> --suite all --trials 4 --seed 7 --json`.
Check names, pass flags and exit codes must match exactly; report values,
each row's residual and tolerance included, within 1e-9 * (1 + |x|). The
twelve `pointwise-dual-minimality[trial=j]` tolerances were rewritten to the
values of the relative slack 1e-9 * (1 + ptotal) that replaced the absolute
1e-9 those rows were first written with. When random Parseval companions
became the Q factor of their Gaussian draw instead of its polar factor, the
lhs, rhs, residual and tolerance of the five rows they set,
`parseval-approx-identity[trial=j]` and `parseval-gap-minimality`, were
rewritten on each frame; every other stored value stayed, the
`weighted-energy` rows moving only at round-off. With numpy's standard
normals, the rows whose values the new draws moved beyond that tolerance
were rewritten whole: `weighted-energy[trial=j]`, `weighted-energy-spread`,
`parseval-approx-identity[trial=j]`, `parseval-gap-minimality`,
`pointwise-dual-identity[trial=j]` and `pointwise-dual-minimality[trial=j]`
on every frame, and `frobenius-dual-identity[trial=j]` on the
nearly-Parseval and wide-vectors frames (18, 22 and 22 rows).

The stored files keep the spelling they were written with: repr for frames
and 17 significant digits for reports. gframe now writes every float as
orjson does, in the shortest digits that parse back to it, so reports are
compared after parsing, and the two frames compared byte for byte hold no
float that orjson spells unlike repr. The text report and the JSON report
of a frame carry the same doubles, bit for bit.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from gframes.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
VERIFY_ARGS = ["--suite", "all", "--trials", "4", "--seed", "7", "--json"]
VALUE_TOLERANCE = 1e-9
# name: (gen arguments, exit code of verify)
CASES = {
    "extremal": (["gen", "extremal", "--n", "4", "--epsilon", "0.25"], 0),
    "nearly-parseval": (
        ["gen", "nearly-parseval", "--n", "8", "--counts", "3,3,3,3", "--epsilon", "0.3",
         "--seed", "5"],
        0,
    ),
    "wide-vectors": (["gen", "random", "--n", "4", "--seed", "3"], 4),
}
# The file each gen command must reproduce.
GEN_FILES = {
    "extremal": "extremal.frame.json",
    "nearly-parseval": "nearly-parseval.gen.json",
    "wide-vectors": "wide-vectors.gen.json",
}
# Entries of a nearly-Parseval frame pass through S^(-1/2) and an eigensolver,
# so their last bits follow the summation order of S = T* T; the other two
# frames are seeded draws or scaled unit rows and must match byte for byte.
BYTE_EXACT = ("extremal", "wide-vectors")
ENTRY_TOLERANCE = 1e-12


def close(a, b, tol):
    return abs(a - b) <= tol * (1.0 + abs(a))


@pytest.mark.parametrize("name", sorted(CASES))
def test_gen_reproduces_frame_file(name, capsys, tmp_path):
    gen_args, _ = CASES[name]
    path = tmp_path / "frame.json"
    assert main(gen_args + ["-o", str(path)]) == 0
    capsys.readouterr()
    expected = (GOLDEN / GEN_FILES[name]).read_bytes()
    written = path.read_bytes()
    if name in BYTE_EXACT:
        assert written == expected
        return
    want, got = json.loads(expected), json.loads(written)
    assert got["dim_h"] == want["dim_h"]
    assert [op["rows"] for op in got["operators"]] == [op["rows"] for op in want["operators"]]
    assert [sorted(op) for op in got["operators"]] == [sorted(op) for op in want["operators"]]
    for w, g in zip(want["operators"], got["operators"]):
        for part in ("re", "im"):
            a, b = np.array(w.get(part, 0.0)), np.array(g.get(part, 0.0))
            assert np.all(np.abs(a - b) <= ENTRY_TOLERANCE * (1.0 + np.abs(a)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_matches_golden_report(name, capsys):
    _, exit_code = CASES[name]
    code = main(["verify", str(GOLDEN / f"{name}.frame.json")] + VERIFY_ARGS)
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / f"{name}.report.json").read_text())
    assert code == exit_code
    assert got["overall"] == want["overall"]
    summary, expected_summary = got["frame_summary"], want["frame_summary"]
    assert summary["dim_h"] == expected_summary["dim_h"]
    assert summary["counts"] == expected_summary["counts"]
    for key in ("lower", "upper", "epsilon"):
        assert close(expected_summary[key], summary[key], VALUE_TOLERANCE), key
    assert [c["name"] for c in got["checks"]] == [c["name"] for c in want["checks"]]
    assert [c["passed"] for c in got["checks"]] == [c["passed"] for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        for key in ("lhs", "rhs", "residual", "tolerance"):
            assert close(w[key], g[key], VALUE_TOLERANCE), (w["name"], key, w[key], g[key])


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_and_json_reports_carry_the_same_doubles(name, capsys):
    frame = str(GOLDEN / f"{name}.frame.json")
    main(["verify", frame] + VERIFY_ARGS[:-1])
    text = capsys.readouterr().out
    main(["verify", frame] + VERIFY_ARGS)
    doc = json.loads(capsys.readouterr().out)

    def bits(x):
        return np.float64(x).view(np.uint64)

    bounds = re.search(r"^bounds: A=(\S+) B=(\S+) epsilon=(\S+)$", text, re.MULTILINE).groups()
    summary = doc["frame_summary"]
    assert list(map(bits, map(float, bounds))) == [bits(summary[key]) for key in ("lower", "upper", "epsilon")]
    rows = [line for line in text.splitlines() if line.startswith(("  PASS ", "  FAIL "))]
    assert len(rows) == len(doc["checks"])
    for line, check in zip(rows, doc["checks"]):
        tokens = dict(re.findall(r" (lhs|rhs|residual|tolerance)=(\S+)", line))
        assert list(tokens) == ["lhs", "rhs", "residual", "tolerance"], line
        for key, token in tokens.items():
            assert bits(float(token)) == bits(check[key]), (line, key)
