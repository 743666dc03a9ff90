"""CLI contract: commands, round trips, determinism, and exit codes."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gframes.cli import main
from gframes.generators import nearly_parseval_gframe
from gframes.io import save_frame
from gframes.model import GFrame

GOLDEN = Path(__file__).parent / "data" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
            out[key.strip()] = value.strip()
    return out


def write_rank_deficient(path):
    save_frame(GFrame([np.array([[1.0, 0.0]])]), path)


class TestGen:
    def test_extremal_analyze_round_trip(self, capsys, tmp_path):
        path = tmp_path / "e.json"
        code, out, _ = run(capsys, "gen", "extremal", "--n", "2", "--epsilon", "0.19", "-o", str(path))
        assert code == 0
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        fields = parse_kv(out)
        assert float(fields["A"]) == pytest.approx(0.81, abs=1e-12)
        assert float(fields["B"]) == pytest.approx(0.81, abs=1e-12)

    def test_parseval_deterministic_files(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "parseval", "--n", "4", "--counts", "2,2,2", "--seed", "7"]
        assert run(capsys, *args, "-o", str(p1))[0] == 0
        assert run(capsys, *args, "-o", str(p2))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_epsilon_validation_message(self, capsys):
        code, _, err = run(capsys, "gen", "nearly-parseval", "--n", "2", "--epsilon", "1.2")
        assert code == 2
        assert "epsilon must lie in [0,1)" in err

    def test_counts_validation(self, capsys):
        code, _, err = run(capsys, "gen", "random", "--n", "2", "--counts", "1")
        assert code == 2
        assert "infeasible" in err

    def test_gen_reports_bounds(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        code, out, _ = run(capsys, "gen", "extremal", "--n", "3", "--epsilon", "0.19", "-o", str(path))
        fields = parse_kv(out)
        assert float(fields["epsilon"]) == pytest.approx(0.19, abs=1e-12)
        assert fields["counts"] == "1,1,1"

    def test_gen_to_stdout(self, capsys):
        code, out, err = run(capsys, "gen", "extremal", "--n", "2", "--epsilon", "0.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["dim_h"] == 2
        assert "A: " in err


class TestAnalyze:
    def test_orthonormal_file(self, capsys, tmp_path):
        path = tmp_path / "onb.json"
        save_frame(GFrame([np.eye(2)[0:1], np.eye(2)[1:2]]), path)
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        fields = parse_kv(out)
        assert float(fields["A"]) == pytest.approx(1.0, abs=1e-12)
        assert float(fields["B"]) == pytest.approx(1.0, abs=1e-12)
        assert float(fields["epsilon"]) == pytest.approx(0.0, abs=1e-12)
        assert float(fields["parseval_gap"]) == pytest.approx(0.0, abs=1e-12)
        assert float(fields["canonical_dual_gap"]) == pytest.approx(0.0, abs=1e-12)

    def test_extremal_gap_value(self, capsys, tmp_path):
        path = tmp_path / "e.json"
        run(capsys, "gen", "extremal", "--n", "2", "--epsilon", "0.19", "-o", str(path))
        code, out, _ = run(capsys, "analyze", str(path))
        fields = parse_kv(out)
        assert float(fields["parseval_gap"]) == pytest.approx(0.02, abs=1e-9)

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_overflowing_dual_gap_exits_2(self, json_flag, capsys, tmp_path):
        # lambda_min(S) is subnormal, so sum (lambda - 1)^2 / lambda is beyond the double range.
        path = tmp_path / "tiny.json"
        save_frame(GFrame([1e-155 * np.eye(2)[0:1], 1e-155 * np.eye(2)[1:2]]), path)
        code, out, err = run(capsys, "analyze", str(path), *json_flag)
        assert code == 2
        assert out == ""
        assert "canonical dual gap overflows double precision" in err

    def test_rank_deficient_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        write_rank_deficient(path)
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 3
        assert "lambda_min" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "analyze", str(tmp_path / "nope.json"))
        assert code == 2

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, _, _ = run(capsys, "analyze", str(path))
        assert code == 2

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_deeply_nested_document_exits_2(self, command, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == f"error: JSON in {path} is nested too deeply to read\n"

    def test_invalid_utf8_exits_2_naming_the_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"dim_h": 1, "note": "caf\xe9"}')
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path} is not UTF-8 text: ")

    def test_huge_dim_h_exits_2_without_allocating(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"dim_h": 1000000000000, "operators": [{"rows": 1, "re": [[1.0]]}]}')
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "analyze", str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "operators[0].re row 0 must be a list of 1000000000000 numbers" in err
        assert peak < 1 << 20

    def test_integer_beyond_double_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "big-int.json"
        path.write_text('{"dim_h": 2, "operators": [{"rows": 1, "re": [[0, 1' + "0" * 400 + "]]}]}")
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: invalid JSON in {path}: number is infinity when parsed as double: line 1 column 51 (char 50)\n"

    def test_overflowing_frame_operator_exits_2(self, capsys, tmp_path):
        path = tmp_path / "large.json"
        save_frame(GFrame([1e155 * np.eye(2)]), path)
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "frame is too large: S = T* T overflows double precision" in err
        assert "RuntimeWarning" not in err

    def test_frame_operator_near_double_maximum(self, capsys, tmp_path):
        # S = diag(1e308, 1e300, 1e300, 1e300): finite, condition number 1e8.
        path = tmp_path / "top.json"
        stacked = np.diag([1e154, 1e150, 1e150, 1e150])
        save_frame(GFrame.from_stacked(stacked, (1, 1, 1, 1)), path)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 0
        assert "RuntimeWarning" not in err
        fields = parse_kv(out)
        mu = np.linalg.eigvalsh(stacked.conj().T @ stacked)
        assert float(fields["A"]) == mu[0]
        assert float(fields["B"]) == mu[-1]

    def test_overflowing_trace_exits_2(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        save_frame(GFrame([1e154 * np.eye(4)]), path)
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "frame is too large: trace(S) = ||T||_F^2 overflows double precision" in err
        assert "RuntimeWarning" not in err

    def test_large_frame_json_report_is_finite(self, capsys, tmp_path):
        g = nearly_parseval_gframe(4, (2, 2, 2), 0.3, seed=5)
        path = tmp_path / "large.json"
        save_frame(GFrame.from_stacked(1e78 * g.stacked, g.counts), path)
        code, out, err = run(capsys, "analyze", str(path), "--json")
        assert code == 0, err
        assert all(np.isfinite(v) for v in json.loads(out).values() if isinstance(v, float))

    def test_eigensolver_failure_exits_2(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "onb.json"
        save_frame(GFrame([np.eye(2)]), path)

        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "did not converge" in err

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        run(capsys, "gen", "parseval", "--n", "3", "--counts", "2,2", "--seed", "1", "-o", str(path))
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["dim_h"] == 3
        assert abs(doc["frobenius_energy"] - 3.0) <= 1e-8

    def test_round_trip_reports_generator_bounds(self, capsys, tmp_path):
        path = tmp_path / "np.json"
        code, out, _ = run(
            capsys, "gen", "nearly-parseval", "--n", "4", "--counts", "2,2,2",
            "--epsilon", "0.3", "--seed", "5", "-o", str(path),
        )
        assert code == 0
        gen_fields = parse_kv(out)
        code, out, _ = run(capsys, "analyze", str(path))
        an_fields = parse_kv(out)
        for key in ("A", "B", "epsilon"):
            assert float(an_fields[key]) == pytest.approx(float(gen_fields[key]), abs=1e-8)


class TestVerify:
    def test_all_suites_pass_on_extremal(self, capsys, tmp_path):
        path = tmp_path / "e.json"
        run(capsys, "gen", "extremal", "--n", "3", "--epsilon", "0.2", "-o", str(path))
        code, out, _ = run(capsys, "verify", str(path), "--suite", "all", "--trials", "5")
        assert code == 0
        assert "overall: PASS" in out

    def test_bounds_suite_reports_gap_rows(self, capsys, tmp_path):
        path = tmp_path / "e.json"
        run(capsys, "gen", "extremal", "--n", "2", "--epsilon", "0.19", "-o", str(path))
        code, out, _ = run(capsys, "verify", str(path), "--suite", "bounds")
        assert code == 0
        assert "parseval-proximity-bound" in out
        assert "dual-proximity-bound" in out

    def test_bessel_only_family_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bessel.json"
        write_rank_deficient(path)
        code, _, _ = run(capsys, "verify", str(path), "--suite", "all")
        assert code == 3

    def test_wide_frame_fails_bounds_with_exit_4(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        save_frame(GFrame([np.diag([2.0, 1.0])]), path)  # epsilon = 1 is out of range
        code, out, _ = run(capsys, "verify", str(path), "--suite", "bounds")
        assert code == 4
        assert "FAIL epsilon-in-range" in out

    def test_json_report_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        run(capsys, "gen", "nearly-parseval", "--n", "3", "--counts", "2,2",
            "--epsilon", "0.4", "--seed", "3", "-o", str(path))
        args = ["verify", str(path), "--suite", "all", "--trials", "3", "--seed", "11", "--json"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["overall"] is True
        assert all(c["residual"] >= 0 for c in doc["checks"])
        assert doc["overall"] == all(c["passed"] for c in doc["checks"])

    def test_report_floats_have_17_significant_digits(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        run(capsys, "gen", "parseval", "--n", "2", "--counts", "1,1,1",
            "--seed", "2", "-o", str(path))
        _, out, _ = run(capsys, "verify", str(path), "--suite", "budgets",
                        "--trials", "2", "--json")
        # a residual like 4.44e-16 must surface with full precision, not rounded away
        doc = json.loads(out)
        assert any(0 < c["residual"] < 1e-10 for c in doc["checks"])

    def test_unknown_suite_exits_2(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        run(capsys, "gen", "extremal", "--n", "2", "--epsilon", "0.1", "-o", str(path))
        code, _, _ = run(capsys, "verify", str(path), "--suite", "nonsense")
        assert code == 2


class TestDual:
    def test_zero_magnitude_distance_zero(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        out_path = tmp_path / "d.json"
        run(capsys, "gen", "random", "--n", "3", "--counts", "2,2", "--seed", "1", "-o", str(path))
        code, out, _ = run(capsys, "dual", str(path), "--magnitude", "0", "-o", str(out_path))
        assert code == 0
        fields = parse_kv(out)
        assert float(fields["distance_to_canonical"]) == 0.0
        assert fields["dual_passed"] == "True"

    @pytest.mark.parametrize("name", ["extremal", "nearly-parseval", "wide-vectors"])
    def test_unit_magnitude_residual_within_tolerance(self, name, capsys, tmp_path):
        from gframes.duals import certified_duals
        from gframes.io import load_frame

        path = GOLDEN / f"{name}.frame.json"
        code, out, _ = run(capsys, "dual", str(path), "--magnitude", "1", "--seed", "9",
                           "-o", str(tmp_path / "d.json"))
        assert code == 0
        fields = parse_kv(out)
        frame = load_frame(path)
        _, (cert,) = certified_duals(frame, 1.0, [9])
        # The command prints the builder's certificate, bit for bit.
        printed = (fields["dual_residual"], fields["dual_tolerance"], fields["dual_passed"])
        assert printed == (repr(cert.residual), repr(cert.tolerance), repr(cert.passed))
        assert cert.passed and cert.residual <= 1e-8 * frame.dim_h
        # A square T has one dual, so the perturbation projects to zero; a wide T leaves room.
        distance = float(fields["distance_to_canonical"])
        assert distance > 0.1 if frame.stacked.shape[0] > frame.dim_h else distance < 1e-12

    def test_written_dual_verifies(self, capsys, tmp_path):
        from gframes.duals import verify_alternate_dual
        from gframes.io import load_frame

        path = tmp_path / "f.json"
        out_path = tmp_path / "d.json"
        run(capsys, "gen", "random", "--n", "3", "--counts", "2,2", "--seed", "4", "-o", str(path))
        run(capsys, "dual", str(path), "--magnitude", "2", "--seed", "5", "-o", str(out_path))
        lam = load_frame(path)
        gam = load_frame(out_path)
        assert verify_alternate_dual(lam, gam).passed

    def test_printed_residual_is_the_written_dual_s(self, capsys, tmp_path):
        from gframes.duals import verify_alternate_dual
        from gframes.io import load_frame

        path, out_path = GOLDEN / "wide-vectors.frame.json", tmp_path / "d.json"
        code, out, _ = run(capsys, "dual", str(path), "--magnitude", "1", "--seed", "9", "-o", str(out_path))
        assert code == 0
        # The command forms the dual equation once; forming it again on the file gives the same double.
        cert = verify_alternate_dual(load_frame(path), load_frame(out_path))
        assert parse_kv(out)["dual_residual"] == repr(cert.residual)

    def test_missing_input_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "dual", str(tmp_path / "nope.json"))
        assert code == 2

    def test_rank_deficient_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        write_rank_deficient(path)
        code, _, _ = run(capsys, "dual", str(path))
        assert code == 3

    @pytest.mark.parametrize("name", ["extremal", "nearly-parseval", "wide-vectors"])
    def test_overflowing_magnitude_exits_2(self, name, capsys, tmp_path):
        out_path = tmp_path / "d.json"
        code, out, err = run(capsys, "dual", str(GOLDEN / f"{name}.frame.json"),
                             "--magnitude", "1e308", "-o", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("magnitude", ["inf", "nan"])
    def test_non_finite_magnitude_exits_2(self, magnitude, capsys, tmp_path):
        out_path = tmp_path / "d.json"
        code, out, err = run(capsys, "dual", str(GOLDEN / "nearly-parseval.frame.json"),
                             "--magnitude", magnitude, "-o", str(out_path))
        assert (code, out) == (2, "")
        assert err == f"error: magnitude must be finite, got {magnitude}\n"
        assert not out_path.exists()


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command_exits_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_0(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestGenArguments:
    def test_counts_must_be_integers(self, capsys):
        code, out, err = run(capsys, "gen", "random", "--n", "2", "--counts", "1,x")
        assert (code, out) == (2, "")
        assert err == "error: counts must be comma-separated integers, got '1,x'\n"

    def test_empty_counts_are_rejected(self, capsys):
        code, out, err = run(capsys, "gen", "random", "--n", "3", "--counts", "")
        assert (code, out) == (2, "")
        assert err == "error: counts must be comma-separated integers, got ''\n"

    def test_nearly_parseval_needs_epsilon(self, capsys):
        code, _, err = run(capsys, "gen", "nearly-parseval", "--n", "2")
        assert code == 2
        assert err == "error: nearly-parseval needs --epsilon\n"

    def test_random_needs_n(self, capsys):
        code, _, err = run(capsys, "gen", "random")
        assert code == 2
        assert err == "error: random needs --n\n"

    def test_extremal_epsilon_defaults_to_zero(self, capsys):
        code, out, err = run(capsys, "gen", "extremal", "--n", "2")
        assert code == 0
        assert parse_kv(err)["epsilon"] == "0.0"
        assert json.loads(out)["dim_h"] == 2

    def test_oversized_n_exits_2(self, capsys):
        # The n x n identity would take 6.94 EiB; numpy refuses the allocation at once.
        code, out, err = run(capsys, "gen", "extremal", "--n", "1000000000", "--epsilon", "0.1")
        assert (code, out) == (2, "")
        assert err.startswith("error: Unable to allocate")

    @pytest.mark.parametrize("kind", ["random", "parseval", "nearly-parseval"])
    def test_operator_count_beyond_the_index_range_exits_2(self, kind, capsys):
        # Without --counts, gen draws 2n one-row operators; 2n = 2**63 is no tuple length.
        code, out, err = run(capsys, "gen", kind, "--n", "4611686018427387904", "--epsilon", "0.1")
        assert (code, out) == (2, "")
        assert err == "error: cannot fit 'int' into an index-sized integer\n"

    def test_operator_count_too_large_to_allocate_names_the_error(self, capsys):
        # 2n = 2**63 - 2 fits an index, but Python refuses the tuple with an empty MemoryError.
        code, out, err = run(capsys, "gen", "random", "--n", "4611686018427387903")
        assert (code, out) == (2, "")
        assert err == "error: MemoryError\n"

    def test_verify_rejects_negative_trials(self, capsys, tmp_path):
        path = tmp_path / "e.json"
        run(capsys, "gen", "extremal", "--n", "2", "--epsilon", "0.1", "-o", str(path))
        code, out, err = run(capsys, "verify", str(path), "--trials", "-1")
        assert (code, out) == (2, "")
        assert err == "error: trials must be non-negative, got -1\n"

    def test_verify_refuses_trials_beyond_the_cap_before_any_draw(self, capsys):
        # Drawing 10**20 child seeds would run until memory runs out.
        path = GOLDEN / "extremal.frame.json"
        code, out, err = run(capsys, "verify", str(path), "--trials", str(10**20))
        assert (code, out) == (2, "")
        assert err == "error: trials must be at most 100000, got 100000000000000000000\n"


@pytest.mark.parametrize(
    "gen_args",
    [
        ["gen", "nearly-parseval", "--n", "6", "--counts", "3,3,3", "--epsilon", "0.3", "--seed", "5"],
        ["gen", "random", "--n", "4", "--seed", "3"],
    ],
)
def test_frame_on_stdout_equals_written_file(gen_args, capsys, tmp_path):
    path = tmp_path / "f.json"
    assert run(capsys, *gen_args, "-o", str(path))[0] == 0
    code, out, _ = run(capsys, *gen_args)
    assert code == 0
    assert out == path.read_text(encoding="utf-8")


class TestSeedRange:
    """Seeds key a 128-bit Philox stream: 2**128 - 1 is the largest that runs."""

    @staticmethod
    def commands(tmp_path, seed):
        frame = str(GOLDEN / "nearly-parseval.frame.json")
        return [
            ["verify", frame, "--trials", "2", "--seed", str(seed)],
            ["gen", "random", "--n", "3", "--counts", "2,2", "--seed", str(seed)],
            ["dual", frame, "--magnitude", "1", "--seed", str(seed), "-o", str(tmp_path / "d.json")],
        ]

    def test_seed_2_128_is_named_in_a_usage_error(self, capsys, tmp_path):
        for argv in self.commands(tmp_path, 2**128):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv[0]
            assert err == f"error: seed must be below 2**128, got {2**128}\n"
        assert not (tmp_path / "d.json").exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "random", "--n", "4", "--seed", "-1"],
        ["verify", str(GOLDEN / "extremal.frame.json"), "--seed", "-1"],
    ], ids=["gen", "verify"])
    def test_negative_seed_is_named_in_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: seed must be non-negative, got -1\n"

    def test_seed_2_128_minus_1_runs(self, capsys, tmp_path):
        for argv in self.commands(tmp_path, 2**128 - 1):
            code, _, err = run(capsys, *argv)
            assert code == 0, (argv[0], err)
        assert (tmp_path / "d.json").exists()


class TestParserReuse:
    def test_parser_is_built_once_and_keeps_no_state(self, capsys, monkeypatch):
        from gframes import cli

        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            frame = str(GOLDEN / "extremal.frame.json")
            first = run(capsys, "verify", frame, "--suite", "bounds", "--json")
            assert run(capsys, "verify", frame, "--suite", "nonsense")[0] == 2
            assert run(capsys, "analyze", frame)[0] == 0
            assert run(capsys, "verify", frame, "--suite", "bounds", "--json") == first
            assert built == [1]
        finally:
            cli._parser.cache_clear()
