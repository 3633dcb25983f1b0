import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from geomseries import linalg, markov
from geomseries.cli import main
from geomseries.planner import plan
from geomseries.slp import from_json, mul_count, passes_oracle


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_plan_writes_valid_program(tmp_path, capsys):
    out_path = str(tmp_path / "plan.json")
    code, out = run(capsys, "plan", "--n", "677", "--strategy", "auto", "--out", out_path)
    assert code == 0
    assert "muls=14" in out
    prog = from_json(open(out_path).read().strip())
    assert prog.series_length == 677
    assert mul_count(prog) == 14
    assert passes_oracle(prog)


def test_plan_json_format_carries_hash(capsys):
    code, out = run(capsys, "plan", "--n", "25", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["muls"] == 6
    assert len(doc["plan_sha256"]) == 64


def test_plan_binary_at_two_to_the_300(capsys):
    code, out = run(capsys, "plan", "--n", str(2**300), "--strategy", "binary", "--format", "json")
    assert code == 0
    assert json.loads(out)["muls"] == 598


def test_counts_print_no_prediction_past_the_chain_cap(capsys):
    # lcm(13, 11, 7, 5, 3, 2) = 30030 residue states, above the 4620 cap
    argv = ("count", "--min", "30", "--max", "31", "--strategy", "mixed:13,11,7,5,3,2")
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"n": 30, "strategy": "mixed:13,11,7,5,3,2", "muls": 7, "predicted": None},
        {"n": 31, "strategy": "mixed:13,11,7,5,3,2", "muls": 7, "predicted": None},
    ]
    code, out = run(capsys, "verify", "--min", "30", "--max", "30", "--counts",
                    "--strategy", "mixed:13,11,7,5,3,2", "--format", "json")
    assert code == 0
    assert [row["predicted"] for row in json.loads(out)["counts"]] == [None]


def test_plan_deterministic_output(capsys):
    _, first = run(capsys, "plan", "--n", "96", "--format", "json")
    _, second = run(capsys, "plan", "--n", "96", "--format", "json")
    assert first == second


def test_verify_small_range_passes(capsys):
    code, out = run(capsys, "verify", "--min", "1", "--max", "48")
    assert code == 0
    assert "all pass" in out
    assert "fails oracle as designed" in out


def test_verify_json_report(tmp_path, capsys):
    out_path = str(tmp_path / "verify.json")
    code, _ = run(
        capsys, "verify", "--min", "20", "--max", "30", "--counts",
        "--format", "json", "--out", out_path,
    )
    assert code == 0
    doc = json.loads(open(out_path).read())
    assert doc["ok"] is True
    assert doc["failures"] == []
    assert {f["fixture"] for f in doc["fixtures"]} == {"flawed-length-11", "flawed-length-26"}
    auto26 = [r for r in doc["counts"] if r["n"] == 26 and r["strategy"] == "auto"]
    assert auto26[0]["muls"] == 6


def test_verify_json_reports_oracle_width_and_scans(capsys):
    code, out = run(capsys, "verify", "--min", "1", "--max", "64", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle"]["max_bits"] == 8
    assert doc["oracle"]["decodes"] > 0
    assert set(doc) == {"checked", "range", "strategies", "failures", "fixtures", "ok", "oracle"}


def test_verify_json_reports_no_oracle_retries_on_shipped_plans(capsys):
    code, out = run(capsys, "verify", "--min", "1", "--max", "32", "--format", "json")
    assert code == 0
    oracle = json.loads(out)["oracle"]
    assert set(oracle) == {"max_bits", "decodes", "retries"}
    assert oracle["retries"] == 0


@pytest.mark.parametrize("command", ["verify", "count"])
@pytest.mark.parametrize("bounds", [("5", "3"), ("0", "3"), ("-2", "4")])
def test_empty_or_invalid_range_is_a_usage_error(capsys, command, bounds):
    with pytest.raises(SystemExit) as exc:
        main([command, "--min", bounds[0], "--max", bounds[1]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--min" in captured.err


def test_verify_applies_strategy_filter(capsys):
    code, out = run(
        capsys, "verify", "--min", "25", "--max", "26", "--strategy", "auto",
        "--counts", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["muls"] for r in doc["counts"]] == [6, 6]


def test_count_csv(capsys):
    code, out = run(
        capsys, "count", "--min", "25", "--max", "25",
        "--strategy", "auto", "--strategy", "binary", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,strategy,muls,predicted"
    assert lines[1].startswith("25,auto,6,")
    assert lines[2].startswith("25,binary,7,")


def test_markov_json(capsys):
    code, out = run(capsys, "markov", "--bases", "3,2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["stationary"] == ["1/10", "1/5", "1/5", "1/10", "1/5", "1/5"]
    assert abs(rows[0]["coefficient"] - 1.9245) < 1e-3


def test_markov_json_reports_solver_facts(capsys):
    code, out = run(capsys, "markov", "--bases", "3,2", "--bases", "7,5,3,2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["solver"]["states"] for row in rows] == [6, 210]
    for row in rows:
        facts = row["solver"]
        assert list(facts) == ["states", "steps", "bits", "reconstructions"]
        assert facts["steps"] >= 1 and facts["bits"] >= facts["steps"]
        assert 1 <= facts["reconstructions"] <= facts["steps"]


def test_markov_empirical_column(capsys):
    code, out = run(
        capsys, "markov", "--bases", "3,2", "--empirical", "300",
        "--nmin", "1000", "--nmax", "100000", "--seed", "5", "--format", "json",
    )
    assert code == 0
    row = json.loads(out)[0]
    assert abs(row["empirical"] - 1.92) < 0.05
    assert row["empirical_stderr"] > 0


def test_markov_deterministic(capsys):
    args = ("markov", "--bases", "5,2", "--format", "json")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_asymptotic_json(capsys):
    code, out = run(capsys, "asymptotic", "--digits", "14", "--floor-levels", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == "1.50283680104976"
    assert doc["coefficient"] == "1.70158214004473"
    assert all(row["match"] for row in doc["floor_identity"])
    assert len(doc["floor_identity"]) == 6


def test_invert_round_trip(tmp_path, capsys):
    a = linalg.random_test_matrix(20, seed=6)
    src = str(tmp_path / "a.csv")
    dst = str(tmp_path / "inv.csv")
    linalg.save_matrix_csv(src, a)
    code, out = run(
        capsys, "invert", src, "--terms", "9", "--strategy", "auto", "--out", dst,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["matrix_muls"] == 4
    a_hat = linalg.load_matrix_csv(dst)
    direct, _ = linalg.neumann_invert(a, 9, strategy="direct")
    assert np.linalg.norm(a_hat - direct, "fro") <= 1e-10


def test_invert_direct_strategy_counts(tmp_path, capsys):
    a = linalg.random_test_matrix(20, seed=6)
    src = str(tmp_path / "a.csv")
    linalg.save_matrix_csv(src, a)
    code, out = run(capsys, "invert", src, "--terms", "9", "--strategy", "direct")
    assert code == 0
    assert json.loads(out)["matrix_muls"] == 7


def test_invert_divergent_exit_code(tmp_path, capsys):
    src = str(tmp_path / "hot.csv")
    linalg.save_matrix_csv(src, np.array([[3.0]]))
    code, _ = run(capsys, "invert", src, "--terms", "5")
    assert code == 1
    code, out = run(capsys, "invert", src, "--terms", "5", "--allow-divergent")
    assert code == 0
    assert json.loads(out)["spectral_radius_est"] >= 1.0


def test_invert_json_reports_what_ran(tmp_path, capsys):
    src = str(tmp_path / "a.csv")
    linalg.save_matrix_csv(src, linalg.random_test_matrix(10, seed=2))
    code, out = run(capsys, "invert", src, "--terms", "26")
    assert code == 0
    doc = json.loads(out)
    assert doc["plan_sha256"] == linalg.plan_digest(plan(26, "auto").program)
    assert doc["spectral_radius_converged"] is True
    assert doc["spectral_radius_iterations"] >= 1
    assert doc["matrix_buffers"] >= 1
    code, out = run(capsys, "invert", src, "--terms", "26", "--format", "text")
    assert code == 0
    for key in ("matrix_buffers=", "rho_converged=True", "rho_iterations=", "plan_sha256="):
        assert key in out


def test_invert_exit_code_when_the_precheck_is_fooled(tmp_path, capsys):
    # spectral radius 1.2, but power iteration from all-ones sees 0.5
    src = str(tmp_path / "fooled.csv")
    linalg.save_matrix_csv(src, np.array([[0.15, 0.35], [0.35, 0.15]]))
    code, _ = run(capsys, "invert", src, "--terms", "200")
    assert code == 1


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_invert_json_stays_json_when_the_result_overflows(tmp_path, capsys):
    src = str(tmp_path / "fooled.csv")
    linalg.save_matrix_csv(src, np.array([[0.15, 0.35], [0.35, 0.15]]))
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run(capsys, "invert", src, "--terms", "5000", "--allow-divergent")
    assert code == 0
    assert _strict_json(out)["residual_fro"] is None


def test_python_dash_m_runs_the_cli():
    import geomseries

    src = os.path.dirname(os.path.dirname(geomseries.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "geomseries", "plan", "--n", "25", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert _strict_json(done.stdout)["muls"] == 6


def test_bench_csv_shape(tmp_path, capsys):
    report = tmp_path / "bench.json"
    code, out = run(
        capsys, "bench", "--sizes", "16", "--terms", "5,8", "--replicates", "2",
        "--report", str(report),
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["size", "terms", "direct_muls", "fast_muls"]
    assert "speedup_median" in header
    cells = [line.split(",") for line in lines[1:]]
    assert [c[0] for c in cells] == ["16", "16"]
    assert [c[2] for c in cells] == ["3", "6"]
    assert [c[3] for c in cells] == ["2", "4"]
    # the JSON report carries every CSV column and the replicate count
    docs = json.loads(report.read_text())
    assert set(docs[0]) == set(header) | {"replicates"}
    for doc, cell in zip(docs, cells, strict=True):
        assert [str(doc[key]) for key in header[:4]] == cell[:4]
        assert doc["fast_plan_sha256"] == cell[header.index("fast_plan_sha256")]
        assert doc["replicates"] == 2


# Bad input exits 2 and a result that cannot be certified exits 1, each
# with one stderr line naming the command; where the third field is set,
# that line also names the option or the spelling at fault.  The files
# live in tmp_path.
MALFORMED = [
    (("plan", "--n", "0"), 2, ""),
    (("plan", "--n", "0", "--strategy", "prime:2"), 2, "series length"),
    (("plan", "--n", "-4", "--strategy", "prime:3"), 2, "series length"),
    (("plan", "--n", "65537", "--strategy", "direct"), 2, "direct"),
    (("plan", "--n", "5", "--strategy", "bogus"), 2, ""),
    (("plan", "--n", "10", "--strategy", "prime:3"), 2, ""),
    (("plan", "--n", "10", "--strategy", "mixed:2,2"), 2, ""),
    (("plan", "--n", "5", "--strategy", "mixed:2,x"), 2, "strategy 'mixed:2,x'"),
    (("plan", "--n", "5", "--out", "no-such-dir/plan.json"), 2, ""),
    (("plan", "--n", str(2**100)), 2, "auto plans are capped at length 281474976710656"),
    (("plan", "--n", "199999", "--strategy", "mixed:100000"), 2, "mixed bases are capped at 1024"),
    (("verify", "--min", "1", "--max", "5", "--strategy", "bogus"), 2, ""),
    (("count", "--min", "1", "--max", "5", "--strategy", "prime:x"), 2, "strategy 'prime:x'"),
    (("markov", "--bases", "x"), 2, "argument --bases"),
    (("markov", "--bases", ","), 2, "argument --bases"),
    (("markov", "--bases", "2,2"), 2, ""),
    (("markov", "--bases", "2000,3"), 2, "mixed bases are capped at 1024"),
    (("markov", "--bases", "13,11,7,5,3,2"), 2, "residue chains are capped at 4620 states"),
    (("markov", "--bases", "3,2", "--modulus", "0"), 2, ""),
    (("markov", "--bases", "3,2", "--modulus", "7"), 2, ""),
    (("markov", "--bases", "3,2", "--empirical", "0"), 2, ""),
    (("markov", "--bases", "3,2", "--empirical", "1"), 2, ""),
    (("markov", "--bases", "3,2", "--empirical", "5", "--nmin", "1"), 2, ""),
    (("asymptotic", "--digits", "0"), 2, ""),
    (("asymptotic", "--floor-levels", "-1"), 2, ""),
    (("invert", "missing.csv", "--terms", "5"), 2, ""),
    (("invert", "ragged.csv", "--terms", "5"), 2, ""),
    (("invert", "nan.csv", "--terms", "5"), 2, ""),
    (("invert", "text.csv", "--terms", "5"), 2, ""),
    (("invert", "empty.csv", "--terms", "5"), 2, ""),
    (("invert", "truncated.bin", "--terms", "5"), 2, ""),
    (("invert", "version.bin", "--terms", "5"), 2, "unsupported version 2"),
    (("invert", "short.bin", "--terms", "5"), 2, "expected 56 bytes, found 32"),
    (("invert", "ok.csv", "--terms", "0"), 2, ""),
    (("invert", "ok.csv", "--terms", "5", "--strategy", "bogus"), 2, ""),
    (("invert", "hot.csv", "--terms", "5"), 1, ""),
    (("bench", "--sizes", "a"), 2, "argument --sizes"),
    (("bench", "--sizes", ","), 2, "argument --sizes"),
    (("bench", "--terms", "x"), 2, "argument --terms"),
    (("bench", "--terms", ","), 2, "argument --terms"),
    (("bench", "--sizes", "4", "--terms", "5", "--replicates", "0"), 2, ""),
    (("bench", "--sizes", "0", "--terms", "5", "--replicates", "1"), 2, ""),
]


@pytest.mark.parametrize(
    "argv, code, said", MALFORMED, ids=[" ".join(argv) for argv, _, _ in MALFORMED]
)
def test_malformed_input_exits_with_one_line(tmp_path, monkeypatch, capsys, argv, code, said):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ragged.csv").write_text("1,2\n3\n")
    (tmp_path / "nan.csv").write_text("0.5,nan\n0,0.5\n")
    (tmp_path / "text.csv").write_text("a,b\nc,d\n")
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "truncated.bin").write_bytes(b"GSMX\x01\x00")
    (tmp_path / "version.bin").write_bytes(struct.pack("<4sIQQd", b"GSMX", 2, 1, 1, 0.5))
    (tmp_path / "short.bin").write_bytes(struct.pack("<4sIQQd", b"GSMX", 1, 2, 2, 0.5))
    linalg.save_matrix_csv("ok.csv", np.array([[0.5, 0.0], [0.0, 0.5]]))
    linalg.save_matrix_csv("hot.csv", np.array([[3.0]]))
    try:
        got = main(list(argv))
    except SystemExit as exc:  # rejected by argparse itself
        got = exc.code
    assert got == code
    captured = capsys.readouterr()
    usage, _, message = captured.err.rpartition(f"geomseries {argv[0]}: error: ")
    assert message.strip() and message.count("\n") == 1 and message.endswith("\n")
    assert said in message
    assert usage == "" or usage.startswith("usage: ")  # argparse prints its usage first
    assert "Traceback" not in captured.err


def test_failed_certificate_exits_1_and_a_bug_keeps_its_traceback(monkeypatch, capsys):
    def raising(exc):
        def stationary(chain):
            raise exc

        return stationary

    monkeypatch.setattr(markov, "stationary", raising(markov.CertificationError("no fixed point")))
    assert main(["markov", "--bases", "3,2"]) == 1
    assert capsys.readouterr().err == "geomseries markov: error: no fixed point\n"
    for bug in (AssertionError("a bug"), ZeroDivisionError("a bug")):
        monkeypatch.setattr(markov, "stationary", raising(bug))
        with pytest.raises(type(bug), match="a bug"):
            main(["markov", "--bases", "3,2"])


def test_count_text_and_json(capsys):
    argv = ("count", "--min", "5", "--max", "6", "--strategy", "auto",
            "--strategy", "binary", "--strategy", "mixed:3,2")
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (
        "n=     5 auto               muls=   2 predicted=-\n"
        "n=     5 binary             muls=   2 predicted=2.644\n"
        "n=     5 mixed:3,2          muls=   2 predicted=2.469\n"
        "n=     6 auto               muls=   3 predicted=-\n"
        "n=     6 binary             muls=   3 predicted=3.170\n"
        "n=     6 mixed:3,2          muls=   3 predicted=2.975\n"
    )
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"n": 5, "strategy": "auto", "muls": 2, "predicted": None},
        {"n": 5, "strategy": "binary", "muls": 2, "predicted": 2.6438561897747244},
        {"n": 5, "strategy": "mixed:3,2", "muls": 2, "predicted": 2.468625898487277},
        {"n": 6, "strategy": "auto", "muls": 3, "predicted": None},
        {"n": 6, "strategy": "binary", "muls": 3, "predicted": 3.169925001442312},
        {"n": 6, "strategy": "mixed:3,2", "muls": 3, "predicted": 2.9748441404260406},
    ]


def test_markov_csv_and_text(capsys):
    code, out = run(capsys, "markov", "--bases", "3,2", "--bases", "5,2")
    assert code == 0
    assert out == "bases=[3, 2] coefficient=1.9245\nbases=[5, 2] coefficient=1.8555\n"
    code, out = run(capsys, "markov", "--bases", "3,2", "--bases", "5,2", "--format", "csv")
    assert code == 0
    assert out == 'bases,coefficient,empirical\n"3,2",1.9245,\n"5,2",1.8555,\n'
    code, out = run(capsys, "markov", "--bases", "3,2", "--empirical", "50", "--format", "csv")
    assert code == 0
    assert out == 'bases,coefficient,empirical\n"3,2",1.9245,1.9084\n'


def test_asymptotic_text(capsys):
    code, out = run(capsys, "asymptotic", "--digits", "6", "--floor-levels", "2", "--format", "text")
    assert code == 0
    assert out == (
        "k = 1.502837\n"
        "coefficient = 1.701582  (terms=5)\n"
        "  n=0: floor=1 expected=1 match=True\n"
        "  n=1: floor=2 expected=2 match=True\n"
        "  n=2: floor=5 expected=5 match=True\n"
    )


def test_verify_reports_a_failing_plan(monkeypatch, capsys):
    from geomseries import cli
    from geomseries.slp import oracle_facts, to_json

    bad = to_json(plan(9, "ternary").program)

    def failing_ternary(program):
        facts = oracle_facts(program)
        return facts._replace(passes=False) if to_json(program) == bad else facts

    monkeypatch.setattr(cli, "oracle_facts", failing_ternary)
    argv = ("verify", "--min", "9", "--max", "9", "--strategy", "binary", "--strategy", "ternary")
    code, out = run(capsys, *argv)
    assert code == 1
    assert out == (
        "checked 2 plans over [9, 9]: 1 FAILED\n"
        "FAIL n=9 strategy=ternary\n"
        "fixture flawed-length-11: fails oracle as designed\n"
        "fixture flawed-length-26: fails oracle as designed\n"
    )
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["failures"] == [
        {"n": 9, "strategy": "ternary", "muls": 4, "plan": json.loads(bad)}
    ]


def test_verify_reports_a_fixture_that_passes(monkeypatch, capsys):
    from geomseries import cli

    monkeypatch.setattr(
        cli, "passes_oracle", lambda program: program.series_length == 11 or passes_oracle(program)
    )
    code, out = run(capsys, "verify", "--min", "3", "--max", "4")
    assert code == 1
    assert out == (
        "checked 8 plans over [3, 4]: all pass\n"
        "fixture flawed-length-11: UNEXPECTEDLY PASSES\n"
        "fixture flawed-length-26: fails oracle as designed\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--min", "5", "--max", "6", "--strategy", "auto"),
        ("markov", "--bases", "3,2"),
        ("asymptotic", "--digits", "6", "--floor-levels", "2", "--format", "text"),
    ],
    ids=["count", "markov", "asymptotic"],
)
def test_text_output_goes_to_out(tmp_path, capsys, argv):
    _, expected = run(capsys, *argv)
    out_path = tmp_path / "out.txt"
    code, out = run(capsys, *argv, "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text() == expected
