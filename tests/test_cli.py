import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from circan.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestAnalyze:
    def test_seven_vertex_complement_json(self, capsys):
        code, out = run(capsys, "analyze", "--n", "7", "--jumps", "1,2",
                        "--complement", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["indices"]["wiener"] == "42"
        assert doc["spectrum"]["rho"] == 12
        assert doc["forwarding"]["xi"] == 6
        assert doc["indices_exact"]["rt_az"] == "12400927/110592"

    def test_edgeless_complement_exits_2(self, capsys):
        code, _ = run(capsys, "analyze", "--n", "4", "--jumps", "1,2", "--complement")
        assert code == 2

    def test_disconnected_exits_2(self, capsys):
        code, _ = run(capsys, "analyze", "--n", "8", "--jumps", "2,4")
        assert code == 2

    def test_fixture_with_routing(self, capsys):
        code, out = run(capsys, "analyze",
                        "--fixture", str(FIXTURES / "fig1.graph"),
                        "--routing", str(FIXTURES / "fig1_r1.routes"),
                        "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["routing"]["vertex_loads"] == [2, 4, 4, 0, 2, 2]
        assert doc["routing"]["forwarding_index_wrt_routing"] == 4
        assert doc["routing"]["minimal"] is True

    def test_large_disconnected_fixture_exits_2(self, tmp_path, capsys):
        # 3,000 vertices and one edge: a generic graph past the order at
        # which the all-pairs pass once switched kernels
        big = tmp_path / "big.graph"
        big.write_text("3000\n0 1\n")
        code = main(["analyze", "--fixture", str(big)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_bad_fixture_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("3\n0 9\n")
        code, _ = run(capsys, "analyze", "--fixture", str(bad))
        assert code == 3

    def test_bad_jumps_exit_3(self, capsys):
        code, _ = run(capsys, "analyze", "--n", "8", "--jumps", "1,x")
        assert code == 3

    def test_other_library_error_exits_1(self, capsys):
        code = main(["analyze", "--n", "2", "--jumps", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "edge transmissions 1 + 1 do not exceed 2" in err

    def test_oversized_rational_exits_1(self, capsys):
        # the exact rt_az of C_4000(1) has more digits than str() converts
        code = main(["analyze", "--n", "4000", "--jumps", "1", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "exact rt_az" in captured.err and "too large to print" in captured.err

    def test_multiplicative_source(self, capsys):
        code, out = run(capsys, "analyze", "--m", "2", "--h", "3",
                        "--complement", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["spectrum"]["rho"] == 16
        assert doc["indices"]["wiener"] == "64"

    def test_json_round_trip_and_determinism(self, capsys):
        _, first = run(capsys, "analyze", "--n", "16", "--jumps", "1,3",
                       "--complement", "--format", "json")
        _, second = run(capsys, "analyze", "--n", "16", "--jumps", "1,3",
                        "--complement", "--format", "json")
        assert first == second
        doc = json.loads(first)
        # rationals round-trip exactly through the p/q encoding
        assert Fraction(doc["metrics"]["reciprocal_transmission"]) == (
            Fraction(doc["indices"]["harary"]) * 2 / 16
        )
        # floats round-trip bit-exactly through the JSON encoding
        assert doc["indices"]["t_sc"] == json.loads(json.dumps(doc))["indices"]["t_sc"]

    def test_csv_quotes_line_breaks_in_values(self, tmp_path, capsys):
        for name in ("two\nlines.graph", "carriage\rreturn.graph"):
            path = tmp_path / name
            path.write_text((FIXTURES / "fig1.graph").read_text())
            code, out = run(capsys, "analyze", "--fixture", str(path), "--format", "csv")
            assert code == 0
            rows = list(csv.reader(io.StringIO(out, newline="")))
            assert all(len(row) == 2 for row in rows)
            assert dict(rows)["graph.source"] == str(path)

    def test_text_quotes_line_breaks_in_values(self, tmp_path, capsys):
        fig1 = (FIXTURES / "fig1.graph").read_text()
        reports = {}
        for name in ("plain.graph", 'with "quotes", commas.graph',
                     "two\nlines.graph", 'carriage\r"return".graph'):
            path = tmp_path / name
            path.write_text(fig1)
            code, out = run(capsys, "analyze", "--fixture", str(path))
            assert code == 0
            reports[name] = (str(path), out)
        for name, (source, out) in reports.items():
            broken = "\r" in source or "\n" in source
            shown = '"' + source.replace('"', '""') + '"' if broken else source
            line = f"graph.source: {shown}\n"
            assert line in out
            rest = out.replace(line, "")
            assert rest == reports["plain.graph"][1].replace(
                f"graph.source: {reports['plain.graph'][0]}\n", "")

    def test_out_file_is_utf8_copy_of_stdout(self, tmp_path, capsys):
        path = tmp_path / "caf\u00e9.graph"
        path.write_text((FIXTURES / "fig1.graph").read_text())
        for fmt in ("csv", "text", "json"):
            argv = ["analyze", "--fixture", str(path), "--format", fmt]
            code, out = run(capsys, *argv)
            assert code == 0 and "caf" in out
            out_path = tmp_path / f"report.{fmt}"
            code, printed = run(capsys, *argv, "--out", str(out_path))
            assert code == 0 and printed == ""
            assert out_path.read_bytes() == out.encode("utf-8")
            assert out.isascii() == (fmt == "json")

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out = run(capsys, "analyze", "--n", "4", "--jumps", "1,2",
                        "--format", "json", "--out", str(out_path))
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["metrics"]["transmission"] == 3


class TestSpectrum:
    def test_complete_graph(self, capsys):
        code, out = run(capsys, "spectrum", "--n", "4", "--jumps", "1,2",
                        "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["eigenvalues"] == pytest.approx([3.0, -1.0, -1.0, -1.0], abs=1e-12)

    def test_half_jump_complement(self, capsys):
        code, out = run(capsys, "spectrum", "--n", "8", "--jumps", "1,4",
                        "--complement", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["radius_exact"] == 10
        assert abs(doc["radius_float"] - 10) < 1e-9
        assert doc["radius_abs_error"] < 1e-9

    def test_multiplicative_eight(self, capsys):
        code, out = run(capsys, "spectrum", "--n", "8", "--jumps", "1,2,4",
                        "--complement", "--format", "json")
        assert json.loads(out)["radius_exact"] == 16 and code == 0

    def test_disconnected(self, capsys):
        code, _ = run(capsys, "spectrum", "--n", "8", "--jumps", "2,4")
        assert code == 2


class TestRoutingCommand:
    def test_load_analysis(self, capsys):
        code, out = run(capsys, "routing",
                        "--fixture", str(FIXTURES / "fig1.graph"),
                        "--routing", str(FIXTURES / "fig1_r2.routes"),
                        "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["routing"]["vertex_loads"] == [5, 4, 9, 3, 1, 4]
        assert doc["routing"]["minimal"] is False

    def test_bad_routing_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.routes"
        bad.write_text("1 2\n")
        code, _ = run(capsys, "routing",
                      "--fixture", str(FIXTURES / "fig1.graph"),
                      "--routing", str(bad))
        assert code == 3


class TestVerify:
    def test_gen_sweep_known_exception(self, capsys):
        code, out = run(capsys, "verify", "--family", "double-loop-gen",
                        "--n", "8:20", "--format", "json")
        assert code == 0
        docs = json.loads(out)
        exceptional = [d for d in docs if d["status"] == "known_exception"]
        assert [(d["n"], d["a"]) for d in exceptional] == [(8, 3)]

    def test_half_adversarial_range_flagged_not_failed(self, capsys):
        code, out = run(capsys, "verify", "--family", "double-loop-half",
                        "--k", "2:3", "--format", "json")
        assert code == 0
        docs = json.loads(out)
        assert all(d["status"] == "out_of_domain" for d in docs)

    def test_mc_sweep(self, capsys):
        code, out = run(capsys, "verify", "--family", "mc", "--max-order", "128",
                        "--format", "text")
        assert code == 0
        assert "0 failed" in out

    def test_csv_output(self, capsys):
        code, out = run(capsys, "verify", "--family", "c7", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("family,n,a,m,h,status,note,passed")
        assert len(lines) == 3

    def test_mismatch_exits_4(self, capsys, monkeypatch):
        import circan.verifier as verifier_module

        real_predict = verifier_module.predict

        def corrupted(point):
            pred = real_predict(point)
            object.__setattr__(pred, "rho", pred.rho + 1)
            return pred

        monkeypatch.setattr(verifier_module, "predict", corrupted)
        code, out = run(capsys, "verify", "--family", "c7", "--format", "text")
        assert code == 4
        assert "FAILED" in out

    def test_unchecked_in_domain_point_exits_4(self, capsys, monkeypatch):
        import circan.verifier as verifier_module
        from circan import DomainStatus

        monkeypatch.setattr(
            verifier_module, "domain_status", lambda point: (DomainStatus.IN_DOMAIN, "")
        )
        code, out = run(capsys, "verify", "--family", "double-loop-gen", "--n", "8:8",
                        "--format", "json")
        assert code == 4
        by_a = {rec["a"]: rec for rec in json.loads(out)}
        assert by_a[3]["note"] == "UNEXPECTED: complement is disconnected"
        assert by_a[3]["passed"] is False

    def test_unchecked_in_domain_point_text_names_reason(self, capsys, monkeypatch):
        import circan.verifier as verifier_module
        from circan import DomainStatus

        monkeypatch.setattr(
            verifier_module, "domain_status", lambda point: (DomainStatus.IN_DOMAIN, "")
        )
        code, out = run(capsys, "verify", "--family", "double-loop-gen", "--n", "8:8",
                        "--format", "text")
        assert code == 4
        assert ("double-loop-gen n=8 a=3 in_domain "
                "(UNEXPECTED: complement is disconnected) FAILED: not checked") in out

    @pytest.mark.parametrize("argv", [
        ["--family", "mc", "--max-order", "1"],
        ["--family", "double-loop-gen", "--n", "2:4"],
    ])
    def test_empty_sweep_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert "selects no points" in capsys.readouterr().err

    def test_inverted_range_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "double-loop-gen", "--n", "40:8"])
        assert exc.value.code == 2
        assert "lo exceeds hi" in capsys.readouterr().err

    def test_bad_tol_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--family", "c7", "--tol", "0.5"])

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "c7", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err

    def test_jobs_two_output_equals_serial(self, capsys):
        argv = ["verify", "--family", "mc", "--max-order", "200", "--format", "csv"]
        assert run(capsys, *argv, "--jobs", "2") == run(capsys, *argv, "--jobs", "1")

    def test_import_leaves_process_pool_unloaded(self):
        # the pool is imported only when a sweep runs workers
        code = ("import sys, circan.cli; "
                "print('concurrent.futures.process' in sys.modules)")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


def test_import_loads_no_undeclared_dependency():
    # numpy is the only runtime dependency; these are installed, undeclared
    code = ("import sys, circan, circan.cli; "
            "print(' '.join(sorted({m.split('.')[0] for m in sys.modules})))")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "numpy" in loaded
    assert not loaded & {"scipy", "networkx", "sympy", "pytest", "hypothesis"}


class TestJsonFormat:
    """Every JSON document the CLI prints is ``json.dumps(doc, indent=2)``."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "--n", "40", "--jumps", "1,3,9"],
        ["analyze", "--n", "16", "--jumps", "1,3", "--complement"],
        ["analyze", "--m", "3", "--h", "3"],
        ["analyze", "--fixture", str(FIXTURES / "fig1.graph")],
        ["analyze", "--fixture", str(FIXTURES / "fig1.graph"),
         "--routing", str(FIXTURES / "fig1_r1.routes")],
        ["spectrum", "--n", "12", "--jumps", "1,5"],
        ["verify", "--family", "double-loop-half", "--k", "2:6"],
    ], ids=["circulant", "complement", "multiplicative", "fixture", "routing",
            "spectrum", "verify"])
    def test_indent2_layout_and_out_file(self, tmp_path, capsys, argv):
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        out_path = tmp_path / "out.json"
        code, empty = run(capsys, *argv, "--format", "json", "--out", str(out_path))
        assert code == 0 and empty == ""
        assert out_path.read_bytes() == out.encode()


def _wrong_rho(monkeypatch):
    import circan.verifier as verifier_module

    real = verifier_module.predict
    monkeypatch.setattr(verifier_module, "predict",
                        lambda point: dataclasses.replace(real(point), rho=real(point).rho + 1))


EXIT_CASES = [
    (0, ["analyze", "--n", "8", "--jumps", "1,4"], None),
    (0, ["routing", "--fixture", str(FIXTURES / "fig1.graph"),
         "--routing", str(FIXTURES / "fig1_r2.routes")], None),
    (1, ["analyze", "--n", "2", "--jumps", "1"], None),
    (1, ["analyze", "--n", "4000", "--jumps", "1"], None),
    (2, ["analyze", "--n", "8", "--jumps", "2,4"], None),
    (2, ["analyze", "--n", "4", "--jumps", "1,2", "--complement"], None),
    (2, ["verify", "--family", "c7", "--jobs", "0"], None),
    (2, ["analyze", "--format", "json"], None),
    (3, ["analyze", "--n", "8", "--jumps", "1,x"], None),
    (3, ["analyze", "--fixture", str(FIXTURES / "no-such.graph")], None),
    (3, ["routing", "--fixture", str(FIXTURES / "fig1.graph"),
         "--routing", str(FIXTURES / "fig1.graph")], None),
    (4, ["verify", "--family", "c7"], _wrong_rho),
    # {tmp} is the test's empty temporary directory
    (3, ["analyze", "--fixture", "{tmp}"], None),
    (3, ["routing", "--fixture", str(FIXTURES / "fig1.graph"), "--routing", "{tmp}"], None),
    (3, ["analyze", "--n", "8", "--jumps", "1,4", "--out", "{tmp}"], None),
    (3, ["analyze", "--n", "8", "--jumps", "1,4", "--out", "{tmp}/no-such-dir/out.txt"], None),
]


class TestExitCodes:
    """Each documented exit code, mapped to a call that produces it."""

    def test_every_code_is_covered(self):
        assert {code for code, _, _ in EXIT_CASES} == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("code,argv,patch", EXIT_CASES)
    def test_exit_code(self, capsys, monkeypatch, tmp_path, code, argv, patch):
        if patch is not None:
            patch(monkeypatch)
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse usage errors
            got = exc.code
        assert got == code
        err = capsys.readouterr().err
        assert (err == "") == (code in (0, 4))
        if code in (1, 3):  # library and file errors: one error line
            assert err.startswith("error: ") and err.count("\n") == 1, err
