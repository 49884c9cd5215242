import ast
import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    def test_reciprocal_only_when_every_vertex_has_it(self, capsys):
        # tr12 is transmission-regular (27), but its reciprocal
        # transmissions are 71/12 at six vertices and 35/6 at the others
        code, out = run(capsys, "analyze", "--fixture", str(FIXTURES / "tr12.graph"),
                        "--format", "json")
        assert code == 0
        metrics = json.loads(out)["metrics"]
        assert metrics["reciprocal_transmission"] is None
        assert (metrics["degree"], metrics["transmission"]) == (3, 27)
        assert metrics["transmission_regular"] is True

    def test_one_vertex_fixture(self, tmp_path, capsys):
        path = tmp_path / "one.graph"
        path.write_text("1\n")
        code, out = run(capsys, "analyze", "--fixture", str(path), "--format", "json")
        assert code == 0
        metrics = json.loads(out)["metrics"]
        assert (metrics["degree"], metrics["transmission"]) == (0, 0)
        assert metrics["reciprocal_transmission"] == "0"

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


class TestNegativeJumpLists:
    """argparse takes ``-1,3`` for an option unless the parser's negative-number
    rule matches it; ``--jumps -1,3`` must read it as the jump list that
    ``--jumps=-1,3`` gives."""

    @pytest.mark.parametrize("command", ["analyze", "spectrum"])
    @pytest.mark.parametrize("jumps,plain", [("-1,3", "1,3"), ("-1", "1")])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_both_spellings_print_the_same_bytes(self, capsys, command, jumps, plain, fmt):
        spaced = run(capsys, command, "--n", "8", "--jumps", jumps, "--format", fmt)
        joined = run(capsys, command, "--n", "8", f"--jumps={jumps}", "--format", fmt)
        assert spaced == joined
        # -1 is the jump 1 of C8
        assert spaced == run(capsys, command, "--n", "8", "--jumps", plain, "--format", fmt)
        assert spaced[0] == 0

    @pytest.mark.parametrize("command", ["analyze", "spectrum"])
    @pytest.mark.parametrize("option", ["--jump", "--ju"])
    def test_abbreviations_join_like_the_option(self, capsys, command, option):
        spaced = run(capsys, command, "--n", "8", option, "-1,3", "--format", "json")
        assert spaced == run(capsys, command, "--n", "8", "--jumps=-1,3", "--format", "json")
        assert spaced[0] == 0

    @pytest.mark.parametrize("jumps", ["-1,x", "-1.5", "-1,3x"])
    def test_malformed_list_is_bad_input_in_both_spellings(self, capsys, jumps):
        # every token that starts with a minus and a digit is a value, so a
        # malformed one is a bad jump list (3), not a missing argument (2)
        assert main(["analyze", "--n", "8", "--jumps", jumps]) == 3
        spaced = capsys.readouterr().err
        assert main(["analyze", "--n", "8", f"--jumps={jumps}"]) == 3
        assert capsys.readouterr().err == spaced == (
            f"error: bad jump list {jumps!r}; expected comma-separated integers\n")

    @pytest.mark.parametrize("argv", [
        ["analyze", "--n", "-1,3", "--jumps", "1"],
        ["analyze", "--n", "8", "--jumps", "1", "-1,3"],
        ["spectrum", "--m", "-1,3", "--h", "2"],
    ])
    def test_list_elsewhere_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("usage: circan ") and err.count("usage:") == 1
        assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]

    def test_jobs_abbreviation_keeps_its_value(self, capsys):
        # in verify, --j abbreviates --jobs, so -1 stays a jobs count: verify
        # keeps argparse's own negative-number rule
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "c7", "--j", "-1"])
        assert exc.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err

    def test_missing_jump_list_is_still_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--n", "8", "--jumps", "--complement"])
        assert exc.value.code == 2
        assert "argument --jumps: expected one argument" in capsys.readouterr().err


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

    def test_family_choices_in_order(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "bogus"])
        assert exc.value.code == 2
        assert ("argument --family: invalid choice: 'bogus' (choose from 'double-loop-half', "
                "'double-loop-gen', 'c7', 'mc', 'mc-2h', 'mc-gen', 'mc-23')"
                in capsys.readouterr().err)

    def test_inverted_range_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "double-loop-gen", "--n", "40:8"])
        assert exc.value.code == 2
        assert "lo exceeds hi" in capsys.readouterr().err

    def test_bad_tol_rejected(self, capsys):
        # the tolerances are pinned: there is no option to change them
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "c7", "--tol", "1e-4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

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


def _non_palindromic_bfs(monkeypatch):
    import circan.metrics as metrics_module

    monkeypatch.setattr(metrics_module, "_circulant_bfs", lambda spec: np.arange(spec.n))


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
    # a graph order below 2
    (3, ["analyze", "--n", "1", "--jumps", "1"], None),
    (3, ["analyze", "--m", "1", "--h", "3"], None),
    (3, ["analyze", "--m", "2", "--h", "0"], None),
    # the exact rt_az of C_8192(1) is past the int-to-str digit limit
    (1, ["analyze", "--n", "8192", "--jumps", "1"], None),
    # an internal invariant (a BFS vector that is no palindrome) is a
    # library error, not bad input
    (1, ["analyze", "--n", "8", "--jumps", "1,4"], _non_palindromic_bfs),
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


class TestInputErrors:
    """Bad input is an ``InputError`` (exit 3); only the error hierarchy
    decides the exit code."""

    @pytest.mark.parametrize("header", ["1000000000", "10000000000", str(10**20)])
    def test_header_numpy_cannot_hold_exits_3(self, tmp_path, capsys, header):
        # numpy refuses each n x n adjacency without allocating it
        path = tmp_path / "huge.graph"
        path.write_text(f"{header}\n0 1\n")
        assert main(["analyze", "--fixture", str(path)]) == 3
        assert capsys.readouterr().err == f"error: line 1: vertex count {header} is too large\n"

    def test_non_ascii_fixture_and_routing_exit_3(self, tmp_path, capsys):
        fixture = tmp_path / "bad.graph"
        fixture.write_bytes(b"3\n0 1\n1 2\xc3\xa9\n")
        assert main(["analyze", "--fixture", str(fixture)]) == 3
        assert capsys.readouterr().err == f"error: {fixture}: non-ASCII byte 0xc3 at offset 9\n"
        routes = tmp_path / "bad.routes"
        routes.write_bytes(b"0 1 2\n\xff\n")
        for command in ("analyze", "routing"):
            code = main([command, "--fixture", str(FIXTURES / "fig1.graph"),
                         "--routing", str(routes)])
            assert code == 3
            assert capsys.readouterr().err == f"error: {routes}: non-ASCII byte 0xff at offset 6\n"

    @pytest.mark.parametrize("m,h", [("2", "-1"), ("-2", "2"), ("1", "3"), ("2", "0"), ("0", "0")])
    def test_multiplicative_parameters_checked_before_the_order(self, capsys, m, h):
        assert main(["analyze", "--m", m, "--h", h]) == 3
        assert capsys.readouterr().err == f"error: need m >= 2 and h >= 1, got m={m}, h={h}\n"

    def test_input_error_is_a_value_error(self):
        from circan.errors import (
            CirculantError, DuplicateEdgeError, EmptyJumpSetError, FixtureParseError,
            InputError, InvalidEdgeError, MissingPairError, NonElementaryPathError,
            VertexRangeError,
        )

        assert issubclass(InputError, CirculantError) and issubclass(InputError, ValueError)
        for kind in (FixtureParseError, VertexRangeError, DuplicateEdgeError, EmptyJumpSetError,
                     MissingPairError, InvalidEdgeError, NonElementaryPathError):
            assert issubclass(kind, InputError), kind

    def test_bare_value_error_propagates(self, monkeypatch):
        # a ValueError that is no InputError is a defect, not bad input
        import circan.cli as cli_module

        def broken(dv):
            raise ValueError("not an input error")

        monkeypatch.setattr(cli_module, "circulant_spectrum", broken)
        with pytest.raises(ValueError, match="not an input error"):
            main(["spectrum", "--n", "8", "--jumps", "1"])

    def test_no_value_error_raised_or_caught_by_name(self):
        src = Path(__file__).resolve().parent.parent / "src" / "circan"
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    call = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    assert not (isinstance(call, ast.Name) and call.id == "ValueError"), (
                        f"{path.name}:{node.lineno} raises ValueError")
        tree = ast.parse((src / "cli.py").read_text())
        main_def = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
        handlers = [n for n in ast.walk(main_def) if isinstance(n, ast.ExceptHandler)]
        assert len(handlers) == 1
        names = {n.id for n in ast.walk(handlers[0].type) if isinstance(n, ast.Name)}
        assert names == {"CirculantError", "OSError"}
        module_names = {t.id for n in tree.body if isinstance(n, ast.Assign) for t in n.targets
                        if isinstance(t, ast.Name)}
        assert not module_names & {"_PARSE_ERRORS", "_DISCONNECTED_ERRORS"}


def test_cli_imports_no_private_name_from_circan():
    # the CLI reaches the library through its public names only
    path = Path(__file__).resolve().parent.parent / "src" / "circan" / "cli.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "circan"):
            private = [alias.name for alias in node.names if alias.name.startswith("_")]
            assert not private, f"cli.py:{node.lineno} imports {private}"


# Bytes spliced into fixtures; none is a digit, so a splice never makes a
# number larger than the tokens it lands in, and every declared order stays
# below 100.
_SPLICES = [b"\xff", b"\xc3\xa9", b"\r", b"\n", b"#", b" ", b"\t", b"\x00", b"-", b"x",
            b"\x0b", b"\x0c", b"\x1c", b"\x85", b" one-indexed"]


@st.composite
def _fixture_bytes(draw, base: bytes) -> bytes:
    """A fixture made of short lines of small integers and junk tokens, or
    ``base``, with up to three non-digit splices."""
    if draw(st.booleans()):
        data = base
    else:
        tokens = st.one_of(st.integers(-2, 70).map(str),
                           st.sampled_from(["x", "1.5", "#", "one-indexed", "", "0x1"]))
        lines = st.lists(tokens, max_size=4).map(" ".join)
        data = "\n".join(draw(st.lists(lines, max_size=8))).encode()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(_SPLICES)) + data[at:]
    return data


def _range(draw, lo: int, hi: int, width: int) -> str:
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["x", "3", "1:2:3", ":"]))
    start = draw(st.integers(lo, hi))
    return f"{start}:{min(hi, start + draw(st.integers(-1, width)))}"


@st.composite
def _cli_calls(draw):
    """(argv, files): a call of one of the four subcommands, with the bytes
    of each file it names as ``{tmp}/name``. Every size is bounded: m^h <=
    4096, --n <= 64, --max-order <= 64, --jobs <= 2. Repeated entries weight
    the choices towards calls that get past argparse."""
    command = draw(st.sampled_from(["analyze", "spectrum", "routing", "verify"]))
    argv, files = [command], {}
    graph = draw(st.sampled_from(["{tmp}/graph"] * 4 + ["{tmp}/missing.graph", "{tmp}"]))
    routes = draw(st.sampled_from(["{tmp}/routes"] * 4 + ["{tmp}/missing.routes"]))
    files["graph"] = draw(_fixture_bytes((FIXTURES / "fig1.graph").read_bytes()))
    files["routes"] = draw(_fixture_bytes((FIXTURES / "fig1_r1.routes").read_bytes()))
    if command == "verify":
        argv += ["--family", draw(st.sampled_from(
            ["double-loop-half", "double-loop-gen", "c7", "mc", "mc-2h", "mc-gen", "mc-23"]))]
        argv += ["--k", _range(draw, -4, 32, 4), "--n", _range(draw, -4, 64, 6)]
        argv += ["--max-order", str(draw(st.integers(-2, 64)))]
        argv += ["--jobs", str(draw(st.sampled_from([1, 1, 1, 1, 2, 0, -1])))]
    elif command == "routing":
        argv += ["--fixture", graph, "--routing", routes]
    else:
        kinds = ["n", "mc"] + (["fixture"] if command == "analyze" else [])
        sources = draw(st.sampled_from([[kind] for kind in kinds] * 3
                                       + [[], ["m"], ["n", "mc"], ["fixture", "n"]]))
        for source in sources:
            if source == "n":
                argv += ["--n", str(draw(st.one_of(st.integers(5, 64), st.integers(-2, 64))))]
                if draw(st.integers(0, 5)):
                    jumps = st.one_of(
                        st.lists(st.integers(-70, 70), min_size=1, max_size=4).map(
                            lambda js: ",".join(map(str, js))),
                        st.text("0123456789,x -", max_size=8))
                    argv += ["--jumps", draw(jumps)]
            elif source in ("mc", "m"):
                m = draw(st.one_of(st.integers(2, 9), st.integers(-3, 64)))
                h = draw(st.one_of(st.integers(1, 4), st.integers(-2, 12)).filter(
                    lambda h: not (m >= 2 and h >= 1 and m**h > 4096)))
                argv += ["--m", str(m)] + (["--h", str(h)] if source == "mc" else [])
            else:
                argv += ["--fixture", graph]
                if draw(st.booleans()):
                    argv += ["--routing", routes]
        if draw(st.booleans()):
            argv.append("--complement")
    argv += ["--format", draw(st.sampled_from(["text", "json", "csv"]))]
    argv += draw(st.sampled_from([[]] * 3 + [["--out", "{tmp}/out.txt"], ["--out", "{tmp}"]]))
    return argv, files


def _fixture_call(data: bytes, *argv: str):
    return ["analyze", "--fixture", "{tmp}/graph", *argv], {"graph": data, "routes": b""}


class TestRandomCalls:
    @settings(max_examples=300, deadline=None)
    @given(_cli_calls())
    @example(_fixture_call(b"1000000000\n"))
    @example(_fixture_call(b"10000000000\n0 1\n"))
    @example(_fixture_call(str(10**20).encode() + b"\n"))
    @example(_fixture_call(b"3\n0 1\n1 2\xc3\xa9\n"))
    @example((["analyze", "--m", "2", "--h", "-1"], {}))
    def test_exit_codes_and_one_error_line(self, call):
        argv, files = call
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in files.items():
                Path(tmp, name).write_bytes(data)
            argv = [arg.replace("{tmp}", tmp) for arg in argv]
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
        err = stderr.getvalue()
        assert code in (0, 1, 2, 3, 4), (code, err)
        assert "Traceback" not in err
        if code in (1, 3):
            assert err.startswith("error: ") and err.count("\n") == 1, err
