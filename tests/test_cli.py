import cmath
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tilelab import (
    ResourceLimit, format_grid_text, goal, load_grid, parse_poly_text, poly_from_json, vieta)
from tilelab.cli import main

PKG_ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = PKG_ROOT / "schemas"
# the child runs this checkout's src, not an installed copy
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(PKG_ROOT / "src"), os.environ.get("PYTHONPATH")]))}

EXAMPLE_GRID = "1 _ 2 4\n5 6 3 8\n9 10 7 11\n13 14 15 12\n"
UNSOLVABLE_GRID = "2 1\n3 _\n"
CORPUS = "# norm-check corpus\n1,1\n1,1\n\n0,0,1\npi,1,1\n"


def run(*argv, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "tilelab.cli", *argv],
        input=stdin, capture_output=True, text=True, timeout=120, env=CHILD_ENV)
    return proc.returncode, proc.stdout, proc.stderr


def check(doc: dict, schema_name: str) -> None:
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.validate(doc, schema)


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text(EXAMPLE_GRID)
    return str(path)


@pytest.fixture
def unsolvable_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(UNSOLVABLE_GRID)
    return str(path)


class TestPuzzleSolve:
    def test_optimal_solution(self, grid_file):
        code, out, _ = run("puzzle", "solve", "--in", grid_file)
        assert code == 0
        doc = json.loads(out)
        check(doc, "puzzle_solve.schema.json")
        assert doc["solvable"] is True
        assert doc["psi"] == 5
        assert doc["seq"] == "RDDRD"

    def test_grid_on_stdin(self):
        code, out, _ = run("puzzle", "solve", "--in", "-", stdin=EXAMPLE_GRID)
        assert code == 0
        assert json.loads(out)["psi"] == 5

    def test_json_grid_input(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"n": 2, "cells": [1, 2, 3, None]}))
        code, out, _ = run("puzzle", "solve", "--in", str(path))
        assert code == 0
        assert json.loads(out)["psi"] == 0

    def test_unsolvable_is_domain_negative(self, unsolvable_file):
        code, out, _ = run("puzzle", "solve", "--in", unsolvable_file)
        assert code == 1
        doc = json.loads(out)
        check(doc, "puzzle_solve.schema.json")
        assert doc["solvable"] is False
        assert doc["reason"]

    def test_exhaust_algo_counts_probes(self, grid_file):
        code, out, _ = run("puzzle", "solve", "--in", grid_file,
                           "--algo", "exhaust", "--kmax", "5")
        assert code == 0
        doc = json.loads(out)
        check(doc, "puzzle_solve.schema.json")
        assert doc["seq"] == "RDDRD"
        assert doc["expanded"] == 942

    def test_exhaust_not_found(self, grid_file):
        code, out, _ = run("puzzle", "solve", "--in", grid_file,
                           "--algo", "exhaust", "--kmax", "3")
        assert code == 1
        doc = json.loads(out)
        check(doc, "puzzle_solve.schema.json")
        assert doc == {"found": False, "kmax": 3}

    def test_missing_grid_file_is_usage_error(self):
        code, out, err = run("puzzle", "solve", "--in", "/nonexistent/grid.txt")
        assert code == 2
        assert out == ""
        assert "error" in err


class TestPuzzleVerify:
    def test_valid_solution(self, grid_file):
        code, out, _ = run("puzzle", "verify", "--in", grid_file,
                           "--seq", "RDDRD", "--emit-ledger")
        assert code == 0
        doc = json.loads(out)
        check(doc, "puzzle_verify.schema.json")
        assert doc["valid"] is True
        assert doc["within"] is True
        assert doc["decisions"] <= doc["budget"]
        assert sum(doc["per_primitive"].values()) == doc["decisions"]

    def test_invalid_solution(self, grid_file):
        code, out, _ = run("puzzle", "verify", "--in", grid_file, "--seq", "RD")
        assert code == 1
        doc = json.loads(out)
        check(doc, "puzzle_verify.schema.json")
        assert doc["valid"] is False
        assert doc["within"] is True

    def test_bad_sequence_is_usage_error(self, grid_file):
        code, out, _ = run("puzzle", "verify", "--in", grid_file, "--seq", "RDX")
        assert code == 2
        assert out == ""


class TestPuzzleEnumerate:
    def test_census(self):
        code, out, _ = run("puzzle", "enumerate", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        check(doc, "puzzle_enumerate.schema.json")
        assert doc["count"] == 12
        assert doc["diameter"] == 6
        assert doc["depth_histogram"] == [1, 2, 2, 2, 2, 2, 1]

    def test_state_cap_is_resource_limit(self):
        code, out, err = run("puzzle", "enumerate", "--n", "3",
                             "--state-cap", "100")
        assert code == 3
        assert out == ""
        assert "resource limit" in err

    def test_depth_limit(self):
        code, out, _ = run("puzzle", "enumerate", "--n", "4",
                           "--depth-limit", "3")
        assert code == 0
        assert json.loads(out)["depth_histogram"] == [1, 2, 4, 10]

    def test_complete_says_whether_the_census_was_cut(self):
        doc = json.loads(run("puzzle", "enumerate", "--n", "2")[1])
        assert doc["complete"] is True
        code, out, _ = run("puzzle", "enumerate", "--n", "3", "--depth-limit", "5")
        doc = json.loads(out)
        check(doc, "puzzle_enumerate.schema.json")
        assert (code, doc["diameter"], doc["complete"]) == (0, 5, False)


class TestPuzzleBounds:
    def test_report(self):
        code, out, _ = run("puzzle", "bounds", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        check(doc, "puzzle_bounds.schema.json")
        assert doc["verdicts"]["configuration_count"] == "holds"
        assert doc["verdicts"]["solvable_states_branching_bound"] == "fails"

    @pytest.mark.parametrize("argv, digest", [
        (("puzzle", "bounds", "--n", "2"),
         "c24835a4a69c1cee3289aa08adcec6b5a0ff431c01477365219a545e84cd8e4b"),
        (("puzzle", "bounds", "--n", "3"),
         "b9a76a88c10e30357adcaf5f76b2fc1fdc8b2c3c13ee1e9b9aa836d176b94916"),
        (("report", "--n", "2", "--n", "3"),
         "e9df5ea792d177e21891524c00d9ecc58ba3f265894414e77b8f1fbc9b89602f"),
    ], ids=["bounds-2", "bounds-3", "report-2-3"])
    def test_document_bytes_are_pinned(self, argv, digest):
        # key order and the log bound's digits, which the schema leaves open
        proc = subprocess.run([sys.executable, "-m", "tilelab.cli", *argv],
                              capture_output=True, timeout=120, env=CHILD_ENV)
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout).hexdigest() == digest

    def test_out_of_range_n_rejected_by_parser(self):
        code, out, _ = run("puzzle", "bounds", "--n", "4")
        assert code == 2
        assert out == ""


class TestPuzzleCost:
    def test_sequence_cost(self, grid_file):
        code, out, _ = run("puzzle", "cost", "--in", grid_file,
                           "--seq", "RDDRD", "--emit-ledger")
        assert code == 0
        doc = json.loads(out)
        check(doc, "puzzle_cost.schema.json")
        assert doc["decisions"] == 69  # R, D, D, R, D = 18+11+11+18+11
        assert doc["ceiling"] == 135
        assert doc["within"] is True


class TestPuzzleExhaust:
    def test_found_within_budget(self, grid_file):
        code, out, _ = run("puzzle", "exhaust", "--in", grid_file, "--kmax", "5")
        assert code == 0
        doc = json.loads(out)
        check(doc, "puzzle_exhaust.schema.json")
        assert doc["found"] is True
        assert doc["psi"] == 5
        assert doc["seq"] == "RDDRD"
        assert doc["within"] is True

    def test_not_found_still_reports_budget(self, grid_file):
        code, out, _ = run("puzzle", "exhaust", "--in", grid_file, "--kmax", "2")
        assert code == 1
        doc = json.loads(out)
        check(doc, "puzzle_exhaust.schema.json")
        assert doc["found"] is False
        assert doc["within"] is True


    def test_wide_grid_over_the_byte_cap_exits_3(self, tmp_path, capsys):
        # 4^6 stored 64x64 codes and the move tables would take ~500 MiB;
        # the request is refused before either is built
        path = tmp_path / "wide.txt"
        path.write_text(format_grid_text(goal(64)))
        tracemalloc.start()
        try:
            code = main(["puzzle", "exhaust", "--in", str(path), "--kmax", "7"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith("tilelab: resource limit: k_max 7 at n = 64 needs ")
        assert peak < 8 * 2 ** 20


class TestRootsFind:
    def test_pi_cubic(self):
        code, out, _ = run("roots", "find", "--poly", "pi/2,-pi^2,0,2")
        assert code == 0
        doc = json.loads(out)
        check(doc, "roots_find.schema.json")
        assert doc["tau"] == 3
        assert doc["case"] == "1,1,1"
        assert [o["case"] for o in doc["outcomes"]] == ["3", "2,1", "1,1,1"]
        assert [o["status"] for o in doc["outcomes"]] == [
            "inconsistent", "inconsistent", "solved"]

    def test_no_real_roots_is_domain_negative(self):
        code, out, _ = run("roots", "find", "--poly", "1,0,1")
        assert code == 1
        doc = json.loads(out)
        check(doc, "roots_find.schema.json")
        assert doc["tau"] == 0
        assert doc["case"] == "q2"

    def test_exact_cofactor_is_counted_exactly(self):
        # x^2 - 2/3 x + 1/9 + 10^-20 has no real roots; its coefficients
        # rounded to floats give (x - 1/3)^2, which has one
        text = json.dumps({"coeffs": ["100000000000000000009/900000000000000000000", "-2/3", 1],
                           "kind": "rational"})
        code, out, _ = run("roots", "find", "--in", "-", stdin=text)
        assert code == 1
        doc = json.loads(out)
        assert (doc["tau"], doc["case"]) == (0, "q2")
        assert doc["outcomes"][-1] == {"case": "q2", "status": "solved", "iterations": 0,
                                       "starts_used": 0, "roots": [], "residual": 0.0,
                                       "cofactor": [1 / 9, -2 / 3]}

    def test_complex_mode(self):
        code, out, _ = run("roots", "find", "--poly", "1,0,1",
                           "--mode", "complex")
        assert code == 0
        doc = json.loads(out)
        check(doc, "roots_find.schema.json")
        assert doc["tau"] == 2
        values = sorted(r["value"]["im"] for r in doc["roots"])
        assert values == pytest.approx([-1.0, 1.0], abs=1e-8)

    def test_starved_solver_reports_history(self, monkeypatch, capsys):
        monkeypatch.setattr(vieta, "STARTS", 1)
        monkeypatch.setattr(vieta, "MAX_ITERS", 1)
        code = main(["roots", "find", "--poly", "pi/2,-pi^2,0,2"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        check(doc, "roots_find.schema.json")
        assert doc["tau"] is None
        assert doc["error"]
        assert len(doc["outcomes"]) == 5

    def test_poly_from_json_file(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"coeffs": ["-1", "0", "1"], "kind": "rational"}))
        code, out, _ = run("roots", "find", "--in", str(path))
        assert code == 0
        assert json.loads(out)["tau"] == 2

    @pytest.mark.parametrize("text, mult", [("pi^2,-2*pi,1", 2), ("-pi^3,3*pi^2,-3*pi,1", 3)])
    def test_root_repeated_up_to_rounding(self, text, mult):
        code, out, _ = run("roots", "find", f"--poly={text}")
        assert code == 0
        doc = json.loads(out)
        assert [(r["value"], r["mult"]) for r in doc["roots"]] == [
            (pytest.approx(math.pi), mult)]

    def test_requires_poly_or_file(self):
        code, out, _ = run("roots", "find")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("command", [("find",), ("verify", "--root", "1")])
    def test_poly_and_file_together_is_usage_error(self, command, tmp_path):
        # one polynomial source: --in is never silently ignored for --poly
        path = tmp_path / "p.txt"
        path.write_text("-1,0,1\n")
        code, out, err = run("roots", *command, "--poly=0,1", "--in", str(path))
        assert (code, out) == (2, "")
        assert "not allowed with argument" in err


class TestRootsVerify:
    def test_exact_root(self):
        code, out, _ = run("roots", "verify", "--poly=-1,0,1", "--root", "1")
        assert code == 0
        doc = json.loads(out)
        check(doc, "roots_verify.schema.json")
        assert doc["is_root"] is True
        assert doc["multiplicity"] == 1

    def test_non_root(self):
        code, out, _ = run("roots", "verify", "--poly=-1,0,1", "--root", "3")
        assert code == 1
        doc = json.loads(out)
        check(doc, "roots_verify.schema.json")
        assert doc["is_root"] is False
        assert doc["multiplicity"] is None

    def test_double_root(self):
        code, out, _ = run("roots", "verify", "--poly", "1,-2,1", "--root", "1")
        assert code == 0
        assert json.loads(out)["multiplicity"] == 2

    def test_complex_root_form(self):
        code, out, _ = run("roots", "verify", "--poly", "1,0,1", "--root", "1j")
        assert code == 0
        doc = json.loads(out)
        assert doc["root"] == {"re": 0.0, "im": 1.0}
        assert doc["is_root"] is True

    def test_exact_pair_is_decided_exactly(self):
        # p(0) = -1e-12: not a root of the exact polynomial, but within
        # MULTIPLICITY_TOL when the root is spelled as a float
        code, out, _ = run_main(["roots", "verify", "--poly=-1/1000000000000,1", "--root", "0"], "")
        doc = json.loads(out)
        check(doc, "roots_verify.schema.json")
        assert (code, doc["is_root"], doc["multiplicity"], doc["residual"]) == (1, False, None, 1e-12)
        code, out, _ = run_main(["roots", "verify", "--poly=-1/1000000000000,1", "--root", "0.0"], "")
        doc = json.loads(out)
        assert (code, doc["is_root"], doc["multiplicity"]) == (0, True, 1)

    def test_exact_residual_below_the_float_range(self):
        # p(0) = -10^-400 rounds to 0.0, but the verdict is exact
        code, out, _ = run_main(["roots", "verify", "--poly=-1/10^400,1", "--root", "0"], "")
        doc = json.loads(out)
        check(doc, "roots_verify.schema.json")
        assert (code, doc["is_root"], doc["multiplicity"], doc["residual"]) == (1, False, None, 0.0)

    def test_exact_residual(self):
        # (x - 1/3)^2 (x - 2/3): 1.4e-17 at the float nearest 1/3, 0 at 1/3
        code, out, _ = run_main(["roots", "verify", "--poly=-2/27,5/9,-4/3,1", "--root", "1/3"], "")
        doc = json.loads(out)
        assert (code, doc["residual"], doc["multiplicity"]) == (0, 0.0, 2)

    def test_constant_has_no_root(self):
        code, out, _ = run_main(["roots", "verify", "--poly=0.000000000001", "--root", "1"], "")
        doc = json.loads(out)
        assert (code, doc["is_root"], doc["multiplicity"]) == (1, False, None)


class TestRootsCases:
    def test_default_real_order(self):
        code, out, _ = run("roots", "cases", "--degree", "3")
        assert code == 0
        doc = json.loads(out)
        check(doc, "roots_cases.schema.json")
        assert [c["label"] for c in doc["cases"]] == [
            "3", "2,1", "1,1,1", "1+q2", "q3"]
        assert doc["order"] == "merged"

    def test_complex_mode(self):
        code, out, _ = run("roots", "cases", "--degree", "4",
                           "--mode", "complex")
        doc = json.loads(out)
        assert [c["label"] for c in doc["cases"]] == [
            "1,1,1,1", "2,1,1", "2,2", "3,1", "4"]


class TestReport:
    def test_combined_document(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(CORPUS)
        code, out, _ = run("report", "--n", "2", "--poly-corpus", str(corpus))
        assert code == 0
        doc = json.loads(out)
        check(doc, "report.schema.json")
        assert len(doc["bounds"]) == 1
        assert doc["bounds"][0]["n"] == 2
        assert len(doc["polynomials"]) == 4
        # (1 + x)(1 + x) breaks multiplicativity: 2 vs 1
        first = doc["norm_checks"][0]
        assert first["product_norm"] == 2.0
        assert first["norm_product"] == 1.0
        assert first["multiplicative"] is False

    def test_float_spelling_keeps_double_root(self, tmp_path):
        # x(x-1)(x-2)(x-7)^2 in floats: the float chain once lost the double root
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("0.0,98.0,-175.0,93.0,-17.0,1.0\n")
        code, out, _ = run("report", "--poly-corpus", str(corpus))
        assert code == 0
        (entry,) = json.loads(out)["polynomials"]
        assert entry["tau"] == 4
        assert [r["mult"] for r in entry["roots"]] == [1, 1, 1, 2]
        assert entry["roots"][-1]["value"] == pytest.approx(7.0)

    def test_degree_at_the_oracle_cap_answers(self):
        code, out, _ = run("report", "--poly-corpus", "-", stdin="-1" + ",0" * 35 + ",1\n")
        assert code == 0
        (entry,) = json.loads(out)["polynomials"]
        assert [(r["value"], r["mult"]) for r in entry["roots"]] == [(-1.0, 1), (1.0, 1)]

    def test_default_size(self):
        code, out, _ = run("report")
        assert code == 0
        doc = json.loads(out)
        check(doc, "report.schema.json")
        assert [b["n"] for b in doc["bounds"]] == [2]


class TestOutputPlumbing:
    def test_byte_identical_runs(self, grid_file):
        _, out1, _ = run("puzzle", "solve", "--in", grid_file)
        _, out2, _ = run("puzzle", "solve", "--in", grid_file)
        assert out1 == out2

    def test_large_document_streams_identical_bytes(self):
        code, out, _ = run("roots", "cases", "--degree", "30")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_large_document_is_written_in_pieces(self):
        # the 1.1 MB document of 24 is hashed as it is written: a writer
        # that built it as one string first would peak near 11 MiB here
        class HashSink(io.TextIOBase):
            def __init__(self):
                self.sha, self.chars = hashlib.sha256(), 0

            def write(self, text):
                self.sha.update(text.encode())
                self.chars += len(text)
                return len(text)

        sink = HashSink()
        tracemalloc.start()
        try:
            with redirect_stdout(sink):
                code = main(["roots", "cases", "--degree", "24"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.chars == 1_106_540
        assert sink.sha.hexdigest() == \
            "657065a8f8c8a50c8be260eb7d0fdc994f94fe4b351eb556d18bb5000cb66c28"
        assert peak < 6 * 2 ** 20

    @pytest.mark.parametrize("argv", [
        ("puzzle", "solve", "--in", "-"),
        ("puzzle", "verify", "--in", "-", "--seq", "RDDRD"),
        ("puzzle", "enumerate", "--n", "2"),
        ("puzzle", "bounds", "--n", "2"),
        ("puzzle", "cost", "--in", "-", "--seq", "RDDRD"),
        ("puzzle", "exhaust", "--in", "-", "--kmax", "5"),
        ("roots", "find", "--poly=-1,0,1"),
        ("roots", "verify", "--poly=-1,0,1", "--root", "1"),
        ("roots", "cases", "--degree", "2"),
        ("report",),
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_json_on_stdout_is_the_only_output(self, argv, capsys, monkeypatch, tmp_path):
        # a request that answers with exit 0 is refused once it asks for
        # another rendering or a file sink
        monkeypatch.setattr("sys.stdin", io.StringIO(EXAMPLE_GRID))
        assert main(list(argv)) == 0
        json.loads(capsys.readouterr().out)
        for extra in (("--format", "text"), ("--format", "json"), ("--out", str(tmp_path / "doc"))):
            with pytest.raises(SystemExit) as exc:
                main([*argv, *extra])
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""
        assert not (tmp_path / "doc").exists()


@pytest.mark.parametrize("argv, stdin, code, stderr_line", [
    # malformed grid JSON
    (("puzzle", "solve", "--in", "-"),
     '{"n": "3", "cells": [1, 2, 3, 4, 5, 6, 7, 8, null]}', 2, "tilelab: error:"),
    (("puzzle", "solve", "--in", "-"), '{"n": null, "cells": []}', 2, "tilelab: error:"),
    (("puzzle", "solve", "--in", "-"), '{"n": 2, "cells": 5}', 2, "tilelab: error:"),
    # out-of-range numeric flags
    (("puzzle", "exhaust", "--in", "-", "--kmax", "-1"), EXAMPLE_GRID, 2, "tilelab: error:"),
    (("puzzle", "solve", "--in", "-", "--algo", "exhaust", "--kmax", "-1"),
     EXAMPLE_GRID, 2, "tilelab: error:"),
    # --kmax caps only the exhaust walk
    (("puzzle", "solve", "--in", "-", "--kmax", "-1"), EXAMPLE_GRID, 2, "tilelab: error:"),
    (("puzzle", "solve", "--in", "-", "--algo", "auto", "--kmax", "8"), EXAMPLE_GRID, 2,
     "tilelab: error:"),
    (("puzzle", "enumerate", "--n", "1"), None, 2, "tilelab: error:"),
    (("puzzle", "enumerate", "--n", "4"), None, 2, "tilelab: error:"),
    (("puzzle", "enumerate", "--n", "5", "--depth-limit", "3"), None, 2, "tilelab: error:"),
    (("puzzle", "enumerate", "--n", "3", "--depth-limit", "-1"), None, 2, "tilelab: error:"),
    (("puzzle", "enumerate", "--n", "3", "--state-cap", "-5"), None, 2, "tilelab: error:"),
    (("roots", "cases", "--degree", "0"), None, 2, "tilelab: error:"),
    # the exhaust candidate cap
    (("puzzle", "exhaust", "--in", "-", "--kmax", "12"), EXAMPLE_GRID, 3,
     "tilelab: resource limit:"),
    # IDA* is the only optimal solver
    (("puzzle", "solve", "--in", "-", "--algo", "bfs"), EXAMPLE_GRID, 2,
     "tilelab puzzle solve: error:"),
    (("puzzle", "solve", "--in", "-", "--algo", "ida"), EXAMPLE_GRID, 2,
     "tilelab puzzle solve: error:"),
    # a bool is not a tile
    (("puzzle", "solve", "--in", "-"), '{"n": 2, "cells": [true, 2, 3, false]}', 2,
     "tilelab: error:"),
    # the cap on shapes, listed or walked
    (("roots", "cases", "--degree", "60"), None, 3, "tilelab: resource limit:"),
    (("roots", "find", "--poly=1" + ",0" * 59 + ",1"), None, 3, "tilelab: resource limit:"),
    # the cap on exact powers, and float powers that overflow
    (("roots", "verify", "--poly=9^999999999,1", "--root", "1"), None, 3,
     "tilelab: resource limit:"),
    (("roots", "verify", "--poly=pi^999999,1", "--root", "1"), None, 2, "tilelab: error:"),
    (("roots", "verify", "--poly=2.5^99999,1", "--root", "1"), None, 2, "tilelab: error:"),
    # polynomial JSON nested deeper than the decoder's recursion limit
    (("roots", "find", "--in", "-"), '{"coeffs": ' + "[" * 100_000, 2, "tilelab: error:"),
    # coefficients the real mode or the float range cannot take
    (("roots", "find", "--in", "-"), '{"coeffs": ["1j", "1"], "kind": "complex"}', 2,
     "tilelab: error:"),
    (("roots", "find", "--poly=2^2000,1"), None, 2, "tilelab: error:"),
    (("roots", "find", "--poly=2^2000,1", "--mode", "complex"), None, 2, "tilelab: error:"),
    (("report", "--poly-corpus", "-"), "2^2000,1\n", 2, "tilelab: error:"),
    # the cap on the oracle's degree
    (("report", "--poly-corpus", "-"), "1" + ",0" * 36 + ",1\n", 3, "tilelab: resource limit:"),
    (("roots", "verify", "--poly=2^2000,1", "--root", "1"), None, 2, "tilelab: error:"),
    (("roots", "verify", "--poly=1,0,0,1", "--root", "1e200"), None, 2, "tilelab: error:"),
    # every point is a root of the zero polynomial
    (("roots", "verify", "--poly=0,0", "--root", "1"), None, 2, "tilelab: error:"),
    # numeric flags of roots
    (("roots", "verify", "--poly=-1,1", "--root", "nan"), None, 2, "tilelab: error:"),
    (("roots", "verify", "--poly=-1,1", "--root", "inf"), None, 2, "tilelab: error:"),
    (("roots", "verify", "--poly=-1,1", "--root", "2^2000"), None, 2, "tilelab: error:"),
    # no tolerance, clustering radius, start count or iteration cap to set:
    # argparse rejects the unknown flag
    (("roots", "verify", "--poly=-1,1", "--root", "1", "--tol", "nan"), None, 2,
     "tilelab: error:"),
    (("roots", "find", "--poly=-1,1", "--tol", "nan"), None, 2, "tilelab: error:"),
    (("roots", "find", "--poly=-1,1", "--cluster-radius", "-1"), None, 2, "tilelab: error:"),
    (("roots", "find", "--poly=-1,1", "--starts", "0"), None, 2, "tilelab: error:"),
    (("roots", "find", "--poly=-1,1", "--max-iters", "-1"), None, 2, "tilelab: error:"),
    # a rational document holds exact values only
    (("roots", "find", "--in", "-"), '{"coeffs": [true, 1.5], "kind": "rational"}', 2,
     "tilelab: error:"),
], ids=["json-n-text", "json-n-null", "json-cells-int", "exhaust-kmax-negative",
        "solve-kmax-negative", "solve-auto-kmax-negative", "solve-auto-kmax", "enumerate-n1",
        "enumerate-n4-unlimited", "enumerate-n5",
        "enumerate-depth-limit-negative", "enumerate-state-cap-negative", "cases-degree0",
        "exhaust-kmax-over-cap", "algo-bfs", "algo-ida", "json-cells-bool",
        "cases-degree-over-shape-cap", "find-degree-over-shape-cap", "poly-power-over-cap",
        "poly-pi-power-overflow", "poly-float-power-overflow",
        "poly-json-deep", "find-imaginary-coeffs-real-mode", "find-coeff-past-float-range",
        "find-coeff-past-float-range-complex", "report-coeff-past-float-range",
        "report-degree-over-oracle-cap", "verify-coeff-past-float-range",
        "verify-value-past-float-range", "verify-zero-poly", "verify-root-nan",
        "verify-root-inf", "verify-root-past-float-range", "verify-tol-nan", "find-tol-nan",
        "find-cluster-radius-negative", "find-starts-zero", "find-max-iters-negative",
        "poly-json-rational-bool-float"])
def test_rejected_input_gives_exit_code_and_one_error_line(argv, stdin, code, stderr_line):
    got, out, err = run(*argv, stdin=stdin)
    assert (got, out) == (code, "")
    assert "Traceback" not in err
    assert sum(ln.startswith(stderr_line) for ln in err.splitlines()) == 1


# text in and near the polynomial grammar, and anything at all
SCALAR_TEXT = st.text(alphabet="0123456789./*^+-pie ", max_size=12) | st.text(max_size=12)
POLY_TEXT = st.lists(SCALAR_TEXT, min_size=1, max_size=4).map(",".join) | st.text(max_size=30)
JUNK = st.none() | st.booleans() | st.integers() | st.floats() | st.lists(st.integers(), max_size=2)
POLY_DOC = st.fixed_dictionaries({
    "coeffs": st.lists(SCALAR_TEXT | st.integers(-9, 9) | JUNK, max_size=4),
    "kind": st.sampled_from(["rational", "complex"]) | st.text(max_size=8) | JUNK,
}).map(json.dumps)
MODES = st.sampled_from(["real", "complex"])
# finite float coefficients with decimal exponents from -308 to 308, leading one nonzero
FLOAT_COEFF = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-9.99, 9.99), st.integers(-308, 307))
FLOAT_DOC = st.lists(FLOAT_COEFF, min_size=2, max_size=3).filter(lambda c: c[-1] != 0).map(
    lambda c: json.dumps({"coeffs": c, "kind": "complex"}))
# inputs whose Gauss-Newton residual or Jacobian overflows, and whose
# single-root shape overflows a power in the presolve
OVERFLOWING_DOCS = ['{"coeffs": [1e300, 1e300, 1.0], "kind": "complex"}',
                    '{"coeffs": [1e308, 1e308, 1e308], "kind": "complex"}']


def json_value(v) -> tuple[float, float]:
    """A root value of the JSON document as (re, im)."""
    return (v["re"], v["im"]) if isinstance(v, dict) else (v, 0.0)


def exit_code(argv) -> int:
    """main's return code, its output discarded."""
    return run_main(argv, "")[0]


def run_main(argv, stdin: str) -> tuple[int, str, str]:
    """main's return code, stdout and stderr, with stdin read from text."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def loaded_degree(text: str) -> int:
    """Degree of the polynomial roots find --in would read, or -1."""
    try:
        p = poly_from_json(json.loads(text)) if text.lstrip().startswith("{") else parse_poly_text(text)
    except (ValueError, RecursionError, ResourceLimit):  # the CLI exits 2 or 3
        return -1
    return -1 if p.degree is None else p.degree


class TestFuzzRootsInput:
    """Outside input through roots: an exit code from 0 to 3, never an exception."""

    @settings(max_examples=80, deadline=None)
    @given(POLY_TEXT, SCALAR_TEXT)
    @example("2^2000,1", "1")
    @example("1,0,0,1", "1e200")
    @example("1,-2,1", "1/0")
    @example("0,0", "1")
    @example("-1/1000000000000,1", "0")
    @example("-1,1", "2^2000")
    def test_verify(self, text, root):
        code, out, _ = run_main(["roots", "verify", f"--poly={text}", f"--root={root}"], "")
        assert code in (0, 1, 2, 3)
        if code > 1:
            assert out == ""
            return
        doc = json.loads(out)
        check(doc, "roots_verify.schema.json")
        assert (code == 0) == doc["is_root"] == (doc["multiplicity"] is not None)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-5, 12), MODES)
    def test_cases(self, degree, mode):
        want = (0,) if degree >= 1 else (2,)
        assert exit_code(["roots", "cases", "--degree", str(degree), "--mode", mode]) in want

    @settings(max_examples=80, deadline=None)
    @given(POLY_TEXT | POLY_DOC, MODES)
    @example('{"coeffs": ["1/0", "1"], "kind": "rational"}', "real")
    @example('{"coeffs": ["1e999999999", "1"], "kind": "rational"}', "real")
    @example('{"coeffs": ["nan", "1"], "kind": "complex"}', "real")
    def test_find_in_file(self, tmp_path_factory, text, mode):
        assume(loaded_degree(text) <= 2)  # a valid polynomial of higher degree is a slow walk
        path = tmp_path_factory.getbasetemp() / "fuzz-poly.txt"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        assert exit_code(["roots", "find", "--in", str(path), "--mode", mode]) in (0, 1, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(FLOAT_DOC, MODES)
    @example(OVERFLOWING_DOCS[0], "real")
    @example(OVERFLOWING_DOCS[0], "complex")
    @example(OVERFLOWING_DOCS[1], "real")
    @example('{"coeffs": [1.0, 0.0, 7.52859416441507e-310], "kind": "complex"}', "real")
    def test_find_float_coefficients_over_the_exponent_range(self, tmp_path_factory, text, mode):
        # every coefficient is a finite float: the walk answers (0) or reports
        # no roots or no shape (1), as one JSON document; only a root bound
        # past the float range is refused (2), by the real-mode oracle
        path = tmp_path_factory.getbasetemp() / "fuzz-float-poly.json"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), np.errstate(all="ignore"):
            code = main(["roots", "find", "--in", str(path), "--mode", mode])
        if code == 2:
            assert (mode, out.getvalue()) == ("real", "")
            assert err.getvalue().endswith("the root bound lies past the float range\n")
            return
        assert code in (0, 1)
        doc = json.loads(out.getvalue())
        assert all(cmath.isfinite(complex(*json_value(r["value"]))) for r in doc["roots"])

    @pytest.mark.parametrize("doc, mode", [(OVERFLOWING_DOCS[0], "complex"),
                                           (OVERFLOWING_DOCS[1], "real")])
    def test_overflow_prints_only_the_document(self, doc, mode):
        # LAPACK's own complaints would go to the process's stdout
        code, out, err = run("roots", "find", "--in", "-", "--mode", mode, stdin=doc)
        assert code == 1
        assert json.loads(out)["roots"] == []
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode, cases", [
        ("complex", [("1,1", "inconsistent"), ("2", "inconsistent")]),
        ("real", [("2", "inconsistent"), ("1,1", "inconsistent"), ("q2", "solved")]),
    ])
    def test_overflow_writes_nothing_to_stderr(self, mode, cases):
        # a non-finite residual stalls a start and the presolve reports the
        # overflow as inconsistent, so numpy's warnings would only be noise
        code, out, err = run("roots", "find", "--in", "-", "--mode", mode,
                             stdin=OVERFLOWING_DOCS[1])
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert doc["roots"] == []
        assert [(o["case"], o["status"]) for o in doc["outcomes"]] == cases


def grid_texts(n: int):
    """A board of side n as the text format or JSON, blank anywhere; about
    half of the layouts are unsolvable."""
    cells = st.permutations(list(range(n * n)))
    text = cells.map(lambda c: "\n".join(
        " ".join("_" if v == 0 else str(v) for v in c[i * n:(i + 1) * n]) for i in range(n)) + "\n")
    doc = cells.map(lambda c: json.dumps({"n": n, "cells": [v or None for v in c]}))
    return text | doc


GRID_JUNK = st.text(alphabet="0123456789_ \n-{}[]\":,nul", max_size=30) | st.text(max_size=20)
GRID_DOC = st.fixed_dictionaries({
    "n": st.integers(-1, 4) | JUNK,
    "cells": st.lists(st.integers(-1, 16) | JUNK, max_size=17) | JUNK,
}).map(json.dumps)
GRID_INPUT = st.sampled_from([2, 3, 4]).flatmap(grid_texts) | GRID_JUNK | GRID_DOC
MOVES = st.text(alphabet="UDLRudlr x", max_size=10) | st.text(max_size=6)


def grid_side(text: str) -> int:
    """Side of the board puzzle commands would read from text, or 0."""
    try:
        return load_grid(text).n
    except ValueError:  # the CLI exits 2
        return 0


def assert_contract(argv, stdin: str = "") -> int:
    """One JSON document on 0 or 1; one tilelab error line and no output on 2 or 3."""
    code, out, err = run_main(argv, stdin)
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        assert isinstance(json.loads(out), dict)
    else:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("tilelab: ")
    return code


class TestFuzzPuzzleInput:
    """Outside input through puzzle: the exit-code contract, never an exception."""

    @settings(max_examples=80, deadline=None)
    @given(GRID_INPUT, st.sampled_from(["auto", "exhaust"]), st.none() | st.integers(-2, 5))
    @example(EXAMPLE_GRID, "exhaust", 5)
    @example(UNSOLVABLE_GRID, "auto", None)
    @example('{"n": 2, "cells": [true, 2, 3, false]}', "auto", None)
    def test_solve(self, grid, algo, kmax):
        assume(algo == "exhaust" or grid_side(grid) <= 3)  # IDA* on 4x4 can take minutes
        argv = ["puzzle", "solve", "--in", "-", "--algo", algo]
        assert_contract(argv + [f"--kmax={kmax}"] * (kmax is not None), grid)

    @settings(max_examples=80, deadline=None)
    @given(GRID_INPUT, MOVES, st.sampled_from(["verify", "cost"]), st.booleans())
    @example(EXAMPLE_GRID, "RDDRD", "verify", True)
    @example(EXAMPLE_GRID, "RDX", "cost", False)
    def test_verify_and_cost(self, grid, moves, command, ledger):
        argv = ["puzzle", command, "--in", "-", f"--seq={moves}"] + ["--emit-ledger"] * ledger
        assert_contract(argv, grid)

    @settings(max_examples=60, deadline=None)
    @given(GRID_INPUT, st.integers(-2, 5), st.booleans())
    @example(EXAMPLE_GRID, 2, True)
    def test_exhaust(self, grid, kmax, ledger):
        argv = ["puzzle", "exhaust", "--in", "-", f"--kmax={kmax}"] + ["--emit-ledger"] * ledger
        assert_contract(argv, grid)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-1, 5), st.none() | st.integers(-2, 10), st.none() | st.integers(-5, 500))
    @example(3, None, 100)
    @example(4, None, None)
    def test_enumerate(self, n, depth_limit, state_cap):
        argv = ["puzzle", "enumerate", f"--n={n}"]
        if depth_limit is not None:
            argv.append(f"--depth-limit={depth_limit}")
        if state_cap is not None:
            argv.append(f"--state-cap={state_cap}")
        assert_contract(argv)
