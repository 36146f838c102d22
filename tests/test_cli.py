"""Command-line interface: exit codes, text reports, JSON reports."""

import json
import sys
from fractions import Fraction

import pytest

from ginv.cli import run
from ginv.matrix import ExactMatrix, rank_normal_form
from ginv.oneinv import family_from
from ginv.scalar import GaussianRational

from conftest import DATA_DIR, DEMO_A, read_decimal

DEMO = str(DATA_DIR / "demo.mx")


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- exit status contract -------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("rnf", "--file", DEMO),
    ("rnf", "--file", DEMO, "--matrix", "B"),
    ("ginverse", "--file", DEMO),
    ("ginverse", "--file", DEMO, "--canonical"),
    ("solve", "--file", DEMO),
    ("solve", "--file", DEMO, "--particular", "X1"),
    ("solve-kron", "--file", DEMO),
    ("linsys", "--file", DEMO),
    ("linsys", "--file", DEMO, "--side", "left", "--rhs", "r"),
    ("check-consistency", "--file", DEMO),
    ("check-reproductive", "--file", DEMO),
])
def test_success_exit_codes(capsys, argv, tmp_path):
    if "r" in argv[-1] and argv[-2] == "--rhs":
        # left-side system x*A = r needs a row vector in the document
        doc = tmp_path / "left.mx"
        doc.write_text("A = [ 1 2 1 ; 0 1 0 ; 1 1 1 ]\nr = [ 2 4 2 ]\n")
        argv = tuple(s if s != DEMO else str(doc) for s in argv)
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    assert out


def test_false_exit_codes(capsys):
    code, out, _ = invoke(capsys, "represent", "--file", DEMO,
                          "--candidate", "X1")
    assert code == 1
    assert "verdict: not representable" in out
    code, out, _ = invoke(capsys, "check-reproductive", "--file", DEMO,
                          "--particular", "X1")
    assert code == 1
    assert "verdict: not reproductive" in out


def test_inconsistent_equation_exit(capsys, tmp_path):
    doc = tmp_path / "bad.mx"
    doc.write_text("A = [ 1 2 1 ; 0 1 0 ; 1 1 1 ]\n"
                   "B = [ 1 1 ; 1 1 ; 2 2 ]\n"
                   "C = [ 1 0 ; 0 0 ; 0 0 ]\n")
    for cmd in ("solve", "solve-kron", "check-consistency"):
        code, out, _ = invoke(capsys, cmd, "--file", str(doc))
        assert code == 1, cmd
        assert "inconsistent" in out
    code, _, err = invoke(capsys, "represent", "--file", str(doc),
                          "--candidate", "A")
    assert code == 2                        # A is not a solution at all


def test_probe_unknown_exit(capsys, tmp_path):
    doc = tmp_path / "hard.mx"
    doc.write_text(
        "A = [ 1 1 -2 ; 1 0 -2 ]\n"
        "B = [ 2 -1 -2 ; 2 -1 0 ; 0 0 2 ]\n"
        "X = [ 2 -1 -2 ; 1 -2 1 ; 0 -2 -1 ]\n"
        # C = A*X*B, computed once and frozen.
        "C = [ 8 -4 -4 ; 10 -5 -4 ]\n")
    code, out, _ = invoke(capsys, "represent", "--file", str(doc))
    assert code == 3
    assert "verdict: unknown" in out


def test_probe_witness_exit(capsys, tmp_path):
    doc = tmp_path / "easy.mx"
    doc.write_text("A = [ 1 2 1 ; 0 1 0 ; 1 1 1 ]\n"
                   "B = [ 1 1 ; 1 1 ; 2 2 ]\n"
                   "C = [ -3 -3 ; -1 -1 ; -2 -2 ]\n"
                   "X = [ -1 0 0 ; -1 0 0 ; 0 0 0 ]\n")
    code, out, _ = invoke(capsys, "represent", "--file", str(doc))
    assert code == 0
    assert "verdict: representable" in out


@pytest.mark.parametrize("argv", [
    ("rnf", "--file", "/nonexistent/nowhere.mx"),
    ("rnf", "--file", DEMO, "--matrix", "Z"),
    ("solve", "--file", DEMO, "--particular", "Z"),
    ("represent", "--file", DEMO),                     # no X in demo.mx
    ("ginverse", "--file", DEMO, "--blocks", "A", "B", "C"),
])
def test_usage_errors_exit_two(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert "error:" in err


def test_usage_errors_from_argparse(capsys):
    assert run([]) == 2
    assert run(["frobnicate", "--file", DEMO]) == 2
    assert run(["rnf"]) == 2                # --file is required
    capsys.readouterr()


def test_malformed_document_exit_two(capsys, tmp_path):
    doc = tmp_path / "broken.mx"
    doc.write_text("A = [ 1 2 ; 3 ]")
    code, _, err = invoke(capsys, "rnf", "--file", str(doc))
    assert code == 2
    assert "unequal" in err


def test_oversized_integer_literal_exit_two(capsys, tmp_path):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter's int/str digit limit is disabled")
    doc = tmp_path / "big.mx"
    doc.write_text("A = [ 1 2 ; 3 " + "7" * (limit + 1) + " ]\n")
    code, out, err = invoke(capsys, "rnf", "--file", str(doc))
    assert code == 2
    assert not out
    assert f"{doc}:1:15: bad matrix entry: integer literal of {limit + 1} " \
           f"digits exceeds the limit of {limit}" in err
    assert "Traceback" not in err


def test_long_literal_error_is_short(capsys, tmp_path, monkeypatch):
    # The message repeats the head of the literal and its length only.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "long.mx").write_text("A = [ 1 " + "7" * 5001 + " ]\n")
    for extra in ((), ("--json",)):
        code, out, err = invoke(capsys, "rnf", "--file", "long.mx", *extra)
        assert code == 2
        assert not out
        assert err.startswith("error: long.mx:1:9: bad matrix entry: ")
        assert "at position 0 in '" + "7" * 40 + "'... (5001 characters)" in err
        assert len(err) < 200


def test_rnf_renders_past_digit_limit(capsys, tmp_path):
    # Inputs of 3000 digits give Q entries of about 6000 digits: output
    # has no digit limit, in text and in JSON.
    digits = ["9" * 2999 + "7", "8" * 3000, "7" * 2999 + "1", "6" * 3000]
    doc = tmp_path / "wide.mx"
    doc.write_text(f"A = [ {digits[0]} {digits[1]} ; {digits[2]} {digits[3]} ]\n")
    A = ExactMatrix([[read_decimal(digits[0]), read_decimal(digits[1])],
                     [read_decimal(digits[2]), read_decimal(digits[3])]])
    rnf = rank_normal_form(A)
    # 14300 bits are more than 4300 decimal digits.
    assert max(x.re.denominator.bit_length() for row in rnf.q.to_rows()
               for x in row) > 14300

    code, out, err = invoke(capsys, "rnf", "--file", str(doc))
    assert code == 0, err
    assert "Q * A * P = E_a: true" in out

    code, out, err = invoke(capsys, "rnf", "--file", str(doc), "--json")
    assert code == 0, err
    result = json.loads(out)["result"]
    for key, M in (("Q", rnf.q), ("P", rnf.p)):
        entries = iter(result[key]["entries"])
        rows = [[GaussianRational(Fraction(*map(read_decimal, quad[:2])),
                                  Fraction(*map(read_decimal, quad[2:])))
                 for quad in (next(entries) for _ in range(M.cols))]
                for _ in range(M.rows)]
        assert ExactMatrix(rows) == M


def test_runs_do_not_leak_options(capsys):
    # One parser serves every run(); options of one call must not carry
    # over to the next.
    code, out, _ = invoke(capsys, "ginverse", "--file", DEMO, "--canonical")
    assert code == 0 and "G (3x3):" in out
    code, out, _ = invoke(capsys, "ginverse", "--file", DEMO)
    assert code == 0
    assert "u_{1,1}" in out and "G (3x3):" not in out
    assert invoke(capsys, "rnf", "--file", DEMO, "--side", "left")[0] == 2
    code, out, _ = invoke(capsys, "rnf", "--file", DEMO)
    assert code == 0 and "rank = 2" in out


def test_represent_demo_solution_via_x_name(capsys, tmp_path):
    # linsys against a left-side document exercises --side left fully.
    doc = tmp_path / "ls.mx"
    doc.write_text("A = [ 1 0 ; 0 0 ]\nc = [ 2 0 ]\n")
    code, out, _ = invoke(capsys, "linsys", "--file", str(doc),
                          "--side", "left", "--rhs", "c")
    assert code == 0
    assert "dimension" in out


# -- report content ---------------------------------------------------------------


def test_rnf_text_report(capsys):
    code, out, _ = invoke(capsys, "rnf", "--file", DEMO, "--matrix", "B")
    assert code == 0
    assert "command: rnf" in out
    assert "rank = 1" in out
    assert "Q * B * P = E_a: true" in out
    assert "Q (3x3):" in out and "P (2x2):" in out


def test_ginverse_symbolic_report(capsys):
    code, out, _ = invoke(capsys, "ginverse", "--file", DEMO)
    assert code == 0
    assert "u_{1,1}" in out and "w_{1,1}" in out
    assert "parameters: 5" in out


def test_ginverse_blocks_member(capsys, tmp_path):
    doc = tmp_path / "blocks.mx"
    doc.write_text("A = [ 1 2 1 ; 0 1 0 ; 1 1 1 ]\n"
                   "U = [ 1 ; 2 ]\nV = [ 3 4 ]\nW = [ 5 ]\n")
    code, out, _ = invoke(capsys, "ginverse", "--file", str(doc),
                          "--blocks", "U", "V", "W")
    assert code == 0
    fam = family_from(DEMO_A)
    G = fam.instantiate(ExactMatrix([[1], [2]]), ExactMatrix([[3, 4]]),
                        ExactMatrix([[5]]))
    top = G.render_lines()[0]
    assert top in out
    assert "A * G * A = A: true" in out


def test_solve_text_report(capsys):
    code, out, _ = invoke(capsys, "solve", "--file", DEMO)
    assert code == 0
    assert "X0 (3x3):" in out
    assert "reproductive: true" in out
    assert "verdict: consistent" in out


def test_solve_kron_pins_dimension(capsys):
    code, out, _ = invoke(capsys, "solve-kron", "--file", DEMO)
    assert code == 0
    assert "dimension: 7" in out


def test_check_reproductive_shifted(capsys):
    code, out, _ = invoke(capsys, "check-reproductive", "--file", DEMO,
                          "--particular", "X1")
    assert code == 1
    assert "evidence: L*X0*R" in out
    assert "g(g(Y)) = g(Y) for all Y: false" in out
    assert "reproductive: false" in out


def test_represent_trace_lines(capsys):
    code, out, _ = invoke(capsys, "represent", "--file", DEMO,
                          "--candidate", "X1")
    assert code == 1
    assert "u'_{1,1} = -2u'_{1,2}    [entry (2,1)]" in out
    assert "0 = 1    [entry (3,2)]" in out


# -- JSON mode ---------------------------------------------------------------------


def test_json_is_valid_and_structured(capsys):
    code, out, _ = invoke(capsys, "rnf", "--file", DEMO, "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "inputs", "steps", "result", "verdict"}
    assert doc["command"] == "rnf"
    A = doc["inputs"]["A"]
    assert (A["rows"], A["cols"]) == (3, 3)
    assert len(A["entries"]) == 9
    # Entries are [re_num, re_den, im_num, im_den] decimal strings.
    assert A["entries"][0] == ["1", "1", "0", "1"]
    assert all(len(e) == 4 and all(isinstance(s, str) for s in e)
               for e in A["entries"])
    assert all(set(step) == {"title", "lines"} for step in doc["steps"])


def test_json_verdict_and_booleans(capsys):
    code, out, _ = invoke(capsys, "check-consistency", "--file", DEMO,
                          "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "consistent"
    assert doc["result"]["consistent"] == "true"


def test_json_probe_verdict(capsys):
    code, out, _ = invoke(capsys, "represent", "--file", DEMO,
                          "--candidate", "X1", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "not representable"
    assert any("0 = 1" in line for step in doc["steps"]
               for line in step["lines"])


def test_json_and_text_agree_on_exit(capsys):
    for argv in (["solve", "--file", DEMO],
                 ["represent", "--file", DEMO, "--candidate", "X1"]):
        plain = run(argv)
        capsys.readouterr()
        as_json = run(argv + ["--json"])
        capsys.readouterr()
        assert plain == as_json


# -- stability ---------------------------------------------------------------------


def test_report_matches_golden_file(capsys):
    golden = (DATA_DIR / "report_demo.golden").read_text()
    code, out, _ = invoke(capsys, "report", "--file", DEMO,
                          "--candidate", "X1")
    assert code == 1
    assert out == golden


def test_report_output_is_byte_stable(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = invoke(capsys, "report", "--file", DEMO,
                           "--candidate", "X1", "--json")
        runs.append(out)
    assert runs[0] == runs[1]
    json.loads(runs[0])


def test_report_without_candidate(capsys):
    code, out, _ = invoke(capsys, "report", "--file", DEMO)
    assert code == 0
    assert "verdict: consistent" in out
    assert "elimination trace" not in out
