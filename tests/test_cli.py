"""Command-line interface: exit codes, witnesses, deterministic reports."""

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import mcybe
from mcybe import Cochain
from mcybe.cli import Report, _jsonable, run
from mcybe.rmatrix import DefectReport

from conftest import env_with_src


@pytest.fixture()
def sl2_files(tmp_path):
    assert run(["catalog", "sl", "--n", "2",
                "--algebra-out", str(tmp_path / "sl2.json"),
                "--map-out", str(tmp_path / "borel.json")]) == 0
    return tmp_path / "sl2.json", tmp_path / "borel.json"


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_check_mcybe_pass(sl2_files, capsys):
    algebra, borel = sl2_files
    assert run(["check", "mcybe", "--algebra", str(algebra), "--map", str(borel)]) == 0
    assert "pass" in capsys.readouterr().out


def test_check_mcybe_fail_names_witness(sl2_files, tmp_path, capsys):
    algebra, _ = sl2_files
    bad = write_json(tmp_path / "bad.json",
                     {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]})
    assert run(["check", "mcybe", "--algebra", str(algebra), "--map", bad]) == 1
    out = capsys.readouterr().out
    assert "(e, f)" in out


def test_check_lie_broken_algebra(tmp_path, capsys):
    broken = write_json(tmp_path / "broken.json", {
        "dim": 3, "basis": ["e", "f", "h"],
        "brackets": [{"i": 0, "j": 1, "value": [0, 0, 1]},
                     {"i": 0, "j": 2, "value": [-3, 0, 0]},
                     {"i": 1, "j": 2, "value": [0, 2, 0]}]})
    assert run(["check", "lie", "--algebra", broken]) == 1
    out = capsys.readouterr().out
    assert "(e, f, h)" in out


def _unit(dim, k, c=1):
    return [c if m == k else 0 for m in range(dim)]


@pytest.mark.parametrize("brackets, code", [
    ([], 0),
    ([{"i": 0, "j": 1, "value": _unit(1500, 2)}], 0),
    ([{"i": 1497, "j": 1498, "value": _unit(1500, 1499)},
      {"i": 1498, "j": 1499, "value": _unit(1500, 1498)}], 1),
], ids=["abelian", "heisenberg", "broken"])
def test_check_lie_large_sparse_algebra(tmp_path, capsys, brackets, code):
    # central basis vectors and triples whose pairs all bracket to zero are
    # skipped: a 1500-dimensional file with at most two brackets is checked
    # in well under a second
    path = write_json(tmp_path / "big.json", {"dim": 1500, "brackets": brackets})
    start = time.perf_counter()
    assert run(["check", "lie", "--algebra", path, "--json"]) == code
    assert time.perf_counter() - start < 20
    witnesses = json.loads(capsys.readouterr().out)["witnesses"]
    if code:
        assert witnesses["jacobi_triple"] == ["x1498", "x1499", "x1500"]
        assert witnesses["jacobiator"] == _unit(1500, 1499, -1)


def test_check_lie_dimension_only(tmp_path, capsys):
    # a file that only names a dimension builds no dim x dim table
    path = write_json(tmp_path / "dim.json", {"dim": 3000})
    assert run(["check", "lie", "--algebra", path]) == 0
    assert capsys.readouterr().out == "== check lie\njacobi: pass\n"


def test_cohomology_report(sl2_files, capsys):
    algebra, borel = sl2_files
    assert run(["cohomology", "--algebra", str(algebra), "--map", str(borel),
                "--max-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "H^1: dim 1" in out
    assert "H^2: dim 2" in out


def test_json_reports_are_byte_identical(sl2_files, capsys):
    algebra, borel = sl2_files
    args = ["cohomology", "--algebra", str(algebra), "--map", str(borel), "--json"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["verdicts"]["dimensions"]["1"]["dim_cohomology"] == 1
    assert "conventions" in payload and "inputs" in payload


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    bad.write_text("{not json")
    assert run(["check", "lie", "--algebra", str(bad)]) == 2
    assert "line" in capsys.readouterr().err


def test_dimension_mismatch_exit_2(sl2_files, tmp_path, capsys):
    algebra, _ = sl2_files
    small = write_json(tmp_path / "small.json", {"matrix": [[1, 0], [0, 1]]})
    assert run(["check", "mcybe", "--algebra", str(algebra), "--map", small]) == 2


def test_missing_file_exit_2(sl2_files):
    algebra, _ = sl2_files
    assert run(["check", "mcybe", "--algebra", str(algebra),
                "--map", "/nonexistent/r.json"]) == 2


def test_rota_baxter_subcommand(sl2_files, tmp_path):
    algebra, _ = sl2_files
    b = write_json(tmp_path / "b.json",
                   {"matrix": [[0, 0, 0], [0, -1, 0], [0, 0, 0]]})
    assert run(["check", "rota-baxter", "--algebra", str(algebra),
                "--map", b, "--weight", "1"]) == 0
    assert run(["check", "rota-baxter", "--algebra", str(algebra),
                "--map", b, "--weight", "0"]) == 1


def test_cohomology_max_degree_zero_exit_2(sl2_files, capsys):
    algebra, borel = sl2_files
    assert run(["cohomology", "--algebra", str(algebra), "--map", str(borel),
                "--max-degree", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: max_degree must be >= 1\n" and not captured.out


def test_induced_subcommand(sl2_files, capsys):
    algebra, borel = sl2_files
    assert run(["induced", "--algebra", str(algebra), "--map", str(borel)]) == 0
    out = capsys.readouterr().out
    assert "[h, e]_R" not in out        # stored as (e, h) pair
    assert "[e, h]_R = (-4, 0, 0)" in out


def test_induced_requires_r_matrix(sl2_files, tmp_path, capsys):
    algebra, _ = sl2_files
    bad = write_json(tmp_path / "bad.json",
                     {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]})
    assert run(["induced", "--algebra", str(algebra), "--map", bad]) == 1
    assert run(["induced", "--algebra", str(algebra), "--map", bad, "--force"]) == 0


def test_graded_bracket_subcommand(sl2_files, tmp_path, capsys):
    algebra, borel = sl2_files
    assert run(["graded-bracket", "--algebra", str(algebra),
                "--left", str(borel), "--right", str(borel), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdicts"]["arity"] == 2
    # [[R, R]] = 2 pi: entries match twice the structure constants
    entries = {tuple(e["tuple"]): e["value"]
               for e in payload["verdicts"]["result"]["entries"]}
    assert entries[(0, 1)] == [0, 0, 2]


def test_mc_check_subcommand(sl2_files, tmp_path):
    algebra, borel = sl2_files
    zero = write_json(tmp_path / "zero.json", {"matrix": [[0] * 3 for _ in range(3)]})
    assert run(["mc-check", "--algebra", str(algebra), "--map", str(borel),
                "--prime", zero]) == 0
    assert run(["mc-check", "--algebra", str(algebra), "--map", str(borel),
                "--prime", str(borel)]) == 1


def test_kuranishi_subcommand(sl2_files, tmp_path):
    algebra, borel = sl2_files
    cocycle = write_json(tmp_path / "f.json", {
        "degree": 1, "entries": [{"tuple": [2], "value": [0, 0, 1]}]})
    assert run(["kuranishi", "--algebra", str(algebra), "--map", str(borel),
                "--cocycle", cocycle]) == 0


def test_deform_subcommands(sl2_files, tmp_path):
    algebra, borel = sl2_files
    # Rhat = d e: maps f to 2h
    rhat = write_json(tmp_path / "rhat.json",
                      {"matrix": [[0, 0, 0], [0, 0, 0], [0, 2, 0]]})
    zero = write_json(tmp_path / "zero.json", {"matrix": [[0] * 3 for _ in range(3)]})
    assert run(["deform", "check", "--algebra", str(algebra), "--map", str(borel),
                "--rhat", rhat]) == 0
    assert run(["deform", "equivalence", "--algebra", str(algebra),
                "--map", str(borel), "--rhat1", rhat, "--rhat2", zero,
                "--element", "[1, 0, 0]"]) == 1
    assert run(["deform", "trivial", "--algebra", str(algebra),
                "--map", str(borel), "--element", "[0, 0, 0]"]) == 0
    assert run(["deform", "trivial", "--algebra", str(algebra),
                "--map", str(borel), "--element", "[1, 0, 0]"]) == 1


def test_deform_equivalence_refuses_non_modified_r(sl2_files, tmp_path, capsys):
    algebra, _ = sl2_files
    three_r = write_json(tmp_path / "3r.json",
                         {"matrix": [[3, 0, 0], [0, -3, 0], [0, 0, 3]]})
    zero = write_json(tmp_path / "zero.json", {"matrix": [[0] * 3 for _ in range(3)]})
    assert run(["deform", "equivalence", "--algebra", str(algebra), "--map", three_r,
                "--rhat1", zero, "--rhat2", zero, "--element", "[0, 0, 0]"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("check failed: check_equivalence needs a modified r-matrix")
    assert len(err.splitlines()) == 1


def test_nijenhuis_subcommands(sl2_files, capsys):
    algebra, borel = sl2_files
    assert run(["nijenhuis", "check", "--algebra", str(algebra),
                "--map", str(borel), "--element", "[0, 0, 0]"]) == 0
    assert run(["nijenhuis", "check", "--algebra", str(algebra),
                "--map", str(borel), "--element", "[1, 0, 0]"]) == 1
    capsys.readouterr()
    assert run(["nijenhuis", "scan", "--algebra", str(algebra),
                "--map", str(borel)]) == 0
    assert "0 of 6" in capsys.readouterr().out


def test_nijenhuis_subcommands_refuse_non_modified_r(sl2_files, tmp_path, capsys):
    algebra, _ = sl2_files
    three_r = write_json(tmp_path / "3r.json",
                         {"matrix": [[3, 0, 0], [0, -3, 0], [0, 0, 3]]})
    base = ["--algebra", str(algebra), "--map", three_r]
    for argv, what in ((["check", *base, "--element", "[0, 0, 0]"], "nijenhuis_check"),
                       (["scan", *base], "nijenhuis_scan")):
        assert run(["nijenhuis", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"check failed: {what} needs a modified r-matrix, "
                       f"but S(R)(e, f) = (0, 0, -8)\n")
    # the element is parsed before R is checked
    assert run(["nijenhuis", "check", *base, "--element", "[1, 0]"]) == 2


def test_nijenhuis_scan_lists_elements(affine2, tmp_path, capsys):
    algebra, raff = affine2
    argv = ["nijenhuis", "scan", "--algebra", write_json(tmp_path / "aff.json",
                                                         algebra.to_json_dict()),
            "--map", write_json(tmp_path / "r.json", raff.to_json_dict())]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["nijenhuis element: (1, 0)", "nijenhuis element: (0, 1)",
                         "2 of 3 candidates are Nijenhuis elements"]
    assert run(argv + ["--json"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts == {"candidates_checked": 3, "nijenhuis_elements": [[1, 0], [0, 1]]}


def test_double_subcommands(sl2_files, tmp_path):
    algebra, borel = sl2_files
    assert run(["double", "graph", "--algebra", str(algebra), "--map", str(borel)]) == 0
    assert run(["double", "complement", "--algebra", str(algebra),
                "--map", str(borel)]) == 0
    bad = write_json(tmp_path / "bad.json",
                     {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]})
    assert run(["double", "graph", "--algebra", str(algebra), "--map", bad]) == 1


def test_involutive_subcommand(sl2_files, tmp_path):
    algebra, borel = sl2_files
    assert run(["involutive", "analyze", "--algebra", str(algebra),
                "--map", str(borel)]) == 0
    swap = write_json(tmp_path / "swap.json",
                      {"matrix": [[0, 1, 0], [1, 0, 0], [0, 0, 1]]})
    assert run(["involutive", "analyze", "--algebra", str(algebra),
                "--map", swap]) == 1
    non_inv = write_json(tmp_path / "noninv.json",
                         {"matrix": [[2, 0, 0], [0, 1, 0], [0, 0, 1]]})
    assert run(["involutive", "analyze", "--algebra", str(algebra),
                "--map", non_inv]) == 2


def test_compatible_subcommand(sl2_files, tmp_path):
    algebra, borel = sl2_files
    rhat = write_json(tmp_path / "rhat.json",
                      {"matrix": [[0, 0, 0], [0, 0, 0], [0, 2, 0]]})
    assert run(["compatible", "--algebra", str(algebra), "--map", str(borel),
                "--rhat", rhat, "--t1", "1/2", "--t2", "-3"]) == 0


def test_catalog_stdout(capsys):
    assert run(["catalog", "sl", "--n", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdicts"]["dim"] == 8


@pytest.mark.parametrize("flag", ["--algebra-out", "--map-out"])
def test_catalog_unwritable_output_exit_2(tmp_path, capsys, flag):
    target = str(tmp_path / "missing-dir" / "out.json")
    assert run(["catalog", "sl", "--n", "2", flag, target]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ") and target in captured.err
    assert captured.err.count("\n") == 1 and not captured.out
    # the other output is writable, but no file is written unless both are
    other = "--map-out" if flag == "--algebra-out" else "--algebra-out"
    ok = tmp_path / "ok.json"
    for args in ([flag, target, other, str(ok)], [other, str(ok), flag, target]):
        assert run(["catalog", "sl", "--n", "2", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ") and target in captured.err
        assert captured.err.count("\n") == 1 and not captured.out
        assert not ok.exists()
    ok.write_text("kept\n")
    assert run(["catalog", "sl", "--n", "2", other, str(ok), flag, target]) == 2
    assert ok.read_text() == "kept\n"


@pytest.mark.parametrize("prefix", ["", "./"])
def test_catalog_one_file_for_both_outputs_exit_2(tmp_path, monkeypatch, capsys, prefix):
    # both outputs in one file once left two concatenated JSON documents
    monkeypatch.chdir(tmp_path)
    argv = ["catalog", "sl", "--n", "2", "--algebra-out", "x.json",
            "--map-out", prefix + "x.json"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ") and "x.json" in captured.err
    assert captured.err.count("\n") == 1 and not captured.out
    assert not (tmp_path / "x.json").exists()
    (tmp_path / "x.json").write_bytes(b"kept\n")
    assert run(argv) == 2
    assert (tmp_path / "x.json").read_bytes() == b"kept\n"


def test_catalog_writes_both_outputs(tmp_path, capsys):
    paths = [tmp_path / "algebra.json", tmp_path / "map.json"]
    paths[1].write_text("an older and longer file to be overwritten\n" * 100)
    assert run(["catalog", "sl", "--n", "2", "--algebra-out", str(paths[0]),
                "--map-out", str(paths[1])]) == 0
    algebra, r = mcybe.catalog("sl-borel", 2)
    for path, payload in zip(paths, (algebra.to_json_dict(), r.to_json_dict())):
        assert path.read_text() == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert capsys.readouterr().out.count("written to") == 2


def test_catalog_help_describes_json(capsys):
    assert run(["catalog", "sl", "--help"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["--json", "emit", "the", "structured", "report"] in lines


def test_parser_is_built_once_and_not_at_import():
    script = ("import mcybe.cli as cli\n"
              "assert cli._build_parser.cache_info().currsize == 0\n"
              "assert cli._build_parser() is cli._build_parser()\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env_with_src(), timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_element_parse_errors(sl2_files, capsys):
    algebra, borel = sl2_files
    assert run(["nijenhuis", "check", "--algebra", str(algebra),
                "--map", str(borel), "--element", "[1, 0]"]) == 2
    assert run(["nijenhuis", "check", "--algebra", str(algebra),
                "--map", str(borel), "--element", "nope"]) == 2


_SL2_BRACKETS = [{"i": 0, "j": 1, "value": [0, 0, 1]},
                 {"i": 0, "j": 2, "value": [-2, 0, 0]},
                 {"i": 1, "j": 2, "value": [0, 2, 0]}]


# each payload was once read character by character, coerced from a boolean,
# a non-string name or a decimal string, or crashed with a TypeError; all are
# input errors now, as are missing keys, unknown keys and duplicate entries
@pytest.mark.parametrize("command, label, payload", [
    ("check-mcybe", "map", {"matrix": ["100", "010", "001"]}),
    ("check-lie", "algebra", {"dim": 3, "brackets": [{"i": 0, "j": 1, "value": "001"}]}),
    ("check-lie", "algebra", {"dim": 3, "basis": "efh", "brackets": _SL2_BRACKETS}),
    ("check-lie", "algebra", {"dim": True, "brackets": []}),
    ("check-lie", "algebra", {"dim": 2, "brackets": [{"i": False, "j": True,
                                                      "value": [0, 0]}]}),
    ("kuranishi", "cocycle", {"degree": 1, "entries": [{"tuple": "2",
                                                        "value": [0, 0, 1]}]}),
    ("kuranishi", "cocycle", {"degree": "1", "entries": []}),
    ("kuranishi", "cocycle", {"matrix": 5}),
    ("check-lie", "algebra", {"dim": 3, "basis": [1, 2, 3], "brackets": _SL2_BRACKETS}),
    ("check-lie", "algebra", {"dim": 3, "basis": ["e", None, "h"],
                              "brackets": _SL2_BRACKETS}),
    ("check-mcybe", "map", {"matrix": [["0.0", 0, 0], [0, 0, 0], [0, 0, 0]]}),
    ("kuranishi", "cocycle", {"entries": [{"tuple": [2], "value": [0, 0, 1]}]}),
    ("kuranishi", "cocycle", {"degree": 1, "entries": [{"tuple": [2]}]}),
    ("kuranishi", "cocycle", {"degree": 1, "entries": [{"tuple": [True],
                                                        "value": [0, 0, 1]}]}),
    ("kuranishi", "cocycle", {"degree": 1, "entries": [{"tuple": [2], "value": [0, 0, 1]},
                                                       {"tuple": [2], "value": [0, 0, 1]}]}),
    ("check-lie", "algebra", {"dim": 3, "brackets": [{"i": 0, "j": 1}]}),
    ("check-lie", "algebra", {"dim": 3, "brackets": _SL2_BRACKETS + _SL2_BRACKETS[:1]}),
    ("check-mcybe", "map", {"rows": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]}),
    ("check-lie", "algebra", {"dim": 3, "basis": ["e", "e", "h"], "brackets": _SL2_BRACKETS}),
    ("check-mcybe", "algebra", {"dim": 3, "basis": ["e", "f", "h"], "bracket": _SL2_BRACKETS}),
    ("check-lie", "algebra", {"dim": 3, "brackets": [{**_SL2_BRACKETS[0], "k": 2}]
                              + _SL2_BRACKETS[1:]}),
    ("check-mcybe", "map", {"matrix": [[1, 0, 0], [0, -1, 0], [0, 0, 1]], "dim": 3}),
    ("kuranishi", "cocycle", {"degree": 1, "entry": [{"tuple": [2], "value": [0, 0, 1]}]}),
    ("kuranishi", "cocycle", {"degree": 1, "entries": [{"tuple": [2], "value": [0, 0, 1],
                                                        "tuples": [1]}]}),
], ids=["matrix-row-strings", "bracket-value-string", "basis-string", "dim-true",
        "bracket-index-bools", "cochain-tuple-string", "cochain-degree-string",
        "cochain-matrix-int", "basis-ints", "basis-null", "matrix-entry-decimal-string",
        "cochain-no-degree", "cochain-entry-no-value", "cochain-tuple-bool",
        "cochain-duplicate-entry", "bracket-no-value", "bracket-duplicate-entry",
        "map-no-matrix", "basis-dup", "algebra-unknown-key", "bracket-unknown-key",
        "map-unknown-key", "cochain-unknown-key", "cochain-entry-unknown-key"])
def test_malformed_json_rejected(sl2_files, tmp_path, capsys, command, label, payload):
    algebra, borel = sl2_files
    path = write_json(tmp_path / "malformed.json", payload)
    files = {"algebra": str(algebra), "map": str(borel), label: path}
    argv = {"check-lie": ["check", "lie", "--algebra", files["algebra"]],
            "check-mcybe": ["check", "mcybe", "--algebra", files["algebra"],
                            "--map", files["map"]],
            "kuranishi": ["kuranishi", "--algebra", files["algebra"], "--map",
                          files["map"], "--cocycle", files.get("cocycle", "")]}[command]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ") and not captured.out


def test_doubled_basis_name_collision_exit_2(tmp_path, capsys):
    # the double names its basis s|0 and 0|s, so 0|a and a|0 both give 0|a|0
    algebra = write_json(tmp_path / "ab.json", {"dim": 2, "basis": ["0|a", "a|0"],
                                                "brackets": []})
    ident = write_json(tmp_path / "id.json", {"matrix": [[1, 0], [0, 1]]})
    for what in ("graph", "complement"):
        assert run(["double", what, "--algebra", algebra, "--map", ident]) == 2
        captured = capsys.readouterr()
        assert captured.err == "input error: repeated basis name '0|a|0'\n"
        assert not captured.out


@pytest.mark.parametrize("flag", ["--weight=abc", "--weight=1/0", "--weight=0.5",
                                  "--weight=1e3", "--weight=1_000", "--weight= 1/2"])
def test_bad_rational_flag_exit_2(sl2_files, flag):
    algebra, borel = sl2_files
    assert run(["check", "rota-baxter", "--algebra", str(algebra),
                "--map", str(borel), flag]) == 2


DIGITS = "1" * 5000      # past Python's 4,300-digit limit for int <-> str
NESTED = "[" * 5000 + "]" * 5000


# json.loads raises RecursionError on the nesting, ValueError on the long
# integer and UnicodeDecodeError on a byte that is not UTF-8, and Fraction
# raises ValueError on the long string; each is an input error, not a
# traceback with the "check failed" exit 1
@pytest.mark.parametrize("argv, text", [
    (["check", "lie", "--algebra", "FILE"], NESTED),
    (["check", "lie", "--algebra", "FILE"], '\xff{"dim": 0}'),
    (["check", "lie", "--algebra", "FILE"], '{"dim": %s}' % DIGITS),
    (["check", "mcybe", "--algebra", "ALG", "--map", "FILE"],
     '{"matrix": [["%s", 0, 0], [0, 1, 0], [0, 0, 1]]}' % DIGITS),
    (["check", "rota-baxter", "--algebra", "ALG", "--map", "MAP", "--weight", DIGITS], None),
    (["nijenhuis", "check", "--algebra", "ALG", "--map", "MAP", "--element", NESTED], None),
], ids=["algebra-nested", "algebra-not-utf8", "algebra-dim-digits", "matrix-entry-digits",
        "weight-digits", "element-nested"])
def test_unreadable_input_exit_2(sl2_files, tmp_path, capsys, argv, text):
    algebra, borel = sl2_files
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text, encoding="latin-1")    # one byte per character
    files = {"ALG": str(algebra), "MAP": str(borel), "FILE": str(path)}
    assert run([files.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and not captured.out


@pytest.fixture(params=["1", "2"], ids=["int", "fraction"])
def scaled_borel(sl2_files, tmp_path, request):
    """sl(2) and its Borel R times (10^2999 + 7)/q: a legal input, each entry
    under the int-to-string digit limit, whose MCYBE defect has 6,000 digits."""
    algebra, borel = sl2_files
    matrix = [[f"{x * (10 ** 2999 + 7)}/{request.param}" for x in row]
              for row in json.loads(borel.read_text())["matrix"]]
    return str(algebra), write_json(tmp_path / "scaled.json", {"matrix": matrix})


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command", [["check", "mcybe"], ["induced"],
                                     ["cohomology", "--max-degree", "1"]],
                         ids=["check-mcybe", "induced", "cohomology"])
def test_number_too_long_to_print_exit_2(scaled_borel, capsys, command, flags):
    # the report (or, in cohomology, the precondition's message) would print
    # the defect; that number is refused as input, never a traceback
    algebra, scaled = scaled_borel
    assert run([*command, "--algebra", algebra, "--map", scaled, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"input error: a number has more than "
                            f"{sys.get_int_max_str_digits()} digits to print\n")
    assert not captured.out


def test_number_too_long_for_the_json_report_exit_2(scaled_borel, capsys):
    # [[R, R]] of the scaled R has 6,000-digit values, which only the JSON
    # report prints: the text report prints its one line, and json.dumps in
    # Report.emit meets the limit
    algebra, scaled = scaled_borel
    argv = ["graded-bracket", "--algebra", algebra, "--left", scaled, "--right", scaled]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == ("== graded-bracket\n"
                            "[[left, right]] has arity 2 with 3 nonzero basis values\n")
    assert not captured.err
    assert run(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"input error: a number has more than "
                            f"{sys.get_int_max_str_digits()} digits to print\n")
    assert not captured.out


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_scaled_borel_double_graph_still_reports(scaled_borel, capsys, flags):
    # the graph basis holds only R's own entries, which print
    algebra, scaled = scaled_borel
    assert run(["double", "graph", "--algebra", algebra, "--map", scaled, *flags]) == 1
    captured = capsys.readouterr()
    assert not captured.err
    if flags:
        assert json.loads(captured.out)["verdicts"]["is_subalgebra"] is False
    else:
        assert "graph of R is a subalgebra of g(+)g: FAIL" in captured.out


def test_emit_raises_other_value_errors():
    # only the digit limit is an input error; a circular report is a bug
    report = Report("check lie")
    report.data["witnesses"]["self"] = report.data
    with pytest.raises(ValueError, match="Circular reference"):
        report.emit(True)


def test_emit_writes_the_bytes_of_json_dumps(capsys):
    # every kind of value a report holds, written as json.dumps writes it
    algebra, borel = mcybe.catalog("sl-borel", 2)
    report = Report("crafted \u00e9")
    report.verdict("empty", {"dict": {}, "list": [], "tuple": ()})
    report.verdict("nested", ((1, (2, [3, ()])), [{"b": (True,), "a": [False, None]}]))
    report.verdict("text", "caf\u00e9 \u2603 \U0001f600 \x00\x1f\t\n\"\\/ \x7f")
    report.verdict("\u00fc key", [True, False, None], "a line")
    report.verdict("digits", [int("7" * 4000), -int("3" * 4000)])
    report.witness("fractions", [Fraction(-7, 3), Fraction(1, 10 ** 50), 0, -1])
    report.witness("cochain", Cochain(algebra, 1, {(0,): (Fraction(1, 2), 0, -3)}))
    report.witness("pi", mcybe.pi_cochain(algebra))
    report.witness("endo", borel.scale(Fraction(2, 3)))
    report.witness("algebra", algebra)
    report.emit(True)
    assert capsys.readouterr().out == json.dumps(report.data, sort_keys=True, indent=2,
                                                 default=_jsonable) + "\n"


_ROUTE_SCRIPT = """
import sys
import mcybe.deform
import mcybe.graded
from mcybe import DefectReport, mcybe_defect, pi_cochain
from mcybe.cli import run
assert sys.argv[-1] == ("optimized" if not __debug__ else "plain")


def wrong_defect(R):
    # the defect route of mc-check flips its verdict; that of deform check
    # is off by [x, y] at t = 1 and at t = -1
    report = mcybe_defect(R)
    return DefectReport(not report.is_zero, report.worst_pair,
                        report.defect_cochain + pi_cochain(R.algebra))


mcybe.graded.mcybe_defect = mcybe.deform.mcybe_defect = wrong_defect
sys.exit(run(sys.argv[1:-1]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("command, option, message", [
    (["mc-check"], "--prime", "Maurer-Cartan and defect routes disagree"),
    (["deform", "check"], "--rhat",
     "polynomial defect coefficients disagree with interpolated defect values"),
], ids=["mc-check", "deform-check"])
def test_defect_route_disagreement_exit_3(sl2_files, tmp_path, flags, command, option, message):
    algebra, borel = sl2_files
    zero = write_json(tmp_path / "zero.json", {"matrix": [[0] * 3] * 3})
    proc = subprocess.run([sys.executable, *flags, "-c", _ROUTE_SCRIPT, *command,
                           "--algebra", str(algebra), "--map", str(borel), option, zero,
                           "optimized" if flags else "plain"],
                          capture_output=True, text=True, env=env_with_src(), timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == f"internal error: {message}\n"
    assert not proc.stdout


def test_route_disagreement_exit_3(sl2_files, monkeypatch, capsys):
    algebra, borel = sl2_files
    # the graph closure says "subalgebra"; make the defect route say otherwise
    monkeypatch.setattr(mcybe.doubling, "mcybe_defect",
                        lambda R: DefectReport(False, (0, 1), None))
    assert run(["double", "graph", "--algebra", str(algebra), "--map", str(borel)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: graph closure and defect verdicts disagree\n"
    assert not captured.out


@pytest.mark.parametrize("route, message", [
    ("modular", "rank mod p and rank over Q disagree"),
    ("exact", "null space vector is not annihilated"),
    ("kept", "rank mod p and rank over Q disagree"),
], ids=["modular", "exact", "kept"])
def test_elimination_fault_exit_3(sl2_files, monkeypatch, capsys, route, message):
    algebra, borel = sl2_files
    # one elimination, modulo the prime or over Q, loses its last pivot, or
    # the exact one reports a dependent row as kept: the rank certificate
    # must refuse
    true_eliminate = mcybe.linalg.eliminate
    faults = []

    def eliminate(rows, modulus=0):
        basis, leads, kept = true_eliminate(rows, modulus)
        if route == "kept" and not modulus:
            # a dropped row lies in the span of the rows kept before it, so
            # in place of a row kept after it, it makes the minor singular
            order = sorted(range(len(rows)), key=lambda i: len(rows[i]))
            dropped = [t for t, i in enumerate(order) if i not in kept]
            if dropped and order.index(kept[-1]) > dropped[0]:
                kept = kept[:-1] + [order[dropped[0]]]
                faults.append(route)
        elif bool(modulus) == (route == "modular") and basis:
            del basis[max(basis)]
            faults.append(route)
        return basis, leads, kept
    monkeypatch.setattr(mcybe.linalg, "eliminate", eliminate)
    assert run(["cohomology", "--algebra", str(algebra), "--map", str(borel),
                "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"internal error: {message}\n"
    assert not captured.out
    assert faults == [route]


_CORRUPT_RREF_SCRIPT = """
import sys
import mcybe.linalg
from mcybe.cli import run
assert sys.argv[3] == ("optimized" if not __debug__ else "plain")
true_eliminate = mcybe.linalg.eliminate


def eliminate(rows, modulus=0):
    # the elimination is right; over Q one stored entry is changed after it
    basis, leads, kept = true_eliminate(rows, modulus)
    rest = next((rest for rest in basis.values() if rest), None)
    if not modulus and rest is not None:
        rest[min(rest)] += 1
    return basis, leads, kept


mcybe.linalg.eliminate = eliminate
sys.exit(run(["cohomology", "--algebra", sys.argv[1], "--map", sys.argv[2]]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_corrupt_rref_entry_exit_3(sl2_files, flags):
    # the kernel check reads the rref entries themselves, so a wrong entry is
    # refused even though the rank and pivots are right, with asserts on or off
    algebra, borel = sl2_files
    proc = subprocess.run([sys.executable, *flags, "-c", _CORRUPT_RREF_SCRIPT,
                           str(algebra), str(borel), "optimized" if flags else "plain"],
                          capture_output=True, text=True, env=env_with_src(),
                          timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "internal error: null space vector is not annihilated\n"
    assert not proc.stdout


_OPTIMIZED_SCRIPT = """
import sys
from mcybe import Matrix
from mcybe.cli import run
assert False, "asserts must be stripped in this interpreter"
true_rank = Matrix.rank
Matrix.rank = lambda self: true_rank(self) + 1
sys.exit(run(["cohomology", "--algebra", sys.argv[1], "--map", sys.argv[2],
              "--max-degree", "1"]))
"""


def test_certificate_survives_python_O(sl2_files):
    # the certificates of cohomology() were asserts once; an overcounted
    # rank is refused by the modular route inside certified_rank, whose
    # rank every dimension is read from, also under python -O
    algebra, borel = sl2_files
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT,
                           str(algebra), str(borel)],
                          capture_output=True, text=True, env=env_with_src(),
                          timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "internal error: rank mod p and rank over Q disagree\n"


_COMPLEMENT_RANK_SCRIPT = """
import sys
from mcybe import Matrix
from mcybe.cli import run
assert sys.argv[3] == ("optimized" if not __debug__ else "plain")
true_rank = Matrix.rank
Matrix.rank = lambda self: true_rank(self) + 1
sys.exit(run(["double", "complement", "--algebra", sys.argv[1], "--map", sys.argv[2],
              "--json"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_complement_rank_is_certified(sl2_files, flags):
    # the complement certificate reads its rank off certified_rank, whose
    # modular route refuses an overcounted rank, with asserts on or off
    algebra, borel = sl2_files
    proc = subprocess.run([sys.executable, *flags, "-c", _COMPLEMENT_RANK_SCRIPT,
                           str(algebra), str(borel), "optimized" if flags else "plain"],
                          capture_output=True, text=True, env=env_with_src(), timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "internal error: rank mod p and rank over Q disagree\n"
    assert not proc.stdout
