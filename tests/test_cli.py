"""Command-line interface: exit codes, witnesses, deterministic reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcybe
from mcybe.cli import run
from mcybe.rmatrix import DefectReport


@pytest.fixture()
def sl2_files(tmp_path):
    assert run(["catalog", "sl", "--n", "2",
                "--algebra-out", str(tmp_path / "sl2.json"),
                "--map-out", str(tmp_path / "borel.json")]) == 0
    return tmp_path / "sl2.json", tmp_path / "borel.json"


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _env_with_src():
    """os.environ with the directory holding the imported mcybe first on PYTHONPATH."""
    src = str(Path(mcybe.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


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
    assert json.loads(paths[0].read_text()) == algebra.to_json_dict()
    assert json.loads(paths[1].read_text()) == r.to_json_dict()
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
                          text=True, env=_env_with_src(), timeout=120)
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
# input errors now, as are missing keys and duplicate entries
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
], ids=["matrix-row-strings", "bracket-value-string", "basis-string", "dim-true",
        "bracket-index-bools", "cochain-tuple-string", "cochain-degree-string",
        "cochain-matrix-int", "basis-ints", "basis-null", "matrix-entry-decimal-string",
        "cochain-no-degree", "cochain-entry-no-value", "cochain-tuple-bool",
        "cochain-duplicate-entry", "bracket-no-value", "bracket-duplicate-entry",
        "map-no-matrix", "basis-dup"])
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


def test_route_disagreement_exit_3(sl2_files, monkeypatch, capsys):
    algebra, borel = sl2_files
    # the graph closure says "subalgebra"; make the defect route say otherwise
    monkeypatch.setattr(mcybe.doubling, "mcybe_defect",
                        lambda R: DefectReport(False, (0, 1), None))
    assert run(["double", "graph", "--algebra", str(algebra), "--map", str(borel)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: graph closure and defect verdicts disagree\n"
    assert not captured.out


def test_rank_mod_p_disagreement_exit_3(sl2_files, monkeypatch, capsys):
    algebra, borel = sl2_files
    # the independent rank route undercounts: the certificate must refuse
    true_rank_p = mcybe.cochain.rank_mod_p
    monkeypatch.setattr(mcybe.cochain, "rank_mod_p", lambda m: true_rank_p(m) - 1)
    assert run(["cohomology", "--algebra", str(algebra), "--map", str(borel),
                "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: rank mod p + nullity != cochain dimension\n"
    assert not captured.out


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
    # the rank + nullity certificate in cohomology() was an assert once
    algebra, borel = sl2_files
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT,
                           str(algebra), str(borel)],
                          capture_output=True, text=True, env=_env_with_src(),
                          timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "internal error: rank + nullity != cochain dimension\n"
