"""Exit codes and printed bytes of the commands that no benchmark workload
runs (so `tools/same_outputs.py` never compares them), pinned in both
output formats: `catfib`, `dk-check`, `two-of-three`, `descend-triangle`,
`certify --verify`, `validate` and `gen`.  Also the pins of the CI step
that runs the installed entry point, made here through `cli.main`: large
generators, `complete` in stages and out of budget, and `classify` at a
large bound."""

import json

import pytest

from sskit import certify, cli
from sskit.core import (
    CellId,
    Simplex,
    SimplicialMap,
    horn_complex,
    identity_map,
    spine_complex,
    standard_simplex,
)
from sskit.fileformat import serialize_complex, serialize_map
from sskit.lifting import generator_inclusion, key_inclusion

from conftest import build_edges_over_horn, build_walking_iso, parallel_edges_map
from test_fileformat_cli import _complex_file
from test_homotopy import parallel_edges_with_homotopies


def _write_map(tmp_path, name, f):
    """Write f and its two ends, as `<name>.src.txt` and `<name>.tgt.txt`."""
    (tmp_path / f"{name}.src.txt").write_text(serialize_complex(f.source))
    (tmp_path / f"{name}.tgt.txt").write_text(serialize_complex(f.target))
    path = tmp_path / f"{name}.map"
    path.write_text(serialize_map(f, f"{name}.src.txt", f"{name}.tgt.txt"))
    return str(path)


def _inputs(tmp_path) -> dict[str, str]:
    S, x, _ = build_walking_iso()
    pt, d1 = standard_simplex(0).complex, standard_simplex(1).complex
    maps = {
        "iso-identity": identity_map(S),
        "iso-vertex": SimplicialMap(pt, S, {CellId(0, 0): Simplex(x)}),
        "missed-edge": parallel_edges_map(1, 2),
        "hom-circle": parallel_edges_with_homotopies(2),
        "horn-identity": identity_map(horn_complex(2, 1).complex),
        "edges-over-horn": build_edges_over_horn(),
        "horn-inclusion": key_inclusion((2, 1)),
        "vertex-in-edge": SimplicialMap(pt, d1, {CellId(0, 0): Simplex(CellId(0, 0))}),
        "edge-in-triangle": generator_inclusion(standard_simplex(1), standard_simplex(2)),
        "spine-in-horn": generator_inclusion(spine_complex(3), horn_complex(3, 1)),
        "horn-in-simplex": generator_inclusion(horn_complex(3, 1), standard_simplex(3)),
    }
    files = {name: _write_map(tmp_path, name, f) for name, f in maps.items()}
    for name, text in (
        ("good.cert", "class inner\nstep 2 1 012\n"),
        ("empty.cert", "class inner\n"),
        ("outer.cert", "class inner\nstep 2 0 012\n"),
    ):
        (tmp_path / name).write_text(text)
        files[name] = str(tmp_path / name)
    files["triangle.txt"] = str(tmp_path / "horn-inclusion.tgt.txt")
    return files


CASES = {
    "catfib-identity": lambda f: ["catfib", f["iso-identity"]],
    "catfib-vertex": lambda f: ["catfib", f["iso-vertex"]],
    "catfib-missed-edge": lambda f: ["catfib", f["missed-edge"]],
    "catfib-starved": lambda f: ["--node-budget", "1", "catfib", f["iso-identity"]],
    "catfib-horn-inclusion": lambda f: ["catfib", f["horn-inclusion"]],
    "dk-check-identity": lambda f: ["dk-check", f["iso-identity"]],
    "dk-check-vertex": lambda f: ["dk-check", f["iso-vertex"]],
    "dk-check-missed-edge": lambda f: ["dk-check", f["missed-edge"]],
    "dk-check-circle": lambda f: ["dk-check", f["hom-circle"]],
    "dk-check-missing-object": lambda f: ["dk-check", f["vertex-in-edge"]],
    "two-of-three": lambda f: ["two-of-three", f["spine-in-horn"], f["horn-in-simplex"]],
    "two-of-three-starved": lambda f: ["--node-budget", "1", "two-of-three", f["spine-in-horn"], f["horn-in-simplex"]],
    "two-of-three-not-bijective": lambda f: ["two-of-three", f["vertex-in-edge"], f["edge-in-triangle"]],
    "two-of-three-alarm": lambda f: ["two-of-three", f["spine-in-horn"], f["horn-in-simplex"]],
    "descend-triangle-identity": lambda f: ["--stages", "1", "descend-triangle", f["horn-identity"]],
    "descend-triangle-edges": lambda f: ["descend-triangle", f["edges-over-horn"]],
    "certify-verify-good": lambda f: ["certify", f["horn-inclusion"], "--verify", f["good.cert"]],
    "certify-verify-empty": lambda f: ["certify", f["horn-inclusion"], "--verify", f["empty.cert"]],
    "certify-verify-outer": lambda f: ["certify", f["horn-inclusion"], "--verify", f["outer.cert"]],
    "validate": lambda f: ["validate", f["triangle.txt"]],
    "gen-simplex": lambda f: ["gen", "simplex", "2"],
    "gen-horn": lambda f: ["gen", "horn", "3", "1"],
}


def _raise_the_alarm(monkeypatch):
    """No pair of inclusions raises the two-out-of-three alarm, so the
    classifier is stubbed: its real answers on an inner-anodyne inclusion,
    twice, and then on one that is not inner anodyne."""
    real = certify.classify_inclusion
    yes = real(key_inclusion((2, 1)))
    pt, d1 = standard_simplex(0).complex, standard_simplex(1).complex
    no = real(SimplicialMap(pt, d1, {CellId(0, 0): Simplex(CellId(0, 0))}))
    answers = iter([yes, yes, no])
    monkeypatch.setattr(certify, "classify_inclusion", lambda *args: next(answers))


def run_case(case, fmt, tmp_path, monkeypatch, capsys):
    files = _inputs(tmp_path)
    if case == "two-of-three-alarm":
        _raise_the_alarm(monkeypatch)
    capsys.readouterr()
    code = cli.main(["--format", fmt, *CASES[case](files)])
    return code, capsys.readouterr().out


GOLDEN = {
    ("catfib-horn-inclusion", "human"): (1, (
        "command: catfib\n"
        "verdict: no\n"
        "inner: No(witness)\n"
        "isofibration: yes\n"
        "bound: 3\n"
    )),
    ("catfib-horn-inclusion", "structured"): (1, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "catfib",\n'
        '  "verdict": "no",\n'
        '  "inner": "No(witness)",\n'
        '  "isofibration": "yes",\n'
        '  "bound": 3\n'
        "}\n"
    )),
    ("catfib-identity", "human"): (2, (
        "command: catfib\n"
        "verdict: yes\n"
        "inner: YesUpTo(3)\n"
        "isofibration: yes\n"
        "bound: 3\n"
    )),
    ("catfib-identity", "structured"): (2, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "catfib",\n'
        '  "verdict": "yes",\n'
        '  "inner": "YesUpTo(3)",\n'
        '  "isofibration": "yes",\n'
        '  "bound": 3\n'
        "}\n"
    )),
    ("catfib-missed-edge", "human"): (2, (
        "command: catfib\n"
        "verdict: yes\n"
        "inner: YesUpTo(2)\n"
        "isofibration: yes\n"
        "bound: 2\n"
    )),
    ("catfib-missed-edge", "structured"): (2, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "catfib",\n'
        '  "verdict": "yes",\n'
        '  "inner": "YesUpTo(2)",\n'
        '  "isofibration": "yes",\n'
        '  "bound": 2\n'
        "}\n"
    )),
    ("catfib-starved", "human"): (2, (
        "command: catfib\n"
        "verdict: unknown\n"
        "inner: Budget\n"
        "isofibration: yes\n"
        "bound: 3\n"
    )),
    ("catfib-starved", "structured"): (2, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "catfib",\n'
        '  "verdict": "unknown",\n'
        '  "inner": "Budget",\n'
        '  "isofibration": "yes",\n'
        '  "bound": 3\n'
        "}\n"
    )),
    ("catfib-vertex", "human"): (1, (
        "command: catfib\n"
        "verdict: no\n"
        "inner: YesUpTo(3)\n"
        "isofibration: no\n"
        "bound: 3\n"
    )),
    ("catfib-vertex", "structured"): (1, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "catfib",\n'
        '  "verdict": "no",\n'
        '  "inner": "YesUpTo(3)",\n'
        '  "isofibration": "no",\n'
        '  "bound": 3\n'
        "}\n"
    )),
    ("certify-verify-empty", "human"): (1, (
        "command: certify\n"
        "verified: False\n"
    )),
    ("certify-verify-empty", "structured"): (1, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "certify",\n'
        '  "verified": false\n'
        "}\n"
    )),
    ("certify-verify-good", "human"): (0, (
        "command: certify\n"
        "verified: True\n"
    )),
    ("certify-verify-good", "structured"): (0, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "certify",\n'
        '  "verified": true\n'
        "}\n"
    )),
    ("certify-verify-outer", "human"): (1, (
        "command: certify\n"
        "verified: False\n"
    )),
    ("certify-verify-outer", "structured"): (1, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "certify",\n'
        '  "verified": false\n'
        "}\n"
    )),
    ("descend-triangle-edges", "human"): (0, (
        "command: descend-triangle\n"
        "bound: 3\n"
        "verdict: ok\n"
        "stages: [6, 6, 6]\n"
    )),
    ("descend-triangle-edges", "structured"): (0, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "descend-triangle",\n'
        '  "bound": 3,\n'
        '  "verdict": "ok",\n'
        '  "stages": [\n'
        "    6,\n"
        "    6,\n"
        "    6\n"
        "  ]\n"
        "}\n"
    )),
    ("descend-triangle-identity", "human"): (0, (
        "command: descend-triangle\n"
        "bound: 3\n"
        "verdict: ok\n"
        "stages: [5, 7]\n"
    )),
    ("descend-triangle-identity", "structured"): (0, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "descend-triangle",\n'
        '  "bound": 3,\n'
        '  "verdict": "ok",\n'
        '  "stages": [\n'
        "    5,\n"
        "    7\n"
        "  ]\n"
        "}\n"
    )),
    ("dk-check-circle", "human"): (2, (
        "command: dk-check\n"
        "essentially_surjective: yes\n"
        "fully_faithful: unknown\n"
        "failing_pair: ['0', '1']\n"
    )),
    ("dk-check-circle", "structured"): (2, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "dk-check",\n'
        '  "essentially_surjective": "yes",\n'
        '  "fully_faithful": "unknown",\n'
        '  "failing_pair": [\n'
        '    "0",\n'
        '    "1"\n'
        "  ]\n"
        "}\n"
    )),
    ("dk-check-identity", "human"): (2, (
        "command: dk-check\n"
        "essentially_surjective: yes\n"
        "fully_faithful: yes\n"
    )),
    ("dk-check-identity", "structured"): (2, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "dk-check",\n'
        '  "essentially_surjective": "yes",\n'
        '  "fully_faithful": "yes"\n'
        "}\n"
    )),
    ("dk-check-missed-edge", "human"): (1, (
        "command: dk-check\n"
        "essentially_surjective: yes\n"
        "fully_faithful: no\n"
        "failing_pair: ['c0_0', 'c0_1']\n"
    )),
    ("dk-check-missed-edge", "structured"): (1, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "dk-check",\n'
        '  "essentially_surjective": "yes",\n'
        '  "fully_faithful": "no",\n'
        '  "failing_pair": [\n'
        '    "c0_0",\n'
        '    "c0_1"\n'
        "  ]\n"
        "}\n"
    )),
    ("dk-check-missing-object", "human"): (1, (
        "command: dk-check\n"
        "essentially_surjective: no\n"
        "fully_faithful: yes\n"
    )),
    ("dk-check-missing-object", "structured"): (1, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "dk-check",\n'
        '  "essentially_surjective": "no",\n'
        '  "fully_faithful": "yes"\n'
        "}\n"
    )),
    ("dk-check-vertex", "human"): (2, (
        "command: dk-check\n"
        "essentially_surjective: yes\n"
        "fully_faithful: yes\n"
    )),
    ("dk-check-vertex", "structured"): (2, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "dk-check",\n'
        '  "essentially_surjective": "yes",\n'
        '  "fully_faithful": "yes"\n'
        "}\n"
    )),
    ("gen-horn", "human"): (0, (
        "dim 2\n"
        "cell 0 0\n"
        "cell 1 0\n"
        "cell 2 0\n"
        "cell 3 0\n"
        "cell 01 1 faces: 1 0\n"
        "cell 02 1 faces: 2 0\n"
        "cell 03 1 faces: 3 0\n"
        "cell 12 1 faces: 2 1\n"
        "cell 13 1 faces: 3 1\n"
        "cell 23 1 faces: 3 2\n"
        "cell 012 2 faces: 12 02 01\n"
        "cell 013 2 faces: 13 03 01\n"
        "cell 123 2 faces: 23 13 12\n"
    )),
    ("gen-horn", "structured"): (0, (
        "dim 2\n"
        "cell 0 0\n"
        "cell 1 0\n"
        "cell 2 0\n"
        "cell 3 0\n"
        "cell 01 1 faces: 1 0\n"
        "cell 02 1 faces: 2 0\n"
        "cell 03 1 faces: 3 0\n"
        "cell 12 1 faces: 2 1\n"
        "cell 13 1 faces: 3 1\n"
        "cell 23 1 faces: 3 2\n"
        "cell 012 2 faces: 12 02 01\n"
        "cell 013 2 faces: 13 03 01\n"
        "cell 123 2 faces: 23 13 12\n"
    )),
    ("gen-simplex", "human"): (0, (
        "dim 2\n"
        "cell 0 0\n"
        "cell 1 0\n"
        "cell 2 0\n"
        "cell 01 1 faces: 1 0\n"
        "cell 02 1 faces: 2 0\n"
        "cell 12 1 faces: 2 1\n"
        "cell 012 2 faces: 12 02 01\n"
    )),
    ("gen-simplex", "structured"): (0, (
        "dim 2\n"
        "cell 0 0\n"
        "cell 1 0\n"
        "cell 2 0\n"
        "cell 01 1 faces: 1 0\n"
        "cell 02 1 faces: 2 0\n"
        "cell 12 1 faces: 2 1\n"
        "cell 012 2 faces: 12 02 01\n"
    )),
    ("two-of-three-alarm", "human"): (1, (
        "command: two-of-three\n"
        "u: inner-anodyne\n"
        "v: inner-anodyne\n"
        "vu: not-inner-anodyne\n"
        "alarm: True\n"
    )),
    ("two-of-three-alarm", "structured"): (1, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "two-of-three",\n'
        '  "u": "inner-anodyne",\n'
        '  "v": "inner-anodyne",\n'
        '  "vu": "not-inner-anodyne",\n'
        '  "alarm": true\n'
        "}\n"
    )),
    ("two-of-three-not-bijective", "human"): (0, (
        "command: two-of-three\n"
        "u: not-inner-anodyne\n"
        "v: not-inner-anodyne\n"
        "vu: not-inner-anodyne\n"
        "alarm: False\n"
    )),
    ("two-of-three-not-bijective", "structured"): (0, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "two-of-three",\n'
        '  "u": "not-inner-anodyne",\n'
        '  "v": "not-inner-anodyne",\n'
        '  "vu": "not-inner-anodyne",\n'
        '  "alarm": false\n'
        "}\n"
    )),
    ("two-of-three-starved", "human"): (2, (
        "command: two-of-three\n"
        "u: unknown\n"
        "v: unknown\n"
        "vu: unknown\n"
        "alarm: False\n"
    )),
    ("two-of-three-starved", "structured"): (2, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "two-of-three",\n'
        '  "u": "unknown",\n'
        '  "v": "unknown",\n'
        '  "vu": "unknown",\n'
        '  "alarm": false\n'
        "}\n"
    )),
    ("two-of-three", "human"): (0, (
        "command: two-of-three\n"
        "u: inner-anodyne\n"
        "v: inner-anodyne\n"
        "vu: inner-anodyne\n"
        "alarm: False\n"
    )),
    ("two-of-three", "structured"): (0, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "two-of-three",\n'
        '  "u": "inner-anodyne",\n'
        '  "v": "inner-anodyne",\n'
        '  "vu": "inner-anodyne",\n'
        '  "alarm": false\n'
        "}\n"
    )),
    ("validate", "human"): (0, (
        "command: validate\n"
        "verdict: ok\n"
        "cells: 7\n"
    )),
    ("validate", "structured"): (0, (
        "{\n"
        '  "format_version": 1,\n'
        '  "command": "validate",\n'
        '  "verdict": "ok",\n'
        '  "cells": 7\n'
        "}\n"
    )),
}


@pytest.mark.parametrize("fmt", ["human", "structured"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_prints_the_pinned_bytes_and_exit_code(case, fmt, tmp_path, monkeypatch, capsys):
    assert run_case(case, fmt, tmp_path, monkeypatch, capsys) == GOLDEN[case, fmt]


# -- the pins of the installed-entry-point check, through `cli.main` --------------


@pytest.mark.parametrize("argv, cells", [
    (["simplex", "12"], 2**13 - 1),
    (["horn", "12", "1"], 2**13 - 3),  # no top cell and no face d_1
], ids=["simplex-12", "horn-12-1"])
def test_gen_writes_every_cell_of_a_large_generator(argv, cells, tmp_path):
    out = tmp_path / "g.txt"
    assert cli.main(["gen", *argv, "-o", str(out)]) == 0
    assert sum(line.split()[:1] == ["cell"] for line in out.read_text().splitlines()) == cells


def test_complete_attaches_its_stages_or_reports_the_budget(tmp_path, capsys):
    """A stage of inner-horn attachments on Delta^3 fits in 3,000 nodes;
    at 30 it reports a budget verdict at exit 2, with no traceback; two
    stages on the 3-horn label 16,286 new cells."""
    d3 = _complex_file(tmp_path, "d3.txt", standard_simplex(3).complex)
    h31 = _complex_file(tmp_path, "h31.txt", horn_complex(3, 1).complex)
    structured = ["--format", "structured"]
    assert cli.main([*structured, "--node-budget", "3000", "--stages", "1", "complete", d3]) == 0
    assert json.loads(capsys.readouterr().out)["stages"] == [15, 531]
    assert cli.main([*structured, "--node-budget", "30", "--stages", "1", "complete", d3]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] == "budget"
    assert "Traceback" not in captured.err
    assert cli.main([*structured, "--stages", "2", "complete", h31]) == 0
    assert json.loads(capsys.readouterr().out)["stages"] == [13, 179, 16299]


def test_classify_decides_the_inner_class_of_a_map_of_nerves_at_any_bound(tmp_path, capsys):
    """The identity of Delta^2 is a map between nerves, so its inner class
    is decided with no walk over its keys, at any bound."""
    ident = _write_map(tmp_path, "d2-identity", identity_map(standard_simplex(2).complex))
    assert cli.main(["--max-dim", "1100", "classify", ident, "--classes", "inner"]) == 2
    assert "inner: YesUpTo(1100)" in capsys.readouterr().out.splitlines()
