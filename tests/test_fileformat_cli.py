"""Text formats and the command-line interface."""

import json
import os
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from sskit import certify, cli, factorize, lifting
from sskit.certify import (
    INNER_ANODYNE,
    NOT_INNER_ANODYNE,
    ClassifierVerdict,
    TwoOutOfThreeReport,
    search_certificate,
    verify_certificate,
)
from sskit.core import (
    GENERATORS,
    CellId,
    Simplex,
    SimplicialMap,
    horn_complex,
    identity_map,
    join,
    product,
    spine_complex,
    standard_simplex,
)
from sskit.fileformat import (
    ParseError,
    name_table,
    parse_certificate,
    parse_complex,
    parse_map,
    serialize_certificate,
    serialize_complex,
    serialize_map,
)
from sskit.factorize import mapping_path_space, prefibrantize, saturate_prefibrant
from sskit.homotopy import check_categorical_fibration, check_isofibration, dwyer_kan_check
from sskit.lifting import generator_inclusion, horn_inclusion, spine_inclusion

from conftest import (
    build_walking_iso,
    ill_posed_squares,
    parallel_edges_map,
    random_generator_complex,
)


# -- round trips -----------------------------------------------------------------


@pytest.mark.parametrize(
    "X",
    [
        standard_simplex(3).complex,
        horn_complex(3, 1).complex,
        product(standard_simplex(1).complex, standard_simplex(1).complex).complex,
        join(standard_simplex(1).complex, standard_simplex(0).complex).complex,
        build_walking_iso()[0],
    ],
)
def test_complex_round_trip(X):
    assert parse_complex(serialize_complex(X)) == X


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**30))
def test_random_complex_round_trip(seed):
    X = random_generator_complex(random.Random(seed)).complex
    assert parse_complex(serialize_complex(X)) == X


def test_map_round_trip():
    i = horn_inclusion(2, 1)
    complexes = {"A": i.source, "B": i.target}
    text = serialize_map(i, "A", "B")
    assert parse_map(text, complexes.__getitem__) == i


@pytest.mark.parametrize("n, family", [(2, "inner"), (3, "inner"), (3, "left"), (4, "kan")])
def test_certificate_round_trip(n, family):
    i = spine_inclusion(n)
    cert = search_certificate(i, family).certificate
    text = serialize_certificate(cert, i.target)
    back = parse_certificate(text, i.target)
    assert (back.family, back.steps) == (cert.family, cert.steps)
    assert verify_certificate(back, i)


def test_certificate_text_names_cells_of_the_target():
    i = spine_inclusion(3)
    cert = search_certificate(i).certificate
    assert serialize_certificate(cert, i.target) == (
        "class inner\nstep 2 1 012\nstep 2 1 023\nstep 2 1 123\nstep 3 2 0123\n"
    )
    with pytest.raises(ParseError) as e:
        parse_certificate("class inner\nstep 2 1 nope\n", i.target)
    assert e.value.lineno == 2
    with pytest.raises(ParseError):
        parse_certificate("step 2 1 012\n", i.target)


def test_name_table_uniquifies_duplicate_labels():
    from sskit.core import ComplexBuilder

    b = ComplexBuilder()
    b.add_cell(0, label="v")
    b.add_cell(0, label="v")
    b.add_cell(0)  # empty label falls back to a positional name
    names = name_table(b.build())
    assert len(set(names.values())) == 3


# -- parse errors ----------------------------------------------------------------


def test_missing_header_is_line_one():
    with pytest.raises(ParseError) as e:
        parse_complex("cell v 0\n")
    assert e.value.lineno == 1


def test_face_arity_error_carries_the_line_number():
    text = "dim 1\ncell a 0\ncell b 0\ncell e 1 faces: b\n"
    with pytest.raises(ParseError) as e:
        parse_complex(text)
    assert e.value.lineno == 4


def test_duplicate_names_and_unknown_tokens_are_rejected():
    with pytest.raises(ParseError):
        parse_complex("dim 0\ncell v 0\ncell v 0\n")
    with pytest.raises(ParseError):
        parse_complex("dim 1\ncell a 0\ncell e 1 faces: a q\n")


def test_map_with_missing_images_is_rejected():
    d1 = standard_simplex(1).complex
    text = "map X X\nimage 0 0\n"
    with pytest.raises(ParseError):
        parse_map(text, lambda ref: d1)


def test_comments_and_blank_lines_are_ignored():
    text = "# a complex\n\ndim 0\ncell v 0  # the only cell\n"
    assert parse_complex(text).total_cells() == 1


# line 0 stands for the file as a whole: a defect no single line shows
@pytest.mark.parametrize("text, lineno", [
    ("dim 1\ndim 1\n", 2),
    ("dim x\n", 1),
    ("dim 0\ncell v\n", 2),
    ("dim 0\ncell v x\n", 2),
    ("dim 0\ncell v 1\n", 2),
    ("dim 0\ncell v 0 faces:\n", 2),
    ("dim 1\ncell a 0\ncell e 1 a a\n", 3),
    ("dim 1\ncell a 0\ncell e 1 faces: s0@a a\n", 3),
    ("dim 0\nvertex v\n", 2),
    ("", 1),
    ("dim 2\ncell a 0\n", 1),
    ("dim 2\ncell a 0\ncell e 1 faces: a a\ncell t 2 faces: s5@a e e\n", 0),
    ("dim 2\ncell a 0\ncell b 0\ncell e 1 faces: b a\ncell t 2 faces: e e e\n", 0),
])
def test_every_complex_parse_error_carries_its_line_number(text, lineno):
    with pytest.raises(ParseError) as e:
        parse_complex(text)
    assert e.value.lineno == lineno


@pytest.mark.parametrize("text, lineno", [
    ("map X X\nmap X X\n", 2),
    ("image 0 0\n", 1),
    ("map X X\nimage 0\n", 2),
    ("map X X\nimage q 0\n", 2),
    ("map X X\nimage 0 0\nimage 0 1\n", 3),
    ("map X X\nimage 0 01\n", 2),
    ("map X X\nstray record\n", 2),
    ("", 1),
    ("map X X\nimage 0 0\nimage 1 1\nimage 01 s0@0\n", 0),
])
def test_every_map_parse_error_carries_its_line_number(text, lineno):
    d1 = standard_simplex(1).complex
    with pytest.raises(ParseError) as e:
        parse_map(text, lambda ref: d1)
    assert e.value.lineno == lineno


@pytest.mark.parametrize("text, lineno", [
    ("class inner\nstep x 1 012\n", 2),
    ("class inner\nstep 2 1 012\nclass kan\n", 3),
    ("class inner\nstep 2 1 nope\n", 2),
    ("class inner\nfill 2 1 012\n", 2),
    ("step 2 1 012\n", 1),
])
def test_every_certificate_parse_error_carries_its_line_number(text, lineno):
    with pytest.raises(ParseError) as e:
        parse_certificate(text, standard_simplex(2).complex)
    assert e.value.lineno == lineno


# -- CLI -------------------------------------------------------------------------


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _gen_files(tmp_path):
    horn = _write(
        tmp_path, "horn.txt", serialize_complex(horn_complex(2, 1).complex)
    )
    full = _write(
        tmp_path, "full.txt", serialize_complex(standard_simplex(2).complex)
    )
    inc = _write(
        tmp_path, "inc.map", serialize_map(horn_inclusion(2, 1), "horn.txt", "full.txt")
    )
    return horn, full, inc


def test_cli_validate_and_exit_codes(tmp_path, capsys):
    horn, full, inc = _gen_files(tmp_path)
    assert cli.main(["validate", full]) == 0
    assert cli.main(["validate", str(tmp_path / "missing.txt")]) == 3
    assert cli.main(["no-such-verb"]) == 3


def test_cli_gen_matches_library_output(tmp_path, capsys):
    assert cli.main(["gen", "simplex", "2"]) == 0
    out = capsys.readouterr().out
    assert parse_complex(out) == standard_simplex(2).complex
    assert cli.main(["gen", "horn", "2"]) == 3  # missing parameter
    assert cli.main(["gen", "simplex", "2", "5"]) == 3  # surplus parameter


@pytest.mark.parametrize("kind, params", [
    ("simplex", [2]), ("boundary", [3]), ("horn", [3, 1]), ("spine", [2]),
    ("cosk0", [2, 2]), ("jtrunc", [2]),
])
def test_cli_gen_covers_every_generator(kind, params, capsys):
    assert cli.main(["gen", kind, *map(str, params)]) == 0
    out = capsys.readouterr().out
    assert parse_complex(out) == GENERATORS[kind](*params).complex


def test_cli_structured_output_is_versioned_json(tmp_path, capsys):
    horn, full, inc = _gen_files(tmp_path)
    assert cli.main(["--format", "structured", "certify", inc]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["format_version"] == 1
    assert data["status"] == "found"


def test_cli_certify_search_verify_round_trip(tmp_path, capsys):
    horn, full, inc = _gen_files(tmp_path)
    assert cli.main(["--format", "structured", "certify", inc]) == 0
    cert_text = json.loads(capsys.readouterr().out)["certificate"]
    cert_file = _write(tmp_path, "cert.txt", cert_text)
    assert cli.main(["certify", inc, "--verify", cert_file]) == 0
    capsys.readouterr()


def test_cli_lift_emits_witness_on_refutation(tmp_path, capsys):
    # the spine does not extend over its own boundary-glued square: use
    # the simplex interior missing from the boundary instead
    bd = _write(
        tmp_path,
        "bd.txt",
        serialize_complex(__import__("sskit.core", fromlist=["boundary_complex"]).boundary_complex(2).complex),
    )
    from sskit.core import boundary_complex

    full = _write(tmp_path, "full.txt", serialize_complex(standard_simplex(2).complex))
    i = generator_inclusion(boundary_complex(2), standard_simplex(2))
    inc = _write(tmp_path, "i.map", serialize_map(i, "bd.txt", "full.txt"))
    u = _write(tmp_path, "u.map", serialize_map(identity_map(i.source), "bd.txt", "bd.txt"))
    code = cli.main(["lift", "--along", inc, u])
    out = capsys.readouterr().out
    assert code == 1
    assert "witness_u" in out


def test_cli_classify_is_never_a_complete_positive(tmp_path, capsys):
    # a bounded all-yes report still exits 2: the check is dimension-capped
    _gen_files(tmp_path)
    ident = _write(
        tmp_path,
        "idfull.map",
        serialize_map(identity_map(standard_simplex(2).complex), "full.txt", "full.txt"),
    )
    assert cli.main(["classify", ident, "--classes", "inner"]) == 2
    capsys.readouterr()


def test_cli_homcat_and_mapspace(tmp_path, capsys):
    horn, full, inc = _gen_files(tmp_path)
    assert cli.main(["homcat", full]) == 0
    capsys.readouterr()
    assert cli.main(["mapspace", full, "0", "2", "--up-to", "1"]) == 0
    out = capsys.readouterr().out
    assert "pi0_classes: 1" in out


def test_cli_equiv_edge_refutes_a_directed_edge(tmp_path, capsys):
    d1 = _write(tmp_path, "d1.txt", serialize_complex(standard_simplex(1).complex))
    assert cli.main(["equiv-edge", d1, "01"]) == 1
    capsys.readouterr()


def test_cli_saturate_and_descend(tmp_path, capsys):
    horn, full, inc = _gen_files(tmp_path)
    assert cli.main(["saturate", full, "--up-to", "3"]) == 0
    capsys.readouterr()
    ident = _write(
        tmp_path,
        "id.map",
        serialize_map(identity_map(horn_complex(2, 1).complex), "horn.txt", "horn.txt"),
    )
    assert cli.main(["--max-dim", "3", "--stages", "1", "descend-triangle", ident]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--node-budget", "--word-budget", "--stages"])
def test_cli_rejects_a_budget_that_is_not_positive(flag, tmp_path, capsys):
    _, full, _ = _gen_files(tmp_path)
    assert cli.main([flag, "0", "validate", full]) == 3
    assert "budgets must be positive" in capsys.readouterr().err


def test_cli_descend_triangle_honours_max_dim_zero(tmp_path, capsys):
    _gen_files(tmp_path)
    ident = _write(
        tmp_path,
        "id.map",
        serialize_map(identity_map(horn_complex(2, 1).complex), "horn.txt", "horn.txt"),
    )
    stages = {}
    for max_dim in ("0", "1", "3"):
        argv = ["--format", "structured", "--max-dim", max_dim, "descend-triangle", ident]
        assert cli.main(argv) == 0
        stages[max_dim] = json.loads(capsys.readouterr().out)["stages"]
    assert stages["3"] == [5, 7, 37]
    assert stages["0"] == stages["1"] == [5, 5, 5]


def test_cli_prefibrantize_and_descend_triangle_report_their_bound(tmp_path, capsys):
    _, full, _ = _gen_files(tmp_path)
    horn_id = _write(
        tmp_path,
        "id.map",
        serialize_map(identity_map(horn_complex(2, 1).complex), "horn.txt", "horn.txt"),
    )
    for argv, bound in (
        (["prefibrantize", full], 3),
        (["--max-dim", "4", "prefibrantize", full], 4),
        (["--stages", "1", "descend-triangle", horn_id], 3),
        (["--max-dim", "2", "--stages", "1", "descend-triangle", horn_id], 2),
    ):
        assert cli.main(["--format", "structured", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["bound"] == bound
    assert cli.main(["prefibrantize", full]) == 0
    assert capsys.readouterr().out.startswith("command: prefibrantize\nbound: 3\nstages: ")


def _fibration_maps(tmp_path, name):
    """(map, map file) for the identity of the walking isomorphism, the
    inclusion of its vertex x, or one edge missing a parallel one."""
    S, x, _ = build_walking_iso()
    pt = standard_simplex(0).complex
    f = {
        "identity": identity_map(S),
        "vertex": SimplicialMap(pt, S, {CellId(0, 0): Simplex(x)}),
        "missed-edge": parallel_edges_map(1, 2),
    }[name]
    _write(tmp_path, "src.txt", serialize_complex(f.source))
    _write(tmp_path, "tgt.txt", serialize_complex(f.target))
    return f, _write(tmp_path, "f.map", serialize_map(f, "src.txt", "tgt.txt"))


@pytest.mark.parametrize("name, code", [("identity", 2), ("vertex", 1)])
def test_cli_catfib_reports_the_library_verdicts(name, code, tmp_path, capsys):
    f, path = _fibration_maps(tmp_path, name)
    rep = check_categorical_fibration(f)
    assert cli.main(["--format", "structured", "catfib", path]) == code
    assert json.loads(capsys.readouterr().out) == {
        "format_version": 1,
        "command": "catfib",
        "verdict": rep.verdict,
        "inner": str(rep.inner),
        "isofibration": rep.isofibration.verdict,
        "bound": rep.bound,
    }


# the vertex inclusion is an equivalence; a yes is bounded, so it exits 2
@pytest.mark.parametrize("name, code", [("identity", 2), ("vertex", 2), ("missed-edge", 1)])
def test_cli_dk_check_reports_the_library_verdicts(name, code, tmp_path, capsys):
    f, path = _fibration_maps(tmp_path, name)
    rep = dwyer_kan_check(f)
    expected = {
        "format_version": 1,
        "command": "dk-check",
        "essentially_surjective": rep.essentially_surjective,
        "fully_faithful": rep.fully_faithful,
    }
    if rep.failing_pair:
        expected["failing_pair"] = [name_table(f.source)[c] for c in rep.failing_pair]
    assert cli.main(["--format", "structured", "dk-check", path]) == code
    assert json.loads(capsys.readouterr().out) == expected


def test_cli_two_of_three_exit_codes(tmp_path, capsys):
    sp = _write(tmp_path, "sp.txt", serialize_complex(spine_complex(3).complex))
    horn3 = _write(tmp_path, "h3.txt", serialize_complex(horn_complex(3, 1).complex))
    full3 = _write(tmp_path, "f3.txt", serialize_complex(standard_simplex(3).complex))
    u = serialize_map(
        generator_inclusion(spine_complex(3), horn_complex(3, 1)), "sp.txt", "h3.txt"
    )
    v = serialize_map(
        generator_inclusion(horn_complex(3, 1), standard_simplex(3)), "h3.txt", "f3.txt"
    )
    uf = _write(tmp_path, "u.map", u)
    vf = _write(tmp_path, "v.map", v)
    assert cli.main(["two-of-three", uf, vf]) == 0
    capsys.readouterr()
    # a starved search leaves the verdicts unknown: the invariants agree
    assert cli.main(["--format", "structured", "--node-budget", "1", "two-of-three", uf, vf]) == 2
    assert json.loads(capsys.readouterr().out)["u"] == "unknown"


def test_cli_two_of_three_alarm_exits_refuted(tmp_path, capsys, monkeypatch):
    # no pair of inclusions raises the alarm, so the report is stubbed
    _, _, inc = _gen_files(tmp_path)
    yes = ClassifierVerdict(INNER_ANODYNE)
    alarm = TwoOutOfThreeReport(yes, yes, ClassifierVerdict(NOT_INNER_ANODYNE), True)
    monkeypatch.setattr(certify, "check_two_out_of_three", lambda *args: alarm)
    assert cli.main(["--format", "structured", "two-of-three", inc, inc]) == 1
    assert json.loads(capsys.readouterr().out)["alarm"] is True


# -- the commands and options reached by no other test ---------------------------------


def _complex_file(tmp_path, name, X):
    return _write(tmp_path, name, serialize_complex(X))


def test_cli_op_writes_products_and_joins(tmp_path, capsys):
    d1 = _complex_file(tmp_path, "d1.txt", standard_simplex(1).complex)
    out = str(tmp_path / "p.txt")
    assert cli.main(["op", "product", d1, d1, "-o", out]) == 0
    X = standard_simplex(1).complex
    with open(out, encoding="utf-8") as fh:
        assert parse_complex(fh.read()) == product(X, X).complex
    assert cli.main(["op", "join", d1, d1]) == 0
    assert parse_complex(capsys.readouterr().out) == join(X, X).complex


@pytest.mark.parametrize("name, code", [("identity", 2), ("vertex", 1)])
def test_cli_isofib_reports_the_library_verdict(name, code, tmp_path, capsys):
    f, path = _fibration_maps(tmp_path, name)
    rep = check_isofibration(f)
    assert cli.main(["--format", "structured", "isofib", path]) == code
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == rep.verdict
    if rep.witness:
        assert set(report["witness"]) == {"base_edge", "stranded_vertex"}


def test_cli_prefibrantize_writes_each_stage(tmp_path, capsys):
    X = spine_complex(2).complex
    path = _complex_file(tmp_path, "sp.txt", X)
    prefix = str(tmp_path / "pre")
    trace = prefibrantize(X, 2)
    assert cli.main(["--format", "structured", "prefibrantize", path, "-o", prefix]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stages"] == [s.total_cells() for s in trace.stages]
    assert report["attachments"] == [len(a) for a in trace.attachments]
    for k, stage in enumerate(trace.stages):
        with open(f"{prefix}.stage{k}.txt", encoding="utf-8") as fh:
            assert parse_complex(fh.read()) == stage
    # without -o the last stage follows the report
    assert cli.main(["prefibrantize", path]) == 0
    assert capsys.readouterr().out.endswith(serialize_complex(trace.result))


def test_cli_prefibrantize_structured_output_is_one_object(tmp_path, capsys):
    # without -o the last stage is the report's result, and no stage
    # file is written
    X = spine_complex(2).complex
    path = _complex_file(tmp_path, "sp.txt", X)
    trace = prefibrantize(X, 2)
    assert cli.main(["--format", "structured", "prefibrantize", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "format_version": 1,
        "command": "prefibrantize",
        "bound": trace.bound,
        "stages": [s.total_cells() for s in trace.stages],
        "attachments": [len(a) for a in trace.attachments],
        "result": serialize_complex(trace.result),
    }
    assert parse_complex(report["result"]) == trace.result
    assert [f.name for f in tmp_path.iterdir()] == ["sp.txt"]


def test_cli_complete_and_saturate_write_their_complexes(tmp_path, capsys):
    path = _complex_file(tmp_path, "d1.txt", standard_simplex(1).complex)
    out = str(tmp_path / "c.txt")
    assert cli.main(["--format", "structured", "--stages", "1", "complete", path, "-o", out]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bound"] == 2
    with open(out, encoding="utf-8") as fh:
        assert parse_complex(fh.read()).total_cells() == report["stages"][-1]
    d2 = _complex_file(tmp_path, "d2.txt", standard_simplex(2).complex)
    assert cli.main(["saturate", d2, "--up-to", "3", "-o", out]) == 0
    capsys.readouterr()
    with open(out, encoding="utf-8") as fh:
        assert parse_complex(fh.read()) == saturate_prefibrant(standard_simplex(2).complex, 3).truncation


def test_cli_pathspace_reports_and_writes_the_space(tmp_path, capsys):
    ident = _identity_map_file(tmp_path)
    res = mapping_path_space(identity_map(standard_simplex(2).complex), 2)
    out = str(tmp_path / "q.txt")
    assert cli.main(["--format", "structured", "pathspace", ident, "--up-to", "2", "-o", out]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"format_version": 1, "command": "pathspace", "bound": 2, "cells": [3, 3, 1]}
    with open(out, encoding="utf-8") as fh:
        assert parse_complex(fh.read()) == res.space


def test_cli_lift_against_a_given_right_leg(tmp_path, capsys):
    horn, full, inc = _gen_files(tmp_path)
    ident = _write(
        tmp_path,
        "id.map",
        serialize_map(identity_map(standard_simplex(2).complex), "full.txt", "full.txt"),
    )
    argv = ["--format", "structured", "lift", "--along", inc, inc, "--p", ident]
    assert cli.main(argv) == 3
    assert "--p requires --v" in capsys.readouterr().err
    assert cli.main([*argv, "--v", ident]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "found"
    assert parse_map(report["lift"], lambda ref: standard_simplex(2).complex) == identity_map(
        standard_simplex(2).complex
    )


@pytest.mark.parametrize("given, missing", [("--p", "--v"), ("--v", "--p")])
def test_cli_lift_checks_the_right_leg_flags_before_reading_a_file(given, missing, tmp_path, capsys):
    # none of the files exists: the flag error comes before any read
    along, u, leg = (str(tmp_path / name) for name in ("i.map", "u.map", "leg.map"))
    assert cli.main(["lift", "--along", along, u, given, leg]) == 3
    assert capsys.readouterr().err == f"error: {given} requires {missing}\n"


@pytest.mark.parametrize("message", list(ill_posed_squares()))
def test_cli_lift_rejects_an_ill_posed_square(message, tmp_path, capsys):
    pt = standard_simplex(0).complex
    _complex_file(tmp_path, "pt.txt", pt)
    _complex_file(tmp_path, "d1.txt", standard_simplex(1).complex)
    P = ill_posed_squares()[message]

    def ref(X):
        return "pt.txt" if X == pt else "d1.txt"

    i, p, u, v = (
        _write(tmp_path, f"{leg}.map", serialize_map(m, ref(m.source), ref(m.target)))
        for leg, m in zip("ipuv", (P.i, P.p, P.u, P.v))
    )
    assert cli.main(["lift", "--along", i, u, "--p", p, "--v", v]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_cli_pathspace_checks_its_bound_before_enumerating(tmp_path, capsys):
    ident = _identity_map_file(tmp_path)
    assert cli.main(["--node-budget", "50", "pathspace", ident, "--up-to", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: truncation bound too small for the source complex\n"


def test_cli_lift_reports_an_invalid_lift_as_an_internal_fault(tmp_path, capsys, monkeypatch):
    # vertex 0 of Delta^1 over the point, with the solver stubbed to send
    # the edge to vertex 1
    _complex_file(tmp_path, "pt.txt", standard_simplex(0).complex)
    _complex_file(tmp_path, "d1.txt", standard_simplex(1).complex)
    vertex = generator_inclusion(standard_simplex(0), standard_simplex(1))
    along = _write(tmp_path, "v.map", serialize_map(vertex, "pt.txt", "d1.txt"))
    d1 = standard_simplex(1).complex
    bad = SimplicialMap(d1, d1, {c: Simplex(CellId(0, 1), (0,) * c.dim) for c in d1.all_cells()})
    monkeypatch.setattr(lifting, "enumerate_maps", lambda *args: iter([bad]))
    assert cli.main(["--format", "structured", "lift", "--along", along, along]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "format_version": 1,
        "command": "lift",
        "verdict": "error",
        "reason": "solver produced an invalid lift",
    }


def test_cli_lift_along_a_vertex_of_a_large_simplex(tmp_path, capsys):
    # the lift assigns 1,022 cells of Delta^9, past the recursion limit
    _complex_file(tmp_path, "pt.txt", standard_simplex(0).complex)
    _complex_file(tmp_path, "d9.txt", standard_simplex(9).complex)
    vertex = generator_inclusion(standard_simplex(0), standard_simplex(9))
    along = _write(tmp_path, "v.map", serialize_map(vertex, "pt.txt", "d9.txt"))
    u = _write(tmp_path, "u.map", serialize_map(identity_map(standard_simplex(0).complex), "pt.txt", "pt.txt"))
    assert cli.main(["--format", "structured", "lift", "--along", along, u]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "found"


def test_cli_descend_triangle_reports_a_failed_stage(tmp_path, capsys, monkeypatch):
    # every stage of a valid input passes both checks, so the library call
    # is stubbed to fail the way a broken stage would: an internal fault,
    # reported at exit 2 with verdict "error", never as a refutation
    _gen_files(tmp_path)
    ident = _write(
        tmp_path,
        "id.map",
        serialize_map(identity_map(horn_complex(2, 1).complex), "horn.txt", "horn.txt"),
    )

    def broken(*args):
        raise AssertionError("descent pullback check failed")

    monkeypatch.setattr(factorize, "descend_over_triangle", broken)
    assert cli.main(["--format", "structured", "descend-triangle", ident]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "format_version": 1,
        "command": "descend-triangle",
        "verdict": "error",
        "reason": "descent pullback check failed",
    }


@pytest.mark.parametrize("error", [RuntimeError, RecursionError])
def test_cli_reports_a_runtime_error_as_an_internal_fault(error, tmp_path, capsys, monkeypatch):
    path = _complex_file(tmp_path, "d1.txt", standard_simplex(1).complex)

    def broken(*args):
        raise error("internal fault")

    monkeypatch.setattr(factorize, "prefibrantize", broken)
    assert cli.main(["prefibrantize", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "command: prefibrantize\nverdict: error\nreason: internal fault\n"
    assert captured.err == ""


@pytest.mark.parametrize("argv", [
    ["--max-dim", "-1", "classify", "{map}"],
    ["mapspace", "{d2}", "0", "2", "--up-to", "-1"],
    ["saturate", "{d2}", "--up-to", "-3"],
    ["--max-dim", "-1", "complete", "{d2}"],
    ["--max-dim", "-2", "prefibrantize", "{d2}"],
    ["pathspace", "{map}", "--up-to", "-1"],
    ["dk-check", "{map}", "--dims", "-1"],
    ["--max-dim", "-1", "descend-triangle", "{map}"],
], ids=lambda argv: " ".join(a for a in argv if not a.startswith("{")))
def test_cli_rejects_a_negative_bound(argv, tmp_path, capsys):
    files = {"map": _identity_map_file(tmp_path), "d2": str(tmp_path / "full.txt")}
    assert cli.main([a.format(**files) for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bounds must not be negative" in captured.err


def test_cli_accepts_a_zero_bound(tmp_path, capsys):
    ident = _identity_map_file(tmp_path)
    full = str(tmp_path / "full.txt")
    assert cli.main(["--format", "structured", "--max-dim", "0", "classify", ident]) == 2
    assert json.loads(capsys.readouterr().out)["checked_dim"] == 0
    assert cli.main(["--format", "structured", "mapspace", full, "0", "2", "--up-to", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["levels"] == [1]


# -- the shared parser ----------------------------------------------------------------


def _identity_map_file(tmp_path):
    _gen_files(tmp_path)
    return _write(
        tmp_path,
        "idfull.map",
        serialize_map(identity_map(standard_simplex(2).complex), "full.txt", "full.txt"),
    )


def test_cli_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


def test_cli_call_after_a_bad_option_matches_a_first_call(tmp_path, capsys):
    ident = _identity_map_file(tmp_path)
    argv = ["classify", ident, "--classes", "inner,kan"]
    cli._build_parser.cache_clear()
    assert cli.main(argv) == 2
    first = capsys.readouterr()
    assert cli.main(["--no-such-option", "classify", ident]) == 3
    assert "unrecognized arguments" in capsys.readouterr().err
    assert cli.main(argv) == 2
    assert capsys.readouterr() == first


def test_cli_options_of_one_call_do_not_reach_the_next(tmp_path, capsys):
    ident = _identity_map_file(tmp_path)
    argv = ["--format", "structured", "--node-budget", "5", "classify", ident]
    assert cli.main([*argv, "--classes", "inner"]) == 2
    assert json.loads(capsys.readouterr().out)["inner"] == "Budget"
    # human format, the default budget and every class again
    assert cli.main(["classify", ident]) == 2
    out = capsys.readouterr().out
    assert out.startswith("command: classify\n")
    for name in ("inner", "left", "right", "kan", "trivial_kan"):
        assert f"{name}: YesUpTo(3)\n" in out


# -- malformed input files ------------------------------------------------------------

_MALFORMED = {
    "bad.txt": "dim 1\ncell a 0\ncell e 1 faces: a x\n",  # unknown face
    "bad.map": "map full.txt full.txt\nimage nosuch 0\n",  # unknown source cell
    "badref.map": "# a map between malformed complexes\nmap bad.txt bad.txt\n",
    "bad.cert": "class inner\nstep 2 1\n",  # a step needs a cell
}


_READERS = [
    ["validate", "{c}"],
    ["op", "product", "{c}", "{full}"],
    ["op", "join", "{full}", "{c}"],
    ["lift", "--along", "{m}", "{ok}"],
    ["lift", "--along", "{ok}", "{m}"],
    ["lift", "--along", "{ok}", "{ok}", "--p", "{m}", "--v", "{ok}"],
    ["lift", "--along", "{ok}", "{ok}", "--p", "{ok}", "--v", "{m}"],
    ["classify", "{m}"],
    ["homcat", "{c}"],
    ["equiv-edge", "{c}", "e"],
    ["isofib", "{m}"],
    ["catfib", "{m}"],
    ["dk-check", "{m}"],
    ["mapspace", "{c}", "a", "a"],
    ["certify", "{m}"],
    ["certify", "{ok}", "--verify", "{cert}"],
    ["two-of-three", "{m}", "{ok}"],
    ["two-of-three", "{ok}", "{m}"],
    ["prefibrantize", "{c}"],
    ["saturate", "{c}", "--up-to", "2"],
    ["complete", "{c}"],
    ["descend-triangle", "{m}"],
    ["pathspace", "{m}"],
]


@pytest.mark.parametrize("argv", [
    [a.replace("{m}", m) for a in argv]
    for argv in _READERS
    for m in (("{bad_map}", "{badref_map}") if "{m}" in argv else ("",))
], ids=lambda argv: " ".join(a.strip("{}") for a in argv))
@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_cli_malformed_file_is_an_input_error_naming_its_line(argv, fmt, tmp_path, capsys):
    for name, text in _MALFORMED.items():
        _write(tmp_path, name, text)
    ok = os.path.basename(_identity_map_file(tmp_path))
    files = {"c": "bad.txt", "bad_map": "bad.map", "badref_map": "badref.map",
             "cert": "bad.cert", "full": "full.txt", "ok": ok}
    files = {k: str(tmp_path / v) for k, v in files.items()}
    assert cli.main(["--format", fmt, *(a.format_map(files) for a in argv)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and re.fullmatch(r"error: line \d+: .+", lines[0])
