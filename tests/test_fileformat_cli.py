"""Text formats and the command-line interface."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from sskit import cli
from sskit.certify import search_certificate, verify_certificate
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
from sskit.homotopy import check_categorical_fibration, dwyer_kan_check
from sskit.lifting import generator_inclusion, horn_inclusion, spine_inclusion

from conftest import build_walking_iso, parallel_edges_map, random_generator_complex


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
