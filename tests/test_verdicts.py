"""One verdict type and one exit-code rule for every command, and every
command under a starved budget."""

import ast
import inspect
import json

import pytest

from sskit import certify, cli
from sskit.cli import exit_code
from sskit.core import (
    BUDGET,
    NO,
    UNKNOWN,
    YES,
    Simplex,
    Verdict,
    all_of,
    cosk0_complex,
    horn_complex,
    identity_map,
    spine_complex,
    standard_simplex,
    terminal_map,
)
from sskit.fileformat import serialize_complex, serialize_map
from sskit.homotopy import (
    check_categorical_fibration,
    check_isofibration,
    dwyer_kan_check,
    homotopy_category,
)
from sskit.lifting import classify_map, generator_inclusion, key_inclusion, solve_lift

from conftest import build_walking_iso, extension_problem


@pytest.mark.parametrize("value", [YES, NO, UNKNOWN, BUDGET])
@pytest.mark.parametrize("bound", [None, 0, 3])
def test_only_a_yes_with_no_bound_exits_0(value, bound):
    want = 0 if (value, bound) == (YES, None) else 1 if value == NO else 2
    assert exit_code(Verdict(value, bound)) == want


def test_all_of_is_the_first_no_else_yes_when_all_are_yes_else_unknown():
    yes, no, budget = Verdict(YES), Verdict(NO, 2, "w"), Verdict(BUDGET)
    assert all_of([yes, budget, no], 4) == Verdict(NO, 4, "w")
    assert all_of([yes, yes], 4) == Verdict(YES, 4)
    assert all_of([yes, budget], 4) == Verdict(UNKNOWN, 4)
    assert all_of([yes, yes]) == Verdict(YES)


def test_the_yes_of_classify_isofib_catfib_and_dk_check_carries_its_bound():
    """These checks search up to a dimension or a word budget, so their yes
    exits 2; the identity of the walking isomorphism passes each."""
    p = identity_map(build_walking_iso()[0])
    rep = classify_map(p, 3)
    assert [v.bound for v in rep.classes.values()] == [3] * 5
    assert (rep.verdict.value, rep.verdict.bound) == (YES, 3)
    assert check_isofibration(p, 5) == Verdict(YES, 5)
    assert check_categorical_fibration(p, 3).verdict == Verdict(YES, 3)
    assert dwyer_kan_check(p, 2).verdict == Verdict(YES, 2)
    for v in (rep.verdict, check_isofibration(p), check_categorical_fibration(p).verdict,
              dwyer_kan_check(p).verdict):
        assert exit_code(v) == 2


def test_the_unbounded_yeses_exit_0():
    """A lift, a certificate, an inverse edge and a consistent two-out-of-
    three pattern hold whatever the bounds."""
    i = key_inclusion((2, 1))
    S = build_walking_iso()[0]
    u = generator_inclusion(spine_complex(3), horn_complex(3, 1))
    v = generator_inclusion(horn_complex(3, 1), standard_simplex(3))
    for verdict in (
        solve_lift(extension_problem(i, i)),
        certify.search_certificate(i),
        homotopy_category(S).is_equivalence(Simplex(S.cells_by_name["f"])),
        certify.check_two_out_of_three(u, v).verdict,
    ):
        assert (verdict.value, verdict.bound, exit_code(verdict)) == (YES, None, 0)


def test_main_makes_the_only_call_to_exit_code_and_no_handler_returns_a_code():
    tree = ast.parse(inspect.getsource(cli))
    callers = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "exit_code"
    ]
    assert callers == ["main"]
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_"):
            returns = [n.value for n in ast.walk(fn) if isinstance(n, ast.Return) and n.value]
            assert not any(isinstance(r, ast.Constant) for r in returns), fn.name


# -- every command under a starved budget ----------------------------------------


def _write(tmp, name, text):
    (tmp / name).write_text(text)
    return str(tmp / name)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("starved")
    S = build_walking_iso()[0]
    pt, d1, d2 = (standard_simplex(n).complex for n in range(3))
    out = {
        name: _write(tmp, f"{name}.txt", serialize_complex(X))
        for name, X in (
            ("d1", d1),
            ("d2", d2),
            ("horn", horn_complex(2, 1).complex),
            ("pt", pt),
            ("cosk0", cosk0_complex(3, 2).complex),
            ("iso", S),
            ("sp3", spine_complex(3).complex),
            ("h3", horn_complex(3, 1).complex),
            ("d3", standard_simplex(3).complex),
        )
    }
    for name, f, ends in (
        ("inc", key_inclusion((2, 1)), ("horn.txt", "d2.txt")),
        ("d2-to-pt", terminal_map(d2, pt), ("d2.txt", "pt.txt")),
        ("horn-id", identity_map(horn_complex(2, 1).complex), ("horn.txt", "horn.txt")),
        ("iso-id", identity_map(S), ("iso.txt", "iso.txt")),
        ("cosk0-id", identity_map(cosk0_complex(3, 2).complex), ("cosk0.txt", "cosk0.txt")),
        ("d1-id", identity_map(d1), ("d1.txt", "d1.txt")),
        ("u", generator_inclusion(spine_complex(3), horn_complex(3, 1)), ("sp3.txt", "h3.txt")),
        ("v", generator_inclusion(horn_complex(3, 1), standard_simplex(3)), ("h3.txt", "d3.txt")),
    ):
        out[name] = _write(tmp, f"{name}.map", serialize_map(f, *ends))
    out["cert"] = _write(tmp, "good.cert", "class inner\nstep 2 1 012\n")
    return out


STARVED = [1, 2, 3, 5, 8, 13, 30, 100]
# the commands that build something rather than check it: out of nodes,
# main reports verdict "budget" at exit 2, as every check answers BUDGET
BUILDS = ("prefibrantize", "saturate", "complete", "descend-triangle", "pathspace")

COMMANDS = [
    pytest.param(argv, id=name)
    for name, argv in (
        ("validate", lambda f: ["validate", f["cosk0"]]),
        ("gen", lambda f: ["gen", "cosk0", "3", "2"]),
        ("op-product", lambda f: ["op", "product", f["d2"], f["cosk0"]]),
        ("op-join", lambda f: ["op", "join", f["d1"], f["d2"]]),
        ("lift", lambda f: ["lift", "--along", f["inc"], f["inc"]]),
        ("lift-over", lambda f: ["lift", "--along", f["inc"], f["inc"],
                                 "--p", f["d2-to-pt"], "--v", f["d2-to-pt"]]),
        ("classify", lambda f: ["classify", f["cosk0-id"]]),
        ("classify-nerve", lambda f: ["classify", f["inc"], "--classes", "inner,kan"]),
        ("homcat", lambda f: ["homcat", f["cosk0"]]),
        ("equiv-edge", lambda f: ["equiv-edge", f["iso"], "f"]),
        ("isofib", lambda f: ["isofib", f["iso-id"]]),
        ("catfib", lambda f: ["catfib", f["cosk0-id"]]),
        ("dk-check", lambda f: ["dk-check", f["iso-id"], "--dims", "2"]),
        ("mapspace", lambda f: ["mapspace", f["cosk0"], "0", "1", "--up-to", "2"]),
        ("certify", lambda f: ["certify", f["inc"]]),
        ("certify-verify", lambda f: ["certify", f["inc"], "--verify", f["cert"]]),
        ("two-of-three", lambda f: ["two-of-three", f["u"], f["v"]]),
        ("prefibrantize", lambda f: ["prefibrantize", f["cosk0"]]),
        ("saturate", lambda f: ["saturate", f["cosk0"], "--up-to", "3"]),
        ("complete", lambda f: ["complete", f["d1"]]),
        ("descend-triangle", lambda f: ["descend-triangle", f["horn-id"]]),
        ("pathspace", lambda f: ["pathspace", f["d1-id"], "--up-to", "1"]),
    )
]


@pytest.mark.parametrize("argv", COMMANDS)
def test_every_command_answers_a_starved_budget_with_an_exit_code(argv, files, capsys):
    for nodes in STARVED:
        for words in (1, 8):
            code = cli.main(["--node-budget", str(nodes), "--word-budget", str(words), *argv(files)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (nodes, words, code)
            assert "Traceback" not in err, (nodes, words)


@pytest.mark.parametrize("argv", [p for p in COMMANDS if p.id in BUILDS])
def test_a_starved_build_reports_budget_at_exit_2(argv, files, capsys):
    """One node is too few for each build; the node that runs over is
    counted in `used`."""
    for fmt in ("structured", "human"):
        code = cli.main(["--format", fmt, "--node-budget", "1", *argv(files)])
        out, err = capsys.readouterr()
        assert (code, err) == (2, "")
        if fmt == "structured":
            report = json.loads(out)
            assert report["verdict"] == "budget"
            assert (report["used"], report["limit"]) == (2, 1)
            assert set(report) == {"format_version", "command", "verdict", "used", "limit"}
        else:
            assert out.splitlines()[1:] == ["verdict: budget", "used: 2", "limit: 1"]
