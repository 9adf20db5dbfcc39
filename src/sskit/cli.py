"""Command-line entry point.

A command that checks something returns its `Verdict`, and `exit_code`
is the one rule for every command: 0 = yes with no bound, 1 = no (with a
witness), 2 = anything else (a yes up to a bound, unknown, budget), or an
internal fault reported with verdict "error"; 3 = input error.  A command
that only builds something has no verdict and exits 0.  A search or build
that runs out of nodes reports verdict "budget" with the nodes used and
the limit, and exits 2.
Structured output (`--format structured`) is a single JSON object with a
`format_version` field.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys

from . import certify, factorize, homotopy, lifting
from .core import BUDGET, NO, UNKNOWN, YES, Verdict
from .core import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_WORD_BUDGET,
    GENERATORS,
    Budget,
    BudgetExceeded,
    Simplex,
    SimplicialSet,
    join,
    product,
    standard_simplex,
    terminal_map,
    hom_left,
)
from .fileformat import (
    name_table,
    parse_certificate,
    parse_complex,
    parse_map,
    serialize_certificate,
    serialize_complex,
    serialize_map,
)

FORMAT_VERSION = 1

INPUT_ERROR = 3

# how each printed vocabulary spells a verdict's value ({} is its bound)
_FOUND = {YES: "found", NO: "none", BUDGET: "budget"}
_RLP = {YES: "YesUpTo({})", NO: "No(witness)", BUDGET: "Budget"}
_ANODYNE = {YES: "inner-anodyne", NO: "not-inner-anodyne", UNKNOWN: "unknown"}


def exit_code(verdict: Verdict) -> int:
    """0 only for a yes that holds with no bound, 1 for a no, 2 otherwise."""
    if verdict.value == NO:
        return 1
    return 0 if verdict.value == YES and verdict.bound is None else 2


# the complexes one `main` call has loaded, by absolute path
_loaded: dict[str, SimplicialSet] = {}


def _load_complex(path: str):
    key = os.path.abspath(path)
    if key not in _loaded:
        with open(path, encoding="utf-8") as fh:
            _loaded[key] = parse_complex(fh.read())
    return _loaded[key]


def _load_map(path: str):
    base = os.path.dirname(os.path.abspath(path))

    def resolve(ref: str):
        return _load_complex(os.path.join(base, ref))

    with open(path, encoding="utf-8") as fh:
        return parse_map(fh.read(), resolve)


def _emit(report: dict, args: argparse.Namespace) -> None:
    out = sys.stdout
    if args.format == "structured":
        json.dump({"format_version": FORMAT_VERSION, **report}, out, indent=2)
        out.write("\n")
        return
    for key, value in report.items():
        if isinstance(value, str) and "\n" in value:
            out.write(f"{key}:\n{value}")
            if not value.endswith("\n"):
                out.write("\n")
        else:
            out.write(f"{key}: {value}\n")


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- verb handlers ----------------------------------------------------------------


def _cmd_validate(args):
    X = _load_complex(args.file)
    _emit({"command": "validate", "verdict": "ok", "cells": X.total_cells()}, args)


def _cmd_gen(args):
    kind, ps = args.kind, args.params
    make = GENERATORS[kind]
    arity = len(inspect.signature(make).parameters)
    try:
        if len(ps) != arity:
            raise ValueError(f"takes {arity} parameters")
        G = make(*(int(p) for p in ps))
    except ValueError as e:
        raise ValueError(f"gen {kind}: bad parameters {ps} ({e})") from None
    _write_or_print(serialize_complex(G.complex), args.output)


def _cmd_op(args):
    X = _load_complex(args.a)
    Y = _load_complex(args.b)
    if args.name == "product":
        Z = product(X, Y).complex
    else:
        Z = join(X, Y).complex
    _write_or_print(serialize_complex(Z), args.output)


def _cmd_lift(args):
    if bool(args.p) != bool(args.v):
        raise ValueError("--p requires --v" if args.p else "--v requires --p")
    i = _load_map(args.along)
    u = _load_map(args.map)
    if args.p:
        p, v = _load_map(args.p), _load_map(args.v)
    else:
        pt = standard_simplex(0).complex
        p = terminal_map(u.target, pt)
        v = terminal_map(i.target, pt)
    P = lifting.LiftingProblem(i, p, u, v)
    r = lifting.solve_lift(P, args.node_budget)
    report = {"command": "lift", "status": _FOUND[r.value]}
    if r.value == YES:
        report["lift"] = serialize_map(r.witness, "<target-of-i>", "<source-of-p>")
    elif r.value == NO:
        report["witness_u"] = serialize_map(u, "<source-of-i>", "<source-of-p>")
        report["witness_v"] = serialize_map(v, "<target-of-i>", "<target-of-p>")
    _emit(report, args)
    return r


def _cmd_classify(args):
    p = _load_map(args.map)
    classes = tuple(args.classes.split(",")) if args.classes else lifting.FIBRATION_CLASSES
    rep = lifting.classify_map(p, args.max_dim, args.node_budget, classes)
    verdicts = {k: _RLP[v.value].format(v.bound) for k, v in rep.classes.items()}
    _emit(
        {
            "command": "classify",
            "mono": rep.mono,
            "vertex_bijective": rep.vertex_bijective,
            "checked_dim": rep.checked_dim,
            **verdicts,
        },
        args,
    )
    return rep.verdict


def _cmd_homcat(args):
    X = _load_complex(args.file)
    h = homotopy.homotopy_category(X, args.word_budget)
    names = name_table(X)
    report = {
        "command": "homcat",
        "objects": [names[o] for o in h.objects],
        "generators": {
            names[e]: [names[s], names[t]] for e, (s, t) in h.edges.items()
        },
        "relations": len(h.relations),
        "rules": len(h.rules),
        "confluent": h.confluent,
        "exact": h.exact,
    }
    _emit(report, args)
    return Verdict(YES if h.exact else UNKNOWN)


def _cmd_equiv_edge(args):
    X = _load_complex(args.file)
    e = X.cell_by_label(args.edge)
    if e is None or e.dim != 1:
        raise ValueError(f"no edge named {args.edge!r}")
    v = homotopy.homotopy_category(X, args.word_budget).is_equivalence(Simplex(e))
    _emit({"command": "equiv-edge", "verdict": v.value}, args)
    return v


def _cmd_isofib(args):
    p = _load_map(args.map)
    v = homotopy.check_isofibration(p, args.word_budget)
    report = {"command": "isofib", "verdict": v.value}
    if v.witness:
        f, x = v.witness
        report["witness"] = {
            "base_edge": name_table(p.target)[f],
            "stranded_vertex": name_table(p.source)[x],
        }
    _emit(report, args)
    return v


def _cmd_catfib(args):
    p = _load_map(args.map)
    rep = homotopy.check_categorical_fibration(
        p, args.max_dim, args.node_budget, args.word_budget
    )
    v = rep.verdict
    _emit(
        {
            "command": "catfib",
            "verdict": v.value,
            "inner": _RLP[rep.inner.value].format(rep.inner.bound),
            "isofibration": rep.isofibration.value,
            "bound": v.bound,
        },
        args,
    )
    return v


def _cmd_dk_check(args):
    f = _load_map(args.map)
    rep = homotopy.dwyer_kan_check(f, args.dims, args.word_budget)
    ff = rep.fully_faithful
    report = {
        "command": "dk-check",
        "essentially_surjective": rep.essentially_surjective.value,
        "fully_faithful": ff.value,
    }
    if ff.witness:
        names = name_table(f.source)
        report["failing_pair"] = [names[c] for c in ff.witness]
    _emit(report, args)
    return rep.verdict


def _cmd_mapspace(args):
    X = _load_complex(args.file)
    x = X.cell_by_label(args.x)
    y = X.cell_by_label(args.y)
    if x is None or x.dim != 0 or y is None or y.dim != 0:
        raise ValueError("mapspace takes two vertex names")
    hs = hom_left(X, x, y, args.up_to)
    _emit(
        {
            "command": "mapspace",
            "truncation": args.up_to,
            "levels": [len(lv) for lv in hs.levels],
            "pi0_classes": len(homotopy.pi0(hs)),
        },
        args,
    )


def _cmd_certify(args):
    i = _load_map(args.map)
    if args.verify:
        with open(args.verify, encoding="utf-8") as fh:
            cert = parse_certificate(fh.read(), i.target)
        ok = certify.verify_certificate(cert, i)
        _emit({"command": "certify", "verified": ok}, args)
        return Verdict(YES if ok else NO)
    r = certify.search_certificate(i, args.family, args.node_budget)
    report = {"command": "certify", "class": args.family, "status": _FOUND[r.value]}
    if r.value == YES:
        report["certificate"] = serialize_certificate(r.witness, i.target)
    elif r.witness is not None:
        report["unmatched"] = name_table(i.target)[r.witness]
    _emit(report, args)
    return r


def _cmd_two_of_three(args):
    u = _load_map(args.u)
    v = _load_map(args.v)
    rep = certify.check_two_out_of_three(u, v, args.node_budget, args.word_budget)
    _emit(
        {
            "command": "two-of-three",
            "u": _ANODYNE[rep.u.verdict.value],
            "v": _ANODYNE[rep.v.verdict.value],
            "vu": _ANODYNE[rep.vu.verdict.value],
            "alarm": rep.alarm,
        },
        args,
    )
    return rep.verdict


def _cmd_prefibrantize(args):
    X = _load_complex(args.file)
    trace = factorize.prefibrantize(X, args.stages, args.max_dim, args.node_budget)
    report = {
        "command": "prefibrantize",
        "bound": trace.bound,
        "stages": [s.total_cells() for s in trace.stages],
        "attachments": [len(a) for a in trace.attachments],
    }
    if args.output:
        for k, stage in enumerate(trace.stages):
            _write_or_print(serialize_complex(stage), f"{args.output}.stage{k}.txt")
    else:
        report["result"] = serialize_complex(trace.result)
    _emit(report, args)


def _cmd_saturate(args):
    X = _load_complex(args.file)
    res = factorize.saturate_prefibrant(X, args.up_to, args.node_budget)
    _emit(
        {
            "command": "saturate",
            "bound": res.bound,
            "steps": len(res.steps),
            "cells": res.truncation.total_cells(),
            "p2_violations": len(res.p2_violations),
            "hom_levels_equal": res.hom_levels_equal,
        },
        args,
    )
    if args.output:
        _write_or_print(serialize_complex(res.truncation), args.output)
    return Verdict(NO if res.p2_violations or not res.hom_levels_equal else YES)


def _cmd_complete(args):
    X = _load_complex(args.file)
    bound = args.max_dim if args.max_dim is not None else max(X.dim, 0) + 1
    cur = X
    sizes = [X.total_cells()]
    budget = Budget.of(args.node_budget)
    for _ in range(args.stages):
        keys = lifting.family_keys("inner", bound)
        cur, _inc, _atts = factorize.soa_stage(cur, keys, lambda k, a: True, budget)
        sizes.append(cur.total_cells())
    _emit({"command": "complete", "stages": sizes, "bound": bound}, args)
    if args.output:
        _write_or_print(serialize_complex(cur), args.output)


def _cmd_descend_triangle(args):
    p = _load_map(args.map)
    res = factorize.descend_over_triangle(
        p, args.stages, 3 if args.max_dim is None else args.max_dim, args.node_budget
    )
    _emit(
        {
            "command": "descend-triangle",
            "bound": res.bound,
            "verdict": "ok",
            "stages": [s.total_cells() for s in res.stages],
        },
        args,
    )


def _cmd_pathspace(args):
    f = _load_map(args.map)
    res = factorize.mapping_path_space(f, args.up_to, args.node_budget, args.word_budget)
    _emit(
        {
            "command": "pathspace",
            "bound": res.bound,
            "cells": [res.space.n_cells(d) for d in range(res.space.dim + 1)],
        },
        args,
    )
    if args.output:
        _write_or_print(serialize_complex(res.space), args.output)


# -- argument parsing ---------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every `main`
    call in the process (parsing leaves it unchanged)."""
    top = argparse.ArgumentParser(prog="sskit")
    top.add_argument("--format", choices=("human", "structured"), default="human")
    top.add_argument("--max-dim", type=int, default=None)
    top.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    top.add_argument("--word-budget", type=int, default=DEFAULT_WORD_BUDGET)
    top.add_argument("--stages", type=int, default=2)
    sub = top.add_subparsers(dest="command")

    p = sub.add_parser("validate")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("gen")
    p.add_argument("kind", choices=tuple(GENERATORS))
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("op")
    p.add_argument("name", choices=("product", "join"))
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_op)

    p = sub.add_parser("lift")
    p.add_argument("--along", required=True, help="map file for the inclusion i")
    p.add_argument("map", help="map file for u against i")
    p.add_argument("--p", help="map file for the right leg")
    p.add_argument("--v", help="map file for the bottom of the square")
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("classify")
    p.add_argument("map")
    p.add_argument("--classes", help="comma-separated fibration classes")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("homcat")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_homcat)

    p = sub.add_parser("equiv-edge")
    p.add_argument("file")
    p.add_argument("edge")
    p.set_defaults(fn=_cmd_equiv_edge)

    p = sub.add_parser("isofib")
    p.add_argument("map")
    p.set_defaults(fn=_cmd_isofib)

    p = sub.add_parser("catfib")
    p.add_argument("map")
    p.set_defaults(fn=_cmd_catfib)

    p = sub.add_parser("dk-check")
    p.add_argument("map")
    p.add_argument("--dims", type=int, default=1)
    p.set_defaults(fn=_cmd_dk_check)

    p = sub.add_parser("mapspace")
    p.add_argument("file")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--up-to", type=int, default=1)
    p.set_defaults(fn=_cmd_mapspace)

    p = sub.add_parser("certify")
    p.add_argument("map")
    p.add_argument("--class", dest="family", default="inner",
                   choices=tuple(lifting.HORN_RANGES))
    p.add_argument("--verify", help="verify this certificate file instead of searching")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("two-of-three")
    p.add_argument("u")
    p.add_argument("v")
    p.set_defaults(fn=_cmd_two_of_three)

    p = sub.add_parser("prefibrantize")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="prefix for per-stage output files")
    p.set_defaults(fn=_cmd_prefibrantize)

    p = sub.add_parser("saturate")
    p.add_argument("file")
    p.add_argument("--up-to", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_saturate)

    p = sub.add_parser("complete")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_complete)

    p = sub.add_parser("descend-triangle")
    p.add_argument("map")
    p.set_defaults(fn=_cmd_descend_triangle)

    p = sub.add_parser("pathspace")
    p.add_argument("map")
    p.add_argument("--up-to", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_pathspace)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return INPUT_ERROR if e.code not in (0, None) else 0
    if not getattr(args, "fn", None):
        parser.print_usage(sys.stderr)
        return INPUT_ERROR
    try:
        if min(args.node_budget, args.word_budget, args.stages) <= 0:
            raise ValueError("budgets must be positive")
        bounds = (args.max_dim, getattr(args, "up_to", None), getattr(args, "dims", None))
        if any(b is not None and b < 0 for b in bounds):
            raise ValueError("bounds must not be negative")
        verdict = args.fn(args)
    except (ValueError, OSError) as e:  # ParseError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR
    except BudgetExceeded as e:  # a build ran out of nodes: neither yes nor no
        _emit({"command": args.command, "verdict": "budget", "used": e.used,
               "limit": e.limit}, args)
        verdict = Verdict(BUDGET, witness=str(e))
    except (AssertionError, RuntimeError) as e:  # an internal fault, never a verdict
        _emit({"command": args.command, "verdict": "error", "reason": str(e)}, args)
        verdict = Verdict(UNKNOWN, witness=str(e))
    finally:
        _loaded.clear()
    return 0 if verdict is None else exit_code(verdict)


if __name__ == "__main__":
    sys.exit(main())
