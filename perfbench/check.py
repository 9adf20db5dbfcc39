"""Output checker: verdict classes, replays, and failure accounting.

A query *fails* when an exception escapes `main`, a traceback reaches
stderr, the exit code is outside {0, 1, 2, 3}, or the exit code is 3 (every
generated input is valid).  Failures of the two kinds known at the commit
that introduced this benchmark are *known defects*: `BudgetExceeded`
escaping `main`, and `pathspace` exiting 3 with "element not found" (the
`SimplicialSet.restrict` face-index bug).  They are counted as failed but
do not make the run incorrect.  Any other failure, a definite verdict that
differs from the expected-verdict table, or a returned lift or certificate
that does not replay, makes the run incorrect; a flipped definite verdict
also counts as failed.

Each answered query gets a signature: its verdict class plus the counts
that a correct answer fixes.  A leading `?` marks an undecided answer
(`budget`, `unknown`, `Budget`, or `exact: false`); `!` marks a failure.
A query that moves between failed, undecided and definite is accepted and
listed as newly decided or newly undecided; `decided_share` and
`answered_share` judge such moves, not `correct`.
"""

from __future__ import annotations

import json
import os

from sskit import certify
from sskit.core import compose, standard_simplex, terminal_map
from sskit.fileformat import ParseError, name_table, parse_complex, parse_map

OK_CODES = (0, 1, 2, 3)


def rank(sig: str) -> int:
    """0 for a failure, 1 for an undecided answer, 2 for a definite one."""
    return {"!": 0, "?": 1}.get(sig[0], 2)


def failure(rec: dict) -> str | None:
    """The failure category of a query record, or None if it answered."""
    if rec["error"]:
        return "exception:" + rec["error"]["type"]
    if "Traceback (most recent call last)" in rec["stderr"]:
        return "traceback"
    if rec["code"] not in OK_CODES:
        return f"exit:{rec['code']}"
    if rec["code"] == 3:
        return "exit:3"
    return None


def known_defect(query: dict, rec: dict, kind: str) -> bool:
    if kind == "exception:BudgetExceeded":
        return True
    return (kind == "exit:3" and query["command"] == "pathspace"
            and "element not found at level" in rec["stderr"])


class Checker:
    """Checks one pass of a corpus against expectations and replays."""

    def __init__(self, corpus_dir: str, queries: list[dict], expected: dict | None) -> None:
        self.dir = corpus_dir
        self.queries = queries
        self.expected = expected
        self.signatures: dict[str, str] = {}
        self.problems: list[str] = []  # make the run incorrect
        self.known: list[str] = []  # known-defect failures
        self.newly_decided: list[str] = []
        self.newly_undecided: list[str] = []
        self.failed = 0
        self.undecided = 0

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def load_map(self, name: str):
        base = os.path.dirname(self.path(name))

        def resolve(ref):
            with open(os.path.join(base, ref), encoding="utf-8") as fh:
                return parse_complex(fh.read())

        with open(self.path(name), encoding="utf-8") as fh:
            return parse_map(fh.read(), resolve)

    def check(self, records: list[dict]) -> None:
        for q, rec in zip(self.queries, records):
            qid = q["id"]
            kind = failure(rec)
            if kind is not None:
                self.failed += 1
                sig = "!" + kind
                if known_defect(q, rec, kind):
                    self.known.append(f"{qid} {q['command']}: {kind}")
                else:
                    detail = (rec["error"] or {}).get("message") or rec["stderr"].strip()
                    self.problems.append(f"{qid} {q['command']} failed: {kind} {detail[:200]}")
            else:
                try:
                    sig = self.signature(q, rec)
                except (ParseError, ValueError, KeyError, OSError, AssertionError) as e:
                    self.failed += 1
                    sig = "!replay"
                    self.problems.append(f"{qid} {q['command']}: replay failed: {e}")
                if sig.startswith("?"):
                    self.undecided += 1
            self.signatures[qid] = sig
            self.compare(qid, q["command"], sig)

    def compare(self, qid: str, command: str, sig: str) -> None:
        if self.expected is None:
            return
        want = self.expected.get(qid)
        if want is None:
            self.problems.append(f"{qid}: no expected verdict")
            return
        a, b = rank(want), rank(sig)
        if sig == want or a == b < 2:
            return
        if a == b:
            self.failed += 1
            self.problems.append(f"{qid} {command}: verdict {want} -> {sig}")
        else:
            changed = self.newly_decided if b > a else self.newly_undecided
            changed.append(f"{qid} {command}: {want} -> {sig}")

    # -- signatures and replays ----------------------------------------------------

    def signature(self, q: dict, rec: dict) -> str:
        cmd = q["command"]
        report = json.loads(rec["stdout"]) if rec["stdout"].strip() else {}
        if cmd == "lift":
            if report["status"] == "found":
                self.replay_lift(q, report["lift"])
            return ("?" if report["status"] == "budget" else "") + report["status"]
        if cmd == "classify":
            classes = [c for c in report if c not in (
                "format_version", "command", "mono", "vertex_bijective", "checked_dim")]
            verdicts = ",".join(f"{c}={report[c]}" for c in classes)
            undecided = any(report[c] == "Budget" for c in classes)
            return ("?" if undecided else "") + verdicts
        if cmd == "homcat":
            shape = f"objects={len(report['objects'])},generators={len(report['generators'])}"
            return ("exact," if report["exact"] else "?inexact,") + shape
        if cmd in ("equiv-edge", "isofib"):
            return ("?" if report["verdict"] == "unknown" else "") + report["verdict"]
        if cmd == "certify":
            if report["status"] == "found":
                self.replay_certificate(q, report)
            return ("?" if report["status"] == "budget" else "") + report["status"]
        if cmd == "op":
            return "cells=" + ",".join(map(str, self.output_counts(q["files"]["output"])))
        if cmd == "prefibrantize":
            return f"stages={report['stages']},attachments={report['attachments']}"
        if cmd == "complete":
            self.output_counts(q["files"]["output"])
            return f"stages={report['stages']}"
        if cmd == "mapspace":
            return f"levels={report['levels']},pi0={report['pi0_classes']}"
        if cmd == "pathspace":
            self.output_counts(q["files"]["output"])
            return f"cells={report['cells']}"
        if cmd == "saturate":
            self.output_counts(q["files"]["output"])
            return (f"steps={report['steps']},cells={report['cells']},"
                    f"p2={report['p2_violations']},levels={report['hom_levels_equal']}")
        raise ValueError(f"no signature for command {cmd!r}")

    def output_counts(self, name: str) -> tuple[int, ...]:
        with open(self.path(name), encoding="utf-8") as fh:
            return parse_complex(fh.read()).cell_counts()

    def replay_lift(self, q: dict, text: str) -> None:
        i = self.load_map(q["files"]["along"])
        u = self.load_map(q["files"]["map"])
        refs = {"<target-of-i>": i.target, "<source-of-p>": u.target}
        lift = parse_map(text, refs.__getitem__)  # parse_map runs check()
        pt = standard_simplex(0).complex
        p, v = terminal_map(u.target, pt), terminal_map(i.target, pt)
        if compose(i, lift) != u or compose(lift, p) != v:
            raise AssertionError("the returned lift does not fill the square")

    def replay_certificate(self, q: dict, report: dict) -> None:
        i = self.load_map(q["files"]["map"])
        cells = {name: c for c, name in name_table(i.target).items()}
        lines = report["certificate"].split("\n")
        family = lines[0].split()[1]
        steps = [(int(n), int(h), cells[c]) for _, n, h, c in
                 (line.split() for line in lines[1:] if line.strip())]
        if family != report["class"]:
            raise AssertionError(f"certificate class {family} != {report['class']}")
        if not certify.verify_certificate(certify.AnodyneCertificate(family, steps), i):
            raise AssertionError("the returned certificate does not replay")
