"""Compare what two checkouts of sskit answer on one benchmark corpus.

    python3 tools/same_outputs.py <parent-checkout> <change-checkout> \
        --workload W --seed S [--work DIR]

In each checkout it runs that checkout's `perfbench/worker.py setup` to
generate the seeded corpus and then `perfbench/worker.py pass` to answer
it, each in a fresh interpreter with `PYTHONHASHSEED=0`, as
`perfbench/run.py` does.  It only invokes the benchmark's files and
changes none of them; the corpora and results go to
`<work>/<workload>-seed<S>/{parent,change}` under a work directory
(`--work`, which is kept, or else a new temporary one, which is removed),
so runs of several workloads and seeds can share one work directory.

It reports every query whose exit code, stdout or stderr differs (or
that raised in one checkout), and every file of the corpus directory,
the files the queries wrote included, whose bytes differ or that only
one side has.  The changed output lines are also tallied across
queries, so a deliberate change of one report key shows as a few lines
with their counts.  Exit 0 when both sides agree byte for byte, 1 when
they do not, and 2 with one line on stderr when a worker exits non-zero
(naming the side and the step) or when the work directory already holds
a run of this workload and seed (naming that directory, which is left as
it is).
"""

from __future__ import annotations

import argparse
import collections
import difflib
import json
import os
import shutil
import subprocess
import sys
import tempfile


class WorkerFailed(Exception):
    """A checkout's worker exited non-zero; the message names the step."""


def run_side(checkout: str, workload: str, seed: int, work: str) -> tuple[str, dict]:
    """Generate and answer the corpus in one checkout; return the corpus
    directory and the pass result."""
    worker = os.path.join(os.path.abspath(checkout), "perfbench", "worker.py")
    corpus = os.path.join(work, "corpus")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)  # the worker imports sskit from its own checkout
    for args in (
        ["setup", workload, str(seed), corpus, os.path.join(work, "setup.json")],
        ["pass", corpus, os.path.join(work, "pass.json")],
    ):
        code = subprocess.run([sys.executable, worker, *args], env=env).returncode
        if code:
            raise WorkerFailed(f"{args[0]} exited {code}")
    with open(os.path.join(work, "pass.json"), encoding="utf-8") as fh:
        return corpus, json.load(fh)


def tree_bytes(root: str) -> dict[str, bytes]:
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def outcome(record: dict) -> dict:
    error = record["error"]
    return {
        "code": record["code"],
        "stdout": record["stdout"],
        "stderr": record["stderr"],
        "error": None if error is None else f"{error['type']}: {error['message']}",
    }


def compare(parent: tuple[str, dict], change: tuple[str, dict]) -> list[str]:
    """Lines describing every difference; empty when the sides agree."""
    report: list[str] = []
    (p_dir, p_res), (c_dir, c_res) = parent, change
    with open(os.path.join(p_dir, "manifest.json"), encoding="utf-8") as fh:
        queries = json.load(fh)
    tally: collections.Counter[str] = collections.Counter()
    p_q, c_q = p_res["queries"], c_res["queries"]
    if len(p_q) != len(c_q):
        report.append(f"query count differs: {len(p_q)} -> {len(c_q)}")
    for q, p_rec, c_rec in zip(queries, p_q, c_q):
        p_out, c_out = outcome(p_rec), outcome(c_rec)
        fields = [k for k in p_out if p_out[k] != c_out[k]]
        if not fields:
            continue
        report.append(f"{q['id']} ({' '.join(q['argv'])}): {', '.join(fields)} differ")
        for k in fields:
            if k == "code" or k == "error":
                report.append(f"  {k}: {p_out[k]!r} -> {c_out[k]!r}")
                continue
            for line in difflib.unified_diff(
                p_out[k].splitlines(), c_out[k].splitlines(), k, k, n=0, lineterm=""
            ):
                if line[:1] in "+-" and line[:3] not in ("---", "+++"):
                    tally[f"{k} {line}"] += 1
                    report.append(f"  {k} {line}")
    p_files, c_files = tree_bytes(p_dir), tree_bytes(c_dir)
    for name in sorted(p_files.keys() | c_files.keys()):
        if name not in c_files:
            report.append(f"file {name}: only in the parent's corpus")
        elif name not in p_files:
            report.append(f"file {name}: only in the change's corpus")
        elif p_files[name] != c_files[name]:
            report.append(f"file {name}: bytes differ")
    if tally:
        report.append("changed output lines, with the number of queries:")
        report += [f"  {n:4d}  {line}" for line, n in sorted(tally.items())]
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", help="directory for the corpora and results")
    args = ap.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="same-outputs-")
    run_work = os.path.join(work, f"{args.workload}-seed{args.seed}")
    try:
        try:
            os.makedirs(run_work)
        except FileExistsError:
            print(f"refused: {run_work} exists from an earlier run", file=sys.stderr)
            return 2
        sides = []
        for side, checkout in (("parent", args.parent), ("change", args.change)):
            side_work = os.path.join(run_work, side)
            os.makedirs(side_work)
            try:
                sides.append(run_side(checkout, args.workload, args.seed, side_work))
            except WorkerFailed as exc:
                print(f"failed: the {side} checkout's worker {exc}", file=sys.stderr)
                return 2
        report = compare(*sides)
    finally:
        if not args.work:
            shutil.rmtree(work)
    n = len(sides[0][1]["queries"])
    where = f"{args.workload} seed {args.seed}, {n} queries"
    if not report:
        print(f"identical: {where}, every exit code, stdout, stderr and file")
        return 0
    print(f"different: {where}")
    print("\n".join(report))
    return 1


if __name__ == "__main__":
    sys.exit(main())
