"""Write the expected-verdict tables in perfbench/expected/.

    python3 perfbench/record_expected.py

For every workload and every shipped seed this generates the corpus,
answers it in two passes, requires both passes to agree and every replay
to pass, and stores each query's signature (see check.py).  Run it only at
a commit whose answers are trusted: the tables are what later runs are
checked against.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

SHIPPED_SEEDS = range(16)


def record(workload: str, seed: int, work: str) -> dict[str, str]:
    from check import Checker

    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    corpus = os.path.join(work, "corpus")
    run.worker("setup", workload, str(seed), corpus, os.path.join(work, "setup.json"))
    with open(os.path.join(corpus, "manifest.json"), encoding="utf-8") as fh:
        queries = json.load(fh)
    first, second = (run.run_pass(corpus, work, k, False) for k in (1, 2))
    if run.outcome(first) != run.outcome(second):
        raise RuntimeError(f"{workload} seed {seed}: passes disagree")
    checker = Checker(corpus, queries, None)
    checker.check(second["queries"])
    if checker.problems:
        raise RuntimeError(f"{workload} seed {seed}: " + "; ".join(checker.problems))
    shutil.rmtree(work)
    return checker.signatures


def main() -> int:
    if sys.argv[1:]:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    os.makedirs(os.path.join(run.HERE, "expected"), exist_ok=True)
    for workload in run.WORKLOADS:
        tables = {}
        for seed in SHIPPED_SEEDS:
            tables[str(seed)] = record(workload, seed, os.path.join(run.HERE, "_work", "record"))
            print(f"{workload} seed {seed}: {len(tables[str(seed)])} queries", flush=True)
        path = os.path.join(run.HERE, "expected", f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tables, fh, indent=0, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
