"""sskit benchmark: seeded CLI workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload rlp-enum --seed 1 --seconds 24 --trace 0

This docstring is the benchmark's method; README.md lists the workloads.

Set-up generates the workload's corpus from the seed (corpus.py) in a
fresh interpreter, SETUPS times; the corpora must be byte-identical.

A pass answers every query of the corpus in one fresh worker process
(worker.py): each query is `sskit.cli.main(["--format", "structured",
...])` with stdout and stderr captured, one at a time, the next starting
when the previous one returns (a closed loop with a single client, one
thread).  Passes repeat until `--seconds` have gone by, and at least
MIN_PASSES run.  Each pass starts with cold caches, so no query is served
by another query's work, and before each query, untimed, the worker
collects garbage and freezes what survives, so a query's collections scan
only its own objects.

Timings are wall times scaled to a reference machine speed, because a
shared 2-core machine was seen to drift by +-20% within a minute: a
query's time is its wall time x REFERENCE_CALIBRATION_S / the mean wall
time of the calibration loops run just before and after it in the same
process, and a set-up's time is scaled the same way by loops run at its
start and end.  Unscaled wall times are printed in the summary lines.

End-to-end metrics (`--trace 0`):
  batch_s          median over passes of the summed query times
  query_p50_ms     median over queries of each query's median time across passes
  query_p90_ms     90th percentile of the same
  decided_share    queries with a definite answer (not failed, not `budget`,
                   `unknown`, `Budget` or `exact: false`) over queries
  answered_share   queries that did not fail, over queries
  peak_rss_mb      peak resident memory of a pass process, median over passes
  setup_s          median time of one set-up: interpreter start, `import
                   sskit`, corpus generation and file writing
The shares are the complements of the failed and undecided shares, so that
they are never 0.  With `--trace 1` one more pass runs under the
outside-in tracer (tracer.py) and the per-layer metrics come from it
(their times are unscaled); `trace.overhead_ratio` compares its scaled
batch time with the untraced passes.

Every pass must give the same output; the last pass is checked (check.py)
against the expected-verdict table in `expected/` when the seed has one.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("rlp-enum", "kb-words", "construct")
SETUPS = 5
MIN_PASSES = 3
MAX_PASSES = 40
PROCESS_TIMEOUT_S = 120
REFERENCE_CALIBRATION_S = 0.0025  # the calibration loop at reference speed

END_TO_END = {
    "batch_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "decided_share": "ratio",
    "answered_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def worker(*args: str) -> float:
    """Run perfbench/worker.py in a fresh interpreter; return its wall time."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.setdefault("PYTHONHASHSEED", "0")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                   env=env, check=True, timeout=PROCESS_TIMEOUT_S)
    return time.perf_counter() - t0


def tree_digest(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        out = json.load(fh)
    os.remove(path)
    return out


def set_up(workload: str, seed: int, work: str) -> tuple[str, list[float], list[float]]:
    """Generate the corpus SETUPS times; return it with wall and scaled times."""
    walls, scaled, digests = [], [], set()
    result = os.path.join(work, "setup.json")
    for k in range(SETUPS):
        d = os.path.join(work, f"corpus{k}")
        walls.append(worker("setup", workload, str(seed), d, result))
        scaled.append(walls[-1] * REFERENCE_CALIBRATION_S / read_json(result)["calibration_s"])
        digests.add(tree_digest(d))
        if k:
            shutil.rmtree(os.path.join(work, f"corpus{k - 1}"))
    if len(digests) != 1:
        raise RuntimeError("the same seed gave different corpora")
    return os.path.join(work, f"corpus{SETUPS - 1}"), walls, scaled


def run_pass(corpus: str, work: str, n: int, trace: bool) -> dict:
    result = os.path.join(work, f"pass{n}.json")
    args = ["pass", corpus, result]
    if trace:
        args += ["--trace", os.path.join(work, "spans.jsonl")]
    worker(*args)
    return read_json(result)


def scaled_s(rec: dict) -> float:
    return rec["latency_s"] * REFERENCE_CALIBRATION_S / rec["calibration_s"]


def batch_s(result: dict) -> float:
    return sum(scaled_s(r) for r in result["queries"])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of the values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def load_expected(workload: str, seed: int) -> dict | None:
    path = os.path.join(HERE, "expected", f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(str(seed))


def outcome(result: dict) -> list[tuple]:
    return [(r["code"], r["stdout"], r["error"] and r["error"]["type"])
            for r in result["queries"]]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sskit", "cli.py")):
        print(f"error: no sskit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from check import Checker
    from tracer import METRICS

    work = os.path.join(HERE, "_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    corpus, setup_walls, setup_times = set_up(args.workload, args.seed, work)
    with open(os.path.join(corpus, "manifest.json"), encoding="utf-8") as fh:
        queries = json.load(fh)

    traced = run_pass(corpus, work, 0, True) if args.trace else None
    passes: list[dict] = []
    start = time.perf_counter()
    while len(passes) < MAX_PASSES and (
        len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds
    ):
        passes.append(run_pass(corpus, work, len(passes) + 1, False))

    checker = Checker(corpus, queries, load_expected(args.workload, args.seed))
    checker.check(passes[-1]["queries"])
    reference = outcome(passes[-1])
    for k, p in enumerate(passes + ([traced] if traced else [])):
        if outcome(p) != reference:
            checker.problems.append(f"pass {k} gave different output from the last pass")
    n = len(queries)
    batch = statistics.median(batch_s(p) for p in passes)
    if args.trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = batch_s(traced) / batch
        units = METRICS
    else:
        lat = [statistics.median(scaled_s(p["queries"][i]) for p in passes) * 1000
               for i in range(n)]
        metrics = {
            "batch_s": batch,
            "query_p50_ms": statistics.median(lat),
            "query_p90_ms": percentile(lat, 90),
            "decided_share": (n - checker.failed - checker.undecided) / n,
            "answered_share": (n - checker.failed) / n,
            "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in passes),
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END

    print(f"workload {args.workload}, seed {args.seed}: {n} queries x {len(passes)} passes"
          + (" + 1 traced pass" if traced else ""))
    wall = statistics.median(sum(r["latency_s"] for r in p["queries"]) for p in passes)
    walls = [statistics.median(p["queries"][i]["latency_s"] for p in passes) * 1000
             for i in range(n)]
    print(f"  unscaled: batch {wall:.6g} s, p50 {statistics.median(walls):.6g} ms, "
          f"p90 {percentile(walls, 90):.6g} ms, set-up {statistics.median(setup_walls):.6g} s")
    for line in checker.known:
        print(f"  known defect: {line}")
    for line in checker.newly_decided:
        print(f"  newly decided: {line}")
    for line in checker.newly_undecided:
        print(f"  newly undecided: {line}")
    for line in checker.problems:
        print(f"  PROBLEM: {line}")
    print(f"  output check: {'ok' if not checker.problems else 'FAILED'}"
          + ("" if checker.expected is not None else " (no expected-verdict table for this seed)"))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not checker.problems,
        "attempted": n * len(passes),
        "failed": checker.failed * len(passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
