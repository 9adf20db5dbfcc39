"""One benchmark process: generate a corpus, or answer one pass over it.

    python3 worker.py setup <workload> <seed> <corpus-dir> <result.json>
    python3 worker.py pass <corpus-dir> <result.json> [--trace <spans-file>]

A pass answers every query of the manifest in order, in this process and
on one thread, each through `sskit.cli.main` with stdout and stderr
captured; the next query starts when the previous one returns.  The
result file holds per-query latencies, exit codes and captured output,
and the process's peak resident memory.  The `sskit` package is imported
from `src/` of the checkout that holds this file.

Before each query, untimed, the worker collects garbage and freezes what
survives (`gc.freeze`), so the collections during a query scan only the
objects that query allocated, as in a fresh `sskit` process.  Without this
a query's time depended on the heap that earlier queries left behind,
which differs with each seed's query order.

A shared machine changes speed from second to second, so a fixed
calibration loop runs before the first query and after every query, and
each query records the mean time of the two loops around it; set-up
records the mean of a loop at its start and one at its end.  run.py scales
times by these.  The loop's dict holds only ints, so the garbage
collector never tracks it, and its time does not depend on the heap a
query leaves behind.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
CALIBRATION_LOOPS = 13_000


def calibrate() -> float:
    """Wall time of a fixed loop of dict and integer arithmetic work."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(CALIBRATION_LOOPS):
        key = i % 97 * 13 + i % 13
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - t0


def run_pass(corpus_dir: str, result_path: str, spans_path: str | None) -> None:
    import sskit.cli as cli

    with open(os.path.join(corpus_dir, "manifest.json"), encoding="utf-8") as fh:
        queries = json.load(fh)
    os.chdir(corpus_dir)
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    before = calibrate()
    try:
        for qid, q in enumerate(queries):
            out, err = io.StringIO(), io.StringIO()
            error = None
            if tracer:
                tracer.query_id = qid
            gc.collect()
            gc.freeze()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(q["argv"]))
                except Exception as e:  # a failed query is recorded, not fatal
                    code = None
                    error = {"type": type(e).__name__, "message": str(e),
                             "traceback": traceback.format_exc()}
            latency = time.perf_counter() - t0
            after = calibrate()
            records.append({"latency_s": latency, "calibration_s": (before + after) / 2,
                            "code": code, "stdout": out.getvalue(),
                            "stderr": err.getvalue(), "error": error})
            before = after
    finally:
        if tracer:
            tracer.uninstall()
    result = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "queries": records}
    if tracer:
        result["layers"] = tracer.metrics()
        tracer.write_spans(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 5:
        first = calibrate()
        import corpus

        corpus.generate(argv[1], int(argv[2]), argv[3])
        with open(argv[4], "w", encoding="utf-8") as fh:
            json.dump({"calibration_s": (first + calibrate()) / 2}, fh)
        return 0
    if argv[:1] == ["pass"] and (len(argv) == 3 or len(argv) == 5 and argv[3] == "--trace"):
        spans = os.path.abspath(argv[4]) if len(argv) == 5 else None
        run_pass(os.path.abspath(argv[1]), os.path.abspath(argv[2]), spans)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
