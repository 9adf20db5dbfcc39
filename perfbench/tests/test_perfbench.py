"""Self-tests of the benchmark: corpora, tracer, checker and metric names.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import json
import os

import pytest

import check
import corpus
import run
import tracer
from sskit.core import (
    Budget,
    horn_complex,
    product,
    standard_simplex,
)
from sskit.fileformat import parse_complex

ROOT = os.path.dirname(run.HERE)


def subset(tmp_path, workload, seed=1, per_class=1, keep=None):
    """Generate a corpus and keep the first `per_class` queries of each class."""
    root = str(tmp_path / f"{workload}-{seed}")
    gen = corpus.generate(workload, seed, root)
    seen = {}
    chosen = []
    for q in gen.queries:
        if keep is not None and not keep(q):
            continue
        seen[q["class"]] = seen.get(q["class"], 0) + 1
        if seen[q["class"]] <= per_class:
            chosen.append(q)
    with open(os.path.join(root, corpus.MANIFEST), "w", encoding="utf-8") as fh:
        json.dump(chosen, fh)
    return root, chosen


def answer(tmp_path, root, trace=False):
    work = str(tmp_path / "work")
    os.makedirs(work, exist_ok=True)
    return run.run_pass(root, work, 0, trace)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_a_byte_identical_corpus(tmp_path, workload):
    a = corpus.generate(workload, 3, str(tmp_path / "a"))
    corpus.generate(workload, 3, str(tmp_path / "b"))
    assert run.tree_digest(str(tmp_path / "a")) == run.tree_digest(str(tmp_path / "b"))
    assert len(a.queries) >= 100
    other = corpus.generate(workload, 4, str(tmp_path / "c"))
    assert run.tree_digest(str(tmp_path / "a")) != run.tree_digest(str(tmp_path / "c"))
    assert [q["class"] for q in sorted(a.queries, key=lambda q: q["class"])] == [
        q["class"] for q in sorted(other.queries, key=lambda q: q["class"])]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_no_subject_complex_repeats(tmp_path, workload):
    root = str(tmp_path / "c")
    gen = corpus.generate(workload, 1, root)
    shared = set(gen._shared.values())
    keys = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".txt") and name not in shared:
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                keys.append(corpus.structure_key(parse_complex(fh.read())))
    assert len(keys) == len(set(keys))


def test_generation_runs_no_search(tmp_path):
    t = tracer.Tracer()
    t.install()
    try:
        for workload in run.WORKLOADS:
            corpus.generate(workload, 1, str(tmp_path / workload))
    finally:
        t.uninstall()
    m = t.metrics()
    assert t.node_total == 0
    assert m["core.enumerate_maps.calls"] == 0
    assert m["lifting.squares"] == m["certify.search.calls"] == 0
    assert m["homotopy.normal_form.calls"] == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_each_workload(tmp_path, workload):
    root, chosen = subset(tmp_path, workload)
    result = answer(tmp_path, root)
    checker = check.Checker(root, chosen, None)
    checker.check(result["queries"])
    assert checker.problems == []
    assert len(checker.signatures) == len(chosen)


def test_known_defects_fail_without_making_the_run_incorrect(tmp_path):
    root, chosen = subset(tmp_path, "construct", per_class=2,
                          keep=lambda q: q["command"] in ("pathspace", "prefibrantize"))
    checker = check.Checker(root, chosen, None)
    checker.check(answer(tmp_path, root)["queries"])
    assert checker.problems == []
    assert checker.failed == len(checker.known) > 0


def test_checker_rejects_a_forged_lift_and_a_flipped_verdict(tmp_path):
    root, chosen = subset(tmp_path, "rlp-enum", keep=lambda q: q["command"] == "lift")
    records = answer(tmp_path, root)["queries"]
    found = [k for k, r in enumerate(records) if json.loads(r["stdout"])["status"] == "found"]
    assert found
    honest = check.Checker(root, chosen, None)
    honest.check(records)
    assert honest.problems == []

    k = found[0]
    report = json.loads(records[k]["stdout"])
    lines = report["lift"].splitlines()
    targets = sorted({ln.split()[2] for ln in lines[1:]})
    victim = next(i for i, ln in enumerate(lines[1:], 1) if ln.split()[2] != targets[0])
    lines[victim] = " ".join(lines[victim].split()[:2] + [targets[0]])
    report["lift"] = "\n".join(lines) + "\n"
    forged = [dict(r) for r in records]
    forged[k]["stdout"] = json.dumps(report)
    checker = check.Checker(root, chosen, None)
    checker.check(forged)
    assert len(checker.problems) == 1

    flipped = dict(honest.signatures)
    flipped[chosen[k]["id"]] = "none"
    checker = check.Checker(root, chosen, flipped)
    checker.check(records)
    assert any("verdict" in p for p in checker.problems)


def test_checker_lists_a_definite_verdict_that_becomes_undecided(tmp_path):
    root = str(tmp_path / "c")
    q = next(q for q in corpus.generate("rlp-enum", 1, root).queries if q["command"] == "lift")
    budget = {"error": None, "stderr": "", "code": 2, "stdout": json.dumps({"status": "budget"})}
    checker = check.Checker(root, [q], {q["id"]: "found"})
    checker.check([budget])
    assert checker.problems == []
    assert (checker.failed, checker.undecided) == (0, 1)
    assert checker.newly_undecided == [f"{q['id']} lift: found -> ?budget"]


def counts(metrics):
    return {k: v for k, v in metrics.items() if tracer.METRICS[k] != "s"}


def test_traced_counts_repeat_across_runs_and_hash_seeds(tmp_path, monkeypatch):
    root, _ = subset(tmp_path, "construct", per_class=1)
    seen = []
    for hash_seed in ("0", "0", "4242"):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        seen.append(counts(answer(tmp_path, root, trace=True)["layers"]))
    assert seen[0] == seen[1] == seen[2]
    assert seen[0]["core.face.calls"] > 0 and seen[0]["certify.search.calls"] > 0


@pytest.mark.parametrize("source, maps, nodes", [
    (lambda: horn_complex(4, 2).complex, 441, 147_664),
    (lambda: standard_simplex(3).complex, 225, 15_731),
])
def test_tracer_nodes_equal_budget_used(source, maps, nodes):
    import sskit.core as core

    target = product(standard_simplex(2).complex, standard_simplex(2).complex).complex
    t = tracer.Tracer()
    budget = Budget(10**7)
    t.install()
    try:
        found = sum(1 for _ in core.enumerate_maps(source(), target, budget=budget))
    finally:
        t.uninstall()
    assert not hasattr(core.enumerate_maps, "__wrapped__")
    m = t.metrics()
    assert (found, budget.used) == (maps, nodes)
    assert m["core.enumerate_maps.nodes"] == nodes
    assert m["core.enumerate_maps.calls"] == 1
    assert round(m["core.enumerate_maps.yield_per_node"] * nodes) == maps


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.METRICS
    assert set(tracer.Tracer().metrics()) | {"trace.overhead_ratio"} == set(tracer.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
