"""Outside-in tracer: times calls into sskit's public functions from outside.

`Tracer.install()` replaces each traced function with a wrapper in every
loaded `sskit` module namespace that holds it (and on the class, for
methods); `uninstall()` puts the originals back.  Nothing in `src/` is
changed.

Every wrapped call pushes a frame on one stack, so a layer's self time is
its duration minus the time spent in traced calls below it.  Coarse calls
are kept as span records (name, query id, span id, parent span id, start,
end, self time, nodes spent inside); hot leaves (`SimplicialSet.face`,
`simplices_with_boundary`, `normal_form`, `SimplicialMap`, `compose`,
`SimplicialSet.__init__`) are only aggregated, to bound the overhead.
`Budget.spend` is counted, not timed: each node is charged to the
innermost traced call, and spans also record the nodes spent below them.
`enumerate_maps` returns a generator, so the wrapper times each resumption
of it and closes it when the consumer lets go.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# (metric prefix, module, class or None, attribute, kind)
SPAN, LEAF, GEN = "span", "leaf", "gen"
TARGETS = [
    ("cli", "sskit.cli", None, "main", SPAN),
    ("fileformat.parse", "sskit.fileformat", None, "parse_complex", SPAN),
    ("fileformat.parse", "sskit.fileformat", None, "parse_map", SPAN),
    ("fileformat.serialize", "sskit.fileformat", None, "serialize_complex", SPAN),
    ("fileformat.serialize", "sskit.fileformat", None, "serialize_map", SPAN),
    ("core.face", "sskit.core.complex", "SimplicialSet", "face", LEAF),
    ("core.boundary_index", "sskit.core.complex", "SimplicialSet",
     "simplices_with_boundary", LEAF),
    ("core.enumerate_maps", "sskit.core.maps", None, "enumerate_maps", GEN),
    ("core.build", "sskit.core.complex", "SimplicialSet", "__init__", LEAF),
    ("core.build", "sskit.core.maps", None, "product", SPAN),
    ("core.build", "sskit.core.maps", None, "join", SPAN),
    ("core.build", "sskit.core.maps", None, "pushout", SPAN),
    ("core.build", "sskit.core.maps", None, "sub_complex", SPAN),
    ("core.map", "sskit.core.maps", "SimplicialMap", "__init__", LEAF),
    ("core.map", "sskit.core.maps", None, "compose", LEAF),
    ("core.spaces", "sskit.core.spaces", "LevelwiseSpace", "__init__", SPAN),
    ("core.spaces", "sskit.core.spaces", None, "function_complex", SPAN),
    ("core.spaces", "sskit.core.spaces", None, "restricted_function_complex", SPAN),
    ("core.spaces", "sskit.core.spaces", None, "hom_left", SPAN),
    ("core.spaces", "sskit.core.spaces", None, "slice_under", SPAN),
    ("lifting.has_rlp", "sskit.lifting", None, "has_rlp", SPAN),
    ("lifting.solve_lift", "sskit.lifting", None, "solve_lift", SPAN),
    ("homotopy.category", "sskit.homotopy", None, "homotopy_category", SPAN),
    ("homotopy.complete", "sskit.homotopy", None, "complete", SPAN),
    ("homotopy.normal_form", "sskit.homotopy", None, "normal_form", LEAF),
    ("factorize.soa", "sskit.factorize", None, "soa_stage", SPAN),
    ("factorize.soa", "sskit.factorize", None, "prefibrantize", SPAN),
    ("factorize.soa", "sskit.factorize", None, "is_prefibrant", SPAN),
    ("factorize.soa", "sskit.factorize", None, "saturate_prefibrant", SPAN),
    ("factorize.attach", "sskit.factorize", None, "attach_all", SPAN),
    ("factorize.pathspace", "sskit.factorize", None, "mapping_path_space", SPAN),
    ("certify.search", "sskit.certify", None, "search_certificate", SPAN),
    ("certify.verify", "sskit.certify", None, "verify_certificate", SPAN),
]

# per-layer metrics reported for every workload, in BENCHMARK.json order
METRICS = {
    "cli.self_s": "s",
    "fileformat.parse_s": "s",
    "fileformat.parse_bytes": "bytes",
    "fileformat.serialize_s": "s",
    "fileformat.serialize_bytes": "bytes",
    "core.face.calls": "count",
    "core.face.s": "s",
    "core.face.hit_ratio": "ratio",
    "core.boundary_index.builds": "count",
    "core.boundary_index.build_s": "s",
    "core.boundary_index.lookups": "count",
    "core.boundary_index.lookup_s": "s",
    "core.boundary_index.empty_ratio": "ratio",
    "core.enumerate_maps.calls": "count",
    "core.enumerate_maps.s": "s",
    "core.enumerate_maps.nodes": "count",
    "core.enumerate_maps.yield_per_node": "ratio",
    "core.build.s": "s",
    "core.build.cells": "cells",
    "core.map.calls": "count",
    "core.map.s": "s",
    "core.spaces.s": "s",
    "core.spaces.cells": "cells",
    "lifting.has_rlp.s": "s",
    "lifting.squares": "count",
    "lifting.solve_lift.s": "s",
    "lifting.solve_lift.nodes": "count",
    "homotopy.complete.s": "s",
    "homotopy.complete.rules": "count",
    "homotopy.complete.capped": "count",
    "homotopy.normal_form.calls": "count",
    "homotopy.normal_form.s": "s",
    "homotopy.hom_enum.s": "s",
    "homotopy.exact_ratio": "ratio",
    "factorize.soa.s": "s",
    "factorize.attach.s": "s",
    "factorize.attach.cells": "cells",
    "factorize.pathspace.s": "s",
    "certify.search.calls": "count",
    "certify.search.s": "s",
    "certify.search.nodes": "count",
    "certify.verify.s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Tracer:
    def __init__(self) -> None:
        self.query_id = -1
        self.stack: list[list] = [["root", 0.0, -1, -1]]
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.nodes: dict[str, int] = defaultdict(int)  # charged to the innermost call
        self.nodes_below: dict[str, int] = defaultdict(int)  # spent inside, any depth
        self.count: dict[str, float] = defaultdict(float)  # extra per-layer counters
        self.node_total = 0
        self._next_span = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for prefix, module, cls, attr, kind in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            orig = getattr(owner, attr)
            wrapper = self._wrap(prefix, attr, orig, kind)
            if cls is not None:
                self._patch(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "sskit" or name.startswith("sskit."):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, wrapper)
        budget = importlib.import_module("sskit.core.budget").Budget
        self._patch(budget, "spend", self._spend(budget.spend))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, prefix: str, attr: str, orig, kind: str):
        if kind == GEN:
            return self._generator(prefix, orig)
        name = f"{prefix}:{attr}"
        peeks = {
            "core.face:face": self._face_cached,
            "core.boundary_index:simplices_with_boundary": self._index_missing,
        }
        hooks = {
            "core.face:face": self._face_hit,
            "core.boundary_index:simplices_with_boundary": self._index_use,
            "core.build:__init__": self._complex_cells,
            "core.spaces:__init__": self._space_cells,
            "fileformat.parse:parse_complex": self._parsed_bytes,
            "fileformat.parse:parse_map": self._parsed_bytes,
            "fileformat.serialize:serialize_complex": self._written_bytes,
            "fileformat.serialize:serialize_map": self._written_bytes,
            "homotopy.complete:complete": self._rules,
            "homotopy.category:homotopy_category": self._exact,
            "factorize.attach:attach_all": self._attached_cells,
        }
        return self._call(name, orig, kind == SPAN, peeks.get(name), hooks.get(name))

    # -- wrappers --------------------------------------------------------------

    def _spend(self, orig):
        tracer, stack, nodes = self, self.stack, self.nodes

        def spend(budget, n=1):
            tracer.node_total += n
            nodes[stack[-1][0]] += n
            return orig(budget, n)

        return spend

    def _enter(self, name: str, record: bool) -> list:
        """A frame: [name, child time, own span id or -1, enclosing span id]."""
        top = self.stack[-1]
        span = -1
        if record:
            span = self._next_span
            self._next_span += 1
        return [name, 0.0, span, top[2] if top[2] >= 0 else top[3]]

    def _exit(self, frame: list, start: float, end: float, nodes_before: int) -> float:
        """Charge the call's duration; return its self time."""
        dt = end - start
        self.stack.pop()
        self.stack[-1][1] += dt
        name = frame[0]
        own = dt - frame[1]
        self.calls[name] += 1
        self.self_s[name] += own
        self.total_s[name] += dt
        below = self.node_total - nodes_before
        self.nodes_below[name] += below
        if frame[2] >= 0:
            self.spans.append((name, self.query_id, frame[2], frame[3],
                               start, end, own, below))
        return own

    def _call(self, name: str, orig, record: bool, peek, hook):
        """Wrap a call; `peek(args)` reads state before it, `hook(args,
        result, self_time, peeked)` counts after it returns."""
        tracer, stack = self, self.stack

        def wrapper(*args, **kwargs):
            before = peek(args) if peek else None
            frame = tracer._enter(name, record)
            stack.append(frame)
            n0 = tracer.node_total
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                own = tracer._exit(frame, t0, perf_counter(), n0)
            if hook:
                hook(args, result, own, before)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _generator(self, prefix: str, orig):
        tracer, stack = self, self.stack
        name = f"{prefix}:{orig.__name__}"

        def wrapper(*args, **kwargs):
            return iterate(orig(*args, **kwargs))

        def iterate(gen):
            frame = tracer._enter(name, True)
            tracer.calls[name] += 1
            first = last = None
            total = 0.0
            below = 0
            try:
                while True:
                    stack.append(frame)
                    n0 = tracer.node_total
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        last = perf_counter()
                        first = t0 if first is None else first
                        stack.pop()
                        stack[-1][1] += last - t0
                        total += last - t0
                        below += tracer.node_total - n0
                    tracer.count[name + ".yielded"] += 1
                    yield item
            finally:
                gen.close()
                own = total - frame[1]
                tracer.self_s[name] += own
                tracer.total_s[name] += total
                tracer.nodes_below[name] += below
                if first is not None:
                    tracer.spans.append((name, tracer.query_id, frame[2], frame[3],
                                         first, last, own, below))

        wrapper.__wrapped__ = orig
        return wrapper

    # -- counters read at layer boundaries -------------------------------------

    @staticmethod
    def _face_cached(args) -> bool:
        cache = getattr(args[0], "_face_cache", None)
        return cache is not None and len(args) == 3 and (args[1], args[2]) in cache

    @staticmethod
    def _index_missing(args) -> bool:
        index = getattr(args[0], "_boundary_index", None)
        return index is not None and len(args) == 3 and args[1] not in index

    def _face_hit(self, args, result, own, cached):
        self.count["core.face.hits"] += cached

    def _index_use(self, args, result, own, built):
        if built:
            self.count["core.boundary_index.builds"] += 1
            self.count["core.boundary_index.build_s"] += own
        else:
            self.count["core.boundary_index.lookup_s"] += own
        self.count["core.boundary_index.empty"] += not result

    def _complex_cells(self, args, result, own, _):
        self.count["core.build.cells"] += args[0].total_cells()

    def _space_cells(self, args, result, own, _):
        self.count["core.spaces.cells"] += args[0].space.total_cells()

    def _parsed_bytes(self, args, result, own, _):
        self.count["fileformat.parse_bytes"] += len(args[0])

    def _written_bytes(self, args, result, own, _):
        self.count["fileformat.serialize_bytes"] += len(result)

    def _rules(self, args, result, own, _):
        self.count["homotopy.complete.rules"] += len(result[0])
        self.count["homotopy.complete.capped"] += not result[1]

    def _exact(self, args, result, own, _):
        self.count["homotopy.exact"] += bool(result.exact)

    def _attached_cells(self, args, result, own, _):
        self.count["factorize.attach.cells"] += result[0].total_cells() - args[0].total_cells()

    # -- results ------------------------------------------------------------------

    def _sum(self, table: dict, prefix: str) -> float:
        return sum(v for k, v in table.items() if k.split(":")[0] == prefix)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (no overhead ratio)."""
        s, calls, c = self.self_s, self.calls, self.count

        def own(prefix):
            return self._sum(s, prefix)

        def n(prefix):
            return self._sum(calls, prefix)

        enum = "core.enumerate_maps:enumerate_maps"
        face_calls = n("core.face")
        lookups = n("core.boundary_index")
        enum_nodes = self.nodes[enum]
        search = "certify.search:search_certificate"
        category = "homotopy.category:homotopy_category"
        return {
            "cli.self_s": own("cli"),
            "fileformat.parse_s": own("fileformat.parse"),
            "fileformat.parse_bytes": c["fileformat.parse_bytes"],
            "fileformat.serialize_s": own("fileformat.serialize"),
            "fileformat.serialize_bytes": c["fileformat.serialize_bytes"],
            "core.face.calls": face_calls,
            "core.face.s": own("core.face"),
            "core.face.hit_ratio": _ratio(c["core.face.hits"], face_calls),
            "core.boundary_index.builds": c["core.boundary_index.builds"],
            "core.boundary_index.build_s": c["core.boundary_index.build_s"],
            "core.boundary_index.lookups": lookups,
            "core.boundary_index.lookup_s": c["core.boundary_index.lookup_s"],
            "core.boundary_index.empty_ratio": _ratio(c["core.boundary_index.empty"], lookups),
            "core.enumerate_maps.calls": calls[enum],
            "core.enumerate_maps.s": s[enum],
            "core.enumerate_maps.nodes": enum_nodes,
            "core.enumerate_maps.yield_per_node": _ratio(c[enum + ".yielded"], enum_nodes),
            "core.build.s": own("core.build"),
            "core.build.cells": c["core.build.cells"],
            "core.map.calls": n("core.map"),
            "core.map.s": own("core.map"),
            "core.spaces.s": own("core.spaces"),
            "core.spaces.cells": c["core.spaces.cells"],
            "lifting.has_rlp.s": own("lifting.has_rlp"),
            "lifting.squares": n("lifting.solve_lift"),
            "lifting.solve_lift.s": own("lifting.solve_lift"),
            "lifting.solve_lift.nodes": self._sum(self.nodes_below, "lifting.solve_lift"),
            "homotopy.complete.s": own("homotopy.complete"),
            "homotopy.complete.rules": c["homotopy.complete.rules"],
            "homotopy.complete.capped": c["homotopy.complete.capped"],
            "homotopy.normal_form.calls": n("homotopy.normal_form"),
            "homotopy.normal_form.s": own("homotopy.normal_form"),
            "homotopy.hom_enum.s": self.total_s[category]
            - self._sum(self.total_s, "homotopy.complete"),
            "homotopy.exact_ratio": _ratio(c["homotopy.exact"], calls[category]),
            "factorize.soa.s": own("factorize.soa"),
            "factorize.attach.s": own("factorize.attach"),
            "factorize.attach.cells": c["factorize.attach.cells"],
            "factorize.pathspace.s": own("factorize.pathspace"),
            "certify.search.calls": calls[search],
            "certify.search.s": s[search],
            "certify.search.nodes": self.nodes[search],
            "certify.verify.s": own("certify.verify"),
        }

    def write_spans(self, path: str) -> None:
        """One JSON record per line: name, query, id, parent, start, end, self, nodes."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
