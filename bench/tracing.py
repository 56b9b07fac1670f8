"""Spans and counters around the library's public functions and methods,
installed from outside the library.

Methods are patched on their class.  A free function is replaced in every
``posetcodes`` module namespace that holds it, because ``from .x import f``
copies the binding (``rref`` lives in both ``code`` and ``isometry``,
``weight_table`` in ``metric``, ``decoder`` and ``suites``).

Spans are kept in memory as parallel arrays (layer, parent, start, end)
and written out once, at the end of the run.  A layer's self time is the
duration of its spans minus the duration of their direct child spans;
spans nest strictly because the benchmark is one thread.
"""

import gzip
import json
import time
from array import array

# (layer, module, attribute); "Class.method" is patched on the class.
SPANS = (
    ("isometry.PIsometry", "isometry", "PIsometry.__init__"),
    ("isometry.apply_code", "isometry", "PIsometry.apply_code"),
    ("isometry.apply_matrix", "isometry", "apply_matrix"),
    ("code.rref", "code", "rref"),
    ("code.from_generators", "code", "LinearCode.from_generators"),
    ("code.syndrome", "code", "ParityData.syndrome"),
    ("decomposition.Decomposition", "decomposition", "Decomposition.__init__"),
    ("decomposition.maximal_decomposition", "decomposition", "maximal_decomposition"),
    ("decomposition.min_grouping_complexity", "decomposition", "min_grouping_complexity"),
    ("poset.from_covers", "poset", "Poset.from_covers"),
    ("poset.automorphisms", "poset", "Poset.automorphisms"),
    ("poset.restrict", "poset", "Poset.restrict"),
    ("search.primary_decomposition", "search", "primary_decomposition"),
    ("search.orbit_codes", "search", "orbit_codes"),
    ("search.verify_profile_uniqueness", "search", "verify_profile_uniqueness"),
    ("search.hierarchy_bounds", "search", "hierarchy_bounds"),
    ("search.is_p_irreducible", "search", "is_p_irreducible"),
    ("cli.main", "cli", "main"),
    ("metric.weight_table", "metric", "weight_table"),
    ("decoder.build_table", "decoder", "build_table"),
    ("decoder.decode", "decoder", "decode"),
)
# Called millions of times per op: counted, with no span.
COUNTERS = (
    ("poset.leq", "poset", "Poset.leq"),
    ("field.FieldSpec", "field", "FieldSpec.__init__"),
)
GROUP_SIZE = ("isometry.group_size", "isometry", "group_size")
# Root spans opened by the benchmark itself around one op or one table
# preparation.
OP = "bench.op"
PREPARE = "bench.prepare"


def _resolve(lib, module, attribute):
    owner = getattr(lib, module)
    if "." in attribute:
        cls_name, name = attribute.split(".")
        return getattr(owner, cls_name), name
    return owner, attribute


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.layers = [layer for layer, _, _ in SPANS] + [OP, PREPARE]
        self.layer_id = {layer: i for i, layer in enumerate(self.layers)}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.counts = {layer: 0 for layer, _, _ in COUNTERS}
        self.group_size_sum = 0
        self.apply_code_images = set()
        self.distinct_images = 0
        # [recording, index of the open span or -1]
        self.state = [False, -1]
        self.roots = {}

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for layer, module, attribute in SPANS:
            post = self.apply_code_images.add if layer == "isometry.apply_code" else None
            self._patch(module, attribute, lambda fn, l=layer, p=post: self._span(l, fn, p))
        for layer, module, attribute in COUNTERS:
            self._patch(module, attribute, lambda fn, l=layer: self._counter(l, fn))
        self._patch(GROUP_SIZE[1], GROUP_SIZE[2], self._summed)
        for root in (OP, PREPARE):
            self.roots[root] = self._span(root, lambda fn, *args: fn(*args), None)

    def _patch(self, module, attribute, make) -> None:
        owner, name = _resolve(self.lib, module, attribute)
        if isinstance(owner, type):
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                setattr(owner, name, classmethod(make(raw.__func__)))
            else:
                setattr(owner, name, make(raw))
            return
        original = getattr(owner, name)
        wrapped = make(original)
        for mod in self.lib.modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def _span(self, layer, fn, post):
        layer_id = self.layer_id[layer]
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        state = self.state
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not state[0]:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(layer_id)
            parents.append(state[1])
            ends.append(0)
            state[1] = index
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                state[1] = parents[index]
            if post is not None:
                post(result)
            return result

        return traced

    def _counter(self, layer, fn):
        counts, state = self.counts, self.state

        def counted(*args, **kwargs):
            if state[0]:
                counts[layer] += 1
            return fn(*args, **kwargs)

        return counted

    def _summed(self, fn):
        def summed(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.state[0]:
                self.group_size_sum += result
            return result

        return summed

    # -- recording -----------------------------------------------------

    def run_root(self, root, fn, *args):
        """Run ``fn(*args)`` inside a root span, with recording on."""
        self.distinct_images += len(self.apply_code_images)
        self.apply_code_images.clear()
        self.state[0] = True
        try:
            return self.roots[root](fn, *args)
        finally:
            self.state[0] = False

    # -- results -------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        self.distinct_images += len(self.apply_code_images)
        self.apply_code_images.clear()
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        total = len(names)
        child_ns = [0] * total
        root = [0] * total
        for i in range(total):
            parent = parents[i]
            if parent >= 0:
                child_ns[parent] += ends[i] - starts[i]
                root[i] = root[parent]
            else:
                root[i] = i
        calls = [0] * len(self.layers)
        self_ns = [0] * len(self.layers)
        for i in range(total):
            calls[names[i]] += 1
            self_ns[names[i]] += ends[i] - starts[i] - child_ns[i]
        pisometry = self.layer_id["isometry.PIsometry"]
        syndrome = self.layer_id["code.syndrome"]
        build_table = self.layer_id["decoder.build_table"]
        op = self.layer_id[OP]
        timed_pisometry = sum(
            1 for i in range(total) if names[i] == pisometry and names[root[i]] == op
        )
        cosets = sum(
            1
            for i in range(total)
            if names[i] == syndrome and parents[i] >= 0 and names[parents[i]] == build_table
        )
        metrics = {}
        for layer_id, layer in enumerate(self.layers):
            metrics[f"{layer}.calls"] = (calls[layer_id], "count")
            metrics[f"{layer}.self_s"] = (self_ns[layer_id] / 1e9, "s")
        for layer, value in self.counts.items():
            metrics[f"{layer}.calls"] = (value, "count")
        apply_calls = calls[self.layer_id["isometry.apply_code"]]
        metrics["isometry.group_size.sum"] = (self.group_size_sum, "count")
        metrics["isometry.PIsometry.timed_calls"] = (timed_pisometry, "count")
        metrics["search.orbit_distinct_ratio"] = (
            self.distinct_images / apply_calls if apply_calls else 0.0,
            "ratio",
        )
        metrics["decoder.cosets_scanned"] = (cosets, "count")
        return metrics

    def write(self, path) -> None:
        """The spans as gzipped JSON columns; times in ns from the first span."""
        origin = self.starts[0] if len(self.starts) else 0
        document = {
            "layers": self.layers,
            "layer": self.names.tolist(),
            "parent": self.parents.tolist(),
            "start_ns": [t - origin for t in self.starts],
            "end_ns": [t - origin for t in self.ends],
        }
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
