"""Spans around the program's public functions, recorded from outside it.

Each wrapped call records its name, start, end, parent span and the
pass it ran in; counts are added at the same boundaries.  A function is
patched in every morpheq module that holds it, so that calls made by
name from another module are seen too.  Spans stay in memory and are
written to one file when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, count name or None); "Class.method" patches the class
LAYERS = (
    ("morpheq.catkernel", "FiniteCategory.__init__", "catkernel.construct_s", "catkernel.table_entries"),
    ("morpheq.catkernel", "Finite2Category.__init__", "catkernel.construct_s", "catkernel.table_entries"),
    ("morpheq.catkernel", "FiniteCategory.validate", "catkernel.validate_s", None),
    ("morpheq.catkernel", "Finite2Category.validate", "catkernel.validate_s", None),
    ("morpheq.group_action", "DeloopedSlice.__init__", "group_action.slice_build_s", "group_action.slice_two_cells"),
    ("morpheq.equivalence", "are_equivalent", "equivalence.search_s", "equivalence.search_calls"),
    ("morpheq.equivalence", "equivalence_classes", "equivalence.classes_s", None),
    ("morpheq.frames", "RhoForm.__init__", "frames.rhoform_s", "frames.rhoform_calls"),
    ("morpheq.frames", "asymp_compare", "frames.asymp_compare_s", None),
    ("morpheq.frames", "OperatorMatrix.__init__", "frames.operator_matrix_s", None),
    ("morpheq.frames", "frame_operator", "frames.frame_operator_s", None),
    ("morpheq.frames", "onb_witness", "frames.onb_witness_s", None),
    ("morpheq.seminorm_bridge", "bridge_equivalent", "seminorm_bridge.bridge_equivalent_s", None),
    ("morpheq.seminorm_bridge", "bridge_composite", "seminorm_bridge.composite_s", None),
    ("morpheq.seminorm_bridge", "bridge_composite_staged", "seminorm_bridge.composite_s", None),
    ("morpheq.preord_mset", "PreordObject.validate", "preord_mset.check_s", None),
    ("morpheq.preord_mset", "MonotoneMap.validate", "preord_mset.check_s", None),
    ("morpheq.preord_mset", "is_two_cell", "preord_mset.check_s", None),
    ("morpheq.preord_mset", "compose_cells_vertical", "preord_mset.check_s", None),
    ("morpheq.preord_mset", "compose_cells_horizontal", "preord_mset.check_s", None),
    ("morpheq.preord_mset", "check_interchange", "preord_mset.check_s", None),
    # what the CLI spends outside the library, around an in-process main()
    ("json", "load", "cli.load_s", None),
    ("jsonschema", "validate", "cli.schema_s", None),
    ("json", "dumps", "cli.render_s", None),
)


def _table_entries(obj):
    if hasattr(obj, "vcomp_table"):  # the skeleton's compose table counts in its own span
        return len(obj.vcomp_table) + len(obj.wl_table) + len(obj.wr_table) + len(obj.identity2)
    return len(obj.compose_table) + len(obj.identity)


COUNTERS = {
    "catkernel.table_entries": lambda args, result: _table_entries(args[0]),
    "group_action.slice_two_cells": lambda args, result: len(args[0].two_category.two_cells),
    "equivalence.search_calls": lambda args, result: 1,
    "frames.rhoform_calls": lambda args, result: 1,
}

SPAN_METRICS = sorted({name for _, _, name, _ in LAYERS})
COUNT_METRICS = sorted(COUNTERS)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, pass index]
        self.counts = defaultdict(int)  # (pass index, name) -> count
        self.pass_index = 0
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, tracer._stack[-1] if tracer._stack else -1, tracer.pass_index]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if counter:
                tracer.counts[(tracer.pass_index, counter)] += COUNTERS[counter](args, result)
            return result

        return traced

    def call(self, name, fn):
        """Run fn() inside a root span (one per task)."""
        return self.wrap(name, fn)()

    def install(self):
        for modname, attr, name, counter in LAYERS:
            module = sys.modules.get(modname)
            if module is None:  # not imported by this workload, so the layer cannot run
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self.wrap(name, getattr(cls, meth), counter))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, counter)
            self._set(module, attr, wrapped)
            for other_name, other in list(sys.modules.items()):
                if other is module or not (other_name == "morpheq" or other_name.startswith("morpheq.")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, key, wrapped)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def per_pass(self, passes):
        """Self time of each span name, and each count, for each pass."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = [defaultdict(float) for _ in range(passes)]
        for (name, start, end, _, p), child in zip(self.spans, covered):
            out[p][name] += (end - start) - child
        for (p, name), n in self.counts.items():
            out[p][name] += n
        return out

    def metrics(self, passes):
        """Median over passes of every layer metric (0 where the layer never ran)."""
        rows = self.per_pass(passes)
        return {
            name: statistics.median(row.get(name, 0.0) for row in rows)
            for name in SPAN_METRICS + COUNT_METRICS
        }

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start", "end", "parent", "pass"],
            "names": names,
            "spans": [[index[n], s, e, parent, p] for n, s, e, parent, p in self.spans],
            "counts": [[p, name, n] for (p, name), n in sorted(self.counts.items())],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
