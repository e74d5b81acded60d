"""cli-verbs: one ``python -m morpheq.cli`` call per task, each in a fresh interpreter.

The calls are all seven verbs on the shipped ``instances/`` files in
both output formats, plus generated instances that carry real work:
a frame and a bridge instance at dim 32, orbit-check at chain bound 2,
classes on an exported delooped slice and validate on a seeded broken
instance.  Interpreter start, imports and schema validation show here
and nowhere else.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np

from morpheq import cli
from morpheq import group_action as ga

import actions
import reference
from task import Task, mismatch
from wl_frames import witness_matrix

SHIPPED = (
    ("terminal_two_category.json", "validate"),
    ("arrow_equiv.json", "equiv"),
    ("arrow_equiv.json", "classes"),
    ("z2_orbit.json", "orbit-check"),
    ("preord_demo.json", "preord-check"),
    ("mercedes.json", "frame"),
    ("bridge_demo.json", "bridge"),
)
FORMATS = ("text", "json")
GEN_DIM = 32
DROPPED = 3  # compose entries removed from the broken instance
TOL = reference.tolerance(np.float64)


class Workload:
    MIN_PASSES = 2  # two calls per shipped instance, to compare their report bytes

    def __init__(self, root, seed):
        self.root = Path(root)
        gen = self.root / "perfbench" / "out" / f"cli-seed{seed}"
        gen.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        nrng = np.random.default_rng(seed)
        self.calls = []  # (label, path, verb, format, expectation, byte-stable)
        for name, verb in SHIPPED:
            path = self.root / "instances" / name
            for fmt in FORMATS:
                want = Expect(path, partial(EXPECT[verb], tight=True) if verb == "frame" else EXPECT[verb])
                self.calls.append((f"{verb} {name} {fmt}", path, verb, fmt, want, True))
        slice_raw = actions.random_action(rng, 2, 6)
        broken, dropped = broken_doc(rng)
        generated = (
            ("frame32.json", "frame", frame_doc(nrng, GEN_DIM), partial(expect_frame, tight=False)),
            ("bridge32.json", "bridge", bridge_doc(nrng, GEN_DIM), expect_bridge),
            ("orbit_l2.json", "orbit-check", orbit_doc(rng), expect_orbit),
            ("classes_slice.json", "classes", slice_doc(slice_raw, 1), partial(expect_slice, slice_raw, 1)),
            ("broken.json", "validate", broken, None),
        )
        gen_calls = []
        for name, verb, doc, want in generated:
            path = gen / name
            path.write_text(json.dumps(doc, sort_keys=True))
            want = Expect(path, want) if want else partial(expect_broken, dropped)
            gen_calls.append((f"{verb} {name} json", path, verb, "json", want, False))
        # one generated call after every third shipped one, so that the
        # shipped calls, where the median task lies, are timed at moments
        # spread over the whole pass
        shipped, self.calls = self.calls, []
        for i, call in enumerate(shipped):
            self.calls.append(call)
            if i % 3 == 2 and gen_calls:
                self.calls.append(gen_calls.pop(0))
        self.calls += gen_calls
        self.first = {}

    def tasks(self, in_process=False):
        run = call_in_process if in_process else self.call
        return [
            Task(label, partial(run, path, verb, fmt), partial(self.check, label, fmt, expect, stable))
            for label, path, verb, fmt, expect, stable in self.calls
        ]

    def call(self, path, verb, fmt):
        proc = subprocess.run(
            [sys.executable, "-m", "morpheq.cli", "--input", str(path), "--verb", verb, "--format", fmt],
            cwd=self.root, capture_output=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, label, fmt, expect, stable, output):
        code, out = output
        errors = expect(code, parse(out.decode("utf-8"), fmt), label)
        if stable:
            first = self.first.setdefault(label, out)
            if out != first:
                errors.append(f"{label}: report bytes differ between two calls")
        return errors

    def finish(self):
        return []


def call_in_process(path, verb, fmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--input", str(path), "--verb", verb, "--format", fmt])
    return code, buf.getvalue().encode("utf-8")


# ------------------------------------------------------------ report parsing


def flatten(value, key=""):
    """The report's ``key = value`` lines, as the text format spells them."""
    if isinstance(value, dict):
        if not value:
            yield key, {}
        for k in sorted(value):
            yield from flatten(value[k], f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        if not value:
            yield key, []
        for i, v in enumerate(value):
            yield from flatten(v, f"{key}[{i}]")
    else:
        yield key, value


def parse(text, fmt):
    if fmt == "json":
        return dict(flatten(json.loads(text)))
    return {k: json.loads(v) for k, v in (line.split(" = ", 1) for line in text.splitlines())}


def fields(label, code, flat, want_code, want):
    """Exit code, and every flattened field under each key of ``want``."""
    errors = [] if code == want_code else [mismatch(label, "exit code", code, want_code)]
    for top, sub in want.items():
        expected = dict(flatten(sub, top))
        got = {k: v for k, v in flat.items() if k == top or k.startswith((top + ".", top + "["))}
        if set(got) != set(expected):
            errors.append(mismatch(label, f"fields under {top}", sorted(got), sorted(expected)))
            continue
        for k, w in expected.items():
            g = got[k]
            if isinstance(w, float) and isinstance(g, (int, float)) and not isinstance(g, bool):
                ok = abs(g - w) <= TOL * max(abs(w), 1.0)
            else:
                ok = g == w
            if not ok:
                errors.append(mismatch(label, k, g, w))
    return errors


# ------------------------------------------------------------ expectations


def _load(path):
    return json.loads(Path(path).read_text())


class Expect:
    """The answer known for one instance file, worked out at its first check."""

    def __init__(self, path, want):
        self.path, self.want, self.value = path, want, None

    def __call__(self, code, flat, label):
        if self.value is None:
            self.value = self.want(_load(self.path))
        return fields(label, code, flat, *self.value)


def _equiv_tables(doc):
    return {
        "c_arrows": {m["id"]: (m["dom"], m["cod"]) for m in doc["c"]["morphisms"]},
        "d_compose": {(g, f): h for g, f, h in doc["d"]["compose"]},
        "cells": {(c["src"], c["tgt"]) for c in doc["d"]["two_cells"]},
        "sigma": doc["sigma"]["morphisms"],
        "tau1": doc["tau1"]["morphisms"],
        "tau2": doc["tau2"]["morphisms"],
    }


def expect_validate(doc):
    # the terminal 2-category: one object, one 1-cell, one 2-cell
    return 0, {"valid": True, "violations": []}


def expect_equiv(doc):
    m, mt = doc["pair"]
    ok = reference.related(_equiv_tables(doc), m, mt)
    want = {"pair": [m, mt], "equivalent": ok}
    want.update({"witness.verified": True} if ok else {"witness": None})
    return (0 if ok else 1), want


def expect_classes(doc):
    blocks = reference.classes(_equiv_tables(doc))
    return 0, {"classes": blocks, "count": len(blocks)}


def expect_slice(raw, bound, doc):
    blocks = reference.slice_partition(raw["carrier"], raw["elements"], raw["act"], bound)
    return 0, {"classes": blocks, "count": len(blocks)}


def expect_orbit(doc):
    carrier = doc["carrier"]
    act = {(g, x): y for g, x, y in doc["act"]}
    orb = reference.orbits(carrier, doc["group"]["elements"], act)
    pairs = [{"x": x, "y": y, "orbit": y in orb[x], "delooped": y in orb[x], "agree": True}
             for x in carrier for y in carrier]
    return 0, {
        "all_agree": True,
        "carrier_size": len(carrier),
        "max_chain_length": doc.get("max_chain_length", 1),
        "orbit_partition": reference.blocks_of(set(orb.values())),
        "pairs": pairs,
    }


def expect_preord(doc):
    # the shipped suite is built so that every cell, composite and square holds
    return 0, {"all_ok": True}


def _matrix(rows):
    return np.array([[complex(*e) if isinstance(e, list) else e for e in row] for row in rows])


def _family(d):
    """Weights and the vectors as columns (the file lists one vector per row)."""
    return np.asarray(d["weights"], dtype=float), _matrix(d["vectors"]).T


def _constants(a, b):
    k1, k2 = reference.generalized_extremes(a, b)
    return {"equivalent": True, "k1": k1, "k2": k2}


def expect_frame(doc, tight):
    w, v = _family(doc)
    p = reference.frame_matrix(w, v)
    lam = np.linalg.eigvalsh(p)
    lo, hi = float(lam[0]), float(lam[-1])
    want = {"is_frame": True, "lower_bound": lo, "upper_bound": hi, "onb_witness_valid": True,
            "tight": tight}
    if "compare" in doc:
        wt, vt = _family(doc["compare"]["family"])
        pt = reference.frame_matrix(wt, vt)
        u, ut = _matrix(doc["compare"]["u"]), _matrix(doc["compare"]["u_tilde"])
        want["compare"] = {
            "equivalent": True,
            "forward": _constants(u @ p @ u.conj().T, pt),
            "backward": _constants(ut @ pt @ ut.conj().T, p),
        }
    return 0, want


def expect_bridge(doc):
    (w, v), (wt, vt) = _family(doc["f"]), _family(doc["f_tilde"])
    p, pt = reference.frame_matrix(w, v), reference.frame_matrix(wt, vt)
    u1, v1 = _matrix(doc["u1"]), _matrix(doc["v1"])
    fwd = _constants(u1.conj().T @ p @ u1, pt)
    bwd = _constants(v1.conj().T @ pt @ v1, p)
    return 0, {
        "equivalent": True,
        "forward": fwd,
        "backward": bwd,
        "cells": [fwd["k1"], 1.0 / fwd["k2"], bwd["k1"], 1.0 / bwd["k2"]],
        "matches_direct_test": True,
    }


EXPECT = {
    "validate": expect_validate,
    "equiv": expect_equiv,
    "classes": expect_classes,
    "orbit-check": expect_orbit,
    "preord-check": expect_preord,
    "frame": expect_frame,
    "bridge": expect_bridge,
}


def expect_broken(dropped, code, flat, label):
    """Exit 1, and exactly the dropped entries reported missing, in any order."""
    errors = fields(label, code, flat, 1, {"valid": False})
    found = set()
    i = 0
    while f"violations[{i}].code" in flat:
        found.add((flat[f"violations[{i}].code"], flat[f"violations[{i}].detail"]))
        i += 1
    want = {("one:compose-missing", f"({g}, {f})") for g, f in dropped}
    if found != want:
        errors.append(mismatch(label, "violations", sorted(found), sorted(want)))
    return errors


# ------------------------------------------------------------ generated instances


def _rows(m):
    return [[float(x) for x in row] for row in m]


def _family_doc(rng, n):
    return {"field": "real", "dim": n, "weights": [float(x) for x in rng.uniform(0.5, 2.0, 2 * n)],
            "vectors": _rows(rng.standard_normal((2 * n, n)))}


def frame_doc(rng, n):
    doc = {"kind": "family", **_family_doc(rng, n)}
    doc["compare"] = {"family": _family_doc(rng, n), "u": _rows(witness_matrix(rng, "real", n, n)),
                      "u_tilde": _rows(witness_matrix(rng, "real", n, n))}
    return doc


def bridge_doc(rng, n):
    eye = _rows(np.eye(2 * n))
    return {"kind": "bridge", "f": _family_doc(rng, n), "f_tilde": _family_doc(rng, n),
            "u1": _rows(witness_matrix(rng, "real", n, n)), "v1": _rows(witness_matrix(rng, "real", n, n)), "u2": eye, "v2": eye}


def _action_doc(raw):
    return {
        "kind": "group_action",
        "group": {"elements": raw["elements"], "unit": raw["unit"],
                  "mul": [[g, h, k] for (g, h), k in sorted(raw["mul"].items())]},
        "carrier": raw["carrier"],
        "act": [[g, x, y] for (g, x), y in sorted(raw["act"].items())],
    }


def orbit_doc(rng):
    raw = actions.fixed_actions()["c2-three-pairs"]
    rng.shuffle(raw["carrier"])
    return {**_action_doc(raw), "max_chain_length": 2}


def _slice_tables(raw, bound):
    """The tables of a delooped slice, as the instance schema spells them."""
    t = actions.tables_of(ga.deloop_slice(actions.build(ga, raw), bound).two_category)
    rows = {k: [[*key, r] for key, r in t[k].items()] for k in ("compose", "vcomp", "whisker_left", "whisker_right")}
    return {
        **t, **rows,
        "one_cells": [{"id": i, "dom": dom, "cod": cod} for i, (dom, cod) in t["one_cells"].items()],
        "two_cells": [{"id": i, "src": src, "tgt": tgt} for i, (src, tgt) in t["two_cells"].items()],
    }


def slice_doc(raw, bound):
    """A delooped slice as an equivalence instance with identity parameter maps."""
    d = _slice_tables(raw, bound)
    c = {k: d[k] for k in ("objects", "identity", "compose")}
    c["morphisms"] = d["one_cells"]
    ident = {"objects": {"*": "*"}, "morphisms": {a["id"]: a["id"] for a in d["one_cells"]}}
    return {"kind": "equiv_instance", "c": c, "d": d, "sigma": ident, "tau1": ident, "tau2": ident}


def broken_doc(rng):
    """The L = 0 slice of a seeded action with a few seeded compose entries dropped."""
    doc = {"kind": "two_category", **_slice_tables(actions.random_action(rng, 3, 3), 0)}
    doc["compose"].sort()
    dropped = rng.sample(range(len(doc["compose"])), DROPPED)
    gone = [tuple(doc["compose"][i][:2]) for i in dropped]
    doc["compose"] = [row for i, row in enumerate(doc["compose"]) if i not in dropped]
    return doc, gone
