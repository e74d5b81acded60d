"""The shipped instance schemas against the reference copies in ``reference_schemas/``.

The shipped schemas name whole fields: each definition is referenced once
per field, never as an array's ``items``, and a numeric matrix entry is one
type union instead of a ``oneOf``.  The reference copies are the earlier,
entry-by-entry form.  Both must accept and reject the same documents, with
the same message, except where the failing path ends inside a numeric
matrix entry: there the type union words the error differently.
"""

import copy
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from morpheq import cli
from morpheq.errors import SchemaError
from morpheq.group_action import deloop_slice

from instance_gen import action_doc, random_equiv_instance, three_pairs_c2, trivial_action

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
SHIPPED_DIR = ROOT / "src" / "morpheq" / "schemas"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference_schemas"
KINDS = ("category", "two_category", "equiv_instance", "group_action", "preord_suite", "family", "bridge")
SHIPPED = {k: json.loads((SHIPPED_DIR / f"{k}.schema.json").read_text()) for k in KINDS}
REFERENCE = {k: json.loads((REFERENCE_DIR / f"{k}.schema.json").read_text()) for k in KINDS}
VALIDATORS = {(k, ref): jsonschema.Draft7Validator((REFERENCE if ref else SHIPPED)[k])
              for k in KINDS for ref in (True, False)}
MATRIX_FIELDS = {"vectors", "u", "u_tilde", "u1", "u2", "v1", "v2", "op"}


# ------------------------------------------------------------ documents


def _instance(name):
    return json.loads((INSTANCES / name).read_text())


def _category_doc(cat):
    return {
        "objects": list(cat.objects),
        "morphisms": [{"id": a.id, "dom": a.dom, "cod": a.cod} for a in cat.morphisms.values()],
        "identity": dict(cat.identity),
        "compose": [[g, f, h] for (g, f), h in cat.compose_table.items()],
    }


def _two_category_doc(d):
    doc = _category_doc(d.skeleton)
    doc["one_cells"] = doc.pop("morphisms")
    doc["two_cells"] = [{"id": c.id, "src": c.src, "tgt": c.tgt} for c in d.two_cells.values()]
    doc["identity2"] = dict(d.identity2)
    doc["vcomp"] = [[b, a, r] for (b, a), r in d.vcomp_table.items()]
    doc["whisker_left"] = [[k, a, r] for (k, a), r in d.wl_table.items()]
    doc["whisker_right"] = [[a, k, r] for (a, k), r in d.wr_table.items()]
    return doc


def _equiv_doc(e):
    parts = {name: {"objects": dict(p.object_map), "morphisms": dict(p.morphism_map)}
             for name, p in (("sigma", e.sigma), ("tau1", e.tau1), ("tau2", e.tau2))}
    return {"kind": "equiv_instance", "c": _category_doc(e.c), "d": _two_category_doc(e.d), **parts}


def _rows(m):
    """A matrix as the schemas spell it: real entries as numbers, others as [re, im]."""
    return [[float(x.real) if x.imag == 0 else [float(x.real), float(x.imag)] for x in row] for row in m]


def _family_doc(rng, n, field):
    vectors = rng.standard_normal((2 * n, n)) + (1j * rng.standard_normal((2 * n, n)) if field == "complex" else 0)
    return {"field": field, "dim": n, "weights": [float(w) for w in rng.uniform(0.5, 2.0, 2 * n)],
            "vectors": _rows(vectors)}


def _generated():
    """Documents shaped like the generated calls of the cli-verbs benchmark, kept small."""
    rng = np.random.default_rng(0)
    n = 1
    op = _rows(np.eye(n) + 1j * rng.standard_normal((n, n)))
    frame = {"kind": "family", **_family_doc(rng, n, "complex"),
             "compare": {"family": _family_doc(rng, n, "complex"), "u": op, "u_tilde": op}}
    bridge = {"kind": "bridge", "f": _family_doc(rng, n, "real"), "f_tilde": _family_doc(rng, n, "complex"),
              "u1": op, "v1": op, "u2": _rows(np.eye(2 * n)), "v2": _rows(np.eye(2 * n)),
              "seminorm": {"scale": 1.0, "op": _rows(np.eye(2 * n))}, "probes": 4}
    slice_ = deloop_slice(trivial_action(2, ["p"]), 0)
    return {
        "family": [frame],
        "bridge": [bridge],
        "group_action": [action_doc(three_pairs_c2(), 2)],
        "equiv_instance": [_equiv_doc(slice_.equiv), _equiv_doc(random_equiv_instance(3))],
        "two_category": [{"kind": "two_category", **_two_category_doc(slice_.two_category)}],
        "category": [{"kind": "category", **_category_doc(random_equiv_instance(5).c)}],
    }


def _bases():
    arrow = _instance("arrow_equiv.json")
    docs = {
        "category": [{"kind": "category", **arrow["c"]}],
        "two_category": [_instance("terminal_two_category.json"), {"kind": "two_category", **arrow["d"]}],
        "equiv_instance": [arrow],
        "group_action": [_instance("z2_orbit.json")],
        "preord_suite": [_instance("preord_demo.json")],
        "family": [_instance("mercedes.json")],
        "bridge": [_instance("bridge_demo.json")],
    }
    for kind, extra in _generated().items():
        docs[kind] += extra
    return docs


BASES = _bases()


# ------------------------------------------------------------ mutations

VALUES = ("x", "1/2", "", 0, 3, -1, 2.5, -0.5, 1e300, True, False, None, [], {}, {"id": "a"},
          [1.0, 2.0], [1.0, 2.0, 3.0], ["a", "b"], ["a", "b", "c"], ["a", "b", "c", "d"], [[1.0]])


def _nodes(node, path=()):
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _nodes(v, path + (i,))


def _get(doc, path):
    for p in path:
        doc = doc[p]
    return doc


def _short(node):
    """True for a list of at most four numbers or strings: an entry, a pair, a triple, a short row."""
    return isinstance(node, list) and len(node) <= 4 and not any(isinstance(x, (list, dict)) for x in node)


def _any(node):
    return True


def _object(node):
    return isinstance(node, dict) and bool(node)


@st.composite
def _path(draw, doc, kind_of_node):
    """A node of ``doc`` that ``kind_of_node`` accepts, or the root, which is
    always a candidate: first a field (a path with its indexes blanked),
    then one of the field's nodes."""
    fields = {(): [()]}
    for path in _nodes(doc):
        if kind_of_node(_get(doc, path)):
            fields.setdefault(tuple("[]" if isinstance(p, int) else p for p in path), []).append(path)
    return draw(st.sampled_from(fields[draw(st.sampled_from(sorted(fields)))]))


@st.composite
def documents(draw, kind):
    """A base document of ``kind`` with one to three changes.  A third of them
    resize a short list (see ``_short``) to 0-4 items, a third drop a key of
    an object, and the rest pick any node and add a key to an object, resize
    a list, or swap the value for one of another type or shape."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES[kind])))
    for _ in range(draw(st.integers(1, 3))):
        kind_of_node = draw(st.sampled_from((_short, _object, _any)))
        path = draw(_path(doc, kind_of_node))
        node = _get(doc, path)
        if kind_of_node is _short and _short(node):
            how = "resize"
        elif kind_of_node is _object and _object(node):
            how = "drop"
        elif isinstance(node, list):
            how = draw(st.sampled_from(("swap", "resize")))
        elif isinstance(node, dict):
            how = draw(st.sampled_from(("swap", "extra")))
        else:
            how = "swap"
        if how == "resize":
            size = draw(st.integers(0, 4))
            filler = node[0] if node and draw(st.booleans()) else draw(st.sampled_from(VALUES))
            node[:] = (node + [copy.deepcopy(filler) for _ in range(size)])[:size]
        elif how == "drop":
            del node[draw(st.sampled_from(sorted(node)))]
        elif how == "extra":
            node[draw(st.sampled_from(("extra", "seminorm", "compare", "pair", "leq", "act")))] = \
                copy.deepcopy(draw(st.sampled_from(VALUES)))
        elif path:
            _get(doc, path[:-1])[path[-1]] = copy.deepcopy(draw(st.sampled_from(VALUES)))
    return doc


def _entry(path):
    """The part of ``path`` up to a numeric matrix entry (field, row, column), or None."""
    for i, p in enumerate(path):
        if p in MATRIX_FIELDS and len(path) - i > 2:
            return path[:i + 3]
    return None


def _verdict(kind, doc, reference=False):
    """What the schema of ``kind`` finds in ``doc``.

    The first item is None if ``doc`` passes, else the path and message of
    the error that ``jsonschema.validate`` raises (its best match).  The
    second is every error: its path and message, or only the path of its
    entry if it lies in a numeric matrix entry.  Comparing every error, not
    just the best match, keeps one change of a document from hiding another.
    """
    errors = list(VALIDATORS[kind, reference].iter_errors(doc))
    best = jsonschema.exceptions.best_match(errors)
    found = set()
    for e in errors:
        path = tuple(e.absolute_path)
        entry = _entry(path)
        found.add((entry,) if entry else (path, e.message))
    return (None if best is None else (tuple(best.absolute_path), best.message)), found


# ------------------------------------------------------------ the tests


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_shipped_schema_gives_the_reference_verdict(kind, data):
    doc = data.draw(documents(kind))
    (old, old_found), (new, new_found) = _verdict(kind, doc, reference=True), _verdict(kind, doc)
    assert old_found == new_found, doc
    assert (old is None) == (new is None), doc
    if new is not None and not (_entry(old[0]) or _entry(new[0])):
        assert old == new, doc


@pytest.mark.parametrize("kind", KINDS)
def test_the_cli_reports_the_shipped_verdict(kind):
    for doc in BASES[kind]:
        assert _verdict(kind, doc, reference=True) == (None, set())
        assert cli._check_schema(doc) == kind
        doc = dict(doc, surprise=True)
        with pytest.raises(SchemaError) as exc:
            cli._check_schema(doc)
        assert str(exc.value) == "at (top level): " + _verdict(kind, doc)[0][1]


def _walk(schema):
    yield schema
    for v in schema.values():
        if isinstance(v, dict):
            yield from _walk(v)


@pytest.mark.parametrize("kind", KINDS)
def test_shipped_schemas_name_whole_fields(kind):
    schema = SHIPPED[kind]
    jsonschema.Draft7Validator.check_schema(schema)
    text = json.dumps(schema)
    for node in _walk(schema):
        assert "oneOf" not in node
        assert "$ref" not in node.get("items", {})
    for name in schema.get("definitions", {}):
        assert f'"#/definitions/{name}"' in text
