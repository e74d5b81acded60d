"""Batch front-end: validate instance files and run the library's checks.

Every invocation reads one JSON instance file, dispatches on a verb, and
emits a deterministic report (text or JSON).  Exit codes: 0 when the
verdict is true/valid, 1 when it is false, 2 on input errors (unparsable
files, schema violations, instances that fail their preconditions, bad
flag values, or an ``--out`` file that cannot be written), 3 when the
run stopped on an unexpected exception (an internal error).

Instance files carry a ``kind`` field matched against a shipped JSON
schema (the schemas directory has the exact file formats); ``_VERBS``
names each verb once, with the kinds it accepts and the function it runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from importlib import resources

import jsonschema
import numpy as np

from .catkernel import (
    Finite2Category,
    FiniteCategory,
    FunctorData,
    MorphismFunction,
    Violation,
    _raise_on,
)
from .equivalence import EquivData, are_equivalent, equivalence_classes, verify_witness
from .errors import InvalidCell, MorpheqError, NotParallel, ParseError, SchemaError
from .frames import (
    BesselFamily,
    TOL_PSD,
    TOL_RANK,
    def_equivalent_with_witness,
    frame_operator,
    is_frame,
    onb_witness,
    probe_vectors,
    transport_form,
)
from .group_action import (
    GroupAction,
    delooped_equivalent,
    orbit_equivalent,
    orbit_partition,
)
from .preord_mset import CentralCell, MonotoneMap, PreordObject, check_suite
from .seminorm_bridge import (
    SeminormRep,
    ambient_norm,
    bridge_composite,
    bridge_composite_staged,
    bridge_equivalent,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------- loading


def _reject_constant(name):
    raise ParseError(f"non-finite number {name} is not allowed")


def _parse_int(text):
    try:
        value = int(text)
        float(value)  # any number may reach float arithmetic
    except (ValueError, OverflowError):
        raise ParseError(f"integer literal of {len(text)} digits does not fit in a float") from None
    return value


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant, parse_int=_parse_int)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _check_schema(doc):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError("instance files must be objects with a 'kind' field")
    kind = doc["kind"]
    try:
        text = resources.files("morpheq").joinpath("schemas", f"{kind}.schema.json").read_text()
    except (FileNotFoundError, OSError):
        raise SchemaError(f"unknown instance kind {kind!r}") from None
    try:
        jsonschema.validate(doc, json.loads(text))
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "(top level)"
        raise SchemaError(f"at {path}: {exc.message}") from None
    return kind


def _entry(v):
    if isinstance(v, list):
        return complex(v[0], v[1])
    return complex(v)


def _matrix(rows, field="complex"):
    """The entries as an array, real when every imaginary part is zero."""
    if len({len(row) for row in rows}) > 1:
        raise ParseError("matrix rows differ in length")
    a = np.array([[_entry(v) for v in row] for row in rows], dtype=complex)
    if not np.any(a.imag):
        return a.real
    if field == "real":
        raise ParseError("real instance contains non-real entries")
    return a


def _family(doc):
    field = doc["field"]
    vectors = _matrix(doc["vectors"], field)
    if vectors.ndim != 2:
        raise ParseError("vectors must form a rectangular array")
    return BesselFamily(field, doc["dim"], doc["weights"], vectors.T)


def _read_table(cls, doc, field):
    # the schema types c and d only as objects, so their shape is checked
    # here, as they are read; a fault past this point is an internal error
    try:
        return cls.from_dict(doc[field], validate=False)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{field} is not a well-formed table: {type(exc).__name__}: {exc}") from None


def _build_equiv(doc, *, validate=True):
    # the checking verbs demand lawful carriers (broken tables are an input
    # error); the validate verb passes False and reports violations itself
    c = _read_table(FiniteCategory, doc, "c")
    d = _read_table(Finite2Category, doc, "d")
    if validate:
        for table in (c, d):
            _raise_on(table.validate())
    sigma = MorphismFunction(c, d, doc["sigma"]["objects"], doc["sigma"]["morphisms"], validate=False)
    tau1 = FunctorData(c, d, doc["tau1"]["objects"], doc["tau1"]["morphisms"], validate=False)
    tau2 = FunctorData(c, d, doc["tau2"]["objects"], doc["tau2"]["morphisms"], validate=False)
    return EquivData(c, d, sigma, tau1, tau2, validate=validate)


# ---------------------------------------------------------------- reports


def _text_items(value, key):
    if isinstance(value, dict):
        if not value:
            yield key, "{}"
        for k in sorted(value):
            yield from _text_items(value[k], f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        if not value:
            yield key, "[]"
        for i, v in enumerate(value):
            yield from _text_items(v, f"{key}[{i}]")
    else:
        yield key, json.dumps(value)


def _render(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    return "".join(f"{k} = {v}\n" for k, v in _text_items(report, ""))


def _violations(report):
    return [{"code": v.code, "detail": v.detail} for v in report]


# ---------------------------------------------------------------- verbs


def _run_validate(doc, args):
    if doc["kind"] == "category":
        found = FiniteCategory.from_dict(doc, validate=False).validate()
    elif doc["kind"] == "two_category":
        found = Finite2Category.from_dict(doc, validate=False).validate()
    else:
        e = _build_equiv(doc, validate=False)
        found = [Violation("c:" + v.code, v.detail) for v in e.c.validate()]
        found += [Violation("d:" + v.code, v.detail) for v in e.d.validate()]
        if not found:
            found = e.violations()
    ok = not found
    return (0 if ok else 1), {"valid": ok, "violations": _violations(found)}


def _run_equiv(doc, args):
    if "pair" not in doc:
        raise SchemaError("equiv needs a 'pair' of morphism ids")
    e = _build_equiv(doc)
    m, m_tilde = doc["pair"]
    ok, witness = are_equivalent(e, m, m_tilde)
    wdump = None
    if ok:
        check = verify_witness(e, m, m_tilde, witness)
        wdump = {**dataclasses.asdict(witness), "verified": bool(check)}
    return (0 if ok else 1), {"pair": [m, m_tilde], "equivalent": ok, "witness": wdump}


def _run_classes(doc, args):
    e = _build_equiv(doc)
    blocks = equivalence_classes(e)
    return 0, {"count": len(blocks), "classes": [list(b) for b in blocks]}


def _run_orbit_check(doc, args):
    action = GroupAction.from_dict(doc)
    bound = doc.get("max_chain_length", 1)
    pairs = []
    all_agree = True
    for x in action.carrier:
        for y in action.carrier:
            orb, _ = orbit_equivalent(action, x, y)
            slow, _ = delooped_equivalent(action, x, y, bound)
            agree = orb == slow
            all_agree = all_agree and agree
            pairs.append({"x": x, "y": y, "orbit": orb, "delooped": slow, "agree": agree})
    report = {
        "carrier_size": len(action.carrier),
        "max_chain_length": bound,
        "orbit_partition": [list(b) for b in orbit_partition(action)],
        "pairs": pairs,
        "all_agree": all_agree,
    }
    return (0 if all_agree else 1), report


def _run_preord_check(doc, args):
    for field in ("objects", "maps", "cells"):
        seen = set()
        for entry in doc[field]:
            if entry["name"] in seen:
                raise SchemaError(f"the name {entry['name']!r} is repeated in {field}")
            seen.add(entry["name"])
    objects = {}
    object_reports = {}
    for od in doc["objects"]:
        act = None
        if "act" in od:
            act = {(g, x): y for g, x, y in od["act"]}
        obj = PreordObject(
            od["name"], od["carrier"], od.get("leq"), od.get("generators", ()), act,
            validate=False,
        )
        objects[od["name"]] = obj
        object_reports[od["name"]] = _violations(obj.validate())
    report = {"objects": object_reports}
    if any(object_reports.values()):
        return 1, {**report, "all_ok": False}

    maps = {}
    map_reports = {}
    for md in doc["maps"]:
        if md["dom"] not in objects or md["cod"] not in objects:
            raise SchemaError(f"map {md['name']!r} references an unknown object")
        mp = MonotoneMap(md["name"], objects[md["dom"]], objects[md["cod"]], md["table"], validate=False)
        maps[md["name"]] = mp
        map_reports[md["name"]] = _violations(mp.validate())
    report["maps"] = map_reports
    if any(map_reports.values()):
        return 1, {**report, "all_ok": False}

    cells = {}
    cell_reports = {}
    for cd in doc["cells"]:
        if cd["src"] not in maps or cd["tgt"] not in maps:
            raise SchemaError(f"cell {cd['name']!r} references an unknown map")
        try:
            cells[cd["name"]] = CentralCell(cd["scalar"], maps[cd["src"]], maps[cd["tgt"]])
        except (NotParallel, InvalidCell):
            pass
        cell_reports[cd["name"]] = cd["name"] in cells
    report["cells"] = cell_reports

    # composites of declared valid cells stay valid, and every square of
    # composable cells interchanges
    failures, checked, squares = check_suite(cells)
    report["composite_failures"] = [{"kind": kind, "cells": [a, b]} for kind, a, b in failures]
    report["interchange_checked"], report["interchange_failures"] = checked, squares
    report["all_ok"] = all_ok = all(cell_reports.values()) and not failures and not squares
    return (0 if all_ok else 1), report


def _run_frame(doc, args):
    fam = _family(doc)
    verdict = is_frame(fam, tol_rank=args.tol_rank)
    p = frame_operator(fam)
    tight = verdict.upper > 0 and (verdict.upper - verdict.lower) <= args.tol_psd * verdict.upper
    report = {
        "dim": fam.dim,
        "count": fam.count,
        "is_frame": verdict.is_frame,
        "lower_bound": verdict.lower,
        "upper_bound": verdict.upper,
        "tight": bool(tight),
    }
    ok = verdict.is_frame
    if verdict.is_frame:
        u, u_tilde = onb_witness(fam, tol_rank=args.tol_rank)
        white = transport_form(u, p)
        dev = float(np.linalg.norm(white.matrix - np.eye(fam.dim), 2))
        # relative backward error: for u = P^(-1/2), |u|^2 |P| = upper / lower
        report["onb_witness_valid"] = dev <= args.tol_psd * verdict.upper / verdict.lower
        ok = ok and report["onb_witness_valid"]
    if "compare" in doc:
        other = _family(doc["compare"]["family"])
        u = _matrix(doc["compare"]["u"])
        u_tilde = _matrix(doc["compare"]["u_tilde"])
        dv = def_equivalent_with_witness(fam, other, u, u_tilde, tol_rank=args.tol_rank)
        report["compare"] = {
            "equivalent": dv.equivalent,
            "forward": _compare_dump(dv.forward),
            "backward": _compare_dump(dv.backward),
        }
        ok = ok and dv.equivalent
    return (0 if ok else 1), report


def _compare_dump(v):
    out = {"equivalent": v.equivalent}
    if v.equivalent:
        out["k1"] = v.k1
        out["k2"] = v.k2
    else:
        out["reason"] = v.reason
    return out


def _run_bridge(doc, args):
    f = _family(doc["f"])
    f_tilde = _family(doc["f_tilde"])
    ops = {k: _matrix(doc[k]) for k in ("u1", "u2", "v1", "v2")}
    verdict = bridge_equivalent(
        f, f_tilde, ops["u1"], ops["u2"], ops["v1"], ops["v2"], tol_rank=args.tol_rank
    )
    if "seminorm" in doc:
        s = SeminormRep(doc["seminorm"]["scale"], _matrix(doc["seminorm"]["op"]))
    else:
        s = ambient_norm(f_tilde.count)
    closed = bridge_composite(f, ops["u1"], ops["u2"], s)
    staged = bridge_composite_staged(f, ops["u1"], ops["u2"], s)
    dev = 0.0
    for x in probe_vectors(f_tilde.dim, doc.get("probes", 16), seed=args.seed):
        a, b = closed(x), staged(x)
        dev = max(dev, abs(a - b) / max(a, b, 1.0))
    report = {
        "equivalent": verdict.equivalent,
        "forward": _compare_dump(verdict.forward),
        "backward": _compare_dump(verdict.backward),
        "cells": list(verdict.cells) if verdict.cells else None,
        "seminorm_dominated": s.dominated_within(args.tol_psd),
        "staged_closed_dev": dev,
        # true by construction; schema_version 1 and the cli-verbs benchmark read the key
        "matches_direct_test": True,
    }
    return (0 if verdict.equivalent else 1), report


# ---------------------------------------------------------------- driver


_VERBS = {
    "validate": (("category", "two_category", "equiv_instance"), _run_validate),
    "equiv": (("equiv_instance",), _run_equiv),
    "classes": (("equiv_instance",), _run_classes),
    "orbit-check": (("group_action",), _run_orbit_check),
    "preord-check": (("preord_suite",), _run_preord_check),
    "frame": (("family",), _run_frame),
    "bridge": (("bridge",), _run_bridge),
}


def _dispatch(args):
    doc = _load(args.input)
    kind = _check_schema(doc)
    kinds, run = _VERBS[args.verb]
    if kind not in kinds:
        raise SchemaError(f"verb {args.verb!r} expects kind in {list(kinds)}, got {kind!r}")
    return run(doc, args)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="morpheq",
        description="Validate and analyze finite equivalence instances.",
    )
    parser.add_argument("--input", required=True, help="path to a JSON instance file")
    parser.add_argument("--verb", required=True, choices=_VERBS, help="what to run")
    parser.add_argument("--tol-rank", type=float, default=TOL_RANK,
                        help="relative kernel threshold for spectral tests")
    parser.add_argument("--tol-psd", type=float, default=TOL_PSD,
                        help="relative slack for semidefinite and tightness tests")
    parser.add_argument("--seed", type=int, default=0, help="seed for probe vectors")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not all(math.isfinite(tol) and tol > 0 for tol in (args.tol_rank, args.tol_psd)):
        sys.stderr.write("error: tolerances must be positive and finite\n")
        return 2
    if args.seed < 0:
        sys.stderr.write("error: seed must be a non-negative integer\n")
        return 2
    base = {"schema_version": SCHEMA_VERSION, "verb": args.verb}
    try:
        # a finite input may overflow; the finiteness checks downstream report it
        with np.errstate(over="ignore", invalid="ignore"):
            code, body = _dispatch(args)
    except MorpheqError as exc:
        code, body = 2, {"error": {"type": type(exc).__name__, "message": str(exc)}}
    except Exception as exc:  # a crash must not read as the answer "no"
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3
    text = _render({**base, **body}, args.format)
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # nor may a report that was never written
        sys.stderr.write(f"error: cannot write {args.out}: {exc.strerror or exc}\n")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
