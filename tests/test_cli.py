import copy
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from morpheq import Finite2Category, FiniteCategory, cli, preord_mset
from morpheq.errors import UnknownId

from instance_gen import action_doc, three_pairs_c2

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
SRC = str(ROOT / "src")


def run_cli(*args, env=None):
    """Run the CLI in a child process that imports morpheq from ``src``."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "morpheq.cli", *args],
        capture_output=True, text=True, env=env,
    )


def run_json(*args):
    proc = run_cli(*args, "--format", "json")
    assert proc.stdout, proc.stderr
    return proc.returncode, json.loads(proc.stdout)


# --------------------------------------------------------------- the verbs


def test_validate_clean_two_category():
    code, doc = run_json("--input", str(INSTANCES / "terminal_two_category.json"),
                         "--verb", "validate")
    assert code == 0
    assert doc["valid"] is True
    assert doc["schema_version"] == 1
    assert doc["verb"] == "validate"


def test_equiv_reports_the_golden_witness():
    code, doc = run_json("--input", str(INSTANCES / "arrow_equiv.json"),
                         "--verb", "equiv")
    assert code == 0
    assert doc["equivalent"] is True
    assert doc["pair"] == ["m", "mt"]
    w = doc["witness"]
    assert (w["u1"], w["u2"], w["v1"], w["v2"]) == ("idB", "idA", "idB", "idA")
    assert (w["phi"], w["phi_tilde"]) == ("ab", "ba")
    assert w["verified"] is True


def test_classes_partitions_the_arrow_instance():
    code, doc = run_json("--input", str(INSTANCES / "arrow_equiv.json"),
                         "--verb", "classes")
    assert code == 0
    assert doc["classes"] == [["idA"], ["idB"], ["m", "mt"]]
    assert doc["count"] == 3


def test_orbit_check_cross_validates():
    code, doc = run_json("--input", str(INSTANCES / "z2_orbit.json"),
                         "--verb", "orbit-check")
    assert code == 0
    assert doc["all_agree"] is True
    assert doc["orbit_partition"] == [["a", "b"], ["c"]]
    assert all(p["agree"] for p in doc["pairs"])
    assert len(doc["pairs"]) == 9


def test_preord_check_runs_the_interchange_suite():
    code, doc = run_json("--input", str(INSTANCES / "preord_demo.json"),
                         "--verb", "preord-check")
    assert code == 0
    assert doc["all_ok"] is True
    assert doc["interchange_checked"] > 0
    assert doc["interchange_failures"] == []
    assert all(ok for ok in doc["cells"].values())


def test_frame_reports_tight_mercedes():
    code, doc = run_json("--input", str(INSTANCES / "mercedes.json"),
                         "--verb", "frame")
    assert code == 0
    assert doc["is_frame"] is True and doc["tight"] is True
    assert doc["lower_bound"] == pytest.approx(1.5, rel=1e-9)
    assert doc["upper_bound"] == pytest.approx(1.5, rel=1e-9)
    assert doc["onb_witness_valid"] is True


def test_bridge_demo_round_trips():
    code, doc = run_json("--input", str(INSTANCES / "bridge_demo.json"),
                         "--verb", "bridge")
    assert code == 0
    assert doc["equivalent"] is True
    assert doc["matches_direct_test"] is True
    assert doc["staged_closed_dev"] <= 1e-12
    for c in doc["cells"]:
        assert c == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------ determinism


def test_reports_are_byte_stable():
    for fmt in ("json", "text"):
        runs = [
            run_cli("--input", str(INSTANCES / "bridge_demo.json"),
                    "--verb", "bridge", "--format", fmt, "--seed", "3")
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == runs[1].returncode == 0


SHIPPED = (
    ("terminal_two_category.json", "validate"),
    ("arrow_equiv.json", "equiv"),
    ("arrow_equiv.json", "classes"),
    ("z2_orbit.json", "orbit-check"),
    ("preord_demo.json", "preord-check"),
    ("mercedes.json", "frame"),
    ("bridge_demo.json", "bridge"),
)


GOLDEN = Path(__file__).resolve().parent / "golden"


def _flat(value, key=""):
    if isinstance(value, dict) and value:
        for k, v in value.items():
            yield from _flat(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list) and value:
        for i, v in enumerate(value):
            yield from _flat(v, f"{key}[{i}]")
    else:
        yield key, value


def _leaves(text, fmt):
    """The report's (key, value) pairs in the order it prints them."""
    if fmt == "text":
        return [(k, json.loads(v)) for k, v in (ln.split(" = ", 1) for ln in text.splitlines())]
    return list(_flat(json.loads(text)))


def _same_leaf(got, want):
    # floats may differ in their last bits with the BLAS build
    if type(got) is float and type(want) is float:
        return abs(got - want) <= 1e-12 * max(abs(want), 1.0)
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("name, verb", SHIPPED)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_shipped_reports_match_the_golden_files(capsys, name, verb, fmt):
    code = cli.main(["--input", str(INSTANCES / name), "--verb", verb, "--format", fmt])
    out = capsys.readouterr().out
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[f"{verb}.{fmt}"]
    want = (GOLDEN / f"{verb}.{fmt}").read_text()
    if verb not in ("frame", "bridge"):
        assert out == want
        return
    got, expected = _leaves(out, fmt), _leaves(want, fmt)
    assert [k for k, _ in got] == [k for k, _ in expected]
    for (key, g), (_, w) in zip(got, expected):
        assert _same_leaf(g, w), (key, g, w)


def _paired(rows):
    """The matrix with every entry written as a [re, 0.0] pair."""
    return [[[float(v), 0.0] for v in row] for row in rows]


def _report_bytes(capsys, tmp_path, doc, verb, fmt):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code = cli.main(["--input", str(p), "--verb", verb, "--format", fmt])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_witnesses_written_as_re_im_pairs_print_the_plain_real_bytes(capsys, tmp_path, fmt):
    # a witness whose imaginary parts are all zero is read as real, so the
    # pairs and the plain numbers run one path and print the same bytes
    bridge = json.loads((INSTANCES / "bridge_demo.json").read_text())
    paired = copy.deepcopy(bridge)
    for k in ("u1", "u2", "v1", "v2"):
        paired[k] = _paired(bridge[k])
    paired["seminorm"]["op"] = _paired(bridge["seminorm"]["op"])
    # mercedes against itself through an invertible u that is not a multiple of I
    frame = json.loads((INSTANCES / "mercedes.json").read_text())
    frame["compare"] = {"family": {k: frame[k] for k in ("field", "dim", "weights", "vectors")},
                        "u": [[1.0, 0.5], [0.0, 2.0]], "u_tilde": [[1.0, -0.25], [0.0, 0.5]]}
    frame_paired = copy.deepcopy(frame)
    for k in ("u", "u_tilde"):
        frame_paired["compare"][k] = _paired(frame["compare"][k])
    for verb, plain_doc, paired_doc in (("bridge", bridge, paired), ("frame", frame, frame_paired)):
        code, plain = _report_bytes(capsys, tmp_path, plain_doc, verb, fmt)
        assert code == 0
        assert _report_bytes(capsys, tmp_path, paired_doc, verb, fmt) == (code, plain)
        # and the rest of the report is the golden one of the shipped instance
        got = [(k, v) for k, v in _leaves(plain, fmt) if not k.startswith("compare.")]
        want = _leaves((GOLDEN / f"{verb}.{fmt}").read_text(), fmt)
        assert [k for k, _ in got] == [k for k, _ in want]
        for (key, g), (_, w) in zip(got, want):
            assert _same_leaf(g, w), (key, g, w)
    assert dict(_leaves(plain, fmt))["compare.equivalent"] is True  # the frame's constants were printed


def _plain(value):
    if type(value) is dict:
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if type(value) is list:
        return all(_plain(v) for v in value)
    return type(value) in (str, int, float, bool, type(None))


@pytest.mark.parametrize("name, verb", SHIPPED)
def test_reports_hold_only_plain_values(name, verb):
    # reports are rendered as they are: a numpy scalar or a tuple in one
    # would change its bytes or fail to render
    args = cli.build_parser().parse_args(["--input", str(INSTANCES / name), "--verb", verb])
    _, body = cli._dispatch(args)
    assert _plain(body), body


def test_validate_report_does_not_depend_on_hash_seed(tmp_path):
    # every verb on its shipped instance, plus two broken documents whose
    # violations come from hashed containers: compose gaps of a category
    # and an order given as a chain with no transitive pairs
    doc = json.loads((INSTANCES / "arrow_equiv.json").read_text())
    doc["c"]["compose"] = doc["c"]["compose"][3:]
    gaps = tmp_path / "gaps.json"
    gaps.write_text(json.dumps(doc))
    doc = json.loads((INSTANCES / "preord_demo.json").read_text())
    w = next(o for o in doc["objects"] if o["name"] == "W")
    w["carrier"] = list("abcde")
    w["leq"] = [[x, x] for x in "abcde"] + [list(p) for p in ("ab", "bc", "cd", "de")]
    w["act"] = [["2", x, x] for x in "abcde"]
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(doc))
    runs = [(INSTANCES / name, verb) for name, verb in SHIPPED]
    runs += [(gaps, "validate"), (chain, "preord-check")]
    argvs = [["--input", str(path), "--verb", verb, "--format", fmt]
             for path, verb in runs for fmt in ("text", "json")]
    script = (
        "import json, sys\n"
        "from morpheq import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    print('exit', cli.main(argv))\n"
    )
    outs = []
    for seed in ("0", "7"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0].count("exit 0") == 2 * len(SHIPPED)
    assert "compose-missing" in outs[0] and "order-transitive" in outs[0]
    assert outs[0] == outs[1]


def test_out_file_matches_stdout(tmp_path):
    target = tmp_path / "report.json"
    direct = run_cli("--input", str(INSTANCES / "mercedes.json"),
                     "--verb", "frame", "--format", "json")
    filed = run_cli("--input", str(INSTANCES / "mercedes.json"),
                    "--verb", "frame", "--format", "json",
                    "--out", str(target))
    assert filed.returncode == 0
    assert filed.stdout == ""
    assert target.read_text() == direct.stdout


def test_text_format_is_flat_sorted_lines():
    proc = run_cli("--input", str(INSTANCES / "mercedes.json"),
                   "--verb", "frame", "--format", "text")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    keys = [ln.split(" = ")[0] for ln in lines]
    assert keys == sorted(keys)
    assert "is_frame = true" in lines
    assert "verb = \"frame\"" in lines


# ------------------------------------------------------- falsy verdicts


def test_equiv_false_pair_exits_one(tmp_path):
    doc = json.loads((INSTANCES / "arrow_equiv.json").read_text())
    doc["pair"] = ["idA", "idB"]
    p = tmp_path / "no.json"
    p.write_text(json.dumps(doc))
    code, out = run_json("--input", str(p), "--verb", "equiv")
    assert code == 1
    assert out["equivalent"] is False
    assert "witness" not in out or out["witness"] is None


def test_frame_false_for_deficient_family(tmp_path):
    p = tmp_path / "lone.json"
    p.write_text(json.dumps({
        "kind": "family",
        "field": "real",
        "dim": 2,
        "weights": [1.0],
        "vectors": [[1.0, 0.0]],
    }))
    code, out = run_json("--input", str(p), "--verb", "frame")
    assert code == 1
    assert out["is_frame"] is False


def test_validate_broken_category_exits_one(tmp_path):
    doc = json.loads((INSTANCES / "arrow_equiv.json").read_text())
    cat = dict(doc["c"], kind="category")
    cat["compose"] = [t for t in cat["compose"] if t[:2] != ["idB", "m"]]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(cat))
    code, out = run_json("--input", str(p), "--verb", "validate")
    assert code == 1
    assert out["valid"] is False
    assert any(v["code"] == "compose-missing" for v in out["violations"])


def test_validate_reports_parameter_violations(tmp_path):
    doc = json.loads((INSTANCES / "arrow_equiv.json").read_text())
    doc["tau1"]["objects"] = {"A": "B", "B": "A"}
    p = tmp_path / "disagree.json"
    p.write_text(json.dumps(doc))
    code, out = run_json("--input", str(p), "--verb", "validate")
    assert code == 1
    assert out["valid"] is False
    assert "object-map-disagree" in [v["code"] for v in out["violations"]]


CHAIN = {
    "kind": "category",
    "objects": ["A", "B", "C"],
    "morphisms": [{"id": m, "dom": d, "cod": c} for m, d, c in (
        ("idA", "A", "A"), ("idB", "B", "B"), ("idC", "C", "C"),
        ("f", "A", "B"), ("g", "B", "C"), ("gf", "A", "C"))],
    "identity": {"A": "idA", "B": "idB", "C": "idC"},
    "compose": [["idA", "idA", "idA"], ["idB", "idB", "idB"], ["idC", "idC", "idC"],
                ["f", "idA", "f"], ["idB", "f", "f"], ["g", "idB", "g"], ["idC", "g", "g"],
                ["gf", "idA", "gf"], ["idC", "gf", "gf"], ["g", "f", "gf"]],
}


def test_reports_keep_the_order_of_a_table_that_interleaves_rows(capsys, tmp_path):
    # the bad entries come in rows f, idA, g and f again: stored by row, the
    # table would report (f, g) second and name nope2 before nope1
    doc = copy.deepcopy(CHAIN)
    doc["compose"] = [["f", "idB", "f"], ["idA", "g", "g"], ["g", "idB", "gf"], ["f", "g", "gf"]] + [
        t for t in CHAIN["compose"] if t[:2] != ["g", "idB"]]
    want = [("compose-extra", "(f, idB)"), ("compose-extra", "(idA, g)"),
            ("compose-boundary", "(g, idB) -> gf"), ("compose-extra", "(f, g)")]
    found = FiniteCategory.from_dict(doc, validate=False).validate()
    assert [(v.code, v.detail) for v in found] == want
    code, out, _ = run_main(capsys, doc, "validate", tmp_path)
    assert code == 1
    assert [(v["code"], v["detail"]) for v in out["violations"]] == want

    doc["compose"] = [["f", "idB", "f"], ["idA", "g", "nope1"], ["f", "nope2", "f"]] + CHAIN["compose"]
    with pytest.raises(UnknownId, match="'nope1'"):
        FiniteCategory.from_dict(doc, validate=False)
    code, out, _ = run_main(capsys, doc, "validate", tmp_path)
    assert code == 2
    assert out["error"]["message"] == "compose table mentions unknown morphism 'nope1'"


@pytest.mark.parametrize("table, entry", [
    ("vcomp", ["nope2", "i", "i"]),
    ("whisker_left", ["1", "nope2", "i"]),
    ("whisker_right", ["nope2", "1", "i"]),
])
def test_an_unknown_two_cell_in_a_table_is_named(capsys, tmp_path, table, entry):
    doc = json.loads((INSTANCES / "terminal_two_category.json").read_text())
    doc[table].append(entry)
    message = f"{'vcomp table' if table == 'vcomp' else table.replace('_', '-')} mentions unknown 2-cell 'nope2'"
    with pytest.raises(UnknownId) as exc:
        Finite2Category.from_dict(doc, validate=False)
    assert str(exc.value) == message
    code, out, _ = run_main(capsys, doc, "validate", tmp_path)
    assert code == 2
    assert out["error"] == {"type": "UnknownId", "message": message}


def test_orbit_check_at_chain_bound_three_matches_the_golden_report(tmp_path):
    # the schema's largest bound: c2-three-pairs has 1,556 1-cells there
    p = tmp_path / "c2_three_pairs_l3.json"
    p.write_text(json.dumps(action_doc(three_pairs_c2(), 3)))
    proc = run_cli("--input", str(p), "--verb", "orbit-check", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "orbit-check-l3.json").read_text()


# ----------------------------------------------------------- input errors


def test_missing_file_exits_two(tmp_path):
    code, out = run_json("--input", str(tmp_path / "absent.json"), "--verb", "frame")
    assert code == 2
    assert out["error"]["type"] == "ParseError"


def test_malformed_json_exits_two(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, out = run_json("--input", str(p), "--verb", "frame")
    assert code == 2
    assert out["error"]["type"] == "ParseError"


def _set_u1_entry(doc):
    doc["u1"][0][0] = float("nan")


def _set_vector_entry(doc):
    doc["vectors"][0][0] = float("nan")


def _set_seminorm_scale(doc):
    doc["seminorm"]["scale"] = float("inf")


def _weight_literal(doc, digits):
    """The document's text with its first weight written as 1 and ``digits`` zeros."""
    doc["weights"][0] = "<weight>"
    return json.dumps(doc).replace('"<weight>"', "1" + "0" * digits)


def _weight_past_float(doc):
    return _weight_literal(doc, 400)


def _weight_past_int_digits(doc):
    return _weight_literal(doc, 5000)  # int() refuses more than 4,300 digits


@pytest.mark.parametrize("name, verb, tamper", [
    ("bridge_demo.json", "bridge", _set_u1_entry),
    ("mercedes.json", "frame", _set_vector_entry),
    ("bridge_demo.json", "bridge", _set_seminorm_scale),
    ("mercedes.json", "frame", _weight_past_float),
    ("mercedes.json", "frame", _weight_past_int_digits),
])
def test_non_finite_constant_exits_two(tmp_path, name, verb, tamper):
    doc = json.loads((INSTANCES / name).read_text())
    text = tamper(doc) or json.dumps(doc)  # NaN / Infinity, which strict JSON lacks
    p = tmp_path / name
    p.write_text(text)
    code, out = run_json("--input", str(p), "--verb", verb)
    assert code == 2
    assert out["error"]["type"] == "ParseError"


def _overflow_vectors(doc):
    doc["vectors"] = [[x * 1e160 for x in v] for v in doc["vectors"]]


def _overflow_u1(doc):
    doc["u1"] = [[1e300] * len(row) for row in doc["u1"]]


@pytest.mark.parametrize("name, verb, tamper", [
    ("mercedes.json", "frame", _overflow_vectors),
    ("bridge_demo.json", "bridge", _overflow_u1),
])
def test_finite_input_that_overflows_exits_two(capsys, tmp_path, name, verb, tamper):
    # every entry is finite but a product overflows; with warnings as errors
    # the overflow warning must not turn the input error into a crash
    doc = json.loads((INSTANCES / name).read_text())
    tamper(doc)
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    code = cli.main(["--input", str(p), "--verb", verb, "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    assert json.loads(captured.out)["error"]["type"] == "InvalidValue"


def test_schema_violation_exits_two(tmp_path):
    p = tmp_path / "extra.json"
    p.write_text(json.dumps({
        "kind": "family", "field": "real", "dim": 2,
        "weights": [1.0, 1.0], "vectors": [[1.0, 0.0], [0.0, 1.0]],
        "surprise": True,
    }))
    code, out = run_json("--input", str(p), "--verb", "frame")
    assert code == 2
    assert out["error"]["type"] == "SchemaError"


@pytest.mark.parametrize("verb, kinds, name, kind", [
    ("validate", ["category", "two_category", "equiv_instance"], "mercedes.json", "family"),
    ("equiv", ["equiv_instance"], "mercedes.json", "family"),
    ("classes", ["equiv_instance"], "z2_orbit.json", "group_action"),
    ("orbit-check", ["group_action"], "preord_demo.json", "preord_suite"),
    ("preord-check", ["preord_suite"], "bridge_demo.json", "bridge"),
    ("frame", ["family"], "arrow_equiv.json", "equiv_instance"),
    ("bridge", ["bridge"], "terminal_two_category.json", "two_category"),
    ("orbit-check", ["group_action"], "mercedes.json", "family"),
])
def test_each_verb_rejects_other_kinds(capsys, verb, kinds, name, kind):
    code = cli.main(["--input", str(INSTANCES / name), "--verb", verb, "--format", "json"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "SchemaError",
        "message": f"verb {verb!r} expects kind in {kinds}, got {kind!r}",
    }
    with pytest.raises(SystemExit) as exc:
        cli.main(["--input", str(INSTANCES / name), "--verb", verb.upper()])
    assert exc.value.code == 2
    assert f"invalid choice: {verb.upper()!r}" in capsys.readouterr().err


def test_broken_carrier_is_an_input_error_for_equiv(tmp_path):
    doc = json.loads((INSTANCES / "arrow_equiv.json").read_text())
    doc["c"]["compose"] = [t for t in doc["c"]["compose"] if t[:2] != ["idB", "m"]]
    p = tmp_path / "broken_equiv.json"
    p.write_text(json.dumps(doc))
    code, out = run_json("--input", str(p), "--verb", "equiv")
    assert code == 2
    assert out["error"]["type"] == "InvalidInstance"


def test_reserved_carrier_name_is_an_input_error_for_orbit_check(tmp_path):
    doc = json.loads((INSTANCES / "z2_orbit.json").read_text())
    rename = {"a": "a,x"}
    doc["carrier"] = [rename.get(x, x) for x in doc["carrier"]]
    doc["act"] = [[g, rename.get(x, x), rename.get(y, y)] for g, x, y in doc["act"]]
    p = tmp_path / "comma_orbit.json"
    p.write_text(json.dumps(doc))
    code, out = run_json("--input", str(p), "--verb", "orbit-check")
    assert code == 2
    assert out["error"]["type"] == "InvalidParameter"


@pytest.mark.parametrize("what", ["group element", "carrier element"])
def test_repeated_name_is_an_input_error_for_orbit_check(capsys, tmp_path, what):
    doc = json.loads((INSTANCES / "z2_orbit.json").read_text())
    names = doc["group"]["elements"] if what == "group element" else doc["carrier"]
    names.append(names[-1])
    p = tmp_path / "repeated_orbit.json"
    p.write_text(json.dumps(doc))
    code = cli.main(["--input", str(p), "--verb", "orbit-check", "--format", "json"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "InvalidInstance",
        "message": f"1 violation(s): duplicate-id: repeated {what}",
    }


@pytest.mark.parametrize("table, entry, code", [
    ("mul", ["g", "zz", "e"], "group-extra"),
    ("act", ["zz", "a", "a"], "action-extra"),
])
def test_extra_table_entry_is_an_input_error_for_orbit_check(capsys, tmp_path, table, entry, code):
    doc = json.loads((INSTANCES / "z2_orbit.json").read_text())
    (doc["group"] if table == "mul" else doc)[table].append(entry)
    p = tmp_path / "extra_orbit.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["--input", str(p), "--verb", "orbit-check", "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "InvalidInstance",
        "message": f"1 violation(s): {code}: ({entry[0]}, {entry[1]})",
    }


def test_unexpected_exception_exits_three(monkeypatch, capsys):
    def crash(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "are_equivalent", crash)
    code = cli.main(["--input", str(INSTANCES / "arrow_equiv.json"), "--verb", "equiv"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"


def test_nonpositive_tolerance_rejected():
    proc = run_cli("--input", str(INSTANCES / "mercedes.json"),
                   "--verb", "frame", "--tol-rank", "-1e-9")
    assert proc.returncode == 2
    assert "error" in proc.stderr


@pytest.mark.parametrize("flag, value", [
    ("--tol-rank", "nan"), ("--tol-rank", "inf"), ("--tol-psd", "nan"), ("--tol-psd", "inf"),
])
def test_non_finite_tolerance_exits_two(capsys, flag, value):
    # NaN compares false with everything, so a bare <= 0 test lets it
    # through, and a NaN or infinite tolerance turns the verdicts into "no"
    code = cli.main(["--input", str(INSTANCES / "mercedes.json"), "--verb", "frame", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: tolerances must be positive and finite\n"


def test_negative_seed_exits_two(capsys):
    # numpy's generator refuses a negative seed, which surfaced as exit 3
    code = cli.main(["--input", str(INSTANCES / "bridge_demo.json"), "--verb", "bridge", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: seed must be a non-negative integer\n"


@pytest.mark.parametrize("instance, verb", [
    ("arrow_equiv.json", "equiv"),  # a yes
    ("mercedes.json", "equiv"),  # an error report: the verb does not take a family
])
def test_unwritable_out_exits_two(capsys, tmp_path, instance, verb):
    # a report that was never written must not read as a verdict
    out = tmp_path / "missing" / "out.txt"
    code = cli.main(["--input", str(INSTANCES / instance), "--verb", verb, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"
    assert not out.parent.exists()


def test_unknown_verb_rejected_by_parser():
    proc = run_cli("--input", str(INSTANCES / "mercedes.json"), "--verb", "spectra")
    assert proc.returncode == 2
    assert proc.stdout == ""


# ------------------------------------------------- numeric and value inputs


def run_main(capsys, doc, verb, tmp_path, *flags):
    """Run ``cli.main`` in-process on ``doc``; return (code, json report or None, stderr)."""
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code = cli.main(["--input", str(p), "--verb", verb, "--format", "json", *flags])
    captured = capsys.readouterr()
    return code, (json.loads(captured.out) if captured.out else None), captured.err


def test_ill_conditioned_frame_has_a_valid_onb_witness(capsys, tmp_path):
    # frame operator eigenvalues 1, 0.1, 1e-6: u P u* with u = P^(-1/2)
    # is hermitian only up to rounding
    q, _ = np.linalg.qr(np.random.default_rng(19).standard_normal((3, 3)))
    vectors = q @ np.diag(np.sqrt([1, 0.1, 1e-6]))
    doc = {"kind": "family", "field": "real", "dim": 3, "weights": [1.0] * 3,
           "vectors": vectors.T.tolist()}
    code, out, err = run_main(capsys, doc, "frame", tmp_path)
    assert (code, err) == (0, "")
    assert out["is_frame"] is True
    assert out["onb_witness_valid"] is True


@pytest.mark.parametrize("seed", range(20))
def test_onb_witness_is_judged_by_its_relative_error(capsys, tmp_path, seed):
    # frame operator eigenvalues 1, 0.1, 1e-8: |u P u* - I| reaches about
    # 1e-8, far above tol_psd, yet within tol_psd * upper / lower
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    vectors = q @ np.diag(np.sqrt([1, 0.1, 1e-8]))
    doc = {"kind": "family", "field": "real", "dim": 3, "weights": [1.0] * 3,
           "vectors": vectors.T.tolist()}
    code, out, err = run_main(capsys, doc, "frame", tmp_path)
    assert (code, err) == (0, "")
    assert out["onb_witness_valid"] is True


def test_tol_psd_reaches_seminorm_domination(capsys, tmp_path):
    # sup of the seminorm on the unit sphere is 1 + 1e-7: above the default
    # slack 1e-9, within 1e-6
    doc = json.loads((INSTANCES / "bridge_demo.json").read_text())
    doc["seminorm"]["scale"] = 1.0 + 1e-7
    _, out, _ = run_main(capsys, doc, "bridge", tmp_path)
    assert out["seminorm_dominated"] is False
    _, out, _ = run_main(capsys, doc, "bridge", tmp_path, "--tol-psd", "1e-6")
    assert out["seminorm_dominated"] is True


def test_tol_rank_reaches_the_onb_witness(capsys, tmp_path):
    # P = diag(1, 9e-12): singular at the default tolerance 1e-10, a frame
    # at 1e-12; P is diagonal, so whitening it is exact
    doc = {"kind": "family", "field": "real", "dim": 2, "weights": [1, 1],
           "vectors": [[1, 0], [0, 3e-6]]}
    code, out, err = run_main(capsys, doc, "frame", tmp_path, "--tol-rank", "1e-12")
    assert (code, err) == (0, "")
    assert out["is_frame"] is True
    assert out["onb_witness_valid"] is True


def test_tol_rank_reaches_the_onb_witness_tags(capsys, tmp_path):
    # P = diag(1e-22, 1): a frame at --tol-rank 1e-30, and its roots, with
    # condition number 1e11, are injective at that tolerance too
    doc = {"kind": "family", "field": "real", "dim": 2, "weights": [1, 1],
           "vectors": [[1e-11, 0], [0, 1]]}
    code, out, err = run_main(capsys, doc, "frame", tmp_path, "--tol-rank", "1e-30")
    assert (code, err) == (0, "")
    assert out["is_frame"] is True
    assert out["onb_witness_valid"] is True


def _ragged_u(doc):
    family = {k: doc[k] for k in ("field", "dim", "weights", "vectors")}
    doc["compare"] = {"family": family, "u": [[1, 0], [0]], "u_tilde": [[1, 0], [0, 1]]}


def _ragged_vectors(doc):
    doc["vectors"][1] = [1.0]


@pytest.mark.parametrize("tamper", [_ragged_u, _ragged_vectors])
def test_ragged_matrix_exits_two(capsys, tmp_path, tamper):
    doc = json.loads((INSTANCES / "mercedes.json").read_text())
    tamper(doc)
    code, out, _ = run_main(capsys, doc, "frame", tmp_path)
    assert code == 2
    assert out["error"]["type"] == "ParseError"


@pytest.mark.parametrize("u, code", [([[1, 0], [0, 1]], 0), ([[1, 0], [0, 0]], 1)])
def test_frame_compares_two_families_through_the_given_witnesses(capsys, tmp_path, u, code):
    # mercedes against itself: the identity carries each form onto the
    # other; a rank-one u loses a direction forward
    doc = json.loads((INSTANCES / "mercedes.json").read_text())
    family = {k: doc[k] for k in ("field", "dim", "weights", "vectors")}
    doc["compare"] = {"family": family, "u": u, "u_tilde": [[1, 0], [0, 1]]}
    got, out, err = run_main(capsys, doc, "frame", tmp_path)
    assert (got, err) == (code, "")
    assert out["compare"]["equivalent"] is (code == 0)
    assert out["compare"]["backward"]["equivalent"] is True
    if code:
        assert out["compare"]["forward"] == {"equivalent": False, "reason": "kernel mismatch: ranks differ"}


def test_bridge_without_a_seminorm_uses_the_ambient_norm(capsys, tmp_path):
    doc = json.loads((INSTANCES / "bridge_demo.json").read_text())
    del doc["seminorm"]
    code, out, err = run_main(capsys, doc, "bridge", tmp_path)
    assert (code, err) == (0, "")
    assert out["seminorm_dominated"] is True
    assert out["staged_closed_dev"] <= 1e-12


@pytest.mark.parametrize("field, code", [("complex", 0), ("real", 2)])
def test_a_re_im_pair_is_one_complex_entry(capsys, tmp_path, field, code):
    # (0, 3 + 4i) has squared norm 25, so the upper frame bound is 25; a
    # real family may not hold it
    doc = {"kind": "family", "field": field, "dim": 2, "weights": [1, 1], "vectors": [[1, 0], [0, [3, 4]]]}
    got, out, err = run_main(capsys, doc, "frame", tmp_path)
    assert (got, err) == (code, "")
    if code:
        assert out["error"] == {"type": "ParseError", "message": "real instance contains non-real entries"}
    else:
        assert (out["lower_bound"], out["upper_bound"]) == pytest.approx((1, 25))


def _scalar(value):
    def tamper(doc):
        doc["cells"][0]["scalar"] = value
    return tamper


def _carrier_entry(doc):
    doc["objects"][0]["carrier"][1] = "x"  # X is numeric: it has no act table


def _huge_vector_entry(doc):
    doc["vectors"][0][1] = 1e200  # the frame operator overflows


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("name, verb, tamper", [
    ("preord_demo.json", "preord-check", _scalar("0")),
    ("preord_demo.json", "preord-check", _scalar("1/0")),
    ("preord_demo.json", "preord-check", _scalar("abc")),
    ("preord_demo.json", "preord-check", _carrier_entry),
    ("mercedes.json", "frame", _huge_vector_entry),
])
def test_bad_value_exits_two(capsys, tmp_path, name, verb, tamper):
    doc = json.loads((INSTANCES / name).read_text())
    tamper(doc)
    code, out, _ = run_main(capsys, doc, verb, tmp_path)
    assert code == 2
    assert out["error"]["type"] == "InvalidValue"


def test_a_composite_that_is_not_a_cell_is_a_no(capsys, tmp_path):
    # p collapses Y, so 2: f => g is a cell but its whiskering by p is not,
    # and neither is the left-hand side of the square (alpha, one_g, one_p, one_p)
    doc = {
        "kind": "preord_suite",
        "objects": [{"name": "X", "carrier": ["1"]}, {"name": "Y", "carrier": ["1", "2"]},
                    {"name": "Z", "carrier": ["1", "2", "4"]}],
        "maps": [{"name": "f", "dom": "X", "cod": "Y", "table": {"1": "2"}},
                 {"name": "g", "dom": "X", "cod": "Y", "table": {"1": "1"}},
                 {"name": "p", "dom": "Y", "cod": "Z", "table": {"1": "1", "2": "1"}}],
        "cells": [{"name": "alpha", "scalar": "2", "src": "f", "tgt": "g"},
                  {"name": "one_g", "scalar": "1", "src": "g", "tgt": "g"},
                  {"name": "one_p", "scalar": "1", "src": "p", "tgt": "p"}],
    }
    code, out, err = run_main(capsys, doc, "preord-check", tmp_path)
    assert (code, err) == (1, "")
    assert out["cells"] == {"alpha": True, "one_g": True, "one_p": True}
    assert {"kind": "horizontal", "cells": ["alpha", "one_p"]} in out["composite_failures"]
    assert ["alpha", "one_g", "one_p", "one_p"] in out["interchange_failures"]
    assert out["all_ok"] is False


def test_a_square_with_one_horizontal_composite_that_is_not_a_cell_is_a_no(capsys, tmp_path):
    # p collapses Y.  In both squares (d2 . d) * (c2 . c) = 1/2: p.f => p.g
    # is a cell; in the first d * c = 2: p.f => p.g is not, in the second
    # d2 * c2 is not
    doc = {
        "kind": "preord_suite",
        "objects": [{"name": "X", "carrier": ["1"]}, {"name": "Y", "carrier": ["1", "2"]},
                    {"name": "Z", "carrier": ["1", "2", "4"]}],
        "maps": [{"name": "f", "dom": "X", "cod": "Y", "table": {"1": "2"}},
                 {"name": "g", "dom": "X", "cod": "Y", "table": {"1": "1"}},
                 {"name": "p", "dom": "Y", "cod": "Z", "table": {"1": "1", "2": "1"}}],
        "cells": [{"name": "alpha", "scalar": "2", "src": "f", "tgt": "g"},
                  {"name": "half_f", "scalar": "1/2", "src": "f", "tgt": "f"},
                  {"name": "half_g", "scalar": "1/2", "src": "g", "tgt": "g"},
                  {"name": "half_p", "scalar": "1/2", "src": "p", "tgt": "p"},
                  {"name": "one_p", "scalar": "1", "src": "p", "tgt": "p"}],
    }
    code, out, err = run_main(capsys, doc, "preord-check", tmp_path)
    assert (code, err) == (1, "")
    assert all(out["cells"].values())
    assert ["alpha", "half_g", "one_p", "half_p"] in out["interchange_failures"]
    assert ["half_f", "alpha", "half_p", "one_p"] in out["interchange_failures"]
    assert ["half_f", "alpha", "one_p", "half_p"] not in out["interchange_failures"]


def test_preord_check_builds_each_composite_once(capsys, tmp_path, monkeypatch):
    # 6 declared cells, 7 vertical and 7 horizontal pairs, and one new
    # composite (d . c) * (b . a) per square, 9 squares: 29 cell tests, where
    # rebuilding the four other composites of each square made 65
    scans = []
    is_two_cell = preord_mset.is_two_cell
    monkeypatch.setattr(preord_mset, "is_two_cell", lambda *args: scans.append(args) or is_two_cell(*args))
    doc = json.loads((INSTANCES / "preord_demo.json").read_text())
    code, out, _ = run_main(capsys, doc, "preord-check", tmp_path)
    assert (code, out["interchange_checked"], out["all_ok"]) == (0, 9, True)
    assert len(scans) == 29


@pytest.mark.parametrize("field", ["objects", "maps", "cells"])
def test_a_repeated_suite_name_exits_two(capsys, tmp_path, field):
    # the report is keyed by name, so a second entry of the same name would
    # overwrite the first's line there while the checks kept using the first
    doc = json.loads((INSTANCES / "preord_demo.json").read_text())
    doc[field].append({**doc[field][0], **({"scalar": "1000"} if field == "cells" else {})})
    code, out, _ = run_main(capsys, doc, "preord-check", tmp_path)
    assert code == 2
    assert out["error"] == {
        "type": "SchemaError",
        "message": f"the name {doc[field][0]['name']!r} is repeated in {field}",
    }


def _mutate(rng, doc):
    """Change one to three numbers or rationals of ``doc``, sometimes a matrix row's length.

    The tables embedded in an equivalence instance (its ``c`` and ``d``),
    which the schema types only as objects, get structural changes instead.
    """
    if "c" in doc:
        _mutate_tables(rng, doc)
        return
    numbers, rationals, rows = [], [], []

    def walk(node, parent, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, node, k)
        elif isinstance(node, list):
            if node and all(isinstance(r, list) for r in node) and len(node[0]) > 1:
                rows.append(node)
            for i, v in enumerate(node):
                walk(v, node, i)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            numbers.append((parent, key))
        elif isinstance(node, str) and key != "name":
            try:
                Fraction(node)
            except (ValueError, ZeroDivisionError):
                return
            rationals.append((parent, key))

    walk(doc, None, None)
    for _ in range(rng.randint(1, 3)):
        if rationals and (not numbers or rng.random() < 0.5):
            parent, key = rng.choice(rationals)
            parent[key] = rng.choice(["0", "-1", "1/0"])
        elif numbers:
            parent, key = rng.choice(numbers)
            how = rng.choice(["zero", "negate", "scale"])
            if how == "zero":
                parent[key] = 0
            elif how == "negate":
                parent[key] = -parent[key]
            else:
                scaled = parent[key] * 10.0 ** rng.choice([8, 12, 200, 300, -8, -12, -200, -300])
                if math.isfinite(scaled):
                    parent[key] = scaled
    if rows and rng.random() < 0.1:
        rng.choice(rng.choice(rows)).pop()


def _mutate_tables(rng, doc):
    """One to three changes to the shape of ``doc["c"]`` and ``doc["d"]``: a
    key dropped, a table entry resized to 0-4 items, an object entry written
    as the list of its values, or a value swapped for one of another type."""
    for _ in range(rng.randint(1, 3)):
        table = doc[rng.choice("cd")]
        if not table:
            continue
        key = rng.choice(sorted(table))
        how = rng.choice(["drop", "resize", "as-list", "swap"])
        if how == "drop":
            del table[key]
        elif how == "swap":
            table[key] = rng.choice([{}, [], "x", 5, None])
        elif isinstance(table[key], list) and table[key]:
            i = rng.randrange(len(table[key]))
            entry = table[key][i]
            if how == "as-list" and isinstance(entry, dict):
                table[key][i] = list(entry.values())
            elif isinstance(entry, list):
                table[key][i] = (entry * 2)[:rng.randint(0, 4)]
            else:
                table[key][i] = rng.choice([{}, [], "x", 5, None, ["x", "y", "z"]])


def _empty_c(doc):
    doc["c"] = {}


def _short_compose_entry(doc):
    doc["d"]["compose"][0] = ["a"]


def _two_cell_as_list(doc):
    doc["d"]["two_cells"][0] = list(doc["d"]["two_cells"][0].values())


@pytest.mark.parametrize("tamper, field", [
    (_empty_c, "c"), (_short_compose_entry, "d"), (_two_cell_as_list, "d"),
])
@pytest.mark.parametrize("verb", ["equiv", "classes", "validate"])
def test_misshapen_tables_exit_two(capsys, tmp_path, tamper, field, verb):
    # the schema types c and d only as objects; reading them checks their shape
    doc = json.loads((INSTANCES / "arrow_equiv.json").read_text())
    tamper(doc)
    code, out, err = run_main(capsys, doc, verb, tmp_path)
    assert (code, err) == (2, "")
    assert out["error"]["type"] == "ParseError"
    assert out["error"]["message"].startswith(f"{field} is not a well-formed table: ")


def test_a_fault_in_validate_still_exits_three(monkeypatch, capsys):
    def crash(self):
        raise KeyError("boom")

    monkeypatch.setattr(cli.Finite2Category, "validate", crash)
    code = cli.main(["--input", str(INSTANCES / "arrow_equiv.json"), "--verb", "classes"])
    assert code == 3
    assert capsys.readouterr().err == "internal error: KeyError: 'boom'\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow and underflow of scaled numbers
def test_fuzzed_documents_exit_zero_one_or_two(capsys, tmp_path):
    rng = random.Random(3)
    codes = []
    for name, verb in (("mercedes.json", "frame"), ("bridge_demo.json", "bridge"),
                       ("preord_demo.json", "preord-check"), ("arrow_equiv.json", "equiv"),
                       ("arrow_equiv.json", "classes"), ("arrow_equiv.json", "validate")):
        base = json.loads((INSTANCES / name).read_text())
        for _ in range(200):
            doc = copy.deepcopy(base)
            _mutate(rng, doc)
            code, _, err = run_main(capsys, doc, verb, tmp_path)
            assert code in (0, 1, 2) and "internal error" not in err, (name, doc, err)
            codes.append(code)
    assert {0, 1, 2} <= set(codes)


def test_benchmark_self_test_passes():
    # the benchmark reads the library's tables its own way (compose_table
    # as a mapping, the lazily built 2-cell tables); its self-test feeds
    # every output check right and wrong answers
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("workload", ["deloop-orbits", "tables-classes", "frames-compare", "cli-verbs"])
def test_traced_benchmark_run_reports_every_layer(workload):
    # the traced run wraps library names and times the CLI's imports; a
    # renamed or dropped name, or a changed import, makes it fail.
    # tables-classes also wraps Finite2Category.__init__ and reads its
    # tables; frames-compare wraps the numeric layers and cli-verbs the
    # preorder checks and the constructors its in-process runs call
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "0.5", "--trace", "1"],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in layers} <= set(result["metrics"])
