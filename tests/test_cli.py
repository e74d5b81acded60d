import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from morpheq import cli

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


def test_validate_report_does_not_depend_on_hash_seed(tmp_path):
    doc = json.loads((INSTANCES / "arrow_equiv.json").read_text())
    doc["c"]["compose"] = doc["c"]["compose"][3:]
    p = tmp_path / "gaps.json"
    p.write_text(json.dumps(doc))
    runs = [
        run_cli("--input", str(p), "--verb", "validate",
                env={**os.environ, "PYTHONHASHSEED": seed})
        for seed in ("0", "2")
    ]
    assert runs[0].returncode == runs[1].returncode == 1
    assert "compose-missing" in runs[0].stdout
    assert runs[0].stdout == runs[1].stdout


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


@pytest.mark.parametrize("name, verb, tamper", [
    ("bridge_demo.json", "bridge", _set_u1_entry),
    ("mercedes.json", "frame", _set_vector_entry),
    ("bridge_demo.json", "bridge", _set_seminorm_scale),
])
def test_non_finite_constant_exits_two(tmp_path, name, verb, tamper):
    doc = json.loads((INSTANCES / name).read_text())
    tamper(doc)
    p = tmp_path / name
    p.write_text(json.dumps(doc))  # writes NaN / Infinity, which strict JSON lacks
    code, out = run_json("--input", str(p), "--verb", verb)
    assert code == 2
    assert out["error"]["type"] == "ParseError"


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


def test_wrong_kind_for_verb_exits_two():
    code, out = run_json("--input", str(INSTANCES / "mercedes.json"),
                         "--verb", "orbit-check")
    assert code == 2
    assert out["error"]["type"] == "SchemaError"


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


def test_unexpected_exception_exits_three(monkeypatch, capsys):
    def crash(doc, cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_run_equiv", crash)
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


def test_unknown_verb_rejected_by_parser():
    proc = run_cli("--input", str(INSTANCES / "mercedes.json"), "--verb", "spectra")
    assert proc.returncode == 2
    assert proc.stdout == ""
