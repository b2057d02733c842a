import contextlib
import copy
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BLAS_THREAD_VARS
from nevlab import analysis, cli, invariance, reports, runner
from nevlab.document import DocumentError, parse_document
from nevlab.herglotz import FamilyEvaluator

EYE1 = [[[1.0, 0.0]]]
ZERO1 = [[[0.0, 0.0]]]


def minimal_doc(**extra):
    doc = {
        "version": "nevlab/1",
        "seed": 1,
        "entities": [
            {"name": "f", "kind": "herglotz_rep", "b0": ZERO1, "b1": EYE1, "atoms": []}
        ],
        "tasks": [{"name": "t", "task": "classify", "entity": "f"}],
    }
    doc.update(extra)
    return doc


class TestParsing:
    def test_minimal_document(self):
        doc = parse_document(json.dumps(minimal_doc()))
        assert doc.version == "nevlab/1"
        assert doc.entities[0]["name"] == "f"

    def test_syntax_error_reports_position(self):
        with pytest.raises(DocumentError) as err:
            parse_document('{"version": "nevlab/1",}')
        assert "line 1" in err.value.errors[0]

    def test_duplicate_entity_names_cite_both(self):
        raw = minimal_doc()
        raw["entities"].append(dict(raw["entities"][0]))
        with pytest.raises(DocumentError) as err:
            parse_document(json.dumps(raw))
        msg = "\n".join(err.value.errors)
        assert "entities[0]" in msg and "entities[1]" in msg

    def test_dangling_reference(self):
        raw = minimal_doc()
        raw["tasks"][0]["entity"] = "ghost"
        with pytest.raises(DocumentError) as err:
            parse_document(json.dumps(raw))
        assert any("dangling" in e for e in err.value.errors)

    def test_unknown_entity_kind(self):
        raw = minimal_doc()
        raw["entities"][0]["kind"] = "mystery"
        with pytest.raises(DocumentError) as err:
            parse_document(json.dumps(raw))
        assert any("unknown kind" in e for e in err.value.errors)

    def test_wrong_version_tag(self):
        raw = minimal_doc(version="nevlab/2")
        with pytest.raises(DocumentError):
            parse_document(json.dumps(raw))

    def test_decreasing_sweep_rejected(self):
        raw = minimal_doc()
        raw["tasks"] = [
            {
                "name": "s",
                "task": "sweep",
                "sequence": "diag-inverse-k",
                "n_list": [32, 16],
            }
        ]
        with pytest.raises(DocumentError) as err:
            parse_document(json.dumps(raw))
        assert any("strictly increasing" in e for e in err.value.errors)

    def test_all_errors_collected(self):
        raw = minimal_doc(version="bad")
        raw["entities"][0]["kind"] = "mystery"
        raw["tasks"][0]["entity"] = "ghost"
        with pytest.raises(DocumentError) as err:
            parse_document(json.dumps(raw))
        assert len(err.value.errors) >= 3

    def test_duplicate_json_keys_rejected(self):
        text = '{"version": "nevlab/1", "version": "nevlab/1"}'
        with pytest.raises(DocumentError):
            parse_document(text)

    def test_matrix_shape_errors(self):
        raw = minimal_doc()
        raw["entities"][0]["b1"] = [[1.0, 0.0]]
        with pytest.raises(DocumentError) as err:
            parse_document(json.dumps(raw))
        assert any("re, im" in e for e in err.value.errors)


class TestRunner:
    def test_classify_task(self):
        doc = parse_document(json.dumps(minimal_doc()))
        out = runner.run_document(doc)
        assert len(out) == 1 and out[0].passed
        assert out[0].rows[0]["label"] == "R^u"

    def test_entity_construction_rejects_bad_numerics(self):
        raw = minimal_doc()
        raw["entities"][0]["b1"] = [[[-1.0, 0.0]]]  # not PSD
        doc = parse_document(json.dumps(raw))
        with pytest.raises(runner.RunError):
            runner.run_document(doc)

    def test_pinned_invariance_document(self):
        raw = {
            "version": "nevlab/1",
            "entities": [
                {
                    "name": "d",
                    "kind": "herglotz_rep",
                    "b0": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [3.0, 0.0]]],
                    "b1": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                    "atoms": [],
                }
            ],
            "tasks": [
                {
                    "name": "inv",
                    "task": "invariance",
                    "entity": "d",
                    "a": 3.0,
                    "checks": ["point", "imag_kernel", "mul"],
                }
            ],
        }
        out = runner.run_document(parse_document(json.dumps(raw)))
        assert out[0].passed

    def test_transform_chain_pair(self):
        raw = minimal_doc()
        raw["entities"].append({"name": "fam", "kind": "family", "rep": "f"})
        raw["entities"].append(
            {"name": "p0", "kind": "pair", "pair": {"type": "canonical", "family": "fam"}}
        )
        raw["entities"].append(
            {
                "name": "p1",
                "kind": "pair",
                "pair": {
                    "type": "transform",
                    "base": "p0",
                    "steps": [{"op": "shift", "x": EYE1}, {"op": "flip"}],
                },
            }
        )
        raw["tasks"] = [
            {"name": "inv", "task": "invariance", "entity": "p1", "a": 0.0,
             "checks": ["boundedness", "mul"]}
        ]
        out = runner.run_document(parse_document(json.dumps(raw)))
        assert out[0].passed


class TestReportWriting:
    def test_csv_deterministic_layout(self, tmp_path):
        report = runner.TaskReport(
            "t", "classify", True, {}, [{"a": 1.0 / 3.0, "b": 1, "c": "x"}]
        )
        text = reports.report_csv(report)
        assert text.splitlines()[0] == "a,b,c"
        assert repr(1.0 / 3.0) in text

    def test_write_reports_summary(self, tmp_path):
        report = runner.TaskReport("t", "classify", True, {"k": 1}, [])
        summary = reports.write_reports([report], tmp_path, "both")
        assert summary["passed"]
        assert (tmp_path / "t.csv").exists()
        assert (tmp_path / "t.json").exists()
        assert json.loads((tmp_path / "summary.json").read_text())["passed"]

    def test_numpy_scalars_write_as_their_python_values(self):
        """A numpy scalar takes the CSV cell and JSON text of its .item() (numpy 2 reprs are not)."""
        values = {"f": np.float64(0.5), "b": np.bool_(True), "i": np.int64(3),
                  "g": np.float32(0.25), "n": np.float64("nan"), "s": np.str_("x")}
        plain = {key: value.item() for key, value in values.items()}
        got = runner.TaskReport("t", "classify", True, dict(values), [values])
        want = runner.TaskReport("t", "classify", True, dict(plain), [plain])
        assert reports.report_csv(got) == reports.report_csv(want) == "f,b,i,g,n,s\n0.5,1,3,0.25,nan,x\n"
        assert reports.report_json(got) == reports.report_json(want)


def _jsonable(value):
    """The walk that copied a report before json.dumps wrote it, kept as the writer's oracle."""
    if isinstance(value, bool):
        return value
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        value = value.item()  # numpy scalars
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _oracle_json(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"


_report_floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])
_report_text = st.text(max_size=8) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é", "\u2028", "😀"])
_report_leaves = (
    _report_floats | st.integers(-2**200, 2**200) | st.booleans() | st.none() | _report_text
    | _report_floats.map(np.float64) | st.floats(width=32).map(np.float32)
    | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.booleans().map(np.bool_)
    | _report_text.map(np.str_)
)
_report_values = st.recursive(
    _report_leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_report_text, inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(task=_report_text, passed=st.booleans() | st.booleans().map(np.bool_),
       summary=st.dictionaries(_report_text, _report_values, max_size=4),
       rows=st.lists(st.dictionaries(_report_text, _report_values, max_size=4), max_size=4))
def test_report_json_equals_json_dumps(task, passed, summary, rows):
    """Each JSON report and summary.json is json.dumps(indent=2, sort_keys=True) of the old copy."""
    report = runner.TaskReport("t", task, passed, summary, rows)
    assert reports.report_json(report) == _oracle_json(report.to_json_obj())
    with tempfile.TemporaryDirectory() as tmp:
        written = reports.write_reports([report, runner.TaskReport("u", "", True, {})], tmp, "json")
        assert (Path(tmp) / "summary.json").read_text() == _oracle_json(written)


class TestCommandLine:
    def test_demo_runs_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["demo", "--out", str(out1)]) == 0
        assert cli.main(["demo", "--out", str(out2)]) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_run_subcommand(self, tmp_path):
        doc_path = tmp_path / "job.json"
        doc_path.write_text(json.dumps(minimal_doc()))
        assert cli.main(["run", str(doc_path), "--out", str(tmp_path / "out")]) == 0

    def test_usage_error_on_invalid_document(self, tmp_path):
        doc_path = tmp_path / "job.json"
        doc_path.write_text('{"version": "wrong"}')
        assert cli.main(["run", str(doc_path)]) == 2

    def test_usage_error_on_missing_file(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.json")]) == 2

    def test_failing_task_exits_one(self, tmp_path):
        raw = minimal_doc()
        raw["entities"] = [
            {
                "name": "f",
                "kind": "herglotz_rep",
                "b0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
                "b1": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
                "atoms": [[-1.0, [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]],
            }
        ]
        raw["tasks"] = [
            {"name": "bad", "task": "analysis", "entity": "f", "analyses": ["schatten"]}
        ]
        doc_path = tmp_path / "job.json"
        doc_path.write_text(json.dumps(raw))
        # a generic 2x2 family has no invariant decay exponent to certify
        assert cli.main(["run", str(doc_path), "--out", str(tmp_path / "out")]) == 1

    def test_analysis_defaults_pass_on_the_demo_family(self, tmp_path):
        """The default list leaves out schatten, whose fit needs dim 18 by default."""
        doc_path = tmp_path / "demo.json"
        doc_path.write_text(cli.demo_document_text())
        out = tmp_path / "o"
        assert cli.main(["analysis", str(doc_path), "--entity", "fam", "--out", str(out)]) == 0
        rows = json.loads((out / "analysis-fam.json").read_text())["rows"]
        assert [r["analysis"] for r in rows] == ["split", "c2", "weak_strong", "factor"]

    @pytest.mark.parametrize("entity", ["ex", "sl"])
    def test_analysis_defaults_pass_without_representation_data(self, tmp_path, entity):
        """split, weak_strong and factor need a rep; a rep-less entity gets c2 and sandwich."""
        doc_path = tmp_path / "demo.json"
        doc_path.write_text(cli.demo_document_text())
        out = tmp_path / "o"
        assert cli.main(["analysis", str(doc_path), "--entity", entity, "--out", str(out)]) == 0
        rows = json.loads((out / f"analysis-{entity}.json").read_text())["rows"]
        assert [r["analysis"] for r in rows] == ["c2", "sandwich"]

    def test_analysis_defaults_keep_the_rep_list_bytes(self, tmp_path):
        doc_path = tmp_path / "demo.json"
        doc_path.write_text(cli.demo_document_text())
        base = ["analysis", str(doc_path), "--entity", "fam", "--format", "both"]
        assert cli.main([*base, "--out", str(tmp_path / "default")]) == 0
        assert cli.main([*base, "--out", str(tmp_path / "listed"),
                         "--analyses", "split,c2,weak_strong,factor"]) == 0
        for name in ("analysis-fam.json", "analysis-fam.csv", "summary.json"):
            assert ((tmp_path / "default" / name).read_bytes()
                    == (tmp_path / "listed" / name).read_bytes())

    def test_classify_subcommand(self, tmp_path):
        doc_path = tmp_path / "job.json"
        doc_path.write_text(json.dumps(minimal_doc()))
        code = cli.main(
            ["classify", str(doc_path), "--entity", "f", "--out", str(tmp_path / "o")]
        )
        assert code == 0
        data = json.loads((tmp_path / "o" / "classify-f.json").read_text())
        assert data["rows"][0]["label"] == "R^u"

    def test_classify_unknown_entity_usage_error(self, tmp_path):
        doc_path = tmp_path / "job.json"
        doc_path.write_text(json.dumps(minimal_doc()))
        assert cli.main(["classify", str(doc_path), "--entity", "nope"]) == 2

    def test_harnack_subcommand(self, capsys):
        for z2 in ("0,2", "1e-200,2"):  # a real-part gap far below round-off of the heights
            assert cli.main(["harnack", "--z1", "0,1", "--z2", z2]) == 0
            out = capsys.readouterr().out
            assert "c2 = 2.0" in out

    def test_harnack_point_with_a_negative_real_part(self, monkeypatch, capsys):
        """argparse takes a separate "-2,0.5" for an option; the "=" form, named in --help, parses."""
        assert cli.main(["harnack", "--z1=-2,0.5", "--z2", "3,4"]) == 0
        hp = analysis.harnack_constants(-2 + 0.5j, 3 + 4j)
        assert capsys.readouterr().out.splitlines()[:2] == [f"c1 = {hp.c1!r}", f"c2 = {hp.c2!r}"]
        monkeypatch.setenv("COLUMNS", "200")  # help lines unwrapped
        assert cli.main(["harnack", "--help"]) == 0
        assert "--z1=-2,0.5" in capsys.readouterr().out

    def test_one_parser_keeps_no_value_between_calls(self, tmp_path, monkeypatch, capsys):
        """The parser is built once per process; no flag of one call reaches the next."""
        assert cli.build_parser() is cli.build_parser()
        doc_path = tmp_path / "job.json"
        doc_path.write_text(json.dumps(minimal_doc()))
        doc, seen, load = str(doc_path), [], cli._load_document
        monkeypatch.setattr(cli, "_load_document",
                            lambda args, text: seen.append(vars(args)) or load(args, text))
        calls = [
            ["run", doc, "--tol-rank", "1e-7", "--format", "csv", "--grid", "0,1;1,2", "--out",
             "o1"],
            ["run", doc, "--out", "o2"],
            ["classify", doc, "--entity", "f", "--tol-psd", "1e-3", "--out", "o3"],
            ["classify", doc, "--out", "o4"],
            ["analysis", doc, "--entity", "f", "--analyses", "c2", "--z", "1,3", "--out", "o5"],
            ["analysis", doc, "--entity", "f", "--out", "o6"],
        ]
        monkeypatch.chdir(tmp_path)
        for argv in calls:
            assert cli.main(argv) == 0
            assert seen[-1] == vars(cli.build_parser.__wrapped__().parse_args(argv))
        assert sorted(p.name for p in (tmp_path / "o1").iterdir()) == ["summary.json", "t.csv"]
        assert sorted(p.name for p in (tmp_path / "o2").iterdir()) == ["summary.json", "t.csv",
                                                                       "t.json"]
        for z1, c2 in (("0,3", "c2 = 1.5"), (None, "c2 = 2.0")):
            assert cli.main(["harnack"] + (["--z1", z1] if z1 else [])) == 0
            assert c2 in capsys.readouterr().out

    @pytest.mark.parametrize("x, c2", [("1e70", 1e140), ("1e80", 1e160)])
    def test_harnack_far_apart(self, x, c2, capsys):
        assert cli.main(["harnack", "--z1", "0,1", "--z2", f"{x},1"]) == 0
        printed = capsys.readouterr().out.splitlines()[1]
        assert printed.startswith("c2 = ")
        assert float(printed.removeprefix("c2 = ")) == pytest.approx(c2, rel=1e-14)

    @pytest.mark.parametrize("z1, c1, c2", [("0,1", "1e-308", "1e+308"), ("0,1e308", "1.0", "1.0")])
    def test_harnack_at_the_float_range_passes_its_certificate(self, z1, c1, c2, capsys):
        """Heights at the float range give finite ray ratios, which pass."""
        assert cli.main(["harnack", "--z1", z1, "--z2", "0,1e308"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"c1 = {c1}", f"c2 = {c2}"]
        head, worst = lines[2].split(": ")
        assert head == "certificate worst violation on the cone's extreme rays"
        assert 0.0 <= float(worst) <= analysis.HARNACK_CERTIFICATE_TOL

    def test_harnack_where_a_modulus_overflows(self, capsys):
        """|z1 - conj z2| passes the float range at finite points: the 1/8 rescale gives c2.

        The far end of the geodesic overflows too, so the certificate scales the
        points as well; tests/test_analysis.py shows an understated c2 fails here."""
        assert cli.main(["harnack", "--z1", "0,7.5e307", "--z2", "1.5e308,7.5e307"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "c2 = 5.828427124746192"  # 3 + 2 sqrt(2)
        assert float(lines[2].split(": ")[1]) <= analysis.HARNACK_CERTIFICATE_TOL

    def test_c2_analysis_near_the_float_range(self, tmp_path):
        doc_path = tmp_path / "job.json"
        doc_path.write_text(json.dumps(minimal_doc(tasks=[_analysis("c2", z=[1e155, 1e6])])))
        assert cli.main(["run", str(doc_path), "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "t.json").read_text())
        assert report["rows"][0]["value"] == pytest.approx(1e304, rel=1e-14)

    def test_weak_strong_without_a_measure_passes(self, tmp_path):
        """K = 0: T = (B0 + B1 z) - B1 z - B0 is round-off on an empty range, not a violation."""
        rep = {"name": "r", "kind": "herglotz_rep", "atoms": [],
               "b0": [[[0.1, 0.0], [0.3, 0.0]], [[0.3, 0.0], [-0.7, 0.0]]],
               "b1": [[[0.2, 0.0], [0.05, 0.0]], [[0.05, 0.0], [0.3, 0.0]]]}
        doc_path = tmp_path / "job.json"
        doc_path.write_text(json.dumps(minimal_doc(entities=[rep])))
        out = tmp_path / "o"
        assert cli.main(["analysis", str(doc_path), "--entity", "r", "--z=-2,0.1",
                         "--out", str(out)]) == 0
        rows = json.loads((out / "analysis-r.json").read_text())["rows"]
        (row,) = [r for r in rows if r["analysis"] == "weak_strong"]
        assert (row["value"], row["residual"], row["passed"]) == (0.0, 0.0, 1)

    def test_grid_override_applies(self, tmp_path):
        doc_path = tmp_path / "job.json"
        doc_path.write_text(json.dumps(minimal_doc()))
        code = cli.main(
            [
                "invariance", str(doc_path), "--entity", "f", "--a", "0.0",
                "--grid", "0,1;0,-1;2,0.5",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 0
        data = json.loads((tmp_path / "o" / "invariance-f.json").read_text())
        point_rows = [r for r in data["rows"] if r["statement"] == "point-spectrum-invariance"]
        assert len(point_rows) == 3


SL = {"name": "sl", "kind": "sturm_liouville", "n": 8, "phi": None}
EX4A = {"name": "ex", "kind": "ex4a", "n": 3}
INVARIANCE = {"name": "t", "task": "invariance", "entity": "f"}
SWEEP = {"name": "t", "task": "sweep", "sequence": "diag-inverse-k", "n_list": [8, 16]}
GAP = {"name": "t", "task": "examples", "entity": "sl", "what": "gap_sweep"}
FORM = {"name": "t", "task": "examples", "entity": "ex", "what": "form_domain"}


def _with(*tasks, entities=(SL, EX4A), **extra):
    raw = minimal_doc(**extra)
    raw["entities"] += list(entities)
    raw["tasks"] = list(tasks) or raw["tasks"]
    return raw


def _rep(name="g", **fields):
    return {"name": name, "kind": "herglotz_rep", "b0": ZERO1, "b1": EYE1, "atoms": [], **fields}


PAIR = {"name": "p", "kind": "pair", "pair": {"type": "canonical", "family": "f"}}
FAMILY = {"name": "fam", "kind": "family", "rep": "f"}


def _analysis(*analyses, **fields):
    return {"name": "t", "task": "analysis", "entity": "f", "analyses": list(analyses),
            **fields}


# (document, extra command-line arguments); each one used to run, and crash or
# fail or write outside --out, and must now be rejected before anything runs
REJECTED = {
    "analysis-z-text": (_with(_analysis("c2", z="ab")), []),
    "analysis-z-lower": (_with(_analysis("c2", z=[0, -1])), []),
    "analysis-trials-text": (_with(_analysis("weak_strong", trials="x")), []),
    "analysis-trials-zero": (_with(_analysis("sandwich", trials=0)), []),
    "sweep-trials-text": (_with({**SWEEP, "trials": "x"}), []),
    "sweep-trials-zero": (_with({**SWEEP, "trials": 0}), []),
    "gap-sweep-n-list-text": (_with({**GAP, "n_list": "x"}), []),
    "gap-sweep-n-list-small": (_with({**GAP, "n_list": [4]}), []),
    "invariance-a-text": (_with({**INVARIANCE, "a": "x", "checks": ["mul"]}), []),
    "grid-real-only": (_with(INVARIANCE, grid=[[0.5, 0.0], [1.0, 0.0]]), []),
    "grid-lower-only": (_with(SWEEP, grid=[[0.0, -1.0], [1.0, -2.0]]), []),
    "cli-grid-real": (_with(INVARIANCE), ["--grid", "0.5,0"]),
    "cli-tol-psd": (_with(), ["--tol-psd", "5"]),
    "name-traversal": (_with({**INVARIANCE, "name": "../../x"}), []),
    "name-summary": (_with({**INVARIANCE, "name": "summary"}), []),
    "b-decay-increasing": (_with(FORM, entities=[SL, {**EX4A, "b_decay": [0.1, 0.2, 0.3]}]),
                           []),
    "sl-length-huge": (_with(entities=[{**SL, "length": 10**400}]), []),
    "sl-length-infinite": (_with(entities=[{**SL, "length": float("inf")}]), []),
    "atom-t-infinite": (_with(entities=[_rep(atoms=[[float("inf"), EYE1]])]), []),
    "atom-t-nan": (_with(entities=[_rep(atoms=[[float("nan"), EYE1]])]), []),
    "atom-t-bool": (_with(entities=[_rep(atoms=[[True, EYE1]])]), []),
    "ex4a-seed-text": (_with(entities=[{**EX4A, "seed": "x"}]), []),
    "ex4a-seed-negative": (_with(entities=[{**EX4A, "seed": -1}]), []),
    "ex4a-seed-fraction": (_with(entities=[{**EX4A, "seed": 1.5}]), []),
    "ex4a-n-bool": (_with(entities=[{**EX4A, "n": True}]), []),
    "entity-unknown-key": (_with(entities=[{**EX4A, "b_decy": [0.3, 0.2, 0.1]}]), []),
    "matrix-entry-huge": (_with(entities=[_rep(b1=[[[10**400, 0.0]]])]), []),
    "matrix-entry-nan": (_with(entities=[_rep(b1=[[[float("nan"), 0.0]]])]), []),
    "family-rep-names-pair": (_with(entities=[PAIR, {**FAMILY, "rep": "p"}]), []),
    "sl-phi-names-pair": (_with(entities=[PAIR, {**SL, "phi": "p"}]), []),
    # not run on the old code: there the first loops for days, the second asks
    # for a 100000 x 100000 complex matrix
    "harnack-trials-huge": (_with({"name": "t", "task": "harnack", "trials": 10**12}), []),
    "sweep-n-list-huge": (_with({**SWEEP, "n_list": [8, 100000]}), []),
    # task entities of the wrong kind used to run and fail as checks (exit 1),
    # and imag_kernel on a pair was dropped without a note (exit 0)
    "analysis-on-pair": (_with({**_analysis("c2"), "entity": "p"}, entities=[PAIR]), []),
    "harnack-on-pair": (_with({"name": "t", "task": "harnack", "entity": "p"},
                              entities=[PAIR]), []),
    "decay-on-ex4a": (_with({"name": "t", "task": "examples", "entity": "ex",
                             "what": "decay"}), []),
    "form-domain-on-sl": (_with({**FORM, "entity": "sl"}), []),
    "imag-kernel-on-pair": (_with({**INVARIANCE, "entity": "p", "checks": ["imag_kernel"]},
                                  entities=[PAIR]), []),
    # document-level fields
    "seed-negative": (_with(seed=-1), []),
    "seed-bool": (_with(seed=True), []),
    "tolerances-not-object": (_with(tolerances=[1e-9]), []),
    "tolerances-unknown-key": (_with(tolerances={"eps_psdd": 1e-9}), []),
    "tolerances-zero": (_with(tolerances={"eps_psd": 0}), []),
    "tolerances-one": (_with(tolerances={"eps_eq": 1}), []),
    "output-not-object": (_with(output="json"), []),
    "output-format-xml": (_with(output={"format": "xml"}), []),
    "output-dir-number": (_with(output={"dir": 5}), []),
    "unknown-top-level-key": (_with(extras=[]), []),
    "entities-not-list": ({**minimal_doc(), "entities": {"name": "f"}}, []),
    "tasks-not-list": ({**minimal_doc(), "tasks": "t"}, []),
    "entity-without-name": (_with(entities=[{k: v for k, v in SL.items() if k != "name"}]), []),
    "task-without-name": (_with({k: v for k, v in INVARIANCE.items() if k != "name"}), []),
    "task-name-repeated": (_with(INVARIANCE, {**INVARIANCE, "checks": ["mul"]}), []),
    "grid-empty": (_with(INVARIANCE, grid=[]), []),
    "grid-not-list": (_with(INVARIANCE, grid="0,1"), []),
    "grid-point-text": (_with(INVARIANCE, grid=[[0, "x"], [0, 1]]), []),
}


def _files(root):
    return {p for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_input_exits_two(case, tmp_path, capsys):
    raw, extra = REJECTED[case]
    doc_path = tmp_path / "job.json"
    doc_path.write_text(json.dumps(raw))
    out = tmp_path / "a" / "b" / "out"
    assert cli.main(["run", str(doc_path), "--out", str(out), *extra]) == 2
    err = capsys.readouterr().err
    assert "document error:" in err and "Traceback" not in err
    assert _files(tmp_path) == {doc_path}  # nothing written, least of all above --out


# valid documents whose entity constructors reject the data: exit 1, not a traceback
BUILD_FAILS = {
    "offset-not-hermitian": _with(entities=[{**FAMILY, "offset": [[[1.0, 1.0]]]}]),
    "offset-wrong-size": _with(entities=[{**FAMILY, "offset": [[[1.0, 0.0], [0.0, 0.0]],
                                                               [[0.0, 0.0], [1.0, 0.0]]]}]),
    "shift-not-hermitian": _with(entities=[PAIR, {"name": "q", "kind": "pair", "pair": {
        "type": "transform", "base": "p", "steps": [{"op": "shift", "x": [[[0.0, 1.0]]]}]}}]),
}


@pytest.mark.parametrize("case", sorted(BUILD_FAILS))
def test_entity_build_failure_exits_one(case, tmp_path, capsys):
    doc_path = tmp_path / "job.json"
    doc_path.write_text(json.dumps(BUILD_FAILS[case]))
    assert cli.main(["run", str(doc_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "error: entity" in err and "Traceback" not in err


def test_document_tolerances_decide_offset_hermiticity(tmp_path, capsys):
    raw = _with(entities=[{**FAMILY, "offset": [[[1.0, 1e-5]]]}])
    loose = parse_document(json.dumps({**raw, "tolerances": {"eps_eq": 1e-3}}))
    assert runner.build_entities(loose)["fam"].offset[0, 0] == 1.0
    doc_path = tmp_path / "job.json"
    doc_path.write_text(json.dumps(raw))
    assert cli.main(["run", str(doc_path), "--out", str(tmp_path / "out")]) == 1
    assert "error: entity 'fam'" in capsys.readouterr().err


def test_invariance_on_pair_runs_every_pair_check_by_default():
    raw = _with(INVARIANCE, entities=[PAIR])
    raw["tasks"][0]["entity"] = "p"
    out = runner.run_document(parse_document(json.dumps(raw)))
    assert out[0].passed and out[0].summary["checks"] == 4
    statements = {row["statement"] for row in out[0].rows}
    assert "imag-kernel-invariance" not in statements and len(statements) == 4


def test_document_tolerances_decide_herglotz_shift_class(tmp_path, capsys):
    # M(z) = 1e-10 z: strict, and uniformly strict only under a finer eps_psd
    m = _rep("m", b1=[[[1e-10, 0.0]]])
    shifted = {"name": "q", "kind": "pair", "pair": {
        "type": "transform", "base": "p", "steps": [{"op": "herglotz_shift", "m": "m"}]}}
    raw = _with({"name": "t", "task": "classify", "entity": "q"}, entities=[PAIR, m, shifted])
    fine = parse_document(json.dumps({**raw, "tolerances": {"eps_psd": 1e-12}}))
    assert "q" in runner.build_entities(fine)
    doc_path = tmp_path / "job.json"
    doc_path.write_text(json.dumps(raw))
    assert cli.main(["run", str(doc_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "error: entity 'q'" in err and "R^s" in err and "Traceback" not in err


@pytest.mark.parametrize("entity, code", [("zero", 1), ("p", 0)])
def test_classify_pair_passes_iff_pair_axioms_hold(entity, code, tmp_path):
    zero = {"name": "zero", "kind": "pair", "pair": {"type": "constant", "phi": ZERO1,
                                                      "psi": ZERO1}}
    raw = _with({"name": "t", "task": "classify", "entity": entity}, entities=[PAIR, zero])
    doc_path = tmp_path / "job.json"
    doc_path.write_text(json.dumps(raw))
    assert cli.main(["run", str(doc_path), "--out", str(tmp_path / "out")]) == code


@pytest.mark.parametrize("flag", [["--out", "x"], ["--format", "json"], ["--grid", "0,1"],
                                  ["--tol-psd", "1e-9"], ["--tol-rank", "1e-9"],
                                  ["--tol-eq", "1e-9"], ["--trials", "5"], ["--seed", "1"]])
def test_harnack_reads_only_its_own_flags(flag, capsys):
    assert cli.main(["harnack", "--z1", "0,2", *flag]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "demo"])
def test_a_document_command_has_no_seed_flag(command, tmp_path, capsys):
    doc_path = tmp_path / "job.json"
    doc_path.write_text(json.dumps(minimal_doc()))
    doc = [str(doc_path)] if command == "run" else []
    assert cli.main([command, *doc, "--seed", "5", "--out", str(tmp_path / "o")]) == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert _files(tmp_path) == {doc_path}


def test_pin_threads_overrides_host_setting(monkeypatch):
    names = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
    for name in names:
        monkeypatch.setenv(name, "4")
    cli._pin_threads()
    assert all(os.environ[name] == "1" for name in names)


def test_suite_runs_on_one_blas_thread():
    """conftest assigns the four thread variables before numpy loads."""
    assert {name: os.environ[name] for name in BLAS_THREAD_VARS} == dict.fromkeys(
        BLAS_THREAD_VARS, "1")


# one valid task per kind, run against the document's single entity
FUZZ_BASE = {
    "classify": {"entity": "f"},
    "invariance": {"entity": "f", "a": 0.0, "checks": ["point", "mul"]},
    "harnack": {"entity": "f", "trials": 20},
    "analysis": {"entity": "f", "analyses": ["split", "c2"], "trials": 10},
    "examples": {"entity": "sl", "what": "gap_sweep", "n_list": [8], "a_values": [0.5]},
    "sweep": {"sequence": "diag-inverse-k", "n_list": [2, 4], "trials": 10},
}
SL_ENTITY = {"name": "sl", "kind": "sturm_liouville", "n": 8, "phi": None}
# one valid entity per kind, named "e" and classified by the task; it may
# reference the document's rep "f"
FUZZ_ENTITIES = {
    "herglotz_rep": {"b0": ZERO1, "b1": EYE1, "atoms": [[0.5, EYE1]]},
    "family": {"rep": "f", "offset": EYE1},
    "pair": {"pair": {"type": "canonical", "family": "f"}},
    "sturm_liouville": {"n": 8, "length": 1.0, "variant": "dissipative-interval", "phi": "f"},
    "ex4a": {"n": 3, "b_decay": [0.5, 0.25, 0.125], "c_perturbation": 0.1, "seed": 2},
}
FUZZ_PARAMS = [(kind, key) for kind in runner.TASKS for key in runner.TASKS[kind].params]
FUZZ_PARAMS += [(kind, key) for kind in runner.ENTITIES for key in runner.ENTITIES[kind].params]

# small sizes (trials, n, n_list) keep an example fast; the large ones lie
# beyond the size caps and must be rejected; NaN and infinities are valid
# JSON to Python's decoder
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.text(max_size=6)
    | st.floats(-1e3, 1e3)
    | st.sampled_from([float("nan"), float("inf"), 1e308, 10**6, 10**12, 10**400]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=8,
)


def test_fuzz_table_covers_every_kind():
    assert set(FUZZ_BASE) == set(runner.TASKS)


def test_fuzz_entity_table_covers_every_kind():
    assert set(FUZZ_ENTITIES) == set(runner.ENTITIES)
    for kind, body in FUZZ_ENTITIES.items():  # each base entity parses and builds
        raw = minimal_doc(entities=[_rep("f"), {"name": "e", "kind": kind, **body}])
        assert "e" in runner.build_entities(parse_document(json.dumps(raw)))


@settings(max_examples=100, deadline=None)
@given(param=st.sampled_from(FUZZ_PARAMS), value=json_values)
def test_fuzzed_parameter_never_crashes(param, value):
    kind, key = param
    if kind in runner.ENTITIES:
        entities = [_rep("f"), {"name": "e", "kind": kind, **FUZZ_ENTITIES[kind], key: value}]
        task = {"name": "t", "task": "classify", "entity": "e"}
    else:
        task = {"name": "t", "task": kind, **FUZZ_BASE[kind], key: value}
        entities = [SL_ENTITY if task.get("entity") == "sl" else minimal_doc()["entities"][0]]
    _assert_runs_contained(minimal_doc(entities=entities, tasks=[task],
                                       grid=[[0.0, 1.0], [0.5, 2.0], [-1.0, 0.5], [0.0, -1.0]]))


def _assert_runs_contained(raw):
    """``nevlab run`` on raw exits 0, 1 or 2, prints no traceback and writes only under --out."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        doc_path, out = root / "job.json", root / "a" / "out"
        doc_path.write_text(json.dumps(raw))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["run", str(doc_path), "--out", str(out)])
        assert code in (0, 1, 2)
        assert "Traceback" not in sink.getvalue()
        assert all(p == doc_path or out in p.parents for p in _files(root))


def _seed_documents() -> list:
    """The demo and the golden kinds document (this one on a grid of its own), without
    their slow tasks (decay, gap sweep)."""
    docs = [json.loads(cli.demo_document_text()),
            json.loads((Path(__file__).parent / "golden" / "kinds.json").read_text())]
    docs[1]["grid"] = [[0.0, 1.0], [0.5, 2.0], [-1.0, 0.5], [0.0, -1.0]]
    for doc in docs:
        doc["tasks"] = [t for t in doc["tasks"] if t.get("what") not in ("decay", "gap_sweep")]
    return docs


SEED_DOCUMENTS = _seed_documents()


def _nodes(value, path=()):
    """The path of every node under value, containers included, the root excluded."""
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _mutate(data, doc) -> None:
    """One mutation at a node drawn evenly from all of doc's.

    Mostly one that keeps the node's type, so that most documents still parse: the node
    replaced by a copy of another node of its type, or a number scaled.  Else the node
    replaced by a wild JSON value, dropped, or repeated in its list.
    """
    rnd = data.draw(st.randoms(use_true_random=False))
    nodes = list(_nodes(doc))
    path = rnd.choice(nodes)
    *parents, key = path
    parent = _at(doc, parents)
    value = parent[key]
    kin = [p for p in nodes if p != path and type(_at(doc, p)) is type(value)]
    kept = ["copy"] * bool(kin) + ["scale"] * (type(value) in (int, float))
    wild = ["replace", "drop"] + ["repeat"] * isinstance(parent, list)
    op = rnd.choice(kept if kept and rnd.random() < 0.7 else wild)
    if op == "drop":
        del parent[key]
    elif op == "repeat":
        parent.insert(key, copy.deepcopy(value))
    elif op == "copy":
        parent[key] = copy.deepcopy(_at(doc, rnd.choice(kin)))
    elif op == "scale":
        parent[key] = value * rnd.choice([-1, 0, 2, 1e-9, 1e9])
    else:
        parent[key] = data.draw(json_values)


def _at(doc, path):
    for part in path:
        doc = doc[part]
    return doc


@settings(max_examples=150, deadline=None)
@given(data=st.data(), doc=st.sampled_from(SEED_DOCUMENTS), count=st.integers(1, 3))
def test_mutated_documents_never_crash(data, doc, count):
    """1-3 mutations anywhere in a whole document.

    They reach matrix entries, atom lists (an emptied list, a repeated atom, a weight of
    another size or sign), names, references, grid points and task parameters.
    """
    doc = copy.deepcopy(doc)
    for _ in range(count):
        _mutate(data, doc)
    _assert_runs_contained(doc)


NEGATIVE2 = [[[-0.9e-10, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
# atom-list mutations of the demo's representation f2 and what its constructor says
ATOM_MUTATIONS = {
    "emptied": (lambda atoms: [], None),
    "repeated": (lambda atoms: atoms + atoms[:1], "atom locations must be distinct"),
    "another-size": (lambda atoms: [[0.0, EYE1]] + atoms, "measure dimension mismatch"),
    "sum-not-psd": (lambda atoms: [[0.0, NEGATIVE2], [1e-8, NEGATIVE2]],
                    "normalization sum not PSD (lambda_min=-1.800e-10)"),
}


@pytest.mark.parametrize("case", sorted(ATOM_MUTATIONS))
def test_atom_list_mutations_reach_the_constructor(case, tmp_path, capsys):
    mutate, message = ATOM_MUTATIONS[case]
    raw = json.loads(cli.demo_document_text())
    rep = raw["entities"][0]
    assert rep["name"] == "f2"
    rep["atoms"] = mutate(rep["atoms"])
    doc_path = tmp_path / "job.json"
    doc_path.write_text(json.dumps(raw))
    code = cli.main(["run", str(doc_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if message is None:  # no atoms: F = B0 + B1 z builds, and every task runs
        assert code in (0, 1) and "error: entity" not in err
    else:
        assert code == 1 and f"error: entity 'f2': {message}" in err


@pytest.mark.parametrize("row, entry, message", [
    (lambda rep: rep["atoms"][0][1][0], [0.5, 0.0], "weight at t=-1.0 must be Hermitian"),
    (lambda rep: rep["b1"][0], [0.3, 0.0], "B1 must be Hermitian"),
], ids=["weight", "b1"])
def test_a_non_hermitian_matrix_is_named(row, entry, message, tmp_path, capsys):
    """The demo's f2 with its entry (0, 1) changed: the error names the matrix."""
    raw = json.loads(cli.demo_document_text())
    rep = raw["entities"][0]
    assert rep["name"] == "f2"
    row(rep)[1] = entry
    doc_path = tmp_path / "job.json"
    doc_path.write_text(json.dumps(raw))
    code = cli.main(["run", str(doc_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert f"error: entity 'f2': {message}\n" in err


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    doc_path = tmp_path / "job.json"
    doc_path.write_text(json.dumps(minimal_doc()))
    (tmp_path / "taken").write_text("")  # --out names a file, not a directory
    assert cli.main(["run", str(doc_path), "--out", str(tmp_path / "taken")]) == 2
    assert "cannot write reports" in capsys.readouterr().err


def test_reference_to_unknown_kind_reports_one_error(tmp_path, capsys):
    raw = minimal_doc(entities=[{"name": "u", "kind": ["x"]}],
                      tasks=[_analysis("c2", entity="u")])
    doc_path = tmp_path / "job.json"
    doc_path.write_text(json.dumps(raw))
    assert cli.main(["run", str(doc_path), "--out", str(tmp_path / "out")]) == 2
    lines = [line for line in capsys.readouterr().err.splitlines() if "'u'" in line]
    assert len(lines) == 1 and "unknown kind ['x']" in lines[0]


def test_errored_tasks_record_their_error(tmp_path, capsys):
    """A task that raises becomes a failed report with its message; the run goes on."""
    raw = _with(_analysis("weak_strong", name="ws", entity="ex"),
                _analysis("split", name="sp", entity="ex"), entities=[EX4A])
    doc_path = tmp_path / "job.json"
    doc_path.write_text(json.dumps(raw))
    assert cli.main(["run", str(doc_path), "--out", str(tmp_path / "out")]) == 1
    assert "Traceback" not in capsys.readouterr().err
    ws = json.loads((tmp_path / "out" / "ws.json").read_text())
    assert (ws["passed"], ws["rows"]) == (False, [])
    assert ws["summary"] == {"error": "task 'ws': weak_strong needs representation data"}
    sp = json.loads((tmp_path / "out" / "sp.json").read_text())
    assert sp["summary"] == {"error": "split needs representation data; use split_black_box"}


ROTATED = {"name": "q", "kind": "pair", "pair": {"type": "transform", "base": "p",
                                                 "steps": [{"op": "rotate"}]}}
# (document, the line it must print); each is rejected before anything runs
REJECTED_WITH_MESSAGE = {
    "missing-parameter": (minimal_doc(entities=[{"name": "r", "kind": "herglotz_rep",
                                                 "b1": EYE1}], tasks=[]),
                          "entity 'r': missing parameter 'b0'"),
    "entity-not-object": (minimal_doc(entities=[3], tasks=[]),
                          "entities[0] must be an object, got 3"),
    "unknown-pair-type": (_with(entities=[{**PAIR, "pair": {"type": "cayley", "family": "f"}}]),
                          "entity 'p': pair type must be one of canonical, constant, "
                          "transform, got 'cayley'"),
    "unknown-step-op": (_with(entities=[PAIR, ROTATED]),
                        "entity 'q': pair steps [0] op must be one of shift, scale, flip, "
                        "junitary, herglotz_shift, got 'rotate'"),
    "ragged-matrix": (_with(entities=[_rep(b0=[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]])]),
                      "entity 'g': b0 must be a matrix: nested arrays of [re, im] pairs"),
    "non-square-matrix": (_with(entities=[_rep(b0=[[[0.0, 0.0], [0.0, 0.0]]])]),
                          "entity 'g': b0 must be a square matrix, got 1 x 2"),
    "root-not-object": ([minimal_doc()], "document root must be an object"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_WITH_MESSAGE))
def test_rejected_document_names_its_fault(case, tmp_path, capsys):
    raw, message = REJECTED_WITH_MESSAGE[case]
    doc_path = tmp_path / "job.json"
    doc_path.write_text(json.dumps(raw))
    assert cli.main(["run", str(doc_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"document error: {message}" in err and "Traceback" not in err
    assert _files(tmp_path) == {doc_path}


def test_examples_subcommand_reports_conditioning(tmp_path):
    doc_path = tmp_path / "demo.json"
    doc_path.write_text(cli.demo_document_text())
    out = tmp_path / "o"
    assert cli.main(["examples", str(doc_path), "--entity", "ex", "--what", "conditioning",
                     "--out", str(out)]) == 0
    assert json.loads((out / "examples-ex.json").read_text())["passed"]


def test_the_demo_reads_neither_its_seed_nor_its_trials(tmp_path):
    """Document seed 0 and 5, and trials 1 and 10,000 on every task that accepts them."""
    demo = json.loads(cli.demo_document_text())
    outputs = []
    for seed, trials in ((0, 1), (5, runner.MAX_TRIALS)):
        raw = {**demo, "seed": seed, "tasks": [
            {**t, "trials": trials} if "trials" in runner.TASKS[t["task"]].params else t
            for t in demo["tasks"]]}
        doc_path, out = tmp_path / f"job-{seed}.json", tmp_path / f"out-{seed}"
        doc_path.write_text(json.dumps(raw))
        assert cli.main(["run", str(doc_path), "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert {"analysis-fam.json", "harnack-fam.json", "sweep-diag.json"} <= outputs[0].keys()
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("z1, message", [
    ("0,-1", "error: harnack_constants needs a point in C_+"),
    ("1", "argument --z1: expected a point as 're,im', got '1'"),
    ("nan,1", "argument --z1: expected a point with finite parts, got 'nan,1'"),
    ("1e400,1", "argument --z1: expected a point with finite parts, got '1e400,1'"),
    ("0,inf", "argument --z1: expected a point with finite parts, got '0,inf'"),
])
def test_harnack_rejects_a_bad_point(z1, message, capsys):
    assert cli.main(["harnack", "--z1", z1]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# a document command's point or grid that argparse must reject: exit 2 before anything runs
BAD_ARGUMENTS = {
    "analysis-z-nan": (["analysis", "--entity", "f", "--z=nan,1"],
                       "argument --z: expected a point with finite parts"),
    "run-grid-empty": (["run", "--grid", ""], "argument --grid: expected at least one point"),
    "run-grid-separators": (["run", "--grid", ";;"],
                            "argument --grid: expected at least one point"),
    "run-grid-inf": (["run", "--grid=0,1;-inf,1"], "argument --grid: expected a point with"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_point_or_grid_argument_exits_two(case, tmp_path, capsys):
    (command, *flags), message = BAD_ARGUMENTS[case]
    doc_path = tmp_path / "job.json"
    doc_path.write_text(json.dumps(minimal_doc()))
    assert cli.main([command, str(doc_path), *flags, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert _files(tmp_path) == {doc_path}


def _run_reports(raw) -> dict:
    """Each task's report of a document, by task name, as its JSON text."""
    return {r.name: reports.report_json(r) for r in runner.run_document(
        parse_document(json.dumps(raw)))}


REP2 = {"name": "f", "kind": "herglotz_rep", "b0": [[[0.0, 0.0], [0.0, 0.0]]] * 2,
        "b1": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.2, 0.0]]],
        "atoms": [[-1.0, [[[0.5, 0.0], [0.2, 0.1]], [[0.2, -0.1], [0.3, 0.0]]]],
                  [1.5, [[[0.4, 0.0], [-0.1, 0.0]], [[-0.1, 0.0], [0.2, 0.0]]]]]}


def test_weak_strong_row_does_not_depend_on_a_sandwich_before_it():
    rows = {}
    for analyses in (["weak_strong"], ["sandwich", "weak_strong"]):
        raw = minimal_doc(entities=[REP2], tasks=[_analysis(*analyses, z=[0.3, 1.5])])
        report = runner.run_document(parse_document(json.dumps(raw)))[0]
        rows[len(analyses)] = [r for r in report.rows if r["analysis"] == "weak_strong"]
    assert rows[1] == rows[2] and rows[1][0]["value"] > 0.0


def test_harnack_certificate_row_does_not_depend_on_the_entity():
    task = {"name": "t", "task": "harnack", "z1": [0.5, 1.0], "z2": [-1.0, 3.0], "trials": 200}
    alone, with_entity = (runner.run_document(parse_document(json.dumps(
        minimal_doc(entities=[REP2], tasks=[t]))))[0] for t in (task, {**task, "entity": "f"}))
    assert len(with_entity.rows) == 2
    assert with_entity.rows[0] == alone.rows[0]


def test_harnack_task_where_a_modulus_overflows_passes():
    task = {"name": "t", "task": "harnack", "z1": [0.0, 7.5e307], "z2": [1.5e308, 7.5e307]}
    (report,) = runner.run_document(parse_document(json.dumps(minimal_doc(tasks=[task]))))
    assert report.passed and "error" not in report.summary
    assert report.rows[0]["c2"] == 5.828427124746192


def test_sweep_report_does_not_read_trials():
    want = _run_reports(minimal_doc(tasks=[{**SWEEP, "trials": 1}]))
    assert _run_reports(minimal_doc(tasks=[{**SWEEP, "trials": runner.MAX_TRIALS}])) == want


def test_sandwich_and_sweep_reports_do_not_read_the_seed():
    tasks = [_analysis("sandwich", z=[0.3, 1.5]),
             {"name": "h", "task": "harnack", "entity": "f", "trials": 5}, {**SWEEP, "name": "s"}]
    one, two = (_run_reports(minimal_doc(entities=[REP2], tasks=tasks, seed=seed))
                for seed in (1, 2))
    assert one == two


@pytest.mark.parametrize("b1", [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e-9, 0.0]]],
                                [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5 + 1e-9, 0.0]]]],
                         ids=["diagonal", "rotated"])
def test_a_tiny_anchor_eigenvalue_passes_the_sandwich(b1):
    """b1 = diag(1, 1e-9), or nearly rank one off the axes: Im F(z) = Im z b1 meets the sandwich."""
    doc = minimal_doc(entities=[{"name": "f", "kind": "herglotz_rep", "b0": [[[0.0, 0.0]] * 2] * 2,
                                 "b1": b1, "atoms": []}],
                      tasks=[_analysis("sandwich")])
    (report,) = runner.run_document(parse_document(json.dumps(doc)))
    assert report.passed, report.rows


def _z_squared(n: int) -> FamilyEvaluator:
    return FamilyEvaluator(n, lambda z: z * z * np.eye(n), "z-squared")


def test_a_zero_anchor_gives_a_failed_report_not_an_error(monkeypatch):
    """z^2 has Im F(i) = 0: the sandwich reads 1.0 and fails; nothing raises."""
    doc = parse_document(json.dumps(minimal_doc(tasks=[
        _analysis("sandwich"), {"name": "h", "task": "harnack", "entity": "f", "trials": 5},
        {**SWEEP, "name": "s"}])))
    monkeypatch.setattr(runner, "build_entities", lambda doc: {"f": _z_squared(1)})
    monkeypatch.setitem(runner._SWEEPS, SWEEP["sequence"], _z_squared)
    out = runner.run_document(doc)
    assert [(r.passed, "error" in r.summary) for r in out] == [(False, False)] * 3
    assert out[0].rows[0]["value"] == 1.0 and out[1].rows[1]["mc_worst"] == 1.0
    assert out[2].summary["ratio_worst"] > invariance.CORRIDOR_TOL
