"""The ``repro check --json`` document is a versioned contract.

``repro-check/1`` pins: top-level keys, the passes list, finding shape
(trace only when present), and deterministic serialization (sorted
keys, two-space indent, trailing newline).  The golden file is the
contract; if an intentional schema change breaks it, bump ``SCHEMA``
and regenerate.
"""

from __future__ import annotations

import json
import os

from repro.verify.report import SCHEMA, Finding, Report

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "check_report_golden.json")


def _golden_report() -> Report:
    report = Report()
    report.passes.extend(["modelcheck", "lint", "taint"])
    report.findings.append(Finding(
        "modelcheck", "safety", "hardware row 5 (rreq/reply_busy)",
        "two writable copies reachable",
        trace=("n0 rreq b0", "n1 wreq b0")))
    report.findings.append(Finding(
        "taint", "RND10", "src/repro/example.py:12",
        "for loop iterates an unordered set-derived value"))
    report.stats["modelcheck.states_total"] = 241056
    report.stats["lint.files"] = 87
    return report


def test_dump_matches_golden_byte_for_byte():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = fh.read()
    assert _golden_report().dump_json() == golden


def test_golden_carries_the_schema_tag():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["schema"] == SCHEMA == "repro-check/1"
    assert set(doc) == {"schema", "clean", "exit_code", "passes",
                        "findings", "stats"}


def test_trace_is_omitted_when_empty():
    doc = _golden_report().to_json()
    findings = doc["findings"]
    assert "trace" in findings[0]
    assert "trace" not in findings[1]


def test_extend_merges_passes_without_duplicates():
    a = Report(passes=["modelcheck", "lint"])
    b = Report(passes=["lint", "taint"])
    a.extend(b)
    assert a.passes == ["modelcheck", "lint", "taint"]


def test_live_document_round_trips_with_the_same_shape(tmp_path):
    """A real (cheap) pass produces a document with exactly the
    golden's top-level shape and a clean exit."""
    from repro.verify.flow.taint import run_taint

    (tmp_path / "clean.py").write_text(
        "def f(xs):\n    return sorted(set(xs))\n")
    doc = json.loads(run_taint(str(tmp_path)).dump_json())
    assert doc["schema"] == "repro-check/1"
    assert set(doc) == {"schema", "clean", "exit_code", "passes",
                        "findings", "stats"}
    assert doc["clean"] is True
    assert doc["exit_code"] == 0
    assert doc["passes"] == ["taint"]
    assert doc["stats"]["taint.files"] == 1
