"""Deterministic report files: CSV rows and JSON summaries.

Floats are written with shortest round-trip repr and rows in task order,
so identical runs produce byte-identical files.  CSV columns follow first
appearance order within a report.  A JSON file is the text of
``json.dumps(obj, indent=2, sort_keys=True)``, with NaN as the string
"nan", written in one walk over the report.  Both formats take each leaf
from one table, so a numpy scalar is written as its ``.item()`` in either.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .runner import TaskReport

_FLOAT_WORDS = {"nan": '"nan"', "inf": "Infinity", "-inf": "-Infinity"}  # repr: JSON text


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _FLOAT_WORDS.get(text, text)


_LEAVES = {  # type: (JSON text, CSV cell)
    str: (_quote, str),
    float: (_json_float, float.__repr__),
    int: (int.__repr__, int.__repr__),
    bool: (lambda v: "true" if v else "false", lambda v: "1" if v else "0"),
    type(None): (lambda v: "null", lambda v: "None"),
}


def _leaf(value):
    """For a value whose type is not in _LEAVES: what it writes, and the entry (None if none).

    A numpy scalar writes its .item(); a subclass takes the entry of its
    nearest base, as json.dumps writes it.
    """
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        value = value.item()
    return value, next(filter(None, map(_LEAVES.get, type(value).__mro__)), None)


def _text(value, pad: str) -> str:
    """JSON text of value at indent pad; dict keys are str, as every report's are."""
    entry = _LEAVES.get(type(value))
    if entry is None:
        value, entry = _leaf(value)
    if entry is not None:
        return entry[0](value)
    inner = pad + "  "
    if isinstance(value, dict):
        parts, ends = [], "{}"
        for key in sorted(value):  # a leaf, most values of a report, takes no call of _text
            item = value[key]
            entry = _LEAVES.get(type(item))
            parts.append(f"{_quote(key)}: {entry[0](item) if entry else _text(item, inner)}")
    elif isinstance(value, (list, tuple)):
        parts, ends = [_text(v, inner) for v in value], "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not parts:
        return ends
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(parts) + f"\n{pad}{ends[1]}"


def _cell(value) -> str:
    entry = _LEAVES.get(type(value))
    if entry is None:
        value, entry = _leaf(value)
    return str(value) if entry is None else entry[1](value)


def report_csv(report: TaskReport) -> str:
    columns = list(dict.fromkeys(key for row in report.rows for key in row))
    lines = [",".join(columns)]
    for row in report.rows:
        lines.append(",".join([_cell(row.get(c, "")) for c in columns]))
    return "\n".join(lines) + "\n"


def report_json(report: TaskReport) -> str:
    return _text(report.to_json_obj(), "") + "\n"


def write_reports(
    reports: list[TaskReport], out_dir: str | Path, fmt: str = "both"
) -> dict:
    """Write one file per task plus a run summary; returns the summary object."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "tasks": [
            {"name": r.name, "task": r.task, "passed": r.passed} for r in reports
        ],
        "passed": all(r.passed for r in reports),
    }
    for report in reports:
        if fmt in ("csv", "both"):
            (out / f"{report.name}.csv").write_text(report_csv(report))
        if fmt in ("json", "both"):
            (out / f"{report.name}.json").write_text(report_json(report))
    (out / "summary.json").write_text(_text(summary, "") + "\n")
    return summary
