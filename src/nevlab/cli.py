"""Batch command line: run job documents and one-shot verifier suites.

Exit codes: 0 when every executed check passes, 1 on a failed check or a
numerical error, 2 on usage / document-validation errors.  Reports are
deterministic for a fixed document: no check draws a random number, and
BLAS thread pools are pinned to one thread before any numerics load so
that byte-identical output does not depend on the host's thread count.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import os
import sys
from pathlib import Path

USAGE_ERROR = 2
# `nevlab analysis` without --analyses: split, weak_strong and factor read
# representation data, which only these entity kinds carry
_REP_KINDS = ("herglotz_rep", "family")
_REP_ANALYSES = "split,c2,weak_strong,factor"
_REPLESS_ANALYSES = "c2,sandwich"


def _pin_threads() -> None:
    # must run before numpy is imported anywhere in the process; assigned,
    # not defaulted, so a host-wide thread count cannot win
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"


def _parse_point(text: str) -> complex:
    try:
        re_part, im_part = text.split(",")
        z = complex(float(re_part), float(im_part))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a point as 're,im', got {text!r}"
        ) from exc
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"expected a point with finite parts, got {text!r}")
    return z


def _point_help(flag: str, default: str) -> str:
    # argparse takes a separate value that starts with "-" and is not a plain
    # number for an option, so a negative real part needs the "=" form
    return f"point 're,im' (default {default}); a negative real part needs {flag}=-2,0.5"


def _parse_grid(text: str) -> list[complex]:
    grid = [_parse_point(chunk) for chunk in text.split(";") if chunk]
    if not grid:
        raise argparse.ArgumentTypeError(f"expected at least one point 're,im', got {text!r}")
    return grid


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``nevlab`` parser, built once per process: argparse keeps no state of a
    call on it, ``parse_args`` returns a fresh Namespace and no default is mutable."""
    from .runner import EXAMPLE_REPORTS

    parser = argparse.ArgumentParser(
        prog="nevlab",
        description="verify invariance properties of Herglotz-class operator "
        "functions, pairs and relations at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_doc=True):
        if with_doc:
            p.add_argument("doc", help="job document (nevlab/1 JSON)")
        p.add_argument("--out", default=None, help="report output directory")
        p.add_argument("--format", choices=("json", "csv", "both"), default=None)
        p.add_argument("--grid", type=_parse_grid, default=None,
                       help="z-grid override, 're,im;re,im;...'; one that starts "
                            "with a negative real part needs --grid=-1,1;...")
        p.add_argument("--tol-psd", type=float, default=None)
        p.add_argument("--tol-rank", type=float, default=None)
        p.add_argument("--tol-eq", type=float, default=None)

    common(sub.add_parser("run", help="execute every task in a document"))

    p = sub.add_parser("classify", help="classify family entities of a document")
    common(p)
    p.add_argument("--entity", default=None, help="restrict to one entity")

    p = sub.add_parser("invariance", help="run the invariance checks on an entity")
    common(p)
    p.add_argument("--entity", required=True)
    p.add_argument("--a", type=float, default=0.0, help="real spectral point")

    p = sub.add_parser("harnack", help="Harnack constants and certificates")
    p.add_argument("--z1", type=_parse_point, default=1j, help=_point_help("--z1", "0,1"))
    p.add_argument("--z2", type=_parse_point, default=2j, help=_point_help("--z2", "0,2"))

    p = sub.add_parser("analysis", help="splitting / bounds / decay for an entity")
    common(p)
    p.add_argument("--entity", required=True)
    p.add_argument(
        "--analyses",
        help=f"comma-separated list (default: {_REP_ANALYSES} for an entity with "
             f"representation data, {_REPLESS_ANALYSES} for one without)",
    )
    p.add_argument("--z", type=_parse_point, default=2j, help=_point_help("--z", "0,2"))

    p = sub.add_parser("examples", help="example-family reports")
    common(p)
    p.add_argument("--entity", required=True)
    p.add_argument("--what", choices=EXAMPLE_REPORTS, default="decay")

    p = sub.add_parser("demo", help="run the bundled demonstration document")
    common(p, with_doc=False)

    return parser


def _load_document(args, text: str):
    """Merge the command-line overrides into the document, then validate it."""
    from . import document as docmod

    raw = docmod.read_json(text)
    if isinstance(raw, dict):
        if args.grid:
            raw["grid"] = [[z.real, z.imag] for z in args.grid]
        tolerances = raw.setdefault("tolerances", {})
        for key, value in (("eps_psd", args.tol_psd), ("eps_rank", args.tol_rank),
                           ("eps_eq", args.tol_eq)):
            if value is not None and isinstance(tolerances, dict):
                tolerances[key] = value
        if args.command in ("classify", "invariance", "analysis", "examples"):
            raw["tasks"] = _synthetic_tasks(args, raw)
    doc = docmod.validate_document(raw)
    if args.format is not None:
        doc.output = {**doc.output, "format": args.format}
    return doc


def _execute(doc, args) -> int:
    from . import reports as repmod
    from . import runner as runmod

    try:
        task_reports = runmod.run_document(doc)
    except runmod.RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = args.out or doc.output["dir"] or "nevlab-out"
    try:
        summary = repmod.write_reports(task_reports, out_dir, doc.output["format"])
    except OSError as exc:
        print(f"error: cannot write reports: {exc}", file=sys.stderr)
        return USAGE_ERROR
    for entry in summary["tasks"]:
        status = "pass" if entry["passed"] else "FAIL"
        print(f"[{status}] {entry['task']}: {entry['name']}")
    print(f"reports written to {out_dir}")
    return 0 if summary["passed"] else 1


def _synthetic_tasks(args, raw: dict) -> list[dict]:
    """The tasks that replace a document's own for the one-shot subcommands."""
    entities = raw.get("entities") if isinstance(raw.get("entities"), list) else []
    if args.command == "classify":
        names = [args.entity] if args.entity else [
            e.get("name") for e in entities if isinstance(e, dict)]
        return [{"name": f"classify-{n}", "task": "classify", "entity": n} for n in names]
    task = {"name": f"{args.command}-{args.entity}", "task": args.command,
            "entity": args.entity}
    if args.command == "invariance":
        task["a"] = args.a
    elif args.command == "analysis":
        analyses = args.analyses
        if analyses is None:
            kind = next((e.get("kind") for e in entities
                         if isinstance(e, dict) and e.get("name") == args.entity), None)
            analyses = _REP_ANALYSES if kind in _REP_KINDS else _REPLESS_ANALYSES
        task["analyses"] = [a for a in analyses.split(",") if a]
        task["z"] = [args.z.real, args.z.imag]
    else:
        task["what"] = args.what
    return [task]


def demo_document_text() -> str:
    path = Path(__file__).with_name("data") / "demo_job.json"
    return path.read_text()


def main(argv=None) -> int:
    _pin_threads()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0

    from . import document as docmod

    if args.command == "harnack":
        from . import analysis

        try:
            hp = analysis.harnack_constants(args.z1, args.z2)
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        worst = analysis.certify_harnack(args.z1, args.z2)
        print(f"c1 = {hp.c1!r}")
        print(f"c2 = {hp.c2!r}")
        print(f"certificate worst violation on the cone's extreme rays: {worst!r}")
        return 0 if worst <= analysis.HARNACK_CERTIFICATE_TOL else 1

    if args.command == "demo":
        text = demo_document_text()
    else:
        try:
            text = Path(args.doc).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read document: {exc}", file=sys.stderr)
            return USAGE_ERROR

    try:
        doc = _load_document(args, text)
    except docmod.DocumentError as exc:
        for line in exc.errors:
            print(f"document error: {line}", file=sys.stderr)
        return USAGE_ERROR

    return _execute(doc, args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
