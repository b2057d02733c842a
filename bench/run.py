"""nevlab benchmark: one workload, measured end to end or traced layer by layer.

    python3 bench/run.py --workload families-small --seed 1 --seconds 32 --trace 0

Each sample runs in a fresh interpreter (``workload.py``): a few set-up-only
processes and then one process that warms up and measures, so imports are
cold and peak memory is the workload's own.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the traced process instead and prints
the per-layer metrics.  End-to-end timings are scaled to a host of fixed
speed, measured by the reference slices of ``hostref.py``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the host and the commit, goes to ``.bench_out/``.  bench/README.md says
why each workload exists and which end-to-end metric each layer metric
should move.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostref import NOMINAL_SLICE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("families-small", "large-n", "cli-docs")
SETUP_SAMPLES = 5  # set-up is measured in this many fresh processes; the median is reported

END_TO_END = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "unit_ms.p50": "ms",
    "unit_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{layer}.self_s": "s/unit" for layer in (
        "matnum", "herglotz", "pairs", "relations", "invariance", "analysis",
        "examples", "document", "runner", "reports", "cli")},
    **{name: "count/unit" for name in (
        "matnum.calls", "matnum.as_matrix.calls", "matnum.decomp.calls",
        "matnum.subspace_distance.calls", "herglotz.family_calls", "herglotz.evaluate.calls",
        "pairs.pair_calls", "relations.calls", "invariance.checks",
        "analysis.harnack_constants.calls", "runner.tasks", "runner.task_errors")},
    "matnum.us_per_call": "us",
    "herglotz.unique_eval_ratio": "ratio",
    "pairs.unique_eval_ratio": "ratio",
    "invariance.distances_per_check": "count/check",
    "reports.bytes_written": "bytes/unit",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "trace.overhead": "ratio",
    "failed_share": "ratio",
}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args, mode: str, timeout: float, extra=()) -> dict:
    """Run workload.py once; it pins the BLAS threads itself before numpy loads."""
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           *extra]
    if args.invert_verdicts:
        cmd.append("--invert-verdicts")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--invert-verdicts", action="store_true",
                        help="expect the opposite verdicts; every unit must then fail")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nevlab" / "__init__.py").is_file():
        print(f"error: no nevlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        samples = [spawn(args, "setup", 120) for _ in range(SETUP_SAMPLES - 1)]
        if args.trace:
            spans = out_dir / f"spans-{tag}.jsonl.gz"
            main_run = spawn(args, "traced", args.seconds + 120, ("--spans", str(spans)))
        else:
            main_run = spawn(args, "timed", args.seconds + 120)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    samples.append(main_run)
    if main_run["first_error"]:
        sys.stderr.write(main_run["first_error"])

    values = dict(main_run)
    for key in ("setup_s", "setup.import_s", "setup.inputs_s"):
        values[key] = statistics.median(s[key] for s in samples)
    if not args.trace:
        # set-up on a host where one reference slice takes NOMINAL_SLICE_S, as the
        # timed process already reports its unit timings; the raw ones stay in the record
        values["setup_s"] = statistics.median(
            s["setup_s"] * NOMINAL_SLICE_S / s["ref_slice_s"] for s in samples)
    values["failed_share"] = main_run["failed"] / main_run["attempted"]
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "invert_verdicts": args.invert_verdicts,
        "commit": git_commit(), "host": main_run.pop("host"), "loop": "closed, one client",
        "metrics": metrics, "measuring_process": main_run,
        "setup_samples": [{key: s[key] for key in ("setup_s", "setup.import_s", "setup.inputs_s",
                                                   "ref_slice_s") if key in s}
                          for s in samples],
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": main_run["failed"] == 0,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
