"""One workload process: set-up, untimed warm-up, then a timed or a traced run.

``run.py`` starts this script in a fresh interpreter per sample, so imports
are cold and peak memory belongs to one workload.  It prints one JSON object
as its last line of standard output.

Modes:
  setup   import and generate the inputs, report the set-up times, exit
  timed   then warm up and run units in a closed loop (one client, each unit
          waits for the previous verdict) for --seconds, with a reference
          slice (hostref.py) between units; no wrappers installed
  traced  then warm up and alternate untraced and traced passes over the
          first units of the stream for --seconds
"""

import os

# pinned before numpy loads; assigned, not defaulted, so a host setting cannot win
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REF_SLICES = 10  # host speed of a set-up-only process, measured after its set-up

# nevlab modules each workload needs; importing them is part of set-up
IMPORTS = {
    "families-small": ("nevlab.matnum", "nevlab.herglotz", "nevlab.pairs",
                       "nevlab.relations", "nevlab.invariance"),
    "large-n": ("nevlab.matnum", "nevlab.herglotz", "nevlab.invariance",
                "nevlab.examples"),
    "cli-docs": ("nevlab.cli", "nevlab.document", "nevlab.runner", "nevlab.reports"),
}


def invert(expected):
    """The opposite verdict: booleans flip, exit 0 becomes 1 and failures become 0."""
    if isinstance(expected, bool):
        return not expected
    if isinstance(expected, int):
        return 0 if expected else 1
    return {key: invert(value) for key, value in expected.items()}


def host_info() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Checker:
    """Runs units and counts the ones whose verdicts differ from the expected ones."""

    def __init__(self, module, invert_verdicts: bool):
        self.module = module
        self.invert = invert_verdicts
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def run(self, unit) -> float:
        """Run one unit; returns its latency in seconds."""
        expected = invert(unit["expected"]) if self.invert else unit["expected"]
        begin = time.perf_counter()
        try:
            observed = self.module.run_unit(unit)
        except Exception:  # a crash is a failed unit, not a failed benchmark
            observed = None
            if self.first_error is None:
                self.first_error = traceback.format_exc()
        latency = time.perf_counter() - begin
        self.attempted += 1
        self.failed += observed != expected
        return latency


def latency_metrics(latencies) -> dict:
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    return {
        "units_per_s": len(latencies) / sum(latencies),
        "unit_ms.p50": 1e3 * statistics.median(latencies),
        "unit_ms.p90": 1e3 * p90,
        "units_beyond_p90": sum(lat > p90 for lat in latencies),
    }


def timed_run(checker, units, seconds) -> dict:
    """Units in a closed loop, with a reference slice before the first and after each.

    Each unit's latency is scaled to the nominal host speed by the mean of the
    slices just before and just after it, so that drift within the run cancels
    too; the raw figures are returned beside the scaled ones.
    """
    import hostref

    latencies, slices = [], [hostref.slice_s()]
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        latencies.append(checker.run(units[k % len(units)]))
        slices.append(hostref.slice_s())
        k += 1
        if time.perf_counter() >= deadline:
            break
    scaled = [lat * 2.0 * hostref.NOMINAL_SLICE_S / (slices[k] + slices[k + 1])
              for k, lat in enumerate(latencies)]
    return {
        **latency_metrics(scaled),
        "raw": latency_metrics(latencies),
        "ref_slice_s": statistics.fmean(slices),
    }


def traced_run(checker, units, seconds, spans_path) -> dict:
    from tracer import Tracer, layer_metrics, merge

    tracer = Tracer()
    total, kept = {}, None
    untraced = traced = 0.0
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        begin = time.perf_counter()
        for unit in units:
            checker.run(unit)
        untraced += time.perf_counter() - begin

        tracer.install()
        begin = time.perf_counter()
        try:
            for k, unit in enumerate(units):
                tracer.begin_unit(passes * len(units) + k)
                checker.run(unit)
                tracer.end_unit()
        finally:
            tracer.uninstall()
        traced += time.perf_counter() - begin
        total = merge(total, tracer.aggregate())
        kept = kept or tracer.spans()
        passes += 1
    tracer.dump(spans_path, kept)
    metrics = layer_metrics(total, passes * len(units))
    metrics["trace.overhead"] = traced / untraced
    metrics["trace.passes"] = passes
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(IMPORTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--invert-verdicts", action="store_true")
    parser.add_argument("--spans", type=Path, default=ROOT / ".bench_out" / "spans.jsonl.gz",
                        help="where a traced run writes its first traced pass")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    begin = time.monotonic()
    for name in IMPORTS[args.workload]:
        importlib.import_module(name)
    module = importlib.import_module(args.workload.replace("-", "_"))
    imported = time.monotonic()
    units = module.make_inputs(args.seed)
    warmup = module.make_inputs(args.seed, module.WARMUP_UNITS, stream=1)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if hasattr(module, "write_inputs"):
            module.write_inputs(units, work / "timed")
            module.write_inputs(warmup, work / "warmup")
        ready = time.monotonic()
        result = {
            "setup_s": ready - args.spawned_at,
            "setup.import_s": imported - begin,
            "setup.inputs_s": ready - imported,
        }
        if args.mode == "setup":
            import hostref

            hostref.slice_s()  # the first call pays for lazy set-up in numpy.linalg
            result["ref_slice_s"] = statistics.fmean(
                hostref.slice_s() for _ in range(SETUP_REF_SLICES))
        if args.mode != "setup":
            # the generated inputs live for the whole run; keep them out of the
            # collector's full passes, which would otherwise grow with the stream
            gc.collect()
            gc.freeze()
            checker = Checker(module, args.invert_verdicts)
            for unit in warmup:
                checker.run(unit)
            checker = Checker(module, args.invert_verdicts)
            if args.mode == "timed":
                result.update(timed_run(checker, units, args.seconds))
            else:
                result.update(traced_run(checker, units[: module.TRACE_UNITS], args.seconds,
                                         args.spans))
            result.update({
                "attempted": checker.attempted, "failed": checker.failed,
                "first_error": checker.first_error,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "host": host_info(),
            })
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
