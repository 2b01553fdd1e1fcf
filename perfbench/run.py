"""flowrom benchmark: one workload per process, result as JSON on the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kh32_fom --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
wraps flowrom's public functions (see ``tracer.py``) and reports the
per-layer metrics instead.  End-to-end times are seconds at the nominal host
speed of ``speed.py``.  The line before the result holds provenance, sample
counts, medians and tail percentiles (scaled and raw wall-clock), the
reference kernel's timings, output checks and every span's self time;
traced runs also write their spans to ``.perfbench/``.  The exit code is
nonzero when an operation or output check failed.
"""

import os

# The single-threaded baseline: pin BLAS/OpenMP before numpy is imported.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "fom_step_s": "s", "peak_rss_mb": "MB"}


def _git_commit(root):
    """Commit of a git checkout, read from ``.git`` without running git; None elsewhere."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _openblas_version(np):
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        return None


def provenance(seed):
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(np),
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "git_commit": _git_commit(ROOT),
        "seed": seed,
    }


def timing(samples):
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    out = {"median": statistics.median(ordered) if n else None, "n": n,
           "p_hi": None, "p_hi_level": None}
    if n >= 11:
        out["p_hi"] = ordered[n - 11]
        out["p_hi_level"] = round(100.0 * (n - 10) / n, 1)
    return out


def reference_stats(clock):
    from speed import NOMINAL_REF_S

    runs = [end - start for start, end in clock.refs]
    return {"nominal_s": NOMINAL_REF_S, "runs": len(runs), "median_s": statistics.median(runs),
            "min_s": min(runs), "max_s": max(runs)}


def _median(samples):
    # no samples only when an operation failed, which already marks the run incorrect
    return statistics.median(samples) if samples else 0.0


TIMINGS = ("setup_s", "wall_s", "fom_step_s", "rom_offline_s", "rom_online_s")


def end_to_end(outcome):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": _median(outcome.seconds("setup_s")),
        "wall_s": _median(outcome.seconds("wall_s")),
        "fom_step_s": _median(outcome.seconds("fom_step_s")),
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def run(workload, seed, seconds, trace):
    """Run one workload; returns ``(detail, result)`` as JSON-ready dicts."""
    from tracer import Tracer
    from workloads import run_workload

    tag = f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    workdir = OUT_DIR / f"work-{tag}"
    tracer = Tracer() if trace else None
    try:
        if tracer:
            with tracer:
                outcome = run_workload(workload, seed, seconds, workdir, inner_ticks=False)
        else:
            outcome = run_workload(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        metrics = tracer.layer_metrics()
        metrics["trace.wall_s"] = {"value": _median(outcome.seconds("wall_s")), "unit": "s"}
        metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
    else:
        metrics = end_to_end(outcome)
    detail = {
        "workload": workload.name,
        "seconds": seconds,
        "trace": bool(trace),
        "provenance": provenance(seed),
        "timings": {name: timing(outcome.seconds(name)) for name in TIMINGS},
        "raw_timings": {name: timing(outcome.seconds(name, scaled=False)) for name in TIMINGS},
        "reference": reference_stats(outcome.clock),
        "fail_ratio": outcome.failed / max(outcome.attempted, 1),
        "checks": outcome.checks,
    }
    if tracer:
        detail["self_s"] = {name: row["self_s"] for name, row in sorted(tracer.summary().items())}
        detail["missing"] = [target for target, _ in tracer.missing]
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
        trace_file.write_text(json.dumps({"detail": detail, "metrics": metrics,
                                          "spans": tracer.dump()}))
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return detail, result


def emit(detail, result, stream=sys.stdout):
    print(json.dumps(detail), file=stream)
    print(json.dumps(result), file=stream, flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "flowrom" / "__init__.py").is_file():
        print(f"error: no flowrom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    detail, result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    emit(detail, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
