"""Benchmark of the wle package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else. With ``--trace 0`` the workload runs
whole passes until S seconds have elapsed, and the last line of standard
output is a JSON object with every end-to-end metric of BENCHMARK.json.
With ``--trace 1`` untraced and traced passes alternate and the metrics
are the per-layer ones. The exit code is 0 only when every output check passed. Details of
the run (environment, digests, gate headroom, per-kind latencies) are
written to ``.bench_results/`` in the checkout. See perfbench/README.md.
"""

import os

# one BLAS thread, set before numpy is first imported
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 3

sys.path.insert(0, str(HERE))

from calib import REF_NOMINAL_S, reference_kernel  # noqa: E402
from layertrace import Tracer  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


def import_wle():
    """Import wle from this checkout's source tree, never from elsewhere."""
    if not (SRC / "wle" / "__init__.py").is_file():
        raise BenchError(f"no wle package under {SRC}")
    sys.path.insert(0, str(SRC))
    import wle
    if Path(wle.__file__).resolve().parent != SRC / "wle":
        raise BenchError(f"wle imported from {wle.__file__}, not {SRC}")
    return wle


def setup_seconds(runs):
    """Median cold set-up time over `runs` fresh interpreters.

    Each probe's time is scaled by its own reference-kernel timing.
    Returns the median scaled time and the raw (seconds, reference) pairs.
    """
    probes = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        setup_s, ref_s = map(float, out.stdout.split())
        probes.append((setup_s, ref_s))
    scaled = [t * REF_NOMINAL_S / r for t, r in probes]
    return statistics.median(scaled), probes


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cache_size(level):
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        if (_read(index / "level") == str(level)
                and _read(index / "type") != "Instruction"):
            return _read(index / "size")
    return None


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def environment(seed):
    import numpy
    import scipy
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip()
                  for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "seed": seed,
        "git_commit": _git_commit(),
    }


def _quantile(values, tenths):
    """The `tenths`/10 quantile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[tenths - 1]


def _geomean_of_kinds(latencies, tenths):
    """Geometric mean over operation kinds of each kind's quantile.

    Kinds differ by orders of magnitude (a Poisson search against a
    regression search), so a quantile of the pooled latencies would jump
    between kinds from run to run; the per-kind quantiles do not.
    """
    logs = [math.log(_quantile(v, tenths)) for v in latencies.values()]
    return math.exp(sum(logs) / len(logs))


def run_untraced(workload, rec, seconds):
    """Whole passes over fresh inputs until `seconds` have elapsed.

    Returns each pass's wall time less the reference runs inside it. The
    reference is also timed once after every pass, so each pass has one.
    """
    times = []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        rec.pass_index = len(times)
        spent = rec.ref_spent
        t0 = perf_counter()
        workload.run_pass(rec, len(times))
        times.append(perf_counter() - t0 - (rec.ref_spent - spent))
        rec.time_reference()
    return times


def speed_scaled(rec, pass_times):
    """Scale each pass, and each operation, to the nominal machine speed.

    A pass's factor is REF_NOMINAL_S over the mean reference time taken
    during it and right after it. An operation's factor uses the mean of
    the two reference timings that bracket its end. Returns (scaled pass
    times, scaled latencies by kind, per-pass factors).
    """
    refs = [[] for _ in pass_times]
    for t, k in zip(rec.ref_times, rec.ref_pass):
        refs[k].append(t)
    factor = [REF_NOMINAL_S / statistics.fmean(r) for r in refs]
    passes = [t * f for t, f in zip(pass_times, factor)]

    def local(end):
        i = bisect.bisect(rec.ref_end, end)
        return REF_NOMINAL_S / statistics.fmean(rec.ref_times[max(i - 1, 0):
                                                              i + 1])

    latencies = {kind: [t * local(end) for t, end in zip(v, rec.op_end[kind])]
                 for kind, v in rec.latencies.items()}
    return passes, latencies, factor


def run_traced(wle, workload, rec, seconds):
    """Alternate untraced and traced passes over the same inputs.

    The number of pairs depends on --seconds alone, so the per-layer
    counts repeat exactly for a given seed.
    """
    pairs = max(1, int(seconds // workload.trace_pair_s))
    tracer = Tracer()
    plain, traced = [], []
    for k in range(pairs):
        t0 = perf_counter()
        workload.run_pass(rec, k)
        plain.append(perf_counter() - t0)
        tracer.install(wle)
        try:
            t0 = perf_counter()
            workload.run_pass(rec, k)
            traced.append(perf_counter() - t0)
        finally:
            tracer.remove()
    # a later refactor may drop a wrapped name; that is recorded, not failed
    rec.info["trace_missing_names"] = sorted(tracer.missing)
    metrics = tracer.metrics(pairs, sum(traced))
    metrics["trace.overhead_share"] = (sum(traced) / sum(plain) - 1.0,
                                       "share")
    return plain, metrics


def measure(name, seed, seconds, trace, small=False, setup_runs=SETUP_RUNS):
    """Run one workload; returns (result line dict, details dict)."""
    wle = import_wle()
    workload = WORKLOADS[name](wle, seed, small=small)
    if trace:
        setup_times = None
        rec = Recorder()
        pass_times, metrics = run_traced(wle, workload, rec, seconds)
        workload.finish(rec, pass_times)
    else:
        setup_s, setup_times = setup_seconds(setup_runs)
        rec = Recorder(reference=reference_kernel)
        pass_times = run_untraced(workload, rec, seconds)
        workload.finish(rec, pass_times)
        passes, latencies, factor = speed_scaled(rec, pass_times)
        rec.info["speed_scale"] = factor
        rec.info["reference_runs"] = len(rec.ref_times)
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "ok_share": ((rec.attempted - rec.failed) / rec.attempted,
                         "share"),
            "pass_s": (statistics.median(passes), "s"),
            "op_p50_ms": (1e3 * _geomean_of_kinds(latencies, 5), "ms"),
            "op_p90_ms": (1e3 * _geomean_of_kinds(latencies, 9), "ms"),
        }
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": name, "trace": int(trace), "seconds": seconds,
        "environment": environment(seed),
        "setup_runs_s_and_reference_s": setup_times,
        "pass_s": pass_times,
        "op_samples": {k: len(v) for k, v in rec.latencies.items()},
        "op_median_ms": {k: 1e3 * statistics.median(v)
                         for k, v in rec.latencies.items()},
        "failures": rec.failures,
        **rec.info,
    }
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, details = measure(args.workload, args.seed, args.seconds,
                                  args.trace)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"result": result, **details}, indent=1,
                               default=str) + "\n")
    for key, m in result["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    for failure in details["failures"]:
        print(f"FAILED CHECK: {failure}")
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
