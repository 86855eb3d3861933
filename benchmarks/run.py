"""Benchmark of layerlr, end to end and per layer.

    python3 benchmarks/run.py --workload mlp-nag --seed 1 --seconds 20 --trace 0

Runs one workload (see README.md in this directory) through the library's
own entry points, on inputs made from --seed, for --seconds of timed work.
It prints every metric by name with its unit, then, as the last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 a separate traced run
gives the per-layer ones. The full result, with sample counts, per-layer
detail and the environment, is written to benchmarks/out/.

    python3 benchmarks/run.py --record-golden > benchmarks/golden.json

re-records the reference outputs the checks compare against.
"""

import os
import sys

sys.dont_write_bytecode = True
# One BLAS thread, set before numpy loads: step times are CPU times (see
# spans.py), and a second OpenBLAS thread adds its spin-waiting to them.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")

END_TO_END = ("steps_per_s", "step_ms_p50", "step_ms_p90", "eval_items_per_s",
              "setup_s", "peak_rss_mb")
PER_LAYER = ("optim.step_ms", "optim.step.self_ms", "tensor.group_norm_ms",
             "tensor.group_norm.calls_per_step", "data.self_pct", "nn.self_pct",
             "optim.self_pct", "tensor.self_pct", "harness.self_pct",
             "landscapes.self_pct", "bench.trace_overhead_pct", "repo.src_lines")


def import_library():
    """Import layerlr from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "layerlr", "__init__.py")):
        raise SystemExit(f"run.py: no layerlr package under {SRC}")
    sys.path.insert(0, SRC)
    import layerlr
    if os.path.dirname(os.path.dirname(os.path.abspath(layerlr.__file__))) != SRC:
        raise SystemExit(f"run.py: layerlr imported from {layerlr.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# Environment


def _blas():
    """(OpenBLAS version, BLAS thread count), from numpy's bundled OpenBLAS."""
    import ctypes
    import glob

    import numpy as np
    version = threads = None
    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return version, threads


def _git_commit(root):
    """HEAD of the checkout's git repository, or None when it has none."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_stats():
    """(line count, sha256) over every .py file under src/."""
    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as f:
                    text = f.read()
                lines += text.count(b"\n")
                digest.update(name.encode() + b"\0" + text)
    return lines, digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(workload, seed, trace, seconds):
    import numpy as np
    blas_version, blas_threads = _blas()
    lines, sha = source_stats()
    return {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "host": platform.node(), "machine": platform.machine(), "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "openblas": blas_version, "blas_threads": blas_threads,
        "commit": _git_commit(ROOT), "src_sha256": sha, "repo.src_lines": lines,
    }


# ---------------------------------------------------------------------------
# Main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true",
                   help="print reference outputs for golden.json and exit")
    args = p.parse_args(argv)
    if not args.record_golden and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def record_golden(workloads, work_dir):
    golden = {}
    for w in workloads.WORKLOADS.values():
        if isinstance(w, workloads.Training):
            golden[w.name] = workloads.reference_rows(w, os.path.join(work_dir, w.name))
        else:
            golden[w.name] = workloads.reference_counts(w)
    print(json.dumps(golden, indent=1, sort_keys=True))


def report(args, env, result, names):
    """Print the human-readable lines and write the full result file."""
    tally = result.tally
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"measured {result.measured_s:.1f} s over {result.runs} runs")
    for name in sorted(result.metrics, key=lambda n: (n not in names, n)):
        value, unit, samples = result.metrics[name]
        print(f"  {name:<40} {value:>14.6g} {unit:<8} n={samples}")
    print(f"  {'failed_share':<40} {tally.failed_share:>14.6g} {'':<8} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for problem in tally.problems[:20]:
        print(f"  FAILED: {problem}")
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({
            "env": env,
            "attempted": tally.attempted, "failed": tally.failed,
            "failed_share": tally.failed_share, "problems": tally.problems,
            "measured_s": result.measured_s, "runs": result.runs,
            "metrics": {n: {"value": v, "unit": u, "samples": s}
                        for n, (v, u, s) in sorted(result.metrics.items())},
        }, f, indent=1)
        f.write("\n")


def main(argv=None):
    args = parse_args(argv)
    import_library()
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if args.record_golden:
            record_golden(workloads, work_dir)
            return 0
        w = workloads.WORKLOADS.get(args.workload)
        if w is None:
            raise SystemExit(f"run.py: unknown workload {args.workload!r}; "
                             f"choose from {sorted(workloads.WORKLOADS)}")
        with open(GOLDEN) as f:
            golden = json.load(f)
        traced = bool(args.trace)
        try:
            if isinstance(w, workloads.Training):
                result = workloads.run_training(w, args.seed, args.seconds, traced,
                                                work_dir, golden)
            else:
                result = workloads.run_saddle(w, args.seed, args.seconds, traced, golden)
        except workloads.NothingMeasured as exc:
            raise SystemExit(f"run.py: every timed run failed: {exc}") from exc
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment(args.workload, args.seed, args.trace, args.seconds)
    names = PER_LAYER if traced else END_TO_END
    if traced:
        result.metrics["repo.src_lines"] = (env["repo.src_lines"], "count", 1)
    report(args, env, result, names)
    tally = result.tally
    line = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": result.metrics[n][0], "unit": result.metrics[n][1]}
                    for n in names},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
