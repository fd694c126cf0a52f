"""Benchmark entry point: one run of one workload of ``thintail``.

    python3 bench/run.py --workload event_capital --seed 1 --seconds 25 --trace 0

A run generates the workload's inputs from ``--seed`` under
``.bench_work/`` in the checkout, runs the ops in a child process in a
closed loop with one client for ``--seconds`` seconds, checks every
output, and removes its work directory.  It prints a readable summary,
a ``record`` line (environment, input SHA-256s, op counts, failures,
and in a traced run each layer's share of self time) and, last, one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the gated end-to-end metrics:

* ``setup_s``: median wall time of fresh interpreters running
  ``import thintail.cli``, which every CLI invocation pays.
* ``op_p50_s``: median seconds per op at the reference host speed: each
  op's wall time is divided by the time of a fixed calibration kernel
  timed just before and just after it, and multiplied by the kernel's
  reference time (see ``calibration``).  This takes out the drift of
  the shared host's speed.  Runs hold too few ops for a tail percentile
  with ten ops beyond it, so none is reported.
* ``peak_rss_mb``: peak resident memory of the process that runs the
  ops, which is not the process that generated the inputs.

It also prints, ungated, ``op_wall_p50_s`` (the plain median wall
seconds per op), ``work_per_s`` (payments, fits or simulated trials per
second of op wall time) and ``fail_frac``
(``failed`` / ``attempted``, which must stay 0).  ``--trace 1``
alternates untraced and traced ops and reports the per-layer metrics of
``spans.PER_LAYER`` as medians over the traced ops, plus
``trace.overhead_frac``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibration
import spans
from workloads import SIZES, WORKLOADS, sha256

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = {"full": 5, "smoke": 1}
DEADLINE_S = 170.0
# The gated end-to-end metrics, in BENCHMARK.json order.
END_TO_END = ("setup_s", "op_p50_s", "peak_rss_mb")


def _args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; 'smoke' is a tiny size for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must lie in 1..120")
    return args


def _child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["THINTAIL_THREADS"] = str(threads)
    return env


def measure_setup(repeats: int, env: dict, cwd: Path) -> float:
    """Median wall time of a fresh ``import thintail.cli``, after one unmeasured import.

    It is not put at the reference speed as ``op_p50_s`` is: import time
    stays within about 15% while the calibration kernel timed between
    imports varies twofold.
    """
    times = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import thintail.cli"], env=env, cwd=cwd,
                       check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def environment() -> dict:
    """What the numbers ran on: numpy's Philox and standard_gamma fix the simulated values."""
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            caches.append(f"L{level} {kind} {size}")
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
    return {
        "python": platform.python_version(),
        **{name: metadata.version(name) for name in ("numpy", "scipy", "mpmath")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "git_commit": commit,
    }


def op_metrics(workload, inputs, size, ops, kernel_s) -> dict:
    """Metrics of the untraced ops; of these only ``op_p50_s`` is gated.

    ``op_p50_s`` is the median over ops of the op's wall time at the
    reference host speed (see ``calibration``); ``op_wall_p50_s`` is the
    plain median wall time.
    """
    kind = workload.calibration[0]
    ratios = calibration.calibrated(ops, kernel_s)
    untraced = [op for op in ops if not op["traced"]]
    seconds = [op["s"] for op in untraced]
    work = sum(workload.work(inputs[op["k"]], size) for op in untraced if op["ok"])
    return {
        "op_p50_s": {"value": statistics.median(r for r, op in zip(ratios, ops) if not op["traced"])
                     * calibration.REFERENCE_S[kind], "unit": "s"},
        "op_wall_p50_s": {"value": statistics.median(seconds), "unit": "s"},
        "work_per_s": {"value": work / sum(seconds), "unit": "1/s"},
    }


def trace_overhead(ops) -> float:
    """Median over adjacent (untraced, traced) op pairs of traced/untraced, minus 1."""
    pairs = zip(ops[0::2], ops[1::2])
    return statistics.median(traced["s"] / plain["s"] for plain, traced in pairs) - 1.0


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "thintail" / "__init__.py").is_file():
        print(f"error: no thintail sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    size = SIZES[args.size][workload.name]
    started = time.perf_counter()
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    (work / "inputs").mkdir(parents=True)
    try:
        inputs = workload.generate(args.seed, work / "inputs", size)
        errors = workload.reference_errors()
        env = _child_env(workload.threads)
        setup_s = None if args.trace else measure_setup(SETUP_REPEATS[args.size], env, work)
        spec = {"workload": workload.name, "size": args.size, "seconds": args.seconds,
                "trace": args.trace, "inputs": inputs, "src": str(SRC)}
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        child = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), str(work)], env=env, cwd=work,
            capture_output=True, text=True, timeout=max(10.0, DEADLINE_S - (time.perf_counter() - started)),
        )
        if child.returncode != 0:
            print(f"error: the op process exited with {child.returncode}\n{child.stderr[-2000:]}",
                  file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        record_inputs = [{"file": Path(inp["path"]).name, "bytes": Path(inp["path"]).stat().st_size,
                          "sha256": sha256(Path(inp["path"]))} for inp in inputs]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    ops = result["ops"]
    failed, attempted = len(result["errors"]), result["attempted"]
    errors += result["errors"]
    shown = op_metrics(workload, inputs, size, ops, result["kernel_s"])
    if args.trace:
        metrics = spans.per_layer_metrics(result["spans"], trace_overhead(ops))
    else:
        shown["setup_s"] = {"value": setup_s, "unit": "s"}
        shown["peak_rss_mb"] = {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"}
        metrics = {name: shown[name] for name in END_TO_END}
    shown["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}

    timed = [op["s"] for op in ops if not op["traced"]]
    record = {
        "workload": workload.name, "seed": args.seed, "size": args.size, "trace": args.trace,
        "work_unit": workload.work_unit, "op_s": [round(t, 6) for t in timed],
        "calibration": workload.calibration[0],
        "kernel_s": [round(t, 6) for t in result["kernel_s"]],
        "traced_ops": len(ops) - len(timed), "attempted": attempted, "errors": errors[:3],
        "inputs": record_inputs, "environment": environment(),
    }
    if result["single_worker_s"] is not None:
        record["single_worker_op_s"] = result["single_worker_s"]
    if args.trace:
        record["absent"] = result["absent"]
        record["self_time_share"] = spans.self_time_shares(result["spans"])

    print(f"{workload.name} seed={args.seed} size={args.size} trace={args.trace}: "
          f"{len(timed)} untraced + {record['traced_ops']} traced ops; work unit: {workload.work_unit}")
    for name, metric in {**metrics, **shown}.items():
        print(f"  {name:<22} {metric['value']:>16.6g} {metric['unit']}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
