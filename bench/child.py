"""Runs one workload's ops in a closed loop with one client.
After every op it times the workload's calibration kernel, outside the
op, so that op times can be put at the reference host speed.

Usage: ``python3 child.py <work dir>``; the work dir holds ``spec.json``
written by ``run.py``, and this process writes ``result.json`` there.
It is a process of its own so that its peak resident memory is that of
the ops, not of the input generation.

Each op calls ``thintail.cli.main`` in-process and starts only after
the previous op and its checks have finished.  Checks run outside the
timed region.  In a traced run untraced and traced ops alternate on the
same input, so the two medians see the same conditions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import calibration
import spans
from workloads import SIZES, WORKLOADS


class Session:
    """The op runner a workload's ``prepare`` and ``check`` see."""

    def __init__(self, cli, work: Path, workload, inputs: list[dict], size: dict):
        self.cli = cli
        self.work = work
        self.workload = workload
        self.inputs = inputs
        self.size = size
        self.state: dict = {}
        self.attempted = 0
        self.errors: list[str] = []
        self._first_report: dict[int, bytes] = {}

    def run(self, argv: list[str], threads: int | None = None) -> str | None:
        """One untimed CLI invocation outside the workload's ops; returns its error."""
        return self._record(argv, self._invoke(argv, threads, None, 0)[1])

    def op(self, k: int, threads: int | None = None, recorder=None, op: int = 0):
        """One workload op on input ``k``, then its output checks: (seconds, error)."""
        inp = self.inputs[k]
        out_dir = self.work / "out" / str(k)
        argv = self.workload.argv(inp, out_dir, self.size)
        seconds, error = self._invoke(argv, threads, recorder, op)
        if error is None:
            error = self._check(k, inp, out_dir)
        return seconds, self._record(argv, error)

    def _invoke(self, argv, threads, recorder, op):
        os.environ["THINTAIL_THREADS"] = str(threads or self.workload.threads)
        sink = io.StringIO()
        error = None
        tracing = recorder.recording(op) if recorder is not None else contextlib.nullcontext()
        with tracing, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:
                code = None
                error = traceback.format_exc(limit=4)
            seconds = time.perf_counter() - start
        if error is None and code != 0:
            error = f"exit code {code}: {sink.getvalue()[-500:]}"
        return seconds, error

    def _check(self, k: int, inp: dict, out_dir: Path) -> str | None:
        try:
            report = (out_dir / self.workload.report).read_bytes()
            if report != self._first_report.setdefault(k, report):
                return f"{self.workload.report} differs from the first op on the same input"
            return self.workload.check(inp, out_dir, self)
        except Exception:
            return traceback.format_exc(limit=4)

    def _record(self, argv, error):
        self.attempted += 1
        if error is not None:
            self.errors.append(f"{argv[0]}: {error}")
        return error


def main() -> int:
    work = Path(sys.argv[1])
    spec = json.loads((work / "spec.json").read_text(encoding="utf-8"))
    import thintail
    import thintail.cli as cli

    if not Path(thintail.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        raise SystemExit(f"thintail imported from {thintail.__file__}, not from {spec['src']}")
    workload = WORKLOADS[spec["workload"]]
    size = SIZES[spec["size"]][workload.name]
    session = Session(cli, work, workload, spec["inputs"], size)
    workload.prepare(session)

    recorder = spans.Recorder() if spec["trace"] else None
    min_ops = 1 if recorder is None else 2
    kind, calls = workload.calibration
    calibration.measure(kind, calls)  # warm-up
    kernel_s = [calibration.measure(kind, calls)]
    ops = []
    start = time.perf_counter()
    while True:
        i = len(ops)
        traced = recorder is not None and i % 2 == 1
        if not traced and i >= min_ops and time.perf_counter() - start >= spec["seconds"]:
            break
        k = (i // 2 if recorder is not None else i) % len(session.inputs)
        seconds, error = session.op(k, recorder=recorder if traced else None, op=i)
        kernel_s.append(calibration.measure(kind, calls))
        ops.append({"k": k, "s": seconds, "traced": traced, "ok": error is None})

    result = {
        "ops": ops,
        "kernel_s": kernel_s,
        "attempted": session.attempted,
        "errors": session.errors,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "single_worker_s": session.state.get("single_worker_s"),
    }
    if recorder is not None:
        result["spans"] = recorder.spans
        result["absent"] = recorder.absent
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
