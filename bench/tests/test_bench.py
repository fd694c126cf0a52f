"""Tests of the benchmark itself: generators, checks, span arithmetic, and
a smoke run of every workload.  Wall-clock values are never asserted.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import calibration
import spans
import workloads
from workloads import SIZES, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
END_TO_END = {"setup_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}
PRINTED = {"op_wall_p50_s": "s", "work_per_s": "1/s", "fail_frac": "ratio"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_gives_identical_bytes(name, tmp_path):
    size = SIZES["smoke"][name]
    paths = {}
    for run, seed in (("a", 7), ("b", 7), ("c", 8)):
        directory = tmp_path / run
        directory.mkdir()
        paths[run] = [Path(inp["path"]) for inp in WORKLOADS[name].generate(seed, directory, size)]
    digests = {run: [workloads.sha256(p) for p in files] for run, files in paths.items()}
    assert digests["a"] == digests["b"]
    assert digests["a"] != digests["c"]


def test_payments_aggregate_to_the_recorded_total(tmp_path):
    path = tmp_path / "payments.csv"
    expected = workloads.write_payments(path, seed=5, payments=3000, events=40)
    sums: dict[str, list[float]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        assert next(rows) == ["amount", "date", "event_id", "category"]
        for amount, day, event, category in rows:
            assert float(amount) > 0.0 and category == "CPBP"
            sums.setdefault(event, []).append(float(amount))
    assert len(sums) == expected["events"] == 40
    total = math.fsum(math.fsum(values) for values in sums.values())
    assert abs(total - expected["total"]) <= 1e-12 * expected["total"]


def test_stored_q999_reference_matches_mpmath():
    for n, stored in workloads.q999_unit_reference().items():
        assert stored == pytest.approx(workloads.mpmath_q999_unit(n), rel=1e-14)
    assert sorted(workloads.q999_unit_reference()) == workloads.CURVE_POWERS


def test_fft_capital_reference_agrees_with_direct_simulation():
    lam, scale, power = 3.0, 2.0, 4
    rng = np.random.default_rng(11)
    counts = rng.poisson(lam, 400_000)
    draws = scale * np.power(2.0 * rng.standard_gamma(1.0 / power, counts.sum()), 1.0 / power)
    annual = np.bincount(np.repeat(np.arange(counts.size), counts), draws, minlength=counts.size)
    simulated = float(np.quantile(annual, 0.999))
    assert workloads.compound_poisson_quantile(lam, scale, power, 0.999) == pytest.approx(simulated, rel=0.02)


@pytest.mark.parametrize("factor, passes", [(1.002, True), (1.1, False)])
def test_capital_check_uses_the_runs_own_stderr(tmp_path, factor, passes):
    reference = workloads.compound_poisson_quantile(8.0, 45.0, 4, 0.999)
    report = {"count": 40, "sum": 1234.5, "lambda": 8.0, "s_hat": 0.9, "scaling_mean": 50.0,
              "power": 4, "percentile": 0.999, "capital": factor * reference,
              "stderr_estimate": 0.0073 * reference}
    (tmp_path / "capital_report.json").write_text(json.dumps(report))
    session = types.SimpleNamespace(state={})
    error = WORKLOADS["event_capital"].check({"events": 40, "total": 1234.5}, tmp_path, session)
    assert (error is None) is passes


def _span(span_id, start, end, parent, tid, name="x"):
    return [span_id, name, start, end, parent, 0, tid, None]


def _assert_self_times_fit_inside_spans(recorded):
    own = spans.self_times(recorded)
    children: dict[int, list[list]] = {}
    for span in recorded:
        children.setdefault(span[4], []).append(span)

    def same_thread_subtree_self(span):
        return own[span[0]] + sum(same_thread_subtree_self(c) for c in children.get(span[0], [])
                                  if c[6] == span[6])

    for span in recorded:
        assert own[span[0]] >= -1e-9
        assert same_thread_subtree_self(span) <= span[3] - span[2] + 1e-9


def test_calibration_divides_each_op_by_the_kernel_around_it():
    ops = [{"s": 1.0}, {"s": 3.0}]
    assert calibration.calibrated(ops, [0.1, 0.3, 0.3]) == pytest.approx([5.0, 10.0])
    # a host that runs everything twice as slowly leaves the ratios unchanged
    slow = [{"s": 2.0 * op["s"]} for op in ops]
    assert calibration.calibrated(slow, [0.2, 0.6, 0.6]) == pytest.approx([5.0, 10.0])


def test_calibration_kernels_do_not_use_the_program():
    for kind, kernel in calibration.KERNELS.items():
        assert kernel() == kernel()
        assert calibration.measure(kind, 1) > 0.0
        assert kind in calibration.REFERENCE_S
    source = (BENCH_DIR / "calibration.py").read_text(encoding="utf-8")
    assert "import thintail" not in source and "from thintail" not in source


def test_self_times_sum_to_no_more_than_the_span_synthetic():
    recorded = [
        _span(0, 0.0, 10.0, None, 1),
        _span(1, 1.0, 4.0, 0, 1),
        _span(2, 2.0, 3.0, 1, 1),
        _span(3, 5.0, 9.0, 0, 2),  # a worker thread: does not reduce span 0's self time
        _span(4, 6.0, 9.5, 0, 3),
    ]
    _assert_self_times_fit_inside_spans(recorded)
    assert spans.self_times(recorded)[0] == pytest.approx(7.0)
    assert spans.wait_times(recorded)[0] == pytest.approx(4.5)
    assert spans.op_totals(recorded)[0]["x"]["workers"] == 3


def test_self_times_sum_to_no_more_than_the_span_traced_compare(tmp_path, monkeypatch):
    import thintail.cli as cli

    inp = WORKLOADS["compare_tail"].generate(1, tmp_path, SIZES["smoke"]["compare_tail"])[0]
    argv = WORKLOADS["compare_tail"].argv(inp, tmp_path / "out", SIZES["smoke"]["compare_tail"])
    monkeypatch.setenv("THINTAIL_THREADS", "2")
    recorder = spans.Recorder()
    original = cli.main
    with recorder.recording(op=0):
        assert cli.main(argv) == 0
    assert cli.main is original
    names = {span[1] for span in recorder.spans}
    assert {"cli", "ingest.parse", "fit", "tna", "dist.cdf", "specfun.q", "lda", "lda.freq",
            "dist.sample"} <= names
    _assert_self_times_fit_inside_spans(recorder.spans)
    totals = spans.op_totals(recorder.spans)[0]
    assert totals["lda"]["trials"] == 3 * SIZES["smoke"]["compare_tail"]["trials"]
    assert totals["lda"]["workers"] == 2


def test_absent_name_is_reported_not_failed():
    def counter(args, result, exc):
        return {"n": 1}

    recorder = spans.Recorder([("gone", "thintail.dist", "no_such_function", None),
                               ("here", "json", "dumps", counter)])
    assert recorder.absent == ["thintail.dist.no_such_function"]
    with recorder.recording(op=3):
        json.dumps([])
    assert [(s[1], s[5], s[7]) for s in recorder.spans] == [("here", 3, {"n": 1})]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric_and_fails_nothing(name, trace):
    done = _run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                "--size", "smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = END_TO_END if trace == 0 else {m: unit for m, (_, _, unit) in spans.PER_LAYER.items()}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    for metric, unit in {**expected, **PRINTED}.items():
        assert any(line.split()[:1] == [metric] and line.split()[-1] == unit for line in lines)
    assert any(line.split()[:3] == ["fail_frac", "0", "ratio"] for line in lines)
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    assert record["errors"] == [] and record["attempted"] == result["attempted"]
    assert {"python", "numpy", "scipy", "nproc", "cpu", "caches", "git_commit"} <= set(record["environment"])
    assert all(len(inp["sha256"]) == 64 for inp in record["inputs"])
    assert not (ROOT / ".bench_work").exists()


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "curve_sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
