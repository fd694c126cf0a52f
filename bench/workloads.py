"""Workloads: seeded input generators, the CLI argv of one op, and the
output checks every op must pass.

Each workload is chosen so that one layer of ``thintail`` does most of
the work of an op, and the other layers do little:

* ``event_capital``: ``capital --mode event`` on 150k raw payments from
  40 events.  ``ingest.parse_csv`` dominates; it is the flagship
  end-to-end path.  Ops are kept near one second so that the
  calibration kernel timed between them follows the host's speed.
* ``curve_sweep``: ``curve`` over the nine even powers 4..20 on n=30
  pre-aggregated samples.  The incomplete-gamma CDF inside the scale
  fits dominates.
* ``compare_tail``: ``compare`` of exp4, normal and expn:100 at 150k
  trials and lambda=60 on two threads.  Severity sampling dominates,
  and it is the only workload on the thread-pool path.

Inputs depend only on the workload seed; the program sees only the
generated files.  The parent process generates them; the child process
that runs the ops calls ``prepare`` and ``check``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SPAN_YEARS = 5
FIRST_DAY = date(2015, 1, 1)
EVENT_SCALE = 50.0  # mEUR; Exp4 scale of the event totals
LOSS_SCALE = 20.0  # mEUR; Exp4 scale of the pre-aggregated losses
CURVE_POWERS = list(range(4, 21, 2))
COMPARE_HEADER = ["dataset", "count", "sum", "capital", "tna", "normal_capital", "expn_capital"]
# |capital - FFT reference| may reach this many of the run's own stderr_estimate
CAPITAL_SIGMAS = 5.0
SUM_RTOL = 1e-12
Q999_RTOL = 1e-4


def exp4_draws(rng: np.random.Generator, count: int, scale: float) -> np.ndarray:
    """Exp4(scale) variates: scale * (2 G)^(1/4) with G ~ Gamma(1/4)."""
    return scale * np.power(2.0 * rng.standard_gamma(0.25, count), 0.25)


def exp4_stratified(rng: np.random.Generator, count: int, scale: float) -> np.ndarray:
    """Exp4(scale) sample with one draw from each of ``count`` equal-probability strata.

    Pooled over the strata the draws are Exp4.  Stratifying keeps the
    sample's shape, and with it the cost of fitting the sample, close from
    seed to seed: with plain random samples of n=30 the time of a
    ``curve`` op varied threefold between seeds.
    """
    from scipy.special import gammaincinv

    p = (np.arange(count) + rng.uniform(1e-9, 1.0 - 1e-9, count)) / count
    return rng.permutation(scale * np.power(2.0 * gammaincinv(0.25, p), 0.25))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_payments(path: Path, seed: int, payments: int, events: int) -> dict:
    """Raw payment file: Exp4 event totals split into ``payments`` payments.

    Every event gets at least one payment, the rest are shared in
    proportion to the event totals, and each event total is split by
    exponential weights.  Rows are shuffled; dates are uniform over
    ``SPAN_YEARS`` years, with the first and last day present.
    Returns the expected aggregate: event count and the ``math.fsum`` of
    the amounts exactly as written.
    """
    rng = np.random.default_rng([seed, 1])
    totals = exp4_draws(rng, events, EVENT_SCALE)
    counts = 1 + rng.multinomial(payments - events, totals / totals.sum())
    event_of = np.repeat(np.arange(events), counts)
    weights = rng.exponential(size=payments)
    group_weight = np.bincount(event_of, weights, minlength=events)
    amounts = np.maximum(totals[event_of] * weights / group_weight[event_of], 1e-6)
    last_day = SPAN_YEARS * 365
    days = rng.integers(0, last_day + 1, payments)
    days[:2] = (0, last_day)
    order = rng.permutation(payments)

    day_text = [(FIRST_DAY + timedelta(days=d)).isoformat() for d in range(last_day + 1)]
    amount_text = [f"{a:.6f}" for a in amounts[order].tolist()]
    rows = [
        f"{a},{day_text[d]},EV{e:03d},CPBP"
        for a, d, e in zip(amount_text, days[order].tolist(), event_of[order].tolist())
    ]
    path.write_text("amount,date,event_id,category\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return {"events": events, "total": math.fsum(map(float, amount_text)), "rows": payments}


def write_losses(path: Path, rng: np.random.Generator, count: int) -> dict:
    """Pre-aggregated one-column file of ``count`` stratified Exp4 losses."""
    values = exp4_stratified(rng, count, LOSS_SCALE).tolist()
    path.write_text("amount\n" + "".join(f"{v!r}\n" for v in values), encoding="utf-8")
    return {"count": count, "total": math.fsum(values), "rows": count}


def q999_unit_reference() -> dict[int, float]:
    data = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    return {int(n): float(q) for n, q in data["q999_unit"].items()}


def mpmath_q999_unit(n: int, digits: int = 40) -> float:
    """(2 * P^-1(1/n, 0.999))^(1/n) evaluated independently with mpmath."""
    import mpmath as mp
    from scipy.special import gammaincinv

    with mp.workdps(digits):
        a = mp.mpf(1) / n
        root = mp.findroot(
            lambda t: mp.gammainc(a, 0, t, regularized=True) - mp.mpf("0.999"),
            mp.mpf(gammaincinv(1.0 / n, 0.999)),
        )
        return float((2 * root) ** a)


def compound_poisson_quantile(lam: float, scale: float, power: int, p: float,
                              points: int = 2**18) -> float:
    """p-quantile of a Poisson(lam) sum of ExpN(scale, power) severities.

    Deterministic: the severity is discretized on a lattice by rounding
    and the compound distribution is taken by FFT.  The lattice spans
    ``lam + 12 sqrt(lam) + 12`` severities at their 1 - 1e-15 quantile,
    so the mass that wraps around is negligible.
    """
    from scipy.special import gammainc, gammaincinv

    a = 1.0 / power
    severity_hi = scale * (2.0 * gammaincinv(a, 1.0 - 1e-15)) ** a
    h = (lam + 12.0 * math.sqrt(lam) + 12.0) * severity_hi / points
    edges = np.maximum((np.arange(points + 1) - 0.5) * h, 0.0)
    pmf = np.diff(gammainc(a, 0.5 * (edges / scale) ** power))
    aggregate = np.fft.irfft(np.exp(lam * (np.fft.rfft(pmf) - 1.0)), points)
    cdf = np.cumsum(aggregate)
    k = int(np.searchsorted(cdf, p))
    return h * (k - 1 + (p - cdf[k - 1]) / (cdf[k] - cdf[k - 1]))


def _relative_error(value: float, expected: float) -> float:
    return abs(value - expected) / abs(expected)


class Workload:
    name = ""
    threads = 1
    report = ""  # output file that must be byte-identical across ops on one input
    work_unit = ""
    # kernel of calibration.KERNELS timed before the first op and after every op,
    # and its number of calls per timing
    calibration = ("scalar", 3)

    def generate(self, seed: int, directory: Path, size: dict) -> list[dict]:
        raise NotImplementedError

    def argv(self, inp: dict, out_dir: Path, size: dict) -> list[str]:
        raise NotImplementedError

    def work(self, inp: dict, size: dict) -> float:
        raise NotImplementedError

    def reference_errors(self) -> list[str]:
        """Check stored references once per run, in the process that generates inputs."""
        return []

    def prepare(self, session) -> None:
        """Untimed set-up in the process that runs the ops."""

    def check(self, inp: dict, out_dir: Path, session) -> str | None:
        raise NotImplementedError


class EventCapital(Workload):
    name = "event_capital"
    report = "capital_report.json"
    work_unit = "payments"
    calibration = ("records", 5)

    def generate(self, seed, directory, size):
        path = directory / "payments.csv"
        expected = write_payments(path, seed, size["payments"], size["events"])
        return [{"path": str(path), **expected}]

    def argv(self, inp, out_dir, size):
        return ["capital", "--input", inp["path"], "--mode", "event",
                "--trials", str(size["trials"]), "--seed", "42", "--out-dir", str(out_dir)]

    def work(self, inp, size):
        return inp["rows"]

    def check(self, inp, out_dir, session):
        report = json.loads((out_dir / self.report).read_text(encoding="utf-8"))
        if report["count"] != inp["events"]:
            return f"expected {inp['events']} events, report has {report['count']}"
        if _relative_error(report["sum"], inp["total"]) > SUM_RTOL:
            return f"event sum {report['sum']!r} differs from generated total {inp['total']!r}"
        # The reference depends on the fitted scale, not on simulated values,
        # so a justified change to the simulation still passes.
        if "capital_reference" not in session.state:
            session.state["capital_reference"] = compound_poisson_quantile(
                report["lambda"], report["s_hat"] * report["scaling_mean"],
                report["power"], report["percentile"])
        reference = session.state["capital_reference"]
        tolerance = CAPITAL_SIGMAS * report["stderr_estimate"]
        if not abs(report["capital"] - reference) <= tolerance:
            return (f"capital {report['capital']!r} is more than {CAPITAL_SIGMAS} stderr "
                    f"({tolerance:.4g}) from the FFT reference {reference!r}")
        return None


class CurveSweep(Workload):
    name = "curve_sweep"
    report = "curve_data.csv"
    work_unit = "fits"

    def generate(self, seed, directory, size):
        rng = np.random.default_rng([seed, 2])
        inputs = []
        for k in range(size["samples"]):
            path = directory / f"sample{k}.csv"
            inputs.append({"path": str(path), **write_losses(path, rng, size["losses"])})
        return inputs

    def argv(self, inp, out_dir, size):
        return ["curve", "--input", inp["path"], "--mode", "pre", "--span-years", str(SPAN_YEARS),
                "--powers", ",".join(map(str, CURVE_POWERS)), "--out-dir", str(out_dir)]

    def work(self, inp, size):
        return len(CURVE_POWERS)

    def reference_errors(self):
        errors = []
        for n, stored in q999_unit_reference().items():
            exact = mpmath_q999_unit(n)
            if abs(stored - exact) > 1e-14 * exact:
                errors.append(f"stored unit q999 for n={n} is {stored!r}, mpmath gives {exact!r}")
        return errors

    def prepare(self, session):
        """Reference q999 per sample and power: s_hat_raw from ``fit`` times the stored unit quantile."""
        unit = q999_unit_reference()
        for k, inp in enumerate(session.inputs):
            refs = {}
            for n in CURVE_POWERS:
                out_dir = session.work / "fit" / str(k)
                error = session.run(["fit", "--input", inp["path"], "--mode", "pre",
                                     "--span-years", str(SPAN_YEARS), "--power", str(n),
                                     "--out-dir", str(out_dir)])
                if error is not None:
                    continue  # the op checks then fail for want of a reference
                fit = json.loads((out_dir / "fit_report.json").read_text(encoding="utf-8"))
                refs[n] = fit["s_hat_raw"] * unit[n]
            session.state.setdefault("q999_reference", {})[inp["path"]] = refs

    def check(self, inp, out_dir, session):
        with open(out_dir / self.report, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["n", "q999"] or [int(r[0]) for r in rows[1:]] != CURVE_POWERS:
            return f"unexpected curve table layout {rows[:2]!r}"
        refs = session.state["q999_reference"][inp["path"]]
        for n, q999 in ((int(r[0]), float(r[1])) for r in rows[1:]):
            if _relative_error(q999, refs[n]) > Q999_RTOL:
                return f"q999 at n={n} is {q999!r}, reference {refs[n]!r}"
        return None


class CompareTail(Workload):
    name = "compare_tail"
    threads = 2
    report = "compare_table.csv"
    work_unit = "trials"
    calibration = ("numpy", 5)

    def generate(self, seed, directory, size):
        path = directory / "losses.csv"
        return [{"path": str(path), **write_losses(path, np.random.default_rng([seed, 3]), size["losses"])}]

    def argv(self, inp, out_dir, size):
        return ["compare", "--input", inp["path"], "--mode", "pre", "--span-years", str(SPAN_YEARS),
                "--models", "exp4,normal,expn:100", "--trials", str(size["trials"]), "--seed", "42",
                "--out-dir", str(out_dir)]

    def work(self, inp, size):
        return 3 * size["trials"]

    def prepare(self, session):
        """One untimed op on one worker: every two-worker table must match its bytes."""
        session.state["single_worker_s"] = session.op(0, threads=1)[0]

    def check(self, inp, out_dir, session):
        with open(out_dir / self.report, encoding="utf-8", newline="") as fh:
            header, values = list(csv.reader(fh))
        if header != COMPARE_HEADER:
            return f"unexpected compare header {header!r}"
        if int(values[1]) != inp["count"] or _relative_error(float(values[2]), inp["total"]) > SUM_RTOL:
            return f"count/sum {values[1:3]!r} differ from the generated {inp['count']}/{inp['total']!r}"
        capitals = [float(values[i]) for i in (3, 5, 6)]
        if not all(math.isfinite(c) and c > 0.0 for c in capitals):
            return f"capitals must be finite and > 0, got {capitals!r}"
        return None


WORKLOADS = {w.name: w for w in (EventCapital(), CurveSweep(), CompareTail())}

# "full" is what the benchmark measures; "smoke" is a tiny size for the tests.
SIZES = {
    "full": {
        "event_capital": {"payments": 150_000, "events": 40, "trials": 50_000},
        "curve_sweep": {"samples": 16, "losses": 30},
        "compare_tail": {"losses": 300, "trials": 150_000},
    },
    "smoke": {
        "event_capital": {"payments": 4_000, "events": 40, "trials": 10_000},
        "curve_sweep": {"samples": 2, "losses": 30},
        "compare_tail": {"losses": 300, "trials": 8_192},
    },
}
