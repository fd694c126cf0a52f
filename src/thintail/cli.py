"""Command-line front end: fit, gof, capital, compare, curve, density.

Every command writes a machine-readable result (JSON for reports, CSV
for tables and plot data) plus a run manifest recording the command,
inputs and the input file's SHA-256, configuration, tool, Python, numpy
and scipy versions, and timestamp, so any output can be reproduced from
its manifest.  Reports themselves carry no timestamps: identical inputs
and flags give byte-identical files.

No plotting happens here; ``curve`` and ``density`` emit plot-ready
CSV for external tools.  THINTAIL_THREADS caps simulation workers.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .dist import ExpNParams, SeverityModel
from .fit import FitConfig, fit_expn, scale_losses
from .ingest import (
    AggregatedLossSet,
    LossCsvError,
    aggregate,
    parse_csv,
    parse_pre_aggregated,
    summary,
)
from .lda import (
    LdaConfig,
    NegativeBinomialFreq,
    NormalApproxFreq,
    PoissonFreq,
    annual_frequency,
    compare_models,
    parse_model_spec,
    percentile_vs_n,
    run_lda,
)
from .tna import DEFAULT_LEVELS, decisions_for_area, invert_significance, tna_test

_MODES = ("pre", "event", "period:month", "period:quarter", "period:year")


def _mode_arg(value: str) -> str:
    if value not in _MODES:
        raise argparse.ArgumentTypeError(f"mode must be one of {', '.join(_MODES)}")
    return value


def _model_arg(value: str) -> tuple[str, int | None]:
    try:
        return parse_model_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _models_arg(value: str) -> list[tuple[str, int | None]]:
    names = [part for part in value.split(",") if part.strip()]
    if not names:
        raise argparse.ArgumentTypeError("model list must not be empty")
    return [_model_arg(name) for name in names]


def _powers_arg(value: str) -> list[int]:
    """Accept '4..20' ranges or comma lists like '4,6,8'."""
    text = value.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError
            powers = list(range(lo, hi + 1))
        else:
            powers = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad power list {value!r}") from None
    if not powers:
        raise argparse.ArgumentTypeError("power list must not be empty")
    return powers


def _freq_arg(value: str):
    text = value.strip().lower()
    if text == "poisson" or text == "normal":
        return (text, None)
    if text.startswith("negbin:"):
        try:
            dispersion = float(text.split(":", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad dispersion in {value!r}") from None
        if dispersion <= 0:
            raise argparse.ArgumentTypeError("dispersion must be > 0")
        return ("negbin", dispersion)
    raise argparse.ArgumentTypeError(
        f"frequency must be poisson, normal, or negbin:<dispersion>, got {value!r}"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thintail",
        description="Operational-risk capital for aggregated conduct-risk losses "
        "with very-thin-tailed severity models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--input", required=True, help="loss CSV file")
        p.add_argument(
            "--mode",
            type=_mode_arg,
            default="pre",
            help="pre (one-column aggregated CSV), event, or period:<month|quarter|year>",
        )
        p.add_argument("--span-years", type=float, default=None,
                       help="observation span; required for --mode pre, overrides dates otherwise")
        p.add_argument("--label", default=None, help="dataset label (default: input stem)")
        p.add_argument("--out-dir", default=".", help="directory for reports and manifests")
        p.add_argument("--permissive", action="store_true",
                       help="ignore unknown CSV columns")

    def add_sim(p: argparse.ArgumentParser):
        p.add_argument("--trials", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--percentile", type=float, default=0.999)

    p_fit = sub.add_parser("fit", help="fit the ExpN scale and report goodness of fit")
    add_common(p_fit)
    p_fit.add_argument("--power", type=int, default=4)

    p_gof = sub.add_parser("gof", help="test a given scale without fitting")
    add_common(p_gof)
    p_gof.add_argument("--power", type=int, default=4)
    p_gof.add_argument("--scale", type=float, required=True,
                       help="scale parameter on the mean-scaled axis")

    p_cap = sub.add_parser("capital", help="simulate the capital percentile")
    add_common(p_cap)
    add_sim(p_cap)
    p_cap.add_argument("--power", type=int, default=4)
    p_cap.add_argument("--freq", type=_freq_arg, default=("poisson", None),
                       help="poisson, normal, or negbin:<dispersion>")

    p_cmp = sub.add_parser("compare", help="capital comparison across severity models")
    add_common(p_cmp)
    add_sim(p_cmp)
    p_cmp.add_argument("--models", type=_models_arg, default="exp4,normal,expn:100",
                       help="comma list: exp4, normal, expn:<power>")

    p_curve = sub.add_parser("curve", help="99.9th percentile of fitted ExpN vs power")
    add_common(p_curve)
    add_sim(p_curve)
    p_curve.add_argument("--powers", type=_powers_arg, default="4,6,8,10,12,14,16,18,20",
                         help="range '4..20' or comma list of even powers")
    p_curve.add_argument("--with-capital", action="store_true",
                         help="add a simulated capital column")

    p_den = sub.add_parser("density", help="fitted vs empirical density overlay data")
    add_common(p_den)
    p_den.add_argument("--model", type=_model_arg, default=("exp4", None),
                       help="exp4 or expn:<power>")
    p_den.add_argument("--grid-points", type=int, default=201)

    return parser


def _load_losses(args) -> AggregatedLossSet:
    path = Path(args.input)
    label = args.label if args.label is not None else path.stem
    if args.mode == "pre":
        if args.span_years is None:
            raise ValueError("--mode pre requires --span-years")
        amounts = parse_pre_aggregated(path)
        return AggregatedLossSet(
            losses=tuple(amounts),
            span_years=float(args.span_years),
            label=label,
            aggregation_mode="pre-aggregated",
        )
    table = parse_csv(path, permissive=args.permissive)
    loss_set = aggregate(table, mode=args.mode, label=label)
    if args.span_years is not None:
        loss_set = AggregatedLossSet(
            losses=loss_set.losses,
            span_years=float(args.span_years),
            label=label,
            aggregation_mode=loss_set.aggregation_mode,
        )
    return loss_set


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path: Path) -> str:
    """Hex SHA-256 of a file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args, argv: list[str], command: str, out_dir: Path):
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in {"command"} and not key.startswith("_")
    }
    manifest = {
        "schema_version": 1,
        "tool": "thintail",
        "tool_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "command": command,
        "inputs": [str(Path(args.input).resolve())],
        "input_sha256": _sha256(Path(args.input)),
        "config": {k: _jsonable(v) for k, v in config.items()},
        "argv": argv,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(out_dir / f"{command}_manifest.json", manifest)


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


def _decisions(area: float) -> dict[str, bool]:
    return {f"{level:g}%": rejected for level, rejected in decisions_for_area(area, DEFAULT_LEVELS).items()}


def _attained_significance(area: float) -> float:
    return invert_significance(min(area, 0.5))


def _fit_payload(loss_set: AggregatedLossSet, power: int) -> tuple[dict, object]:
    result = fit_expn(np.asarray(loss_set.losses), FitConfig(n=power))
    stats = summary(loss_set)
    payload = {
        "label": loss_set.label,
        "power": power,
        "count": stats.count,
        "sum": stats.total,
        "span_years": loss_set.span_years,
        "s_hat": result.s_hat,
        "s_hat_raw": result.s_hat_raw,
        "scaling_mean": result.scaling_mean,
        "tna_area": result.tna.area,
        "attained_significance": _attained_significance(result.tna.area),
        "reject": _decisions(result.tna.area),
        "evaluations": result.evaluations,
        "converged": result.converged,
        "at_boundary": result.at_boundary,
    }
    return payload, result


def _cmd_fit(args, argv) -> int:
    loss_set = _load_losses(args)
    payload, _ = _fit_payload(loss_set, args.power)
    out_dir = Path(args.out_dir)
    _write_json(out_dir / "fit_report.json", payload)
    _write_manifest(args, argv, "fit", out_dir)
    print(
        f"fit [{payload['label']}] power={args.power}: "
        f"s_hat={payload['s_hat']:.6g} (raw {payload['s_hat_raw']:.6g} mEUR), "
        f"scaling_mean={payload['scaling_mean']:.6g}, area={payload['tna_area']:.4f}, "
        f"attained={payload['attained_significance']:.4f}"
    )
    for level, rejected in payload["reject"].items():
        print(f"  {level} two-tailed: {'reject' if rejected else 'accept'}")
    return 0


def _cmd_gof(args, argv) -> int:
    loss_set = _load_losses(args)
    scaled, mean = scale_losses(np.asarray(loss_set.losses))
    model = SeverityModel(ExpNParams(args.scale, args.power), scaling_mean=1.0)
    result = tna_test(scaled, model)
    payload = {
        "label": loss_set.label,
        "power": args.power,
        "scale": args.scale,
        "scaling_mean": mean,
        "count": result.n_points,
        "tna_area": result.area,
        "crossings": result.crossings,
        "attained_significance": _attained_significance(result.area),
        "reject": _decisions(result.area),
    }
    out_dir = Path(args.out_dir)
    _write_json(out_dir / "gof_report.json", payload)
    _write_manifest(args, argv, "gof", out_dir)
    print(
        f"gof [{payload['label']}] power={args.power} scale={args.scale:.6g}: "
        f"area={result.area:.4f}, attained={payload['attained_significance']:.4f}"
    )
    for level, rejected in payload["reject"].items():
        print(f"  {level} two-tailed: {'reject' if rejected else 'accept'}")
    return 0


def _frequency_model(spec, lam: float):
    family, dispersion = spec
    if family == "poisson":
        return PoissonFreq(lam)
    if family == "normal":
        return NormalApproxFreq(lam)
    return NegativeBinomialFreq(mean=lam, dispersion=dispersion)


def _cmd_capital(args, argv) -> int:
    loss_set = _load_losses(args)
    losses = np.asarray(loss_set.losses)
    cfg = LdaConfig(trials=args.trials, percentile=args.percentile, seed=args.seed)
    fit_payload, fit_result = _fit_payload(loss_set, args.power)
    lam = annual_frequency(losses.size, loss_set.span_years)
    freq = _frequency_model(args.freq, lam)
    capital = run_lda(fit_result.model, freq, cfg)
    payload = {
        "label": loss_set.label,
        "count": fit_payload["count"],
        "sum": fit_payload["sum"],
        "capital": capital.capital,
        "tna_area": fit_payload["tna_area"],
        "power": args.power,
        "lambda": capital.lam,
        "frequency": args.freq[0],
        "percentile": args.percentile,
        "trials": capital.trials,
        "seed": capital.seed,
        "stderr_estimate": capital.stderr_estimate,
        "converged": capital.converged,
        "s_hat": fit_payload["s_hat"],
        "scaling_mean": fit_payload["scaling_mean"],
    }
    out_dir = Path(args.out_dir)
    _write_json(out_dir / "capital_report.json", payload)
    _write_manifest(args, argv, "capital", out_dir)
    print(
        f"capital [{payload['label']}]: count={payload['count']} sum={payload['sum']:.1f} "
        f"capital={payload['capital']:.1f} tna={payload['tna_area']:.3f} "
        f"(lambda={payload['lambda']:.3g}, trials={payload['trials']}, "
        f"converged={payload['converged']})"
    )
    return 0


def _cmd_compare(args, argv) -> int:
    loss_set = _load_losses(args)
    cfg = LdaConfig(trials=args.trials, percentile=args.percentile, seed=args.seed)
    row = compare_models(
        np.asarray(loss_set.losses),
        loss_set.span_years,
        args.models,
        cfg,
        label=loss_set.label,
    )
    header = ["dataset", "count", "sum"]
    values: list = [row.label, row.count, f"{row.total!r}"]
    for i, entry in enumerate(row.entries):
        if i == 0:
            header += ["capital", "tna"]
            values += [f"{entry.capital!r}", f"{entry.tna_area!r}"]
        else:
            header.append(f"{entry.name}_capital")
            values.append(f"{entry.capital!r}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "compare_table.csv"
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerow(values)
    _write_manifest(args, argv, "compare", out_dir)
    print(",".join(header))
    print(",".join(str(v) for v in values))
    return 0


def _cmd_curve(args, argv) -> int:
    powers = []
    for n in args.powers:
        if n % 2 != 0:
            print(f"warning: skipping odd power {n} (only even powers are defined)", file=sys.stderr)
            continue
        powers.append(n)
    if not powers:
        raise ValueError("no even powers left in --powers")
    loss_set = _load_losses(args)
    cfg = LdaConfig(trials=args.trials, percentile=args.percentile, seed=args.seed)
    rows = percentile_vs_n(
        np.asarray(loss_set.losses),
        loss_set.span_years,
        powers,
        cfg,
        with_capital=args.with_capital,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "curve_data.csv"
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if args.with_capital:
            writer.writerow(["n", "q999", "capital"])
            for n, q999, capital in rows:
                writer.writerow([n, repr(q999), repr(capital)])
        else:
            writer.writerow(["n", "q999"])
            for n, q999, _ in rows:
                writer.writerow([n, repr(q999)])
    _write_manifest(args, argv, "curve", out_dir)
    for n, q999, capital in rows:
        extra = f" capital={capital:.2f}" if args.with_capital else ""
        print(f"n={n:3d} q999={q999:.4f}{extra}")
    return 0


def _silverman_bandwidth(data: np.ndarray) -> float:
    sd = float(np.std(data, ddof=1))
    return 0.9 * sd * len(data) ** (-0.2) if sd > 0 else 0.1


def _cmd_density(args, argv) -> int:
    loss_set = _load_losses(args)
    losses = np.asarray(loss_set.losses)
    family, power = args.model
    n = 4 if family == "exp4" else power
    result = fit_expn(losses, FitConfig(n=n))
    scaled, _ = scale_losses(losses)

    grid = np.linspace(0.0, 1.2 * float(scaled.max()), args.grid_points)
    fitted = result.model.params.pdf(grid)

    from scipy.stats import gaussian_kde

    if scaled.size > 1 and np.std(scaled) > 0:
        kde = gaussian_kde(scaled, bw_method="silverman")
        empirical = kde(grid)
    else:
        bw = _silverman_bandwidth(scaled)
        empirical = np.exp(-0.5 * ((grid - scaled.mean()) / bw) ** 2) / (
            bw * math.sqrt(2 * math.pi)
        )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "density_data.csv"
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "fit", "empirical"])
        for x, f, e in zip(grid, fitted, empirical):
            writer.writerow([repr(float(x)), repr(float(f)), repr(float(e))])
    _write_manifest(args, argv, "density", out_dir)
    print(f"density [{loss_set.label}]: wrote {args.grid_points} grid rows to {out_path}")
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "gof": _cmd_gof,
    "capital": _cmd_capital,
    "compare": _cmd_compare,
    "curve": _cmd_curve,
    "density": _cmd_density,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, argv)
    except (ValueError, RuntimeError, LossCsvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
