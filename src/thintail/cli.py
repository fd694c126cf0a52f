"""Command-line front end: fit, gof, capital, compare, curve, density.

Each command is one entry of ``_COMMANDS``: a compute function that
checks the values it derives from options, then loads the losses (so a
bad option is reported before a large input is parsed), does the
command's work and returns the output file name, a JSON payload
(reports) or CSV rows (tables and plot data), and the summary lines.
``_run`` does the rest for every command: it creates ``--out-dir`` only
once the compute function has succeeded, so a failed command leaves no
directory behind; writes the payload or rows; writes the run manifest;
and prints the lines.

The manifest records the command, inputs and the input file's SHA-256,
configuration, tool, Python, numpy and scipy versions, and timestamp,
so any output can be reproduced from it.  Reports themselves carry no
timestamps: identical inputs and flags give byte-identical files.

No plotting happens here; ``curve`` and ``density`` emit plot-ready
CSV for external tools.  ``_sim_config`` builds the simulation settings
(defaults from ``LdaConfig``) and checks THINTAIL_THREADS, the worker count.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import platform
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .dist import (ExpNParams, NormalParams, _require_int, _require_positive, _resolve_workers, check_even_power,
                   check_power)
from .fit import fit_expn, scale_losses
from .ingest import (
    AggregatedLossSet,
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
from .tna import TnaResult, invert_significance, tna_test

_MODES = ("pre", "event", "period:month", "period:quarter", "period:year")


def _mode_arg(value: str) -> str:
    if value not in _MODES:
        raise argparse.ArgumentTypeError(f"mode must be one of {', '.join(_MODES)}")
    return value


def _usage(check, *args):
    """``check(*args)``, its ``ValueError`` raised as the usage error argparse reports for an option."""
    try:
        return check(*args)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_arg(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None


def _power_arg(value: str) -> int:
    return _usage(check_power, _int_arg(value))


def _grid_points_arg(value: str) -> int:
    return _usage(_require_int, "grid points", _int_arg(value), 2)  # the grid spans [0, 1.2 * max scaled loss]


def _models_arg(value: str) -> list[str]:
    names = [part for part in value.split(",") if part.strip()]
    if not names:
        raise argparse.ArgumentTypeError("model list must not be empty")
    for name in names:
        _usage(parse_model_spec, name)
    return names


def _powers_arg(value: str) -> list[int]:
    """Even powers from a range '4..20' (stepping by 2) or a comma list like '4,6,8'."""
    text = value.strip()
    lo, is_range, hi = text.partition("..")
    try:
        if not is_range:
            powers = [int(part) for part in text.split(",") if part.strip()]
        elif int(lo) <= int(hi):
            powers = list(range(int(lo), int(hi) + 1, 2))
        else:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad power list {value!r}") from None
    if not powers:
        raise argparse.ArgumentTypeError("power list must not be empty")
    return [_usage(check_even_power, n) for n in powers]


def _freq_arg(value: str):
    text = value.strip().lower()
    if text == "poisson" or text == "normal":
        return (text, None)
    if text.startswith("negbin:"):
        try:
            dispersion = float(text.split(":", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad dispersion in {value!r}") from None
        return ("negbin", _usage(_require_positive, "dispersion", dispersion))
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
        p.add_argument("--trials", type=int, default=LdaConfig.trials)
        p.add_argument("--seed", type=int, default=LdaConfig.seed)
        p.add_argument("--percentile", type=float, default=LdaConfig.percentile)

    p_fit = sub.add_parser("fit", help="fit the ExpN scale and report goodness of fit")
    add_common(p_fit)
    p_fit.add_argument("--power", type=_power_arg, default=4)

    p_gof = sub.add_parser("gof", help="test a given scale without fitting")
    add_common(p_gof)
    p_gof.add_argument("--power", type=_power_arg, default=4)
    p_gof.add_argument("--scale", type=float, required=True,
                       help="scale parameter on the mean-scaled axis")

    p_cap = sub.add_parser("capital", help="simulate the capital percentile")
    add_common(p_cap)
    add_sim(p_cap)
    p_cap.add_argument("--power", type=_power_arg, default=4)
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
                         help="even powers: comma list, or range '4..20' stepping by 2")
    p_curve.add_argument("--with-capital", action="store_true",
                         help="add a simulated capital column")

    p_den = sub.add_parser("density", help="fitted vs empirical density overlay data")
    add_common(p_den)
    p_den.add_argument("--power", type=_power_arg, default=4)
    p_den.add_argument("--grid-points", type=_grid_points_arg, default=201,
                       help="grid size, at least 2")

    return parser


def _load_losses(args) -> AggregatedLossSet:
    path = Path(args.input)
    label = args.label if args.label is not None else path.stem
    span = None if args.span_years is None else _require_positive("span_years", args.span_years)
    if args.mode == "pre":
        if span is None:
            raise ValueError("--mode pre requires --span-years")
        return AggregatedLossSet(parse_pre_aggregated(path), span, label)
    loss_set = aggregate(parse_csv(path, permissive=args.permissive), mode=args.mode, label=label)
    return loss_set if span is None else replace(loss_set, span_years=span)


def _write_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, rows: list[list]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _sha256(path: Path) -> str:
    """Hex SHA-256 of a file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args, argv: list[str], out_dir: Path):
    manifest = {
        "schema_version": 1,
        "tool": "thintail",
        "tool_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "command": args.command,
        "inputs": [str(Path(args.input).resolve())],
        "input_sha256": _sha256(Path(args.input)),
        "config": {key: value for key, value in vars(args).items() if key != "command"},
        "argv": argv,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(out_dir / f"{args.command}_manifest.json", manifest)


def _tna_fields(tna: TnaResult) -> dict:
    """Area, attained significance, and the decisions ``tna_test`` took keyed '1%', '5%', '10%'."""
    return {
        "tna_area": tna.area,
        "attained_significance": invert_significance(tna.area),
        "reject": {f"{level:g}%": rejected for level, rejected in tna.reject.items()},
    }


def _reject_lines(payload: dict) -> list[str]:
    return [
        f"  {level} two-tailed: {'reject' if rejected else 'accept'}"
        for level, rejected in payload["reject"].items()
    ]


def _sim_config(args) -> LdaConfig:
    """The simulation settings; a bad THINTAIL_THREADS fails here, before the input is read."""
    _resolve_workers()
    return LdaConfig(trials=args.trials, percentile=args.percentile, seed=args.seed)


def _fit_payload(loss_set: AggregatedLossSet, power: int) -> tuple[dict, object]:
    result = fit_expn(np.asarray(loss_set.losses), power)
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
        **_tna_fields(result.tna),
        "evaluations": result.evaluations,
        "at_boundary": result.at_boundary,
    }
    return payload, result


def _fit(args):
    payload, _ = _fit_payload(_load_losses(args), args.power)
    summary_line = (
        f"fit [{payload['label']}] power={args.power}: "
        f"s_hat={payload['s_hat']:.6g} (raw {payload['s_hat_raw']:.6g} mEUR), "
        f"scaling_mean={payload['scaling_mean']:.6g}, area={payload['tna_area']:.4f}, "
        f"attained={payload['attained_significance']:.4f}"
    )
    return "fit_report.json", payload, [summary_line, *_reject_lines(payload)]


def _gof(args):
    params = ExpNParams(_require_positive("scale", args.scale), args.power)
    loss_set = _load_losses(args)
    scaled, mean = scale_losses(np.asarray(loss_set.losses))
    result = tna_test(scaled, params)
    payload = {
        "label": loss_set.label,
        "power": args.power,
        "scale": args.scale,
        "scaling_mean": mean,
        "count": result.n_points,
        "crossings": result.crossings,
        **_tna_fields(result),
    }
    summary_line = (
        f"gof [{payload['label']}] power={args.power} scale={args.scale:.6g}: "
        f"area={result.area:.4f}, attained={payload['attained_significance']:.4f}"
    )
    return "gof_report.json", payload, [summary_line, *_reject_lines(payload)]


def _frequency_model(spec, lam: float):
    family, dispersion = spec
    if family == "poisson":
        return PoissonFreq(lam)
    if family == "normal":
        return NormalApproxFreq(lam)
    return NegativeBinomialFreq(mean=lam, dispersion=dispersion)


def _capital(args):
    cfg = _sim_config(args)
    loss_set = _load_losses(args)
    fit_payload, fit_result = _fit_payload(loss_set, args.power)
    lam = annual_frequency(len(loss_set.losses), loss_set.span_years)
    capital = run_lda(fit_result.model, _frequency_model(args.freq, lam), cfg)
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
    summary_line = (
        f"capital [{payload['label']}]: count={payload['count']} sum={payload['sum']:.1f} "
        f"capital={payload['capital']:.1f} tna={payload['tna_area']:.3f} "
        f"(lambda={payload['lambda']:.3g}, trials={payload['trials']}, "
        f"converged={payload['converged']})"
    )
    return "capital_report.json", payload, [summary_line]


def _compare(args):
    cfg = _sim_config(args)
    loss_set = _load_losses(args)
    row = compare_models(
        np.asarray(loss_set.losses), loss_set.span_years, args.models, cfg, label=loss_set.label
    )
    first, *rest = row.entries
    header = ["dataset", "count", "sum", "capital", "tna", *(f"{e.name}_capital" for e in rest)]
    values = [row.label, row.count, repr(row.total), repr(first.capital), repr(first.tna_area),
              *(repr(e.capital) for e in rest)]
    text = io.StringIO()
    csv.writer(text).writerows([header, values])
    # print the table's rows with LF ends; the header holds no line break, so the first CRLF ends it
    return "compare_table.csv", [header, values], text.getvalue()[:-2].split("\r\n", 1)


def _curve(args):
    cfg = _sim_config(args)
    loss_set = _load_losses(args)
    rows = percentile_vs_n(
        np.asarray(loss_set.losses), loss_set.span_years, args.powers, cfg,
        with_capital=args.with_capital,
    )
    header = ["n", "q999", "capital"] if args.with_capital else ["n", "q999"]
    table = [header] + [[n, repr(q999), repr(capital)][: len(header)] for n, q999, capital in rows]
    lines = [
        f"n={n:3d} q999={q999:.4f}" + (f" capital={capital:.2f}" if args.with_capital else "")
        for n, q999, capital in rows
    ]
    return "curve_data.csv", table, lines


def _density(args):
    loss_set = _load_losses(args)
    losses = np.asarray(loss_set.losses)
    result = fit_expn(losses, args.power)
    scaled, _ = scale_losses(losses)

    grid = np.linspace(0.0, 1.2 * float(scaled.max()), args.grid_points)
    fitted = result.model.params.pdf(grid)

    from scipy.stats import gaussian_kde

    if np.std(scaled) > 0:
        empirical = gaussian_kde(scaled, bw_method="silverman")(grid)
    else:  # every loss equal: a Normal bump of width 0.1 at the one scaled value
        empirical = NormalParams(float(scaled.mean()), 0.1).pdf(grid)

    name = "density_data.csv"
    table = [["x", "fit", "empirical"]] + [
        [repr(float(x)), repr(float(f)), repr(float(e))] for x, f, e in zip(grid, fitted, empirical)
    ]
    lines = [f"density [{loss_set.label}]: wrote {args.grid_points} grid rows to {Path(args.out_dir) / name}"]
    return name, table, lines


_COMMANDS = {
    "fit": _fit,
    "gof": _gof,
    "capital": _capital,
    "compare": _compare,
    "curve": _curve,
    "density": _density,
}


def _run(args, argv: list[str]) -> int:
    name, output, lines = _COMMANDS[args.command](args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (_write_json if isinstance(output, dict) else _write_csv)(out_dir / name, output)
    _write_manifest(args, argv, out_dir)
    print(*lines, sep="\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    try:
        return _run(args, argv)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
