"""Command line interface.

Commands: ``detect`` (run the detection pipeline on a series file),
``estimate-noise`` (smoothed-noise moments from a calibration series),
``estimate-template`` (average spike shape from training data) and
``simulate`` (Monte Carlo sweeps).

Every command is deterministic given its flags; ``simulate`` requires an
explicit ``--seed``.  Output files carry a provenance header recording
the tool version, the result-determining flags and the seed.

Exit codes: 2 for configuration errors, 3 for I/O errors and unreadable
input files, 4 for numeric failures on degenerate data.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .errors import ConfigurationError, InputFileError, NumericFailureError
from .evaluation import PRESET_NAMES, preset_design, run_sweep
from .kernels import (
    KernelFamily,
    convolve,
    estimate_template,
    gaussian_kernel,
    kernel_reach,
    quartic_kernel,
    same_grid,
)
from .multitest import PEAK_PROCEDURES, Procedure, check_alpha
from .noise import check_interior, estimate_moments
from .pipeline import check_testable, stem_detect
from .seriesio import (
    load_kernel_csv,
    read_design_json,
    read_moments_json,
    read_series,
    save_kernel_csv,
    write_json,
    write_lines,
    write_moments_json,
)

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

_FIGURE_TAGS = {"sim31": "fig3", "sim34": "fig6", "sim35": "fig7"}


def _provenance_pairs(args: argparse.Namespace) -> list[tuple[str, str]]:
    pairs = []
    for key in sorted(vars(args)):
        if key == "func":
            continue
        value = getattr(args, key)
        if value is None:
            continue
        pairs.append((key.replace("_", "-"), str(value)))
    return pairs


def _provenance_lines(command: str, args: argparse.Namespace) -> tuple[str, ...]:
    flags = " ".join(f"{k}={v}" for k, v in _provenance_pairs(args))
    return (
        f"# stem1d {__version__}",
        f"# command={command}",
        f"# {flags}" if flags else "#",
    )


def _provenance_dict(command: str, args: argparse.Namespace) -> dict:
    return {
        "tool": f"stem1d {__version__}",
        "command": command,
        "flags": dict(_provenance_pairs(args)),
    }


def _build_kernel(args: argparse.Namespace, series, check):
    """The kernel the flags name, on ``series``' grid; ``check(samples,
    margin)`` first judges an analytic kernel's reach, before any weight."""
    dt = series.dt
    if args.kernel != "template":
        if args.gamma is None:
            raise ConfigurationError(f"--gamma is required for the {args.kernel} kernel")
        family = KernelFamily(args.kernel)
        check(series.values.size, kernel_reach(family, args.gamma, dt, args.trunc))
        if family is KernelFamily.GAUSSIAN:
            return gaussian_kernel(args.gamma, dt, args.trunc)
        return quartic_kernel(args.gamma, dt)
    if args.template_file is None:
        raise ConfigurationError("--template-file is required for the template kernel")
    kernel = load_kernel_csv(args.template_file)
    if not same_grid(kernel.dt, dt):
        raise ConfigurationError(
            f"template dt {kernel.dt} does not match series dt {dt}"
        )
    return kernel


def _add_kernel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel",
        choices=("gaussian", "quartic", "template"),
        default="gaussian",
        help="smoothing kernel family",
    )
    parser.add_argument("--gamma", type=float, help="kernel bandwidth")
    parser.add_argument(
        "--trunc",
        type=float,
        default=3.0,
        help="gaussian kernel truncation, in units of gamma",
    )
    parser.add_argument("--template-file", help="template kernel CSV")


# ---------------------------------------------------------------------------
# detect


def _cmd_detect(args: argparse.Namespace) -> int:
    check_alpha(args.alpha)
    series = read_series(args.input, dt=args.dt)
    kernel = _build_kernel(args, series, check_testable)
    if args.moments is not None:
        moments = read_moments_json(args.moments)
    else:
        calib = read_series(args.calibration, dt=series.dt)
        moments = estimate_moments(convolve(calib, kernel))
    procedure = Procedure(args.procedure)
    result = stem_detect(series, kernel, moments, procedure, args.alpha)
    report = result.report
    if args.report_json:
        payload = report.to_json_dict()
        payload["provenance"] = _provenance_dict("detect", args)
        write_json(args.report_json, payload)
    if args.peaks_csv:
        lines = [*_provenance_lines("detect", args), *report.rejected_csv_lines()]
        write_lines(args.peaks_csv, lines)
    print(f"candidates: {report.num_candidates[0]}")
    print(f"rejected: {report.num_rejected}")
    print(f"pvalue_cutoff: {report.pvalue_cutoff[0].item()!r}")
    print(f"height_threshold: {report.height_threshold[0].item()!r}")
    return 0


# ---------------------------------------------------------------------------
# estimate-noise


def _cmd_estimate_noise(args: argparse.Namespace) -> int:
    series = read_series(args.input, dt=args.dt)
    kernel = _build_kernel(args, series, check_interior)
    moments = estimate_moments(convolve(series, kernel))
    write_moments_json(
        moments, args.output, provenance=_provenance_dict("estimate-noise", args)
    )
    print(f"sigma2: {moments.sigma2!r}")
    print(f"lambda2: {moments.lambda2!r}")
    print(f"lambda4: {moments.lambda4!r}")
    return 0


# ---------------------------------------------------------------------------
# estimate-template


def _cmd_estimate_template(args: argparse.Namespace) -> int:
    series = read_series(args.input, dt=args.dt)
    kernel = estimate_template(series, args.threshold, args.window)
    save_kernel_csv(
        kernel,
        args.output,
        extra_header=_provenance_lines("estimate-template", args),
    )
    print(f"template_samples: {len(kernel)}")
    print(f"center_index: {kernel.center_index}")
    return 0


# ---------------------------------------------------------------------------
# simulate


def _figure_files(result, tag: str):
    """Split the tidy rows into figure-style per-metric files."""
    groups = {
        "error": ("fwer", "fdr"),
        "power": ("power",),
        "locmax": ("locmax_per_peak",),
        "bandwidth_hist": ("chosen_fraction", "chosen_gamma_mean"),
    }
    for label, metrics in groups.items():
        rows = tuple(row for row in result.rows if row.metric in metrics)
        if rows:
            yield f"{tag}_{label}.csv", replace(result, rows=rows).csv_lines()


def _cmd_simulate(args: argparse.Namespace) -> int:
    if (args.preset is None) == (args.design is None):
        raise ConfigurationError("exactly one of --preset or --design is required")
    if args.preset is not None:
        design = preset_design(args.preset)
    else:
        design = read_design_json(args.design)
    overrides = {}
    if args.replications is not None:
        overrides["replications"] = args.replications
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if overrides:
        design = design.with_options(**overrides)
    result = run_sweep(design, seed=args.seed)
    prov = _provenance_lines("simulate", args)
    write_lines(args.output, [*prov, *result.csv_lines()])
    print(f"design: {design.name}")
    print(f"replications: {design.replications}")
    print(f"rows: {len(result.rows)}")
    print(f"wrote: {args.output}")
    if args.emit_figure_data:
        outdir = Path(args.output).resolve().parent
        tag = _FIGURE_TAGS.get(design.name, design.name)
        for filename, body in _figure_files(result, tag):
            path = outdir / filename
            write_lines(path, [*prov, *body])
            print(f"wrote: {path}")
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stem1d",
        description="peak detection by multiple testing of smoothed local maxima",
    )
    parser.add_argument("--version", action="version", version=f"stem1d {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect peaks in a series file")
    p.add_argument("--input", required=True, help="series CSV (one value per line)")
    p.add_argument("--dt", type=float, help="grid spacing if absent from the header")
    _add_kernel_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--moments", help="noise moments JSON")
    group.add_argument(
        "--calibration",
        help="noise-only series; moments are estimated after smoothing it",
    )
    p.add_argument(
        "--procedure", choices=[p.value for p in PEAK_PROCEDURES], default="bh",
    )
    p.add_argument("--alpha", type=float, required=True, help="error budget")
    p.add_argument("--report-json", help="write the full report here")
    p.add_argument("--peaks-csv", help="write the rejected peaks table here")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser(
        "estimate-noise", help="estimate smoothed-noise moments from calibration data"
    )
    p.add_argument("--input", required=True, help="noise-only series CSV")
    p.add_argument("--dt", type=float, help="grid spacing if absent from the header")
    _add_kernel_flags(p)
    p.add_argument("--output", required=True, help="moments JSON path")
    p.set_defaults(func=_cmd_estimate_noise)

    p = sub.add_parser(
        "estimate-template", help="average spike shape from a training series"
    )
    p.add_argument("--input", required=True, help="training series CSV")
    p.add_argument("--dt", type=float, help="grid spacing if absent from the header")
    p.add_argument(
        "--threshold", type=float, required=True, help="spike height threshold"
    )
    p.add_argument(
        "--window", type=int, required=True, help="template length in samples"
    )
    p.add_argument("--output", required=True, help="template CSV path")
    p.set_defaults(func=_cmd_estimate_template)

    p = sub.add_parser("simulate", help="run a Monte Carlo sweep")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=PRESET_NAMES)
    group.add_argument("--design", help="design JSON file")
    p.add_argument("--replications", type=int, help="override the design's count")
    p.add_argument("--alpha", type=float, help="override the design's level")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True, help="tidy results CSV path")
    p.add_argument(
        "--emit-figure-data",
        action="store_true",
        help="also write per-metric files next to the output",
    )
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, InputFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
