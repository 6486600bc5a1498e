"""File formats: value-per-line series CSV, moments JSON, design JSON.

Series files hold one value per line.  Comment lines start with ``#``;
a comment of the form ``# dt=<value>`` (and optionally ``t0=<value>``)
records the grid.  All writers accept extra comment lines so callers can
prepend provenance.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

from .errors import ConfigurationError, InputFileError, finite_number
from .grid import SampledSequence
from .kernels import KernelFamily
from .multitest import Procedure
from .noise import GaussianAcvfParams, NoiseMoments
from .signals import (
    CauchyShape,
    EpanechnikovShape,
    LaplaceShape,
    PeakSpec,
    SignalSpec,
    TriangularShape,
    TruncatedGaussianShape,
)
from .evaluation import SimulationDesign

DESIGN_SCHEMA = 1


def read_series(path, dt: float | None = None, t0: float | None = None) -> SampledSequence:
    """Read a series file; flag values must agree with any header values.

    Every data line must hold one finite number, and a header ``dt`` or
    ``t0`` must be a finite number (``dt`` a positive one).  Anything else
    raises :class:`InputFileError` naming the file and the line number.
    """
    header_dt = None
    header_t0 = None
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if token.startswith("dt="):
                        header_dt = finite_number(token[3:], path, lineno, "dt")
                        if header_dt <= 0:
                            raise InputFileError(
                                f"{path}, line {lineno}: dt={header_dt!r} "
                                "must be positive"
                            )
                    elif token.startswith("t0="):
                        header_t0 = finite_number(token[3:], path, lineno, "t0")
                continue
            # finite_number's check, inlined: a call per line costs a few
            # percent of reading a 10^6-line series
            try:
                value = float(line)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise InputFileError(
                    f"{path}, line {lineno}: {line!r} is not a finite number"
                )
            values.append(value)
    if not values:
        raise ConfigurationError(f"{path}: no data lines")
    if dt is not None and header_dt is not None and not _close(dt, header_dt):
        raise ConfigurationError(
            f"{path}: dt flag {dt} conflicts with header dt {header_dt}"
        )
    if t0 is not None and header_t0 is not None and not _close(t0, header_t0):
        raise ConfigurationError(
            f"{path}: t0 flag {t0} conflicts with header t0 {header_t0}"
        )
    final_dt = dt if dt is not None else header_dt
    final_t0 = t0 if t0 is not None else header_t0
    if final_dt is None:
        raise ConfigurationError(f"{path}: dt not given by flag or header")
    return SampledSequence(values, final_dt, final_t0 if final_t0 is not None else 0.0)


def write_series(seq: SampledSequence, path, extra_header: tuple[str, ...] = ()) -> None:
    lines = list(extra_header)
    lines.append(f"# dt={seq.dt!r} t0={seq.t0!r}")
    lines.extend(repr(float(v)) for v in seq.values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def write_moments_json(
    moments: NoiseMoments, path, provenance: dict | None = None
) -> None:
    payload = moments.to_json_dict()
    if provenance:
        payload["provenance"] = provenance
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_moments_json(path) -> NoiseMoments:
    """Read moments written by :func:`write_moments_json`.

    JSON that does not parse, or that does not hold three valid moments,
    raises :class:`InputFileError` naming the file (and the line, for a
    parse error).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFileError(
                f"{path}, line {exc.lineno}: malformed JSON: {exc.msg}"
            ) from exc
    if not isinstance(data, dict):
        raise InputFileError(
            f"{path}: expected a JSON object with sigma2, lambda2 and lambda4"
        )
    try:
        return NoiseMoments.from_json_dict(data)
    except (TypeError, ValueError) as exc:
        raise InputFileError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# design files

_SHAPE_BUILDERS = {
    "truncated_gaussian": lambda d: TruncatedGaussianShape(
        b=float(d["b"]), c=float(d.get("c", 3.0))
    ),
    "epanechnikov": lambda d: EpanechnikovShape(halfwidth=float(d["halfwidth"])),
    "triangular": lambda d: TriangularShape(halfwidth=float(d["halfwidth"])),
    "laplace": lambda d: LaplaceShape(b=float(d["b"]), c=float(d.get("c", 3.0))),
    "cauchy": lambda d: CauchyShape(b=float(d["b"]), c=float(d.get("c", 3.0))),
}


def _shape_to_dict(shape) -> dict:
    kinds = {
        TruncatedGaussianShape: "truncated_gaussian",
        EpanechnikovShape: "epanechnikov",
        TriangularShape: "triangular",
        LaplaceShape: "laplace",
        CauchyShape: "cauchy",
    }
    kind = kinds.get(type(shape))
    if kind is None:
        raise ConfigurationError(
            f"shape {type(shape).__name__} is not expressible in a design file"
        )
    return {"kind": kind, **asdict(shape)}


def design_to_json_dict(design: SimulationDesign) -> dict:
    return {
        "schema": DESIGN_SCHEMA,
        "name": design.name,
        "domain_length": design.signal.domain_length,
        "dt": design.dt,
        "noise": {"sigma": design.noise.sigma, "nu": design.noise.nu},
        "peaks": [
            {
                "shape": _shape_to_dict(peak.shape),
                "amplitude": peak.amplitude,
                "center": peak.center,
            }
            for peak in design.signal.peaks
        ],
        "kernel_family": design.kernel_family.value,
        "kernel_trunc": design.kernel_trunc,
        "gamma_grid": list(design.gamma_grid),
        "amplitude_grid": list(design.amplitude_grid),
        "procedures": [p.value for p in design.procedures],
        "alpha": design.alpha,
        "replications": design.replications,
        "moments_mode": design.moments_mode,
        "moments_length": design.moments_length,
        "moments_reps": design.moments_reps,
        "auto_bandwidth": design.auto_bandwidth,
        "rice_convention": design.rice_convention,
    }


def design_from_json_dict(data: dict) -> SimulationDesign:
    try:
        schema = data.get("schema")
        if schema != DESIGN_SCHEMA:
            raise ConfigurationError(
                f"unsupported design schema {schema!r} (expected {DESIGN_SCHEMA})"
            )
        peaks = []
        for entry in data.get("peaks", []):
            shape_dict = dict(entry["shape"])
            kind = shape_dict.pop("kind")
            builder = _SHAPE_BUILDERS.get(kind)
            if builder is None:
                raise ConfigurationError(f"unknown peak shape kind {kind!r}")
            peaks.append(
                PeakSpec(
                    shape=builder(shape_dict),
                    amplitude=float(entry["amplitude"]),
                    center=float(entry["center"]),
                )
            )
        signal = SignalSpec(
            peaks=tuple(peaks), domain_length=float(data["domain_length"])
        )
        noise = data.get("noise", {})
        return SimulationDesign(
            name=str(data.get("name", "design")),
            signal=signal,
            dt=float(data["dt"]),
            noise=GaussianAcvfParams(
                sigma=float(noise.get("sigma", 1.0)), nu=float(noise.get("nu", 0.0))
            ),
            kernel_family=KernelFamily(data["kernel_family"]),
            gamma_grid=tuple(float(g) for g in data["gamma_grid"]),
            amplitude_grid=tuple(
                float(a) for a in data.get("amplitude_grid", [1.0])
            ),
            kernel_trunc=float(data.get("kernel_trunc", 3.0)),
            procedures=tuple(
                Procedure(p) for p in data.get("procedures", ["bonferroni", "bh"])
            ),
            alpha=float(data.get("alpha", 0.05)),
            replications=int(data.get("replications", 1000)),
            moments_mode=str(data.get("moments_mode", "closed_form")),
            moments_length=float(data.get("moments_length", 1000.0)),
            moments_reps=int(data.get("moments_reps", 1)),
            auto_bandwidth=bool(data.get("auto_bandwidth", False)),
            rice_convention=str(data.get("rice_convention", "paper")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"invalid design file: {exc}") from exc


def read_design_json(path) -> SimulationDesign:
    with open(path, "r", encoding="utf-8") as fh:
        return design_from_json_dict(json.load(fh))
