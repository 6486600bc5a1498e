"""File formats: value-per-line series CSV, moments JSON, design JSON.

Series files hold one value per line.  Comment lines start with ``#``;
a comment of the form ``# dt=<value>`` (and optionally ``t0=<value>``)
records the grid.  All writers accept extra comment lines so callers can
prepend provenance.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import stat
from dataclasses import asdict

import numpy as np

from .errors import ConfigurationError, InputFileError, finite_number, utf8_text
from .grid import SampledSequence, nearly_equal
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
    raises :class:`InputFileError` naming the file and the line number, as
    does a file with no data line.

    The file is opened once here.  A regular file that numpy will not take
    for a compressed one, with no ``#`` after its data starts, is then
    reopened by path and parsed in one C-level pass
    (:func:`_read_series_bulk`).  Any other input (a pipe, a comment after
    the data starts, a bad value, a token ``float`` accepts but numpy does
    not, such as ``1_0``) goes through :func:`_read_series_lines` on the
    handle already open; it defines the format and its error messages, and
    both give the same values bit for bit.
    """
    # newline="": lines end where they do in the default mode, but keep
    # their bytes, so the bulk parse can count the header's
    with utf8_text(path), open(path, "r", encoding="utf-8", newline="") as fh:
        source = _bulk_source(fh, path)
        parsed = None if source is None else _read_series_bulk(fh, path, source)
        if parsed is None:
            parsed = _read_series_lines(fh, path)
    return _sequence(path, *parsed, dt, t0)


# suffixes np.loadtxt takes to mean a compressed file, whatever it holds
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _bulk_source(fh, path) -> str | None:
    """The path ``np.loadtxt`` may reopen ``fh``'s file by, or ``None``.

    A pipe or other stream cannot be read a second time, and numpy opens
    a path with a compressed suffix through a decompressor.  The path is
    made absolute so numpy cannot take it for a URL.
    """
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return None
    name = os.fspath(path) if isinstance(path, (str, os.PathLike)) else None
    if not isinstance(name, str) or name.endswith(_COMPRESSED_SUFFIXES):
        return None
    return os.path.abspath(name)


def _read_series_bulk(fh, path, source: str):
    """``(values, header_dt, header_t0)`` from one ``np.loadtxt`` pass, or
    ``None`` with ``fh`` rewound when only the per-line reader applies.

    The leading block of blank and comment lines is read from ``fh``; the
    rest must be one column of finite numbers, with no ``#`` in it.
    """
    header_dt = header_t0 = None
    skip = header_bytes = 0
    for raw in fh:
        line = raw.strip()
        if line and not line.startswith("#"):
            break
        skip += 1
        header_bytes += len(raw.encode("utf-8"))
        header_dt, header_t0 = _header_values(line, path, skip, header_dt, header_t0)
    else:  # no data line
        fh.seek(0)
        return None
    # a comment after the data starts would fail np.loadtxt only when it
    # got there; find one first, without decoding the file
    with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:
        if data.find(b"#", header_bytes) != -1:
            fh.seek(0)
            return None
    # the path, not fh: numpy reads a path in chunks, but iterates a file
    # object line by line in Python
    try:
        table = np.loadtxt(
            source, dtype=np.float64, comments=None, skiprows=skip, ndmin=2,
            encoding="utf-8",
        )
    except ValueError:
        table = None
    if (
        table is None
        or table.shape[0] == 0
        or table.shape[1] != 1
        or not np.isfinite(table).all()
    ):
        fh.seek(0)
        return None
    return table[:, 0], header_dt, header_t0


def _read_series_lines(fh, path):
    """``(values, header_dt, header_t0)`` from the open series file ``fh``,
    one line at a time."""
    header_dt = header_t0 = None
    values: list[float] = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            header_dt, header_t0 = _header_values(
                line, path, lineno, header_dt, header_t0
            )
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
        raise InputFileError(f"{path}: no data lines")
    return values, header_dt, header_t0


def _header_values(line: str, path, lineno: int, header_dt, header_t0):
    """``(header_dt, header_t0)`` updated by the ``dt=``/``t0=`` tokens of
    the stripped comment or blank ``line``."""
    for token in line[1:].split():
        if token.startswith("dt="):
            header_dt = finite_number(token[3:], path, lineno, "dt")
            if header_dt <= 0:
                raise InputFileError(
                    f"{path}, line {lineno}: dt={header_dt!r} must be positive"
                )
        elif token.startswith("t0="):
            header_t0 = finite_number(token[3:], path, lineno, "t0")
    return header_dt, header_t0


def _sequence(path, values, header_dt, header_t0, dt, t0) -> SampledSequence:
    """The series from its parsed values, flags and header values."""
    if dt is not None and header_dt is not None and not nearly_equal(dt, header_dt):
        raise ConfigurationError(
            f"{path}: dt flag {dt} conflicts with header dt {header_dt}"
        )
    if t0 is not None and header_t0 is not None and not nearly_equal(t0, header_t0):
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
    with utf8_text(path), open(path, "r", encoding="utf-8") as fh:
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
        raise ConfigurationError(f"invalid design file: {exc}") from exc


def read_design_json(path) -> SimulationDesign:
    with utf8_text(path), open(path, "r", encoding="utf-8") as fh:
        return design_from_json_dict(json.load(fh))
