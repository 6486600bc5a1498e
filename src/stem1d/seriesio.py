"""File formats: one reader and one writer for each kind of file.

Series and template CSV files hold one number per line.  In ``#`` comment
lines the tokens ``dt=``, ``t0=`` and ``center=`` give the grid and a
template's lag-zero index; each is checked where it appears.  Moments and
design files hold one JSON object.  Every output is written by
:func:`write_lines` or :func:`write_json`.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import mmap
import os
import stat
import types
import typing

import numpy as np

from .errors import ConfigurationError, InputFileError, finite_number, utf8_text
from .grid import SampledSequence, nearly_equal
from .kernels import Kernel, KernelFamily
from .noise import GaussianAcvfParams, NoiseMoments
from .signals import (
    CauchyShape,
    EpanechnikovShape,
    LaplaceShape,
    SignalSpec,
    TriangularShape,
    TruncatedGaussianShape,
)
from .evaluation import SimulationDesign

DESIGN_SCHEMA = 1


def read_series(path, dt: float | None = None) -> SampledSequence:
    """Read a series file; a ``dt`` flag must agree with any header ``dt``.

    Every data line must hold one finite number, a header ``dt`` or ``t0``
    a finite number (``dt`` a positive one), and a header ``center`` an
    integer, each repeated only with the same value.  Anything else raises
    :class:`InputFileError` naming the file and the line number, as does
    a file with no data line.

    The file is opened once here.  A regular file that numpy will not take
    for a compressed one, with no ``#`` after its data starts, is then
    reopened by path and parsed in one C-level pass
    (:func:`_read_series_bulk`).  Any other input (a pipe, a comment after
    the data starts, a bad value, a token ``float`` accepts but numpy does
    not, such as ``1_0``) goes through :func:`_read_lines` on the handle
    already open; it defines the format and its error messages, and
    both give the same values bit for bit.
    """
    # newline="": lines end where they do in the default mode, but keep
    # their bytes, so the bulk parse can count the header's
    with utf8_text(path), open(path, "r", encoding="utf-8", newline="") as fh:
        source = _bulk_source(fh, path)
        parsed = None if source is None else _read_series_bulk(fh, path, source)
        if parsed is None:
            parsed = _read_lines(fh, path)
    return _sequence(path, *parsed, dt)


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
    """``(values, header)`` from one ``np.loadtxt`` pass, or ``None`` with
    ``fh`` rewound when only the per-line reader applies.

    The leading block of blank and comment lines is read from ``fh``; the
    rest must be one column of finite numbers, with no ``#`` in it.
    """
    header: dict = {}
    skip = header_bytes = 0
    for raw in fh:
        line = raw.strip()
        if line and not line.startswith("#"):
            break
        skip += 1
        header_bytes += len(raw.encode("utf-8"))
        _header_values(line, path, skip, header)
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
    return table[:, 0], header


def _read_lines(fh, path):
    """``(values, header)`` from the open value-per-line file ``fh``, one
    line at a time; ``header`` maps each header key found to its value."""
    header: dict = {}
    values: list[float] = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            _header_values(line, path, lineno, header)
            continue
        values.append(finite_number(line, path, lineno))
    if not values:
        raise InputFileError(f"{path}: no data lines")
    return values, header


def _header_values(line: str, path, lineno: int, header: dict) -> None:
    """Record in ``header`` the ``dt=``, ``t0=`` and ``center=`` tokens of
    the stripped comment or blank ``line``, each checked here.  A value
    that differs from one recorded before for its key raises."""
    for token in line[1:].split():
        key, equals, text = token.partition("=")
        if not equals or key not in ("dt", "t0", "center"):
            continue
        if key == "center":
            try:
                value = int(text)
            except ValueError:
                raise InputFileError(
                    f"{path}, line {lineno}: center={text!r} is not an integer"
                ) from None
        else:
            value = finite_number(text, path, lineno, key)
            if key == "dt" and value <= 0:
                raise InputFileError(
                    f"{path}, line {lineno}: dt={value!r} must be positive"
                )
        if key in header and not nearly_equal(header[key], value):
            raise InputFileError(
                f"{path}, line {lineno}: {key}={value!r} conflicts with "
                f"{key}={header[key]!r} given before"
            )
        header[key] = value


def _sequence(path, values, header: dict, dt) -> SampledSequence:
    """The series from its parsed values, header values and ``dt`` flag."""
    if dt is not None and "dt" in header and not nearly_equal(dt, header["dt"]):
        raise ConfigurationError(
            f"{path}: dt flag {dt} conflicts with header dt {header['dt']}"
        )
    flagged = dt is not None
    dt = dt if flagged else header.get("dt")
    if dt is None:
        raise ConfigurationError(f"{path}: dt not given by flag or header")
    try:
        return SampledSequence._adopt(values, dt, header.get("t0", 0.0))
    except ValueError as exc:  # only the grid can fail: the values are checked
        raise (ConfigurationError if flagged else InputFileError)(f"{path}: {exc}") from exc


def load_kernel_csv(path) -> Kernel:
    """Read a template kernel written by :func:`save_kernel_csv`.

    The file is a series file (see :func:`read_series`, here always read
    one line at a time) of kernel weights whose header also gives
    ``center=<index>``.  A bad line or header value, a missing ``dt=`` or
    ``center=``, no weights, and weights that do not form a valid kernel
    all raise :class:`InputFileError` naming the file (and the line, where
    one is at fault).
    """
    with utf8_text(path), open(path, "r", encoding="utf-8", newline="") as fh:
        weights, header = _read_lines(fh, path)
    if "dt" not in header or "center" not in header:
        raise InputFileError(f"{path}: a template needs dt= and center= in its header")
    dt, center = header["dt"], header["center"]
    try:
        return Kernel(np.asarray(weights), dt, center, 0.0, KernelFamily.TEMPLATE)
    except ValueError as exc:
        raise InputFileError(f"{path}: {exc}") from exc


def write_lines(path, lines) -> None:
    """Write ``lines`` to ``path``, each ended by a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, payload: dict) -> None:
    """Write ``payload`` to ``path`` as indented JSON with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_series(seq: SampledSequence, path, extra_header: tuple[str, ...] = ()) -> None:
    header = f"# dt={seq.dt!r} t0={seq.t0!r}"
    write_lines(path, [*extra_header, header, *map(repr, seq.values.tolist())])


def save_kernel_csv(kernel: Kernel, path, extra_header: tuple[str, ...] = ()) -> None:
    """One weight per line, with a ``# dt=<value> center=<index>`` header."""
    header = f"# dt={kernel.dt!r} center={kernel.center_index}"
    write_lines(path, [*extra_header, header, *map(repr, kernel.weights.tolist())])


def write_moments_json(
    moments: NoiseMoments, path, provenance: dict | None = None
) -> None:
    payload = moments.to_json_dict()
    if provenance:
        payload["provenance"] = provenance
    write_json(path, payload)


def _read_json_object(path, expected: str) -> dict:
    """The JSON object in ``path``.  JSON that does not parse, or is not an
    object, raises :class:`InputFileError` naming the file (and the line,
    for a parse error); ``expected`` says what the object should hold."""
    with utf8_text(path), open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFileError(
                f"{path}, line {exc.lineno}: malformed JSON: {exc.msg}"
            ) from exc
    if not isinstance(data, dict):
        raise InputFileError(f"{path}: expected a JSON object {expected}")
    return data


def read_moments_json(path) -> NoiseMoments:
    """Read moments written by :func:`write_moments_json`.

    The object holds ``sigma2``, ``lambda2`` and ``lambda4`` as JSON
    numbers, and optionally a ``provenance`` entry, which is not read.  A
    file that is not such an object, or whose moments are not valid, raises
    :class:`InputFileError` naming the file (and the key at fault).
    """
    data = _read_json_object(path, "with sigma2, lambda2 and lambda4")
    data.pop("provenance", None)
    try:
        return _from_json(NoiseMoments, data, "")
    except (TypeError, ValueError) as exc:
        raise InputFileError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# design files: the keys are the fields of SimulationDesign and of the
# dataclasses in it, but the signal's fields sit at the top level and a
# peak shape's class is named by "kind"

_SHAPE_KINDS = {
    "truncated_gaussian": TruncatedGaussianShape,
    "epanechnikov": EpanechnikovShape,
    "triangular": TriangularShape,
    "laplace": LaplaceShape,
    "cauchy": CauchyShape,
}
# what an absent key means where the dataclass has no default
_FORMAT_DEFAULTS = {
    SimulationDesign: {"name": "design", "noise": {}},
    SignalSpec: {"peaks": []},
    GaussianAcvfParams: {"sigma": 1.0},
}


def design_to_json_dict(design: SimulationDesign) -> dict:
    data = _to_json(SimulationDesign, design)
    signal = data.pop("signal")
    return {"schema": DESIGN_SCHEMA, **data, **signal}


def design_from_json_dict(data: dict) -> SimulationDesign:
    """The design a design file's JSON object describes; an unknown or
    missing key, a value of the wrong JSON type, or a design that
    :class:`SimulationDesign` rejects raises :class:`ConfigurationError`."""
    try:
        data = dict(data)
        schema = data.pop("schema", None)
        if schema != DESIGN_SCHEMA:
            raise ConfigurationError(
                f"unsupported design schema {schema!r} (expected {DESIGN_SCHEMA})"
            )
        keys = typing.get_type_hints(SignalSpec)
        signal = _from_json(SignalSpec, {k: data.pop(k) for k in keys if k in data}, "")
        return _from_json(SimulationDesign, data, "", signal=signal)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"invalid design file: {exc}") from exc


def read_design_json(path) -> SimulationDesign:
    """The design in ``path``.  A file that is not a JSON object raises
    :class:`InputFileError`; an object that is not a valid design raises
    :class:`ConfigurationError`; both name the file."""
    data = _read_json_object(path, "describing a design")
    try:
        return design_from_json_dict(data)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _to_json(tp, value):
    """``value``, of the field type ``tp``, as :func:`_from_json` reads it."""
    if typing.get_origin(tp) is tuple:
        return [_to_json(typing.get_args(tp)[0], item) for item in value]
    if not dataclasses.is_dataclass(value):
        return value.value if isinstance(value, enum.Enum) else value
    hints = typing.get_type_hints(type(value))
    data = {name: _to_json(hints[name], getattr(value, name)) for name in hints}
    if isinstance(tp, types.UnionType):  # a peak shape
        kind = next(kind for kind, cls in _SHAPE_KINDS.items() if cls is type(value))
        data = {"kind": kind, **data}
    return data


def _from_json(tp, value, key: str, **built):
    """The design file's ``value`` at ``key`` as the field type ``tp``;
    ``built`` holds fields of a dataclass ``tp`` that are read elsewhere."""
    if typing.get_origin(tp) is tuple:
        item = typing.get_args(tp)[0]
        value = _expect(list, value, key)
        return tuple(_from_json(item, v, f"{key}[{i}]") for i, v in enumerate(value))
    if not (dataclasses.is_dataclass(tp) or isinstance(tp, types.UnionType)):
        value = _expect(str if issubclass(tp, enum.Enum) else tp, value, key)
        try:
            return tp(value)
        except OverflowError as exc:  # an integer past the largest float
            raise ConfigurationError(f"{key}: {exc}") from exc
    data = dict(_expect(dict, value, key))
    prefix = f"{key}." if key else ""
    if isinstance(tp, types.UnionType):  # a peak shape
        kind = data.pop("kind", None)
        if kind not in _SHAPE_KINDS:
            raise ConfigurationError(f"unknown peak shape kind {kind!r}")
        tp = _SHAPE_KINDS[kind]
    data = {**_FORMAT_DEFAULTS.get(tp, {}), **data}
    hints = typing.get_type_hints(tp)
    unknown = sorted(data.keys() - (hints.keys() - built.keys()))
    if unknown:
        raise ConfigurationError(f"unknown key {prefix + unknown[0]!r}")
    missing = [
        f.name
        for f in dataclasses.fields(tp)
        if f.name not in data.keys() | built.keys()
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ConfigurationError(f"missing key {prefix + missing[0]!r}")
    for name, item in data.items():
        built[name] = _from_json(hints[name], item, prefix + name)
    try:
        return tp(**built)
    except ValueError as exc:  # a value the dataclass rejects
        if not key:
            raise
        raise ConfigurationError(f"{key}: {exc}") from exc


def _expect(tp, value, key: str):
    """``value``, if its JSON type suits ``tp``; a bool is no number."""
    if type(value) not in ((int, float) if tp is float else (tp,)):
        raise ConfigurationError(f"{key} must be {tp.__name__}, got {value!r}")
    return value
