"""Series, moments and design file formats."""

import json
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stem1d import (
    GaussianAcvfParams,
    KernelFamily,
    NoiseMoments,
    PeakSpec,
    Procedure,
    SampledSequence,
    SignalSpec,
    SimulationDesign,
    TruncatedGaussianShape,
    preset_design,
)
from stem1d import seriesio
from stem1d.errors import ConfigurationError, InputFileError
from stem1d.seriesio import (
    design_from_json_dict,
    design_to_json_dict,
    read_design_json,
    read_moments_json,
    read_series,
    write_moments_json,
    write_series,
)


def test_series_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    seq = SampledSequence(rng.standard_normal(50), dt=0.25, t0=-3.0)
    path = tmp_path / "series.csv"
    write_series(seq, path, extra_header=("# run: unit",))
    assert path.read_text().startswith("# run: unit\n# dt=0.25 t0=-3.0\n")
    back = read_series(path)
    np.testing.assert_array_equal(back.values, seq.values)  # repr roundtrips
    assert back.dt == 0.25
    assert back.t0 == -3.0


def test_series_flag_header_interplay(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("# dt=0.5\n1.0\n2.0\n")
    seq = read_series(path)
    assert seq.dt == 0.5 and seq.t0 == 0.0
    # matching flag is fine, conflicting flag is not
    assert read_series(path, dt=0.5).dt == 0.5
    with pytest.raises(ConfigurationError):
        read_series(path, dt=0.4)
    # flag may supply what the header lacks
    assert read_series(path, t0=7.0).t0 == 7.0
    bare = tmp_path / "bare.csv"
    bare.write_text("1.0\n2.0\n")
    with pytest.raises(ConfigurationError):
        read_series(bare)  # no dt anywhere
    assert read_series(bare, dt=1.0).duration == 1.0


def test_series_rejects_empty_and_parses_comments(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# dt=1.0\n# a comment\n\n")
    with pytest.raises(InputFileError):
        read_series(empty)
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("# note\n# dt=2.0 t0=1.5\n3.0\n\n4.0\n")
    seq = read_series(mixed)
    np.testing.assert_array_equal(seq.values, [3.0, 4.0])
    assert (seq.dt, seq.t0) == (2.0, 1.5)


@pytest.mark.parametrize("bad", ["abc", "nan", "inf", "-inf", "1e999"])
def test_series_rejects_non_finite_lines(tmp_path, bad):
    path = tmp_path / "series.csv"
    path.write_text(f"# dt=1.0\n1.0\n\n{bad}\n2.0\n")
    with pytest.raises(InputFileError) as info:
        read_series(path)
    message = str(info.value)
    assert str(path) in message
    assert "line 4" in message


@pytest.mark.parametrize("text", ["", "\n \t\n", "# dt=1.0\n#\n\x0c\n"])
def test_series_without_data_lines_names_the_file(tmp_path, text):
    path = tmp_path / "series.csv"
    path.write_text(text)
    with pytest.raises(InputFileError, match="no data lines") as info:
        read_series(path)
    assert str(path) in str(info.value)


def test_clean_series_takes_the_bulk_parse(tmp_path, monkeypatch):
    # every feature here is one numpy parses as float() does, so the
    # per-line reader must not run
    def per_line(*args):
        raise AssertionError("per-line reader called")

    monkeypatch.setattr(seriesio, "_read_series_lines", per_line)
    path = tmp_path / "series.csv"
    path.write_bytes(
        b"# note \xc3\xa9\xc3\xa9\xc3\xa9\r\n\r\n  \t\r\n# dt=0.5 t0=-2\r\n#\r\n"
        b" +.5\t\r\n5.\r\n\r\n-0.0\r\n4.9e-324\r1e-400\n\x0c-7\x0c\n1.5e+300"
    )
    seq = read_series(path)
    expected = np.array([0.5, 5.0, -0.0, 5e-324, 0.0, -7.0, 1.5e300])
    assert seq.values.tobytes() == expected.tobytes()
    assert (seq.dt, seq.t0) == (0.5, -2.0)


def test_comment_after_the_data_skips_the_bulk_parse(tmp_path, monkeypatch):
    def loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(seriesio.np, "loadtxt", loadtxt)
    path = tmp_path / "series.csv"
    path.write_text("# dt=0.5\n1.0\n2.0\n# marker dt=0.5\n3.0\n")
    assert read_series(path).values.tolist() == [1.0, 2.0, 3.0]


# Padding str.strip() removes; a text file ends lines only at \n, \r
# and \r\n, so \x0c, \x85 and \u2028 stay inside their line.
_PAD = st.text(alphabet=" \t\x0b\x0c\x1c\x85\xa0\u2028\u3000", max_size=3)
_HEADER_LINES = ("", "#", "# note", "# dt=0.5", "# dt=0.5 t0=-3.25", "# a\r# dt=0.5")
_SPECIAL_VALUES = ("+.5", "5.", "-0.0", "4.9e-324", "1e-400", "-7", "1E5")
# lines the bulk parse must hand to the per-line reader: a comment after
# the data starts, tokens float() accepts and numpy does not, and lines
# that are errors either way
_OTHER_LINES = (
    "# dt=0.5 t0=2", "#", "1_0", "\u0661\u0662", "\uff11", "1.0 2.0", "1.0\t2",
    "nan", "inf", "-Infinity", "1e999", "abc", "\ufeff1.0", "1.0,", "0x1p3",
    "\x00", "\u200b",
)


@st.composite
def _value(draw):
    x = draw(st.floats(allow_nan=False, allow_infinity=False))
    fmt = draw(st.sampled_from(("repr", "%.17g", "%.3e", "int", "special")))
    if fmt == "repr":
        return repr(x)
    if fmt == "int":
        return str(int(x))
    if fmt == "special":
        return draw(st.sampled_from(_SPECIAL_VALUES))
    return fmt % x


@st.composite
def _series_text(draw):
    lines = draw(st.lists(st.sampled_from(_HEADER_LINES), max_size=4))
    kinds = ("value",) * 8 + ("blank", "other")
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        if kind == "value":
            lines.append(draw(_PAD) + draw(_value()) + draw(_PAD))
        elif kind == "blank":
            lines.append(draw(_PAD))
        else:
            lines.append(draw(st.sampled_from(_OTHER_LINES)))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(("\n", "\r\n", "\r")))
    if draw(st.booleans()):
        text = text[:-1]
    if draw(st.integers(0, 9)) == 0:
        text = "\ufeff" + text
    return text


def _outcome(read, path):
    try:
        seq = read(path)
    except ValueError as exc:  # InputFileError and ConfigurationError
        return type(exc), str(exc)
    return seq.values.tobytes(), seq.dt, seq.t0


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_series_text())
@example("# a\r# dt=0.5\n1.0\n2.0\n")
@example("\ufeff# dt=0.5\n1.0\n")
@example("# dt=0.5\n1.0\n# dt=0.5\n2.0\n")
@example("# dt=0.5\n1_0\n\u0661\u0662\n")
@example("# dt=0.5\n1.0\n1.0 2.0\n")
@example("1.0 2.0")
@example("# dt=0.5\n1.0 2.0\n3.0 4.0\n")
def test_bulk_parse_matches_per_line_reader(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "bulk.csv"
    path.write_bytes(text.encode("utf-8"))
    bulk = _outcome(lambda p: read_series(p, dt=0.5), path)
    per_line = _outcome(_read_per_line, path)
    assert bulk == per_line


def _read_per_line(path):
    with open(path, "r", encoding="utf-8") as fh:
        parsed = seriesio._read_series_lines(fh, path)
    return seriesio._sequence(path, *parsed, 0.5, None)


def _long_series_text(n):
    values = np.random.default_rng(3).standard_normal(n)
    return "# note\n# dt=0.25 t0=1.0\n" + "".join(f"{v!r}\n" for v in values.tolist())


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_series_from_a_pipe_matches_the_file(tmp_path):
    # far more than one read buffer, so a reader that reopened the pipe
    # would lose the start of the data
    text = _long_series_text(5000)
    regular = tmp_path / "series.csv"
    regular.write_text(text)
    fifo = tmp_path / "series.fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "w", encoding="utf-8") as fh:
            fh.write(text)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        piped = read_series(fifo)
    finally:
        writer.join()
    expected = read_series(regular)
    assert piped.values.tobytes() == expected.values.tobytes()
    assert (piped.dt, piped.t0) == (expected.dt, expected.t0) == (0.25, 1.0)


def test_bulk_parse_reopens_by_absolute_path(tmp_path, monkeypatch):
    # numpy would take a relative name such as "s3://b/x.csv" for a URL
    monkeypatch.chdir(tmp_path)
    (tmp_path / "series.csv").write_text("# dt=1\n1.0\n")
    with open("series.csv", encoding="utf-8") as fh:
        source = seriesio._bulk_source(fh, "series.csv")
    assert source == str(tmp_path / "series.csv")


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_series_with_a_compressed_suffix(tmp_path, suffix):
    # numpy would open these names through a decompressor
    text = _long_series_text(50)
    plain = tmp_path / "series.csv"
    plain.write_text(text)
    named = tmp_path / f"series{suffix}"
    named.write_text(text)
    assert read_series(named).values.tobytes() == read_series(plain).values.tobytes()


def test_moments_json_roundtrip(tmp_path):
    moments = NoiseMoments(sigma2=0.282, lambda2=0.141, lambda4=0.2116)
    path = tmp_path / "moments.json"
    write_moments_json(moments, path, provenance={"gamma": 1.0})
    data = json.loads(path.read_text())
    assert data["provenance"] == {"gamma": 1.0}
    back = read_moments_json(path)
    assert back.sigma2 == moments.sigma2
    assert back.lambda4 == moments.lambda4
    bad = tmp_path / "bad.json"
    bad.write_text('{"sigma2": 1.0}')
    with pytest.raises(ValueError):
        read_moments_json(bad)


def _design():
    shape = TruncatedGaussianShape(b=3.0, c=3.0)
    signal = SignalSpec(
        peaks=(PeakSpec(shape=shape, amplitude=2.0, center=10.0),),
        domain_length=100.0,
    )
    return SimulationDesign(
        name="roundtrip",
        signal=signal,
        dt=0.5,
        noise=GaussianAcvfParams(sigma=1.5, nu=0.5),
        kernel_family=KernelFamily.GAUSSIAN,
        gamma_grid=(2.0, 3.0),
        amplitude_grid=(1.0, 2.0),
        procedures=(Procedure.BONFERRONI, Procedure.SUPREMUM),
        alpha=0.1,
        replications=7,
        rice_convention="classical",
    )


def test_design_json_roundtrip(tmp_path):
    design = _design()
    path = tmp_path / "design.json"
    path.write_text(json.dumps(design_to_json_dict(design)))
    back = read_design_json(path)
    assert back.name == "roundtrip"
    assert back.gamma_grid == (2.0, 3.0)
    assert back.procedures == (Procedure.BONFERRONI, Procedure.SUPREMUM)
    assert back.noise == GaussianAcvfParams(sigma=1.5, nu=0.5)
    assert back.rice_convention == "classical"
    assert back.signal.peaks[0].shape == TruncatedGaussianShape(b=3.0, c=3.0)
    assert back.signal.peaks[0].center == 10.0
    # a second serialization is identical
    assert design_to_json_dict(back) == design_to_json_dict(design)


def test_preset_designs_serialize():
    for name in ("sim31", "sim32", "sim34", "sim35"):
        design = preset_design(name)
        back = design_from_json_dict(design_to_json_dict(design))
        assert design_to_json_dict(back) == design_to_json_dict(design)


def test_design_json_defaults_and_errors():
    minimal = {
        "schema": 1,
        "domain_length": 100.0,
        "dt": 1.0,
        "peaks": [
            {
                "shape": {"kind": "triangular", "halfwidth": 4.0},
                "amplitude": 1.0,
                "center": 0.0,
            }
        ],
        "kernel_family": "gaussian",
        "gamma_grid": [2.0],
    }
    design = design_from_json_dict(minimal)
    assert design.alpha == 0.05
    assert design.procedures == (Procedure.BONFERRONI, Procedure.BH)
    assert design.amplitude_grid == (1.0,)

    with pytest.raises(ConfigurationError):
        design_from_json_dict({**minimal, "schema": 2})
    with pytest.raises(ConfigurationError):
        design_from_json_dict({**minimal, "gamma_grid": []})
    with pytest.raises(ConfigurationError):
        design_from_json_dict(
            {
                **minimal,
                "peaks": [
                    {
                        "shape": {"kind": "sawtooth", "halfwidth": 4.0},
                        "amplitude": 1.0,
                        "center": 0.0,
                    }
                ],
            }
        )
    missing = dict(minimal)
    del missing["dt"]
    with pytest.raises(ConfigurationError):
        design_from_json_dict(missing)
    with pytest.raises(ConfigurationError) as info:
        design_from_json_dict({**minimal, "alpha": 1.5})
    assert str(info.value) == "invalid design file: alpha must lie in (0, 1), got 1.5"
