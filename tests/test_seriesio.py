"""Series, moments and design file formats."""

import json

import numpy as np
import pytest

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
    with pytest.raises(ConfigurationError):
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
