"""End-to-end checks of the command line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from stem1d import (
    GaussianAcvfParams,
    SampledSequence,
    closed_form_moments,
    generate_noise,
    load_kernel_csv,
)
from stem1d.cli import main
from stem1d.seriesio import read_moments_json, write_moments_json, write_series


def _write_spike_series(path, positions, n=400, dt=1.0, height=1.0):
    values = np.zeros(n)
    for p in positions:
        values[p] = height
    write_series(SampledSequence(values, dt=dt), path)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("stem1d ")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stem1d", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("stem1d ")


def test_estimate_noise_close_to_closed_form(tmp_path, capsys):
    # calibration data drawn from the correlated noise model, smoothed by
    # the CLI at gamma=3; the estimates must land within 3 percent
    dt, gamma, nu = 0.2, 3.0, 1.0
    raw = generate_noise(GaussianAcvfParams(1.0, nu), 0.0, 500_000, dt, seed=29)
    series = tmp_path / "calib.csv"
    write_series(raw, series)
    out = tmp_path / "moments.json"
    code = main(
        [
            "estimate-noise",
            "--input", str(series),
            "--kernel", "gaussian",
            "--gamma", str(gamma),
            "--output", str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("sigma2:")
    got = read_moments_json(out)
    want = closed_form_moments(GaussianAcvfParams(1.0, nu), gamma)
    assert got.sigma2 == pytest.approx(want.sigma2, rel=0.03)
    assert got.lambda2 == pytest.approx(want.lambda2, rel=0.03)
    assert got.lambda4 == pytest.approx(want.lambda4, rel=0.03)
    prov = json.loads(out.read_text())["provenance"]
    assert prov["command"] == "estimate-noise"
    assert prov["flags"]["gamma"] == "3.0"


def test_detect_with_moments_file(tmp_path, capsys):
    series = tmp_path / "series.csv"
    _write_spike_series(series, [100, 300])
    moments = tmp_path / "moments.json"
    write_moments_json(closed_form_moments(GaussianAcvfParams(0.01), 3.0), moments)
    report = tmp_path / "report.json"
    peaks = tmp_path / "peaks.csv"
    code = main(
        [
            "detect",
            "--input", str(series),
            "--gamma", "3",
            "--moments", str(moments),
            "--procedure", "bonferroni",
            "--alpha", "0.05",
            "--report-json", str(report),
            "--peaks-csv", str(peaks),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "candidates: 2" in out
    assert "rejected: 2" in out
    payload = json.loads(report.read_text())
    assert payload["num_rejected"] == 2
    assert payload["provenance"]["command"] == "detect"
    assert [r["index"] for r in payload["rejected"]] == [100, 300]
    lines = peaks.read_text().strip().splitlines()
    assert lines[0] == "# stem1d 0.1.0"
    assert "index,time,height,pvalue" in lines
    assert len([l for l in lines if not l.startswith("#")]) == 3  # header + 2 rows


def test_detect_with_calibration_series(tmp_path, capsys):
    series = tmp_path / "series.csv"
    _write_spike_series(series, [100, 300])
    calib = tmp_path / "calib.csv"
    noise = generate_noise(GaussianAcvfParams(0.01), 0.0, 5000, 1.0, seed=8)
    write_series(noise, calib)
    code = main(
        [
            "detect",
            "--input", str(series),
            "--gamma", "3",
            "--calibration", str(calib),
            "--alpha", "0.05",
        ]
    )
    assert code == 0
    assert "rejected: 2" in capsys.readouterr().out


def test_detect_flag_errors(tmp_path, capsys):
    series = tmp_path / "series.csv"
    _write_spike_series(series, [100])
    moments = tmp_path / "moments.json"
    write_moments_json(closed_form_moments(GaussianAcvfParams(1.0), 3.0), moments)
    # moments and calibration are mutually exclusive at the parser level
    with pytest.raises(SystemExit) as info:
        main(
            [
                "detect", "--input", str(series), "--gamma", "3",
                "--moments", str(moments), "--calibration", str(series),
                "--alpha", "0.05",
            ]
        )
    assert info.value.code == 2
    capsys.readouterr()
    # gaussian kernel without a bandwidth
    code = main(
        ["detect", "--input", str(series), "--moments", str(moments), "--alpha", "0.05"]
    )
    assert code == 2
    # bandwidth below the grid spacing
    code = main(
        [
            "detect", "--input", str(series), "--gamma", "0.25",
            "--moments", str(moments), "--alpha", "0.05",
        ]
    )
    assert code == 2
    # missing input file maps to the I/O exit code
    code = main(
        [
            "detect", "--input", str(tmp_path / "absent.csv"), "--gamma", "3",
            "--moments", str(moments), "--alpha", "0.05",
        ]
    )
    assert code == 3


@pytest.mark.parametrize("bad", ["abc", "nan"])
def test_detect_unreadable_input_exits_3(tmp_path, capsys, bad):
    series = tmp_path / "series.csv"
    series.write_text(f"# dt=1.0\n0.0\n{bad}\n0.0\n")
    moments = tmp_path / "moments.json"
    write_moments_json(closed_form_moments(GaussianAcvfParams(1.0), 1.0), moments)
    code = main(
        [
            "detect", "--input", str(series), "--gamma", "1",
            "--moments", str(moments), "--alpha", "0.05",
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert str(series) in err and "line 3" in err


def _detect_exit(tmp_path, series=None, moments=None, template=None):
    """Exit code of ``detect`` on the given files; valid ones fill the gaps."""
    if series is None:
        series = tmp_path / "series.csv"
        _write_spike_series(series, [200], height=2.0)
    if moments is None:
        moments = tmp_path / "moments.json"
        write_moments_json(closed_form_moments(GaussianAcvfParams(1.0), 1.0), moments)
    argv = ["detect", "--input", str(series), "--moments", str(moments)]
    if template is None:
        argv += ["--gamma", "1"]
    else:
        argv += ["--kernel", "template", "--template-file", str(template)]
    return main(argv + ["--alpha", "0.05"])


def test_detect_bad_series_header_exits_3(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("# dt=abc\n0.0\n1.0\n0.0\n")
    assert _detect_exit(tmp_path, series=series) == 3
    err = capsys.readouterr().err
    assert str(series) in err and "line 1" in err and "dt='abc'" in err


@pytest.mark.parametrize(
    "text,line",
    [
        ("# dt=1.0 center=1\n0.5\nnan\n0.5\n", 3),
        ("# dt=1.0 center=1\n0.5\nabc\n0.5\n", 3),
        ("# dt=abc center=1\n0.5\n1.0\n0.5\n", 1),
        ("# dt=1.0 center=x\n0.5\n1.0\n0.5\n", 1),
    ],
    ids=["nan-weight", "text-weight", "bad-dt", "bad-center"],
)
def test_detect_bad_template_file_exits_3(tmp_path, capsys, text, line):
    template = tmp_path / "template.csv"
    template.write_text(text)
    assert _detect_exit(tmp_path, template=template) == 3
    err = capsys.readouterr().err
    assert str(template) in err and f"line {line}" in err


def test_detect_truncated_moments_json_exits_3(tmp_path, capsys):
    moments = tmp_path / "moments.json"
    moments.write_text('{\n  "sigma2": 1.0,\n  "lambda2": ')
    assert _detect_exit(tmp_path, moments=moments) == 3
    err = capsys.readouterr().err
    assert str(moments) in err and "line 3" in err and "malformed JSON" in err


def test_detect_series_shorter_than_kernel_exits_4(tmp_path, capsys):
    series = tmp_path / "series.csv"
    _write_spike_series(series, [7], n=15)
    moments = tmp_path / "moments.json"
    write_moments_json(closed_form_moments(GaussianAcvfParams(1.0), 10.0), moments)
    code = main(
        [
            "detect", "--input", str(series), "--gamma", "10",
            "--moments", str(moments), "--alpha", "0.05",
        ]
    )
    assert code == 4
    captured = capsys.readouterr()
    assert "no testable sample" in captured.err
    assert "candidates:" not in captured.out


def _write_training(path, dt=1.0):
    values = np.zeros(400)
    profile = 3.0 * (1.0 - np.abs(np.arange(-5, 6)) / 5.0)
    for c in (50, 150, 250, 350):
        values[c - 5:c + 6] += profile
    write_series(SampledSequence(values, dt=dt), path)


def test_estimate_template_and_detect_with_it(tmp_path, capsys):
    train = tmp_path / "train.csv"
    _write_training(train)
    template = tmp_path / "template.csv"
    code = main(
        [
            "estimate-template",
            "--input", str(train),
            "--threshold", "1.0",
            "--window", "11",
            "--output", str(template),
        ]
    )
    assert code == 0
    assert "template_samples: 11" in capsys.readouterr().out
    kernel = load_kernel_csv(template)
    assert kernel.center_index == 5
    assert kernel.weights.max() == 1.0

    series = tmp_path / "series.csv"
    _write_spike_series(series, [200], height=2.0)
    moments = tmp_path / "moments.json"
    write_moments_json(closed_form_moments(GaussianAcvfParams(0.05), 3.0), moments)
    code = main(
        [
            "detect",
            "--input", str(series),
            "--kernel", "template",
            "--template-file", str(template),
            "--moments", str(moments),
            "--alpha", "0.05",
        ]
    )
    assert code == 0
    assert "rejected: 1" in capsys.readouterr().out


def test_estimate_template_failures(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    write_series(SampledSequence(np.zeros(100), dt=1.0), flat)
    out = tmp_path / "template.csv"
    code = main(
        [
            "estimate-template", "--input", str(flat),
            "--threshold", "1.0", "--window", "11", "--output", str(out),
        ]
    )
    assert code == 4  # no qualifying spikes is a numeric failure
    assert not out.exists()


def test_template_grid_mismatch(tmp_path, capsys):
    train = tmp_path / "train.csv"
    _write_training(train, dt=0.5)
    template = tmp_path / "template.csv"
    main(
        [
            "estimate-template", "--input", str(train),
            "--threshold", "1.0", "--window", "11", "--output", str(template),
        ]
    )
    series = tmp_path / "series.csv"
    _write_spike_series(series, [200], dt=1.0)
    moments = tmp_path / "moments.json"
    write_moments_json(closed_form_moments(GaussianAcvfParams(1.0), 3.0), moments)
    code = main(
        [
            "detect", "--input", str(series), "--kernel", "template",
            "--template-file", str(template), "--moments", str(moments),
            "--alpha", "0.05",
        ]
    )
    assert code == 2
    assert "does not match" in capsys.readouterr().err


def _tiny_design_json(tmp_path):
    design = {
        "schema": 1,
        "name": "mini",
        "domain_length": 200.0,
        "dt": 1.0,
        "noise": {"sigma": 1.0, "nu": 0.0},
        "peaks": [
            {
                "shape": {"kind": "truncated_gaussian", "b": 3.0, "c": 3.0},
                "amplitude": 15.0,
                "center": c,
            }
            for c in (-50.0, 50.0)
        ],
        "kernel_family": "gaussian",
        "gamma_grid": [2.0, 3.0],
        "replications": 8,
    }
    path = tmp_path / "design.json"
    path.write_text(json.dumps(design))
    return path


def test_simulate_deterministic_output(tmp_path, capsys):
    design = _tiny_design_json(tmp_path)
    out = tmp_path / "res.csv"
    outputs = []
    for _ in range(2):
        code = main(
            ["simulate", "--design", str(design), "--seed", "9", "--output", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    text = outputs[0].decode()
    assert "command=simulate" in text
    assert "seed=9" in text
    stdout = capsys.readouterr().out
    assert "design: mini" in stdout


def test_simulate_figure_data_and_overrides(tmp_path, capsys):
    design = _tiny_design_json(tmp_path)
    out = tmp_path / "res.csv"
    code = main(
        [
            "simulate", "--design", str(design), "--seed", "3",
            "--replications", "5", "--output", str(out), "--emit-figure-data",
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "replications: 5" in stdout
    error_file = tmp_path / "mini_error.csv"
    power_file = tmp_path / "mini_power.csv"
    locmax_file = tmp_path / "mini_locmax.csv"
    for path, metrics in (
        (error_file, {"fwer", "fdr"}),
        (power_file, {"power"}),
        (locmax_file, {"locmax_per_peak"}),
    ):
        assert path.exists()
        rows = [
            line for line in path.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("gamma,")
        ]
        assert rows
        assert {row.split(",")[3] for row in rows} == metrics


def test_simulate_flag_errors(tmp_path, capsys):
    design = _tiny_design_json(tmp_path)
    with pytest.raises(SystemExit):  # --preset and --design together
        main(
            [
                "simulate", "--preset", "sim31", "--design", str(design),
                "--seed", "1", "--output", str(tmp_path / "x.csv"),
            ]
        )
    with pytest.raises(SystemExit):  # --seed is mandatory
        main(["simulate", "--design", str(design), "--output", str(tmp_path / "x.csv")])
    capsys.readouterr()
    code = main(
        [
            "simulate", "--design", str(design), "--seed", "1",
            "--replications", "0", "--output", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2
