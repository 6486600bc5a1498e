"""End-to-end checks of the command line interface."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stem1d
from stem1d import (
    GaussianAcvfParams,
    SampledSequence,
    closed_form_moments,
    generate_noise,
    load_kernel_csv,
    preset_design,
)
from stem1d.cli import main
from stem1d.seriesio import (
    design_to_json_dict,
    read_moments_json,
    write_moments_json,
    write_series,
)


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
    # the child imports the package this process imported, whether that
    # came from PYTHONPATH or from pytest's own pythonpath setting
    root = str(Path(stem1d.__file__).parent.parent)
    path = [root, os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "stem1d", "--version"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
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
    # a second dt, even after the data starts, must repeat the first
    series.write_text("# dt=1.0\n0.0\n1.0\n# dt=2\n0.0\n")
    assert _detect_exit(tmp_path, series=series) == 3
    err = capsys.readouterr().err
    assert str(series) in err and "line 4: dt=2.0 conflicts with dt=1.0" in err


@pytest.mark.parametrize(
    "text,line",
    [
        ("# dt=1.0 center=1\n0.5\nnan\n0.5\n", 3),
        ("# dt=1.0 center=1\n0.5\nabc\n0.5\n", 3),
        ("# dt=abc center=1\n0.5\n1.0\n0.5\n", 1),
        ("# dt=1.0 center=x\n0.5\n1.0\n0.5\n", 1),
        ("# dt=-1 center=1\n0.5\n1.0\n0.5\n", 1),
        ("# dt=1.0 center=1\n# center=2\n0.5\n1.0\n0.5\n", 2),
    ],
    ids=["nan-weight", "text-weight", "bad-dt", "bad-center", "negative-dt",
         "repeated-center"],
)
def test_detect_bad_template_file_exits_3(tmp_path, capsys, text, line):
    template = tmp_path / "template.csv"
    template.write_text(text)
    assert _detect_exit(tmp_path, template=template) == 3
    err = capsys.readouterr().err
    assert str(template) in err and f"line {line}" in err


def test_detect_template_dt_off_by_a_hair_exits_2(tmp_path, capsys):
    # within 1e-9 of the series dt but not within convolve's 1e-12: the
    # CLI's own check rejects it, with the CLI's message
    template = tmp_path / "template.csv"
    template.write_text("# dt=1.0000000001 center=1\n0.5\n1.0\n0.5\n")
    assert _detect_exit(tmp_path, template=template) == 2
    err = capsys.readouterr().err
    assert "template dt 1.0000000001 does not match series dt 1.0" in err


def test_detect_truncated_moments_json_exits_3(tmp_path, capsys):
    moments = tmp_path / "moments.json"
    moments.write_text('{\n  "sigma2": 1.0,\n  "lambda2": ')
    assert _detect_exit(tmp_path, moments=moments) == 3
    err = capsys.readouterr().err
    assert str(moments) in err and "line 3" in err and "malformed JSON" in err


@pytest.mark.parametrize(
    "data",
    [
        b"# dt=1.0\n0.5\n\xff\n0.5\n",
        b"# dt=1.0\n" + b"0.5\n" * 5000 + b"\xff\n",
        b"# dt=1.0\n" + b"0.5\n" * 5000 + b"# note\n\xff\n",
    ],
    ids=["short", "bulk-parse", "per-line"],
)
def test_detect_non_utf8_series_exits_3(tmp_path, capsys, data):
    # a byte past the first read chunk reaches the bulk parse, or, after
    # a mid-recording comment, the per-line reader
    series = tmp_path / "series.csv"
    series.write_bytes(data)
    assert _detect_exit(tmp_path, series=series) == 3
    err = capsys.readouterr().err
    assert str(series) in err and "not UTF-8 text (byte 0xff)" in err


def test_detect_non_utf8_moments_json_exits_3(tmp_path, capsys):
    moments = tmp_path / "moments.json"
    moments.write_bytes(b'{"sigma2": 1.0, "lambda2": 0.5, "lambda4": \xff}')
    assert _detect_exit(tmp_path, moments=moments) == 3
    err = capsys.readouterr().err
    assert str(moments) in err and "not UTF-8 text (byte 0xff)" in err


@pytest.mark.parametrize(
    "patch,key",
    [
        ({"sigma2": True}, "sigma2 must be float, got True"),
        ({"lambda2": "0.05"}, "lambda2 must be float, got '0.05'"),
        ({"lambda4": None}, "lambda4 must be float, got None"),
        ({"sigma": 3}, "unknown key 'sigma'"),
        ({"sigma2": 10**400}, "sigma2: int too large to convert to float"),
    ],
    ids=["bool", "string", "null", "unknown-key", "huge-integer"],
)
def test_detect_moments_of_wrong_type_or_unknown_key_exits_3(
    tmp_path, capsys, patch, key
):
    # valid moments but for the one entry patched in
    moments = tmp_path / "moments.json"
    write_moments_json(closed_form_moments(GaussianAcvfParams(1.0), 1.0), moments)
    moments.write_text(json.dumps({**json.loads(moments.read_text()), **patch}))
    assert _detect_exit(tmp_path, moments=moments) == 3
    err = capsys.readouterr().err
    assert f"error: {moments}: {key}" in err


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


def test_detect_constant_series_exits_4(tmp_path, capsys):
    # as estimate-noise and --calibration do on the same file
    series = tmp_path / "series.csv"
    write_series(SampledSequence(np.full(200, 0.7), dt=1.0), series)
    moments = tmp_path / "moments.json"
    write_moments_json(closed_form_moments(GaussianAcvfParams(1.0), 3.0), moments)
    report, peaks = tmp_path / "report.json", tmp_path / "peaks.csv"
    code = main(
        [
            "detect", "--input", str(series), "--gamma", "3",
            "--moments", str(moments), "--alpha", "0.05",
            "--report-json", str(report), "--peaks-csv", str(peaks),
        ]
    )
    assert code == 4
    captured = capsys.readouterr()
    assert "sequence carries no usable variation" in captured.err
    assert "candidates:" not in captured.out
    assert not report.exists() and not peaks.exists()


@pytest.mark.parametrize(
    "command, scale, want",
    [
        ("detect", 1e300, 0),
        ("calibration", 1e300, 4),
        ("estimate-noise", 1e300, 4),
        ("estimate-template", 1.7e308, 4),
    ],
)
def test_extreme_finite_series_exit_without_warnings(
    tmp_path, capsys, command, scale, want
):
    # squares and sums of values this large overflow: the moments and the
    # averaged template are refused, and the heights' p-values are exact
    series, moments = tmp_path / "series.csv", tmp_path / "moments.json"
    signs = np.where(np.random.default_rng(5).random(400) < 0.5, -1.0, 1.0)
    write_series(SampledSequence(signs * scale, dt=1.0), series)
    write_moments_json(closed_form_moments(GaussianAcvfParams(1.0), 2.0), moments)
    out, smooth = str(tmp_path / "out"), ["--input", str(series), "--gamma", "2"]
    argv = {
        "detect": ["detect", *smooth, "--moments", str(moments), "--alpha", "0.05"],
        "calibration": [
            "detect", *smooth, "--calibration", str(series), "--alpha", "0.05"
        ],
        "estimate-noise": ["estimate-noise", *smooth, "--output", out],
        "estimate-template": [
            "estimate-template", "--input", str(series), "--threshold", "0",
            "--window", "5", "--output", out,
        ],
    }[command]
    assert main(argv) == want
    err = capsys.readouterr().err
    if want == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_detect_series_without_data_lines_exits_3(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("# dt=1.0\n# a comment\n\n")
    assert _detect_exit(tmp_path, series=series) == 3
    err = capsys.readouterr().err
    assert str(series) in err and "no data lines" in err


@pytest.mark.parametrize("procedure", ["bonferroni", "bh"])
@pytest.mark.parametrize("alpha", ["0", "1", "1.5", "-0.1", "nan"])
def test_detect_alpha_outside_unit_interval_exits_2(tmp_path, capsys, alpha, procedure):
    # the input file does not exist: alpha is checked before it is read
    code = main(
        [
            "detect", "--input", str(tmp_path / "missing.csv"), "--gamma", "1",
            "--moments", str(tmp_path / "missing.json"),
            "--procedure", procedure, f"--alpha={alpha}",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: alpha must lie in (0, 1), got {float(alpha)!r}\n"


@pytest.mark.parametrize("procedure", ["bonferroni", "bh"])
def test_detect_alpha_underflowing_over_candidates_exits_2(tmp_path, capsys, procedure):
    series, moments = tmp_path / "series.csv", tmp_path / "moments.json"
    _write_spike_series(series, [100, 200, 300], height=2.0)
    write_moments_json(closed_form_moments(GaussianAcvfParams(1.0), 1.0), moments)
    report = tmp_path / "report.json"
    code = main(
        [
            "detect", "--input", str(series), "--gamma", "1",
            "--moments", str(moments), "--procedure", procedure,
            "--alpha", "5e-324", "--report-json", str(report),
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    want = r"error: alpha / m underflows: alpha=5e-324, m=\d+\n"
    assert re.fullmatch(want, captured.err)
    assert captured.out == "" and not report.exists()


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


@pytest.mark.parametrize("threshold,code", [("-inf", 0), ("inf", 4)])
def test_estimate_template_infinite_threshold(tmp_path, capsys, threshold, code):
    # -inf takes every maximum (the four spikes here), inf takes none
    train = tmp_path / "train.csv"
    _write_training(train)
    out = tmp_path / "template.csv"
    argv = [
        "estimate-template", "--input", str(train),
        f"--threshold={threshold}", "--window", "11", "--output", str(out),
    ]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err == "error: no usable spikes found (count=0)\n"
        assert not out.exists()
    else:
        assert "template_samples: 11" in captured.out
        assert load_kernel_csv(out).center_index == 5


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


def test_simulate_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["simulate", "--preset", "sim31", "--replications", "2", "--seed", "-1"]
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: seed must be a non-negative integer, got -1" in err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "field,value",
    [
        ("dt", float("nan")),
        ("dt", 0.0),
        ("dt", float("inf")),
        ("kernel_trunc", -1.0),
        ("kernel_trunc", float("inf")),
        ("moments_length", float("nan")),
        ("moments_length", -5.0),
        ("moments_length", float("inf")),
    ],
)
def test_simulate_design_bad_length_exits_2(tmp_path, capsys, field, value):
    # caught when the design is read, before any replication runs
    path = _tiny_design_json(tmp_path)
    design = json.loads(path.read_text())
    design[field] = value
    if field == "moments_length":
        design["moments_mode"] = "estimated"
    path.write_text(json.dumps(design))
    code = main(
        ["simulate", "--design", str(path), "--seed", "1",
         "--output", str(tmp_path / "x.csv")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"invalid design file: {field} must be positive and finite" in err
    assert not (tmp_path / "x.csv").exists()


_INF_PEAK = {
    "shape": {"kind": "truncated_gaussian", "b": 3.0},
    "amplitude": math.inf,
    "center": 0.0,
}


@pytest.mark.parametrize(
    "command,case,message",
    [
        ("detect", ["--gamma", "inf"], "gamma must be positive and finite, got inf"),
        ("detect", ["--kernel", "quartic", "--gamma", "inf"], "gamma must be positive"),
        ("detect", ["--gamma", "3", "--trunc", "inf"], "trunc must be positive"),
        ("estimate-noise", ["--gamma", "inf"], "gamma must be positive"),
        (
            "estimate-template",
            ["--threshold", "nan", "--window", "11"],
            "threshold must not be NaN",
        ),
        ("simulate", {"gamma_grid": [math.inf]}, "gamma_grid[0] must be positive"),
        ("simulate", {"domain_length": math.inf}, "domain_length must be positive"),
        ("simulate", {"amplitude_grid": [math.nan]}, "amplitude_grid[0] must be positive"),
        ("simulate", {"amplitude_grid": [1.0, math.inf]}, "amplitude_grid[1] must be"),
        ("simulate", {"peaks": [_INF_PEAK]}, "peaks[0]: amplitude must be positive"),
        ("simulate", {"noise": {"nu": math.inf}}, "noise: nu must be finite"),
    ],
    ids=[
        "gaussian-gamma", "quartic-gamma", "trunc", "estimate-noise-gamma",
        "estimate-template-threshold",
        "gamma-grid", "domain-length", "amplitude-grid-nan", "amplitude-grid-inf",
        "peak-amplitude", "noise-nu",
    ],
)
def test_non_finite_flag_or_design_value_exits_2(
    tmp_path, capsys, command, case, message
):
    # refused before any work: the message names the flag, or the design
    # file and its key
    out = tmp_path / "out"
    if command == "simulate":
        path = _tiny_design_json(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), **case}))
        argv = ["simulate", "--design", str(path), "--seed", "1"]
        message = f"error: {path}: invalid design file: {message}"
    else:
        series = tmp_path / "series.csv"
        _write_spike_series(series, [100])
        argv = [command, "--input", str(series), *case]
        if command == "detect":
            moments = tmp_path / "moments.json"
            write_moments_json(closed_form_moments(GaussianAcvfParams(1.0), 3.0), moments)
            argv += ["--moments", str(moments), "--alpha", "0.05"]
    flag = "--peaks-csv" if command == "detect" else "--output"
    assert main(argv + [flag, str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gamma,code", [(40.0, 2), (33.7, 2), (33.4, 0)])
def test_simulate_bandwidth_wider_than_domain_exits_2(tmp_path, capsys, gamma, code):
    # 201 samples; the Gaussian kernel reaches floor(3 * gamma) samples to
    # each side, so gamma=33.4 leaves one sample outside its margins and
    # 33.7 none
    path = _tiny_design_json(tmp_path)
    design = json.loads(path.read_text())
    path.write_text(json.dumps({**design, "gamma_grid": [2.0, gamma]}))
    out = tmp_path / "x.csv"
    argv = ["simulate", "--design", str(path), "--seed", "1", "--output", str(out)]
    assert main(argv) == code
    if code:
        err = capsys.readouterr().err
        assert f"invalid design file: gamma_grid: the gamma={gamma} kernel" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "case,message",
    [
        ({"gamma_grid": [3.0, 2.0, 3.0]}, "gamma_grid[0] and gamma_grid[2] repeat 3.0"),
        ({"amplitude_grid": [9.0, 9.0]}, "amplitude_grid[0] and amplitude_grid[1] repeat"),
    ],
    ids=["gamma-grid", "amplitude-grid"],
)
def test_simulate_repeated_grid_value_exits_2(tmp_path, capsys, case, message):
    # refused before any replication runs, naming the file, the key and
    # both indices
    path = _tiny_design_json(tmp_path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **case}))
    out = tmp_path / "x.csv"
    argv = ["simulate", "--design", str(path), "--seed", "1", "--output", str(out)]
    assert main(argv) == 2
    assert f"error: {path}: invalid design file: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,case,code,message",
    [
        ("detect", ["--gamma", "1e300"], 4, "no testable sample: 300 samples"),
        ("detect", ["--kernel", "quartic", "--gamma", "1e300"], 4, "no testable sample"),
        ("detect", ["--gamma", "3", "--trunc", "1e300"], 4, "no testable sample"),
        ("estimate-noise", ["--gamma", "1e300"], 4, "need at least 10 interior samples"),
        ("simulate", [2.0, 1e300], 2, "gamma_grid: the gamma=1e+300 kernel"),
    ],
    ids=["detect", "detect-quartic", "detect-trunc", "estimate-noise", "simulate"],
)
def test_huge_finite_bandwidth_refused_before_its_weights(
    tmp_path, capsys, command, case, code, message
):
    # a kernel of 6e300 taps cannot be built; it is refused, with the
    # message of any kernel too wide for the series, from its reach alone
    out = tmp_path / "out"
    if command == "simulate":
        path = _tiny_design_json(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "gamma_grid": case}))
        argv = ["simulate", "--design", str(path), "--seed", "1"]
        message = f"error: {path}: invalid design file: {message}"
    else:
        series = tmp_path / "series.csv"
        _write_spike_series(series, [100], n=300)
        argv = [command, "--input", str(series), *case]
        if command == "detect":
            moments = tmp_path / "moments.json"
            write_moments_json(closed_form_moments(GaussianAcvfParams(1.0), 3.0), moments)
            argv += ["--moments", str(moments), "--alpha", "0.05"]
    flag = "--peaks-csv" if command == "detect" else "--output"
    assert main(argv + [flag, str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("length,code", [(3.0, 2), (26.0, 2), (27.0, 0)])
def test_simulate_design_short_moments_length_exits_2(tmp_path, capsys, length, code):
    # the gamma=3 kernel has a margin of 9 samples at each end, and the
    # moments need 10 samples inside them: 28 samples, a length of 27
    path = _tiny_design_json(tmp_path)
    design = json.loads(path.read_text())
    design.update(moments_mode="estimated", moments_length=length)
    path.write_text(json.dumps(design))
    out = tmp_path / "x.csv"
    argv = ["simulate", "--design", str(path), "--seed", "1", "--output", str(out)]
    assert main(argv) == code
    if code:
        err = capsys.readouterr().err
        assert "invalid design file: moments_length must leave at least 10" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "text,message",
    [('{"schema": 1,', "line 1: malformed JSON"), ("[1, 2]", "expected a JSON object")],
    ids=["truncated", "not-an-object"],
)
def test_simulate_malformed_design_json_exits_3(tmp_path, capsys, text, message):
    path = tmp_path / "design.json"
    path.write_text(text)
    out = tmp_path / "x.csv"
    argv = ["simulate", "--design", str(path), "--seed", "1", "--output", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"{path}" in err and message in err


@pytest.mark.parametrize(
    "patch,key",
    [
        ({"auto_bandwidth": "false"}, "auto_bandwidth"),
        ({"replication": 50}, "'replication'"),
        ({"replications": 2.7}, "replications"),
        ({"replications": True}, "replications"),
        ({"noise": {"sigma": 1.0, "mu": 0.5}}, "'noise.mu'"),
        ({"gamma_grid": [2.0, "3"]}, "gamma_grid[1]"),
        ({"signal": {"domain_length": 200.0}}, "'signal'"),
    ],
)
def test_simulate_design_wrong_type_or_unknown_key_exits_2(
    tmp_path, capsys, patch, key
):
    path = _tiny_design_json(tmp_path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **patch}))
    out = tmp_path / "x.csv"
    argv = ["simulate", "--design", str(path), "--seed", "1", "--output", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "invalid design file: " in err and key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "patch,message",
    [
        ({"replication": 5}, "unknown key 'replication'"),
        ({"noise": {"sigma": -1.0}}, "noise: sigma must be positive"),
        ({"alpha": 1.5}, "alpha must lie in (0, 1)"),
        ({"peaks": [{"shape": {"kind": "laplace", "b": 2.0}, "amplitude": 1.0}]},
         "missing key 'peaks[0].center'"),
    ],
    ids=["unknown-key", "bad-noise", "bad-alpha", "missing-key"],
)
def test_simulate_design_content_error_names_file(tmp_path, capsys, patch, message):
    path = _tiny_design_json(tmp_path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **patch}))
    out = tmp_path / "x.csv"
    argv = ["simulate", "--design", str(path), "--seed", "1", "--output", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: invalid design file: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["sim31", "sim32", "sim34", "sim35"])
def test_simulate_preset_as_design_file(tmp_path, name):
    design = tmp_path / "design.json"
    design.write_text(json.dumps(design_to_json_dict(preset_design(name))))
    data = []
    for source in (["--preset", name], ["--design", str(design)]):
        out = tmp_path / f"{source[0][2:]}.csv"
        argv = ["simulate", *source, "--replications", "2", "--seed", "7"]
        assert main(argv + ["--output", str(out)]) == 0
        data.append([line for line in out.read_text().splitlines() if line[:1] != "#"])
    assert len(data[0]) > 1 and data[0] == data[1]
