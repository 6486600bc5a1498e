"""End-to-end acceptance checks.

One test per numbered claim, so the verbose test report reads as a
pass/fail scorecard.  The expensive Monte Carlo sweeps are shared
through module-scoped fixtures:

  sweep A: ten equal Gaussian-shaped peaks on a length-1000 domain,
           Gaussian kernels, bandwidths 1..8, amplitudes {9, 12, 15},
           2000 replications (error control, power, bandwidth response,
           maxima multiplicity);
  sweep B: the same signal scored by all five procedures at bandwidths
           {2, 3} and amplitude 15 (baseline comparison);
  sweep C: the five-shape unequal-peaks preset with quartic kernels and
           estimated moments, 2000 replications.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from stem1d import (
    CandidateSet,
    GaussianAcvfParams,
    Procedure,
    SampledSequence,
    asymptotic_thresholds,
    closed_form_moments,
    expected_maxima_density,
    find_local_maxima,
    generate_noise,
    palm_survival,
    preset_design,
    run_procedure,
    run_sweep,
)
from stem1d.cli import main
from stem1d.seriesio import write_moments_json, write_series

WHITE = GaussianAcvfParams(sigma=1.0, nu=0.0)
ALPHA = 0.05


@pytest.fixture(scope="module")
def sweep_a():
    design = preset_design("sim31").with_options(
        gamma_grid=tuple(float(g) for g in range(1, 9)), replications=2000
    )
    start = time.monotonic()
    result = run_sweep(design, seed=31)
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def sweep_b():
    design = preset_design("sim34").with_options(
        gamma_grid=(2.0, 3.0), amplitude_grid=(15.0,), replications=2000
    )
    return run_sweep(design, seed=31)


@pytest.fixture(scope="module")
def sweep_c():
    design = preset_design("sim32").with_options(replications=2000)
    return run_sweep(design, seed=42)


def test_01_peak_height_distribution():
    # the height law of local maxima matches long-run noise to KS < 0.01,
    # and its value at zero is the analytic constant 1/2 + 1/(2 sqrt(3))
    start = time.monotonic()
    dt = 0.2
    n = int(round(1e6 / dt))
    for gamma in (1.0, 3.0):
        params = closed_form_moments(WHITE, gamma)
        assert palm_survival(params, 0.0) == pytest.approx(
            0.5 + 0.5 / math.sqrt(3.0), abs=1e-9
        )
        seq = generate_noise(WHITE, gamma, n, dt, seed=7)
        heights = find_local_maxima(seq).heights
        ks = stats.kstest(heights, lambda u: 1.0 - palm_survival(params, u)).statistic
        print(f"[01] gamma={gamma}: {heights.size} maxima, KS={ks:.5f}")
        assert ks < 0.01
    elapsed = time.monotonic() - start
    print(f"[01] runtime {elapsed:.1f}s")
    assert elapsed < 60.0


def test_02_maxima_density():
    # observed local-maxima rate within 2 percent of sqrt(l4/l2)/(2 pi)
    dt, gamma = 0.2, 1.0
    n = int(round(1e5 / dt))
    seq = generate_noise(WHITE, gamma, n, dt, seed=13)
    density = len(find_local_maxima(seq)) / ((n - 1) * dt)
    want = expected_maxima_density(closed_form_moments(WHITE, gamma))
    print(f"[02] density {density:.5f} vs {want:.5f}")
    assert density == pytest.approx(want, rel=0.02)


def test_03_error_control(sweep_a):
    result, elapsed = sweep_a
    for gamma in (2.0, 3.0, 4.0, 6.0):
        fwer, se_f = result.lookup("fwer", "bonferroni", gamma=gamma, amplitude=15.0)
        fdr, se_d = result.lookup("fdr", "bh", gamma=gamma, amplitude=15.0)
        print(f"[03] gamma={gamma:g}: fwer={fwer:.4f} fdr={fdr:.4f}")
        assert fwer <= ALPHA + 3.0 * se_f
        assert fdr <= ALPHA + 3.0 * se_d
    print(f"[03] sweep runtime {elapsed:.0f}s")
    assert elapsed < 600.0


def test_04_power_ordering_and_monotonicity(sweep_a):
    result, _ = sweep_a
    amps = (9.0, 12.0, 15.0)
    for amp in amps:
        bon, se_bon = result.lookup("power", "bonferroni", gamma=3.0, amplitude=amp)
        bh, se_bh = result.lookup("power", "bh", gamma=3.0, amplitude=amp)
        print(f"[04] a={amp:g}: bonferroni={bon:.4f} bh={bh:.4f}")
        assert bh >= bon - 2.0 * max(se_bon, se_bh)
    for proc in ("bonferroni", "bh"):
        curve = [result.lookup("power", proc, gamma=3.0, amplitude=a)[0] for a in amps]
        assert curve[0] < curve[1] < curve[2]
    top, _ = result.lookup("power", "bh", gamma=3.0, amplitude=15.0)
    assert top >= 0.9


def test_05_power_peaks_near_matched_bandwidth(sweep_a):
    result, _ = sweep_a
    gammas = [float(g) for g in range(1, 9)]
    for proc in ("bonferroni", "bh"):
        curve = [
            result.lookup("power", proc, gamma=g, amplitude=15.0)[0] for g in gammas
        ]
        best = gammas[int(np.argmax(curve))]
        print(f"[05] {proc}: argmax gamma={best:g}")
        assert 3.0 <= best <= 6.0


def test_06_single_maximum_per_peak(sweep_a):
    result, _ = sweep_a
    for gamma in (3.0, 4.0, 5.0, 6.0, 7.0, 8.0):
        locmax, _ = result.lookup(
            "locmax_per_peak", "candidates", gamma=gamma, amplitude=15.0
        )
        print(f"[06] gamma={gamma:g}: locmax per peak {locmax:.4f}")
        assert locmax == pytest.approx(1.0, abs=0.05)


def test_07_unequal_shapes_quartic_sweep(sweep_c):
    gammas = sweep_c.design.gamma_grid
    for proc, err_metric in (("bonferroni", "fwer"), ("bh", "fdr")):
        for gamma in gammas:
            err, se = sweep_c.lookup(err_metric, proc, gamma=gamma, amplitude=1.0)
            assert err <= ALPHA + 3.0 * se, (proc, gamma, err)
        curve = [
            sweep_c.lookup("power", proc, gamma=g, amplitude=1.0)[0] for g in gammas
        ]
        best = gammas[int(np.argmax(curve))]
        print(f"[07] {proc}: argmax gamma={best:g}, power={max(curve):.4f}")
        assert best == 18.0
    bon18, _ = sweep_c.lookup("power", "bonferroni", gamma=18.0, amplitude=1.0)
    bh18, _ = sweep_c.lookup("power", "bh", gamma=18.0, amplitude=1.0)
    assert bon18 == pytest.approx(0.81, abs=0.05)
    assert bh18 == pytest.approx(0.88, abs=0.05)


def test_08_baseline_comparison(sweep_b):
    bon, se_bon = sweep_b.lookup("power", "bonferroni", gamma=3.0, amplitude=15.0)
    sup, se_sup = sweep_b.lookup("power", "supremum", gamma=3.0, amplitude=15.0)
    pwb, se_pwb = sweep_b.lookup(
        "power", "pointwise-bonferroni", gamma=3.0, amplitude=15.0
    )
    print(f"[08] power: bonferroni={bon:.4f} supremum={sup:.4f} pointwise={pwb:.4f}")
    assert bon > sup - 2.0 * max(se_bon, se_sup)
    assert bon > sup  # the realized gap is wide; record it strictly too
    assert sup >= pwb - 2.0 * max(se_sup, se_pwb)
    violations = 0
    for gamma in (2.0, 3.0):
        fdr, se = sweep_b.lookup("fdr", "pointwise-bh", gamma=gamma, amplitude=15.0)
        print(f"[08] pointwise-bh fdr at gamma={gamma:g}: {fdr:.4f}")
        if fdr > ALPHA + 3.0 * se:
            violations += 1
    assert violations >= 1  # sample-level BH does not control peak-level FDR


def test_09_correction_oracles_and_thresholds():
    params = closed_form_moments(WHITE, 1.0)
    rng = np.random.default_rng(2024)
    for trial in range(10_000):
        m = int(rng.integers(1, 51))
        p = rng.uniform(size=m)
        if trial % 3 == 1:
            p = p**3
        elif trial % 3 == 2:
            p = np.clip(0.1 * p, 1e-12, 1.0)
        alpha = float(rng.uniform(0.01, 0.25))
        cands = CandidateSet(
            np.arange(m), np.arange(m, dtype=float), 1.0 - p, p
        )
        rep = run_procedure(cands, alpha, params, Procedure.BH)
        ordered = np.sort(p)
        k = 0
        for i in range(1, m + 1):
            if ordered[i - 1] < i * alpha / m:
                k = i
        assert rep.step_index == k
        want = set(np.flatnonzero(p < k * alpha / m)) if k else set()
        assert set(rep.rejected.indices) == want
        bon = run_procedure(cands, alpha, params, Procedure.BONFERRONI)
        assert set(bon.rejected.indices) == set(np.flatnonzero(p < alpha / m))
    print("[09] 10000 p-vectors matched the enumeration oracle")

    # the asymptotic Bonferroni threshold exceeds the BH threshold
    for gamma in (1.0, 2.0, 4.0):
        moments = closed_form_moments(WHITE, gamma)
        for alpha in (0.01, 0.05, 0.2):
            for peaks in (1.0, 5.0, 20.0):
                for length in (100.0, 1000.0, 1e4):
                    bh, bonferroni_for_length = asymptotic_thresholds(
                        alpha, peaks / length, moments
                    )
                    assert bonferroni_for_length(length) > bh


def test_10_cli_determinism(tmp_path, capsys):
    # simulate: identical output on a second run with the same seed
    out = tmp_path / "sweep.csv"
    blobs = []
    for _ in range(2):
        code = main(
            [
                "simulate", "--preset", "sim31", "--replications", "100",
                "--seed", "7", "--output", str(out),
            ]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]

    # detect: identical report and peaks files on a second run
    series = tmp_path / "series.csv"
    values = np.zeros(400)
    values[120] = values[280] = 1.0
    write_series(SampledSequence(values, dt=1.0), series)
    moments = tmp_path / "moments.json"
    write_moments_json(closed_form_moments(GaussianAcvfParams(0.05), 3.0), moments)
    report = tmp_path / "report.json"
    peaks = tmp_path / "peaks.csv"
    detect_blobs = []
    for _ in range(2):
        code = main(
            [
                "detect", "--input", str(series), "--gamma", "3",
                "--moments", str(moments), "--alpha", "0.05",
                "--report-json", str(report), "--peaks-csv", str(peaks),
            ]
        )
        assert code == 0
        detect_blobs.append((report.read_bytes(), peaks.read_bytes()))
    assert detect_blobs[0] == detect_blobs[1]
    assert json.loads(report.read_text())["num_rejected"] == 2

    # estimate-noise and estimate-template: pure functions of their inputs
    calib = tmp_path / "calib.csv"
    write_series(generate_noise(WHITE, 0.0, 20_000, 1.0, seed=3), calib)
    mout = tmp_path / "est.json"
    noise_blobs = []
    for _ in range(2):
        assert main(
            [
                "estimate-noise", "--input", str(calib),
                "--gamma", "3", "--output", str(mout),
            ]
        ) == 0
        noise_blobs.append(mout.read_bytes())
    assert noise_blobs[0] == noise_blobs[1]

    train = tmp_path / "train.csv"
    tvals = np.zeros(300)
    profile = 2.0 * (1.0 - np.abs(np.arange(-4, 5)) / 4.0)
    for c in (60, 150, 240):
        tvals[c - 4:c + 5] += profile
    write_series(SampledSequence(tvals, dt=1.0), train)
    tout = tmp_path / "template.csv"
    template_blobs = []
    for _ in range(2):
        assert main(
            [
                "estimate-template", "--input", str(train),
                "--threshold", "1.0", "--window", "9", "--output", str(tout),
            ]
        ) == 0
        template_blobs.append(tout.read_bytes())
    assert template_blobs[0] == template_blobs[1]
    capsys.readouterr()
    print("[10] all four commands byte-stable")
