"""Golden outputs, bit for bit: sweep CSVs, root finders, moment estimates,
preset designs, peak-shape densities and the outputs of CLI ``detect``.

The digests are sha256 of ``"\\n".join(csv_lines())`` for a preset at a
small replication count and seed 7; those at 4 and 10 replications also
gate the benchmark (``bench/reference.json``).  The root-finder and moment values are
``float.hex()`` strings, so a change in the bisection steps, the bracket
or the order of a reduction shows up even when it moves the result by
one ulp.  The sweeps sample the peak shapes only at integer offsets, so
the densities are also compared, at and next to their support edges,
with reference copies of their formulas.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from stem1d import (
    CauchyShape,
    EpanechnikovShape,
    GaussianAcvfParams,
    KernelFamily,
    LaplaceShape,
    NoiseMoments,
    PeakSpec,
    Procedure,
    SampledSequence,
    SignalSpec,
    SimulationDesign,
    TriangularShape,
    TruncatedGaussianShape,
    closed_form_moments,
    convolve,
    estimate_moments,
    gaussian_kernel,
    generate_noise,
    palm_quantile,
    preset_design,
    run_sweep,
    supremum_threshold,
)
from stem1d.cli import main
from stem1d.evaluation import _cell_moments
from stem1d.seriesio import design_to_json_dict, write_moments_json, write_series

SWEEP_DIGESTS = {
    ("sim31", 4): "dc4541ae65b852144f6b9e0d1d33f0f91c8376cc2f4de9aeeebb86fc018b114b",
    ("sim34", 4): "ae430fabcd1a038af45f82ac3f8776fd6e2e7e237e112a7435a94d2dd0741732",
    ("sim35", 4): "026bbf86974b401c4e68a0d4e77f748f4cc6fd75fe413eeabbee78b2a32ae20a",
    ("sim32", 10): "6e1df748e55db9a70119de00e4b7efb918666c779a47fff53cfb9fbfb781e080",
    # past one block of replications (``evaluation._TRIAL_BLOCK``, 8): a
    # partial second block, and two full blocks and a partial third
    ("sim31", 9): "94fb0358bc02c2ba6af14a2601e5f8e3b9cc01652e93a09f867a8824e0847502",
    ("sim34", 19): "b2abc889fa66f20b52422dd7056f219a62962442fea942051abcfe630bb49860",
    ("sim35", 19): "db2b015e5833a3970939cef3356a04c0429ee6275a0845b914fdf725ce835a2f",
    # one replication, where the standard error of every mean is NaN (the
    # benchmark's set-up count); and 130, past numpy's 128-element
    # pairwise-summation block
    ("sim34", 1): "a296a0c1d7c53e9b214cfdba6db5d615fd33b37f097eaf29efc15badc0cc7453",
    ("sim35", 130): "1cd82d3a5e0fe38e5b116c90a3e0a3e6a15674cb82a852444d292913a6a8e5d6",
}


@pytest.mark.parametrize("preset,replications", sorted(SWEEP_DIGESTS))
def test_sweep_csv_digest(preset, replications):
    design = preset_design(preset).with_options(replications=replications)
    lines = run_sweep(design, seed=7).csv_lines()
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == SWEEP_DIGESTS[(preset, replications)]


# preset -> sha256 of its csv lines on a signal with no peaks, at 40
# replications and seed 7: every power and locmax_per_peak value is NaN,
# and some fwer and fdr values are not zero
NULL_SIGNAL_DIGESTS = {
    "sim34": "a3538335109c7e5622ec3e272ef1531bf3675b95447ace8c71ea65524515b6a1",
    "sim35": "4f184eb03202d108bc972fc8f39e9f3ed37aa33e9b7d18c916baaab2f4c3f288",
}


@pytest.mark.parametrize("preset", sorted(NULL_SIGNAL_DIGESTS))
def test_null_signal_csv_digest(preset):
    signal = SignalSpec(peaks=(), domain_length=1000.0)
    design = preset_design(preset).with_options(signal=signal, replications=40)
    lines = run_sweep(design, seed=7).csv_lines()
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == NULL_SIGNAL_DIGESTS[preset]


# sim31 at 2 replications and seed 2**70: every noise key holds a seed of
# three 32-bit words, so the keyed streams hash six words
MULTIWORD_SEED_DIGEST = "3388feb459b8aaf2980fbc52a44edabf901574081c261d132eb8563a84a8e1a1"


def test_multiword_seed_csv_digest():
    design = preset_design("sim31").with_options(replications=2)
    lines = run_sweep(design, seed=2**70).csv_lines()
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == MULTIWORD_SEED_DIGEST


def _edge_signal():
    shape = TruncatedGaussianShape(b=2.0, c=3.0)
    centers = (-18.0, 0.5, 19.0)
    peaks = tuple(PeakSpec(shape=shape, amplitude=1.0, center=c) for c in centers)
    return SignalSpec(peaks=peaks, domain_length=60.0)


# Small designs whose rows reach the edges the presets at seed 7 do not:
# dt = 0.5 and a 121-sample grid, so the widest kernel (Gaussian gamma=10,
# quartic gamma=30) keeps a 60-sample margin at each end and leaves one
# testable sample (rows with zero and with one candidate); an amplitude of
# 0.01, on which BH mostly rejects nothing (k = 0); all five procedures;
# and auto-bandwidth on estimated quartic moments, over an unsorted grid.
EDGE_DESIGNS = {
    "gaussian-five-procedures": dict(
        kernel_family=KernelFamily.GAUSSIAN,
        gamma_grid=(1.0, 4.0, 10.0),
        amplitude_grid=(0.01, 8.0),
        procedures=tuple(Procedure),
    ),
    "quartic-auto-estimated": dict(
        noise=GaussianAcvfParams(1.0, 0.5),
        kernel_family=KernelFamily.QUARTIC,
        gamma_grid=(3.0, 1.0, 30.0),
        amplitude_grid=(0.01, 4.0),
        moments_mode="estimated",
        moments_length=400.0,
        moments_reps=5,
        auto_bandwidth=True,
    ),
}

# design -> sha256 of its csv lines at 16 replications, seed 3
EDGE_DIGESTS = {
    "gaussian-five-procedures": "d0ba7faa7660a4f3b923794012d758898f6a8e6a547356ac9b500bf9d4a0be1e",
    "quartic-auto-estimated": "d6348e4b64a4c994aaf4475db1a1242e92aa062623aeec13ee90a4488db595e9",
}


def edge_design(name: str) -> SimulationDesign:
    options = dict(noise=GaussianAcvfParams(1.0, 0.0), replications=16)
    options.update(EDGE_DESIGNS[name])
    return SimulationDesign(name=name, signal=_edge_signal(), dt=0.5, **options)


@pytest.mark.parametrize("name", sorted(EDGE_DIGESTS))
def test_edge_design_csv_digest(name):
    lines = run_sweep(edge_design(name), seed=3).csv_lines()
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == EDGE_DIGESTS[name]


MOMENTS = {
    "unit": NoiseMoments(1.0, 0.5, 0.75),
    "gamma3": NoiseMoments(0.0939, 0.0052, 0.00087),
    "wide": NoiseMoments(2.5, 0.02, 0.0009),
    # Delta = sigma2 * lambda4 - lambda2^2 is about 1e-7, so a1 and a2
    # are about 3e3 and both ndtr terms jump within a narrow band at u = 0.
    "near_degenerate": NoiseMoments(1.0, 1.0, 1.0000001),
}

# (moments, v) -> palm_quantile([moments], 0, [v])[0] as hex
QUANTILES = {
    ("unit", 0.999): "-0x1.003f832f6e0cap+1",
    ("unit", 0.5): "0x1.6ed336ae8219ep-1",
    ("unit", 0.05): "0x1.1b9f770f90aeap+1",
    ("unit", 1e-6): "0x1.49a960d763664p+2",
    ("unit", 1e-300): "0x1.293c4b4356e10p+5",
    ("gamma3", 0.5): "0x1.c0160d27105fcp-3",
    ("gamma3", 0.05): "0x1.5b69a6adf99acp-1",
    ("gamma3", 1e-6): "0x1.94054adceba06p+0",
    ("gamma3", 1e-300): "0x1.6c53ef252facap+3",
    ("wide", 0.999): "-0x1.e1e46e57b736cp+1",
    ("wide", 0.5): "0x1.a9c9449d47eb4p-1",
    ("wide", 0.05): "0x1.a75ac0f081e6cp+1",
    ("wide", 1e-6): "0x1.018630926fef4p+3",
    ("wide", 1e-300): "0x1.d5dd15a79a184p+5",
    ("near_degenerate", 0.999): "0x1.6e709aa498cfap-5",
    ("near_degenerate", 0.05): "0x1.394fc47976df0p+1",
    ("near_degenerate", 1e-300): "0x1.295a910138b90p+5",
}

# (moments, domain length, alpha, convention) -> supremum_threshold(...).hex()
SUPREMUM = {
    ("unit", 1000.0, 0.05, "paper"): "0x1.0a044d8d4f3f8p+2",
    ("unit", 1000.0, 0.05, "classical"): "0x1.f6f4e290d4011p+1",
    ("unit", 50.0, 0.2, "paper"): "0x1.75d3a732abbf5p+1",
    ("unit", 1e6, 1e-4, "paper"): "0x1.a63595030a278p+2",
    ("unit", 0.1, 0.9, "paper"): "-0x1.3523438190874p+0",
    ("gamma3", 1000.0, 0.05, "paper"): "0x1.309b2ffb43432p+0",
    ("gamma3", 1000.0, 0.05, "classical"): "0x1.1d799875fcfcdp+0",
    ("gamma3", 50.0, 0.2, "paper"): "0x1.8bfd80e19e253p-1",
    ("gamma3", 1e6, 1e-4, "paper"): "0x1.f8427b30871e9p+0",
    ("wide", 1000.0, 0.05, "paper"): "0x1.6ee82dc3c7903p+2",
    ("wide", 1000.0, 0.05, "classical"): "0x1.5470b3284abbap+2",
    ("wide", 50.0, 0.2, "paper"): "0x1.afa38ffd00ccdp+1",
    ("wide", 1e6, 1e-4, "paper"): "0x1.3d8854e07a2ddp+3",
    ("wide", 0.1, 0.9, "paper"): "-0x1.018c156e01c65p+1",
}


def test_palm_quantile_bits():
    got = {
        (name, v): palm_quantile([MOMENTS[name]], 0, [v]).item().hex()
        for name, v in QUANTILES
    }
    assert got == QUANTILES


def test_palm_quantile_batched_bits():
    # every entry in one mixed batch, each naming its law: each keeps the
    # bits of its one-entry call
    keys = list(QUANTILES)
    names = sorted(MOMENTS)
    law = [names.index(name) for name, _ in keys]
    got = palm_quantile([MOMENTS[n] for n in names], law, np.array([v for _, v in keys]))
    assert {key: u.hex() for key, u in zip(keys, got.tolist())} == QUANTILES


def test_supremum_threshold_bits():
    got = {
        (name, length, alpha, conv): float(
            supremum_threshold([MOMENTS[name]], length, alpha, conv)[0]
        ).hex()
        for name, length, alpha, conv in SUPREMUM
    }
    assert got == SUPREMUM


# zero_mean -> estimate_moments(...) as (sigma2, lambda2, lambda4) hex, on
# smoothed seeded noise with a nonzero mean and a 12-sample margin at dt=0.5
ESTIMATED_MOMENTS = {
    False: ("0x1.35458589c3719p-3", "0x1.271955523cb0cp-6", "0x1.9fb4cb77be3f3p-8"),
    True: ("0x1.a67f6f4f502d7p-3", "0x1.27008b4efe1bep-6", "0x1.9f91071a5b1edp-8"),
}


@pytest.mark.parametrize("zero_mean", sorted(ESTIMATED_MOMENTS))
def test_estimate_moments_bits(zero_mean):
    raw = generate_noise(GaussianAcvfParams(1.5, 0.0), 0.0, 3000, 0.5, seed=41)
    seq = convolve(raw.with_values(raw.values + 0.25), gaussian_kernel(2.0, 0.5))
    assert seq.margin == 12
    m = estimate_moments(seq, zero_mean=zero_mean)
    got = (m.sigma2.hex(), m.lambda2.hex(), m.lambda4.hex())
    assert got == ESTIMATED_MOMENTS[zero_mean]


# sigma2, lambda2, lambda4 hex of _cell_moments for sim32's gamma=18 band
# (kernel index 2, seed 7): 500 calibration runs in 16 blocks, so the
# order in which the blocks are summed shows up in the last bits
SIM32_BAND_MOMENTS = ("0x1.49229b6004133p-5", "0x1.81b56f5f2debep-12", "0x1.71f26bd8a735fp-17")


def test_estimated_cell_moments_bits():
    design = preset_design("sim32")
    m = _cell_moments(design, design.build_kernel(18.0), 2, 7, 18.0)
    assert (m.sigma2.hex(), m.lambda2.hex(), m.lambda4.hex()) == SIM32_BAND_MOMENTS


# the same for the gamma=4 band (kernel index 1, seed 3) of a Gaussian
# design at dt=0.5, with nu=0.5 and 40 calibration runs of 801 samples:
# a full block of runs and a partial one, and a 49-tap kernel
GAUSSIAN_BAND_MOMENTS = ("0x1.1b693134efb13p-4", "0x1.2583f95cb16f1p-9", "0x1.b8136af39bf60p-13")


def test_estimated_gaussian_band_moments_bits():
    design = edge_design("gaussian-five-procedures").with_options(
        noise=GaussianAcvfParams(1.0, 0.5),
        moments_mode="estimated",
        moments_length=400.0,
        moments_reps=40,
    )
    m = _cell_moments(design, design.build_kernel(4.0), 1, 3, 4.0)
    assert (m.sigma2.hex(), m.lambda2.hex(), m.lambda4.hex()) == GAUSSIAN_BAND_MOMENTS


# preset -> sha256 of json.dumps(design_to_json_dict(preset), sort_keys=True)
PRESET_DIGESTS = {
    "sim31": "c77d7e1b6ef74edb0f9fe166a1029bdc3c2c482c72173d29ff67c3d0c0b1aec1",
    "sim32": "de1307bcf93edfe1e12f87c8b417d2d1367595db84b2df4aef029250128028a1",
    "sim34": "36b0b49ea4ea13f64ce9bec2a198a699f5608b335148f2e90e51b1be6cbd19fa",
    "sim35": "5fda54d85259a87bba74e1b3d1a4bf2cf0ccbb27ceb69c4e1bb3cdb5a341eb93",
}


@pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
def test_preset_design_digest(name):
    text = json.dumps(design_to_json_dict(preset_design(name)), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PRESET_DIGESTS[name]


# Reference densities: the formulas of the shape classes, each applied
# the way the shape applies it, kept here so a rewrite of the classes is
# checked against them bit for bit.


def _ref_truncated_gaussian(b, c, t):
    inside = np.abs(t) <= b * c
    out = np.zeros_like(t)
    out[inside] = np.exp(-0.5 * (t[inside] / b) ** 2) / (b * math.sqrt(2.0 * math.pi))
    return out


def _ref_epanechnikov(h, t):
    u = t / h
    inside = np.abs(u) <= 1.0
    out = np.zeros_like(t)
    out[inside] = 0.75 * (1.0 - u[inside] ** 2) / h
    return out


def _ref_triangular(h, t):
    u = np.abs(t) / h
    return np.where(u <= 1.0, (1.0 - u) / h, 0.0)


def _ref_laplace(b, c, t):
    inside = np.abs(t) <= b * c
    out = np.zeros_like(t)
    out[inside] = np.exp(-np.abs(t[inside]) / b) / (2.0 * b)
    return out


def _ref_cauchy(b, c, t):
    inside = np.abs(t) <= b * c
    out = np.zeros_like(t)
    out[inside] = 1.0 / (math.pi * b * (1.0 + (t[inside] / b) ** 2))
    return out


# sim32's five shapes first, then other scales, including ones whose
# b * c is not exact in binary
SHAPES = [
    (EpanechnikovShape(halfwidth=13.6), lambda t: _ref_epanechnikov(13.6, t)),
    (TriangularShape(halfwidth=15.8), lambda t: _ref_triangular(15.8, t)),
    (TruncatedGaussianShape(b=6.8, c=4.5), lambda t: _ref_truncated_gaussian(6.8, 4.5, t)),
    (LaplaceShape(b=5.8, c=6.0), lambda t: _ref_laplace(5.8, 6.0, t)),
    (CauchyShape(b=5.25, c=4.8), lambda t: _ref_cauchy(5.25, 4.8, t)),
    (TruncatedGaussianShape(b=3.0), lambda t: _ref_truncated_gaussian(3.0, 3.0, t)),
    (TruncatedGaussianShape(b=0.7, c=1.3), lambda t: _ref_truncated_gaussian(0.7, 1.3, t)),
    (LaplaceShape(b=0.1, c=7.3), lambda t: _ref_laplace(0.1, 7.3, t)),
    (CauchyShape(b=2.0), lambda t: _ref_cauchy(2.0, 3.0, t)),
    (CauchyShape(b=0.3, c=0.7), lambda t: _ref_cauchy(0.3, 0.7, t)),
    (EpanechnikovShape(halfwidth=0.3), lambda t: _ref_epanechnikov(0.3, t)),
    (TriangularShape(halfwidth=7.0), lambda t: _ref_triangular(7.0, t)),
    (TriangularShape(halfwidth=0.1), lambda t: _ref_triangular(0.1, t)),
]


@pytest.mark.parametrize("index", range(len(SHAPES)))
def test_shape_density_bits(index):
    shape, reference = SHAPES[index]
    h = shape.half_support
    edges = np.array([-h, h])
    t = np.concatenate(
        [
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            [0.0, -0.0],
            np.arange(-math.ceil(h) - 1, math.ceil(h) + 2, dtype=np.float64),
            np.random.default_rng(index).uniform(-1.5 * h, 1.5 * h, 2000),
        ]
    )
    got = shape.density(t)
    assert got.dtype == np.float64
    assert got.tobytes() == reference(t).tobytes()


# CLI ``detect`` on one seeded series: three Gaussian bumps of mass 20
# in unit white noise, smoothed at gamma=3.  Each case runs in its own
# directory with relative paths, so the provenance in both files is fixed.
# case -> (flags, stdout, sha256 of the report JSON, sha256 of the peaks CSV)
DETECT_CASES = {
    "bh": (
        ["--procedure", "bh", "--alpha", "0.05"],
        "candidates: 36\nrejected: 4\n"
        "pvalue_cutoff: 0.005555555555555556\nheight_threshold: 0.9346541552760661\n",
        "202d660e686465a6d1f3860a1013d972dcab01cb714ddfff67a6d687e8841c7d",
        "b7bcbc6c753937ca8aae0aa563b995d02aefe3340f1a25d61e3e4d8b1d7d50d9",
    ),
    "bonferroni": (
        ["--procedure", "bonferroni", "--alpha", "0.05"],
        "candidates: 36\nrejected: 2\n"
        "pvalue_cutoff: 0.001388888888888889\nheight_threshold: 1.0649482373976111\n",
        "4ac2bd07f514bb1e8697d2d7a127c4f13aaf14de89d19d9a12a5c734c8324e98",
        "2c1ad8011c3a606722302fee6caa1c9419b0761d14d8964727192a03fde49b41",
    ),
    "bh-rejects-nothing": (
        ["--procedure", "bh", "--alpha", "1e-12"],
        "candidates: 36\nrejected: 0\npvalue_cutoff: 0.0\nheight_threshold: inf\n",
        "d137f79396217451af01a5a08c6ad82460d4c3e4a6ad384e6e50690ec5d7f3c9",
        "d0bd8179eab4897b99c2fa7409c37aebbdbd5f73bbd1a27a135b4a67bde98a1f",
    ),
}


def _detect_series() -> SampledSequence:
    raw = generate_noise(GaussianAcvfParams(1.0, 0.0), 0.0, 600, 1.0, seed=51)
    values = raw.values.copy()
    k = np.arange(-9, 10)
    for center in (150, 320, 470):
        values[center - 9:center + 10] += 20.0 * np.exp(-((k / 3.0) ** 2) / 2) / (
            3.0 * math.sqrt(2.0 * math.pi)
        )
    return raw.with_values(values)


@pytest.mark.parametrize("case", sorted(DETECT_CASES))
def test_cli_detect_outputs(case, tmp_path, monkeypatch, capsys):
    flags, stdout, report_digest, peaks_digest = DETECT_CASES[case]
    monkeypatch.chdir(tmp_path)
    write_series(_detect_series(), "series.csv")
    moments = closed_form_moments(GaussianAcvfParams(1.0, 0.0), 3.0)
    write_moments_json(moments, "moments.json")
    argv = [
        "detect", "--input", "series.csv", "--gamma", "3", "--moments", "moments.json",
        *flags, "--report-json", "report.json", "--peaks-csv", "peaks.csv",
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout
    report = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == report_digest
    peaks = (tmp_path / "peaks.csv").read_bytes()
    assert hashlib.sha256(peaks).hexdigest() == peaks_digest
    threshold = json.loads(report)["height_threshold"]
    assert (threshold == "inf") == (case == "bh-rejects-nothing")
