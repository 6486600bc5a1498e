"""Golden outputs: the sweep CSVs and root-finder results, bit for bit.

The digests are sha256 of ``"\\n".join(csv_lines())`` for a preset at a
small replication count and seed 7; the same values gate the benchmark
(``bench/reference.json``).  The root-finder values are ``float.hex()``
strings, so a change in the bisection steps or the bracket shows up even
when it moves the result by one ulp.
"""

import hashlib

import pytest

from stem1d import (
    NoiseMoments,
    PalmParams,
    palm_quantile,
    preset_design,
    run_sweep,
    supremum_threshold,
)

SWEEP_DIGESTS = {
    ("sim31", 4): "dc4541ae65b852144f6b9e0d1d33f0f91c8376cc2f4de9aeeebb86fc018b114b",
    ("sim34", 4): "ae430fabcd1a038af45f82ac3f8776fd6e2e7e237e112a7435a94d2dd0741732",
    ("sim35", 4): "026bbf86974b401c4e68a0d4e77f748f4cc6fd75fe413eeabbee78b2a32ae20a",
    ("sim32", 10): "6e1df748e55db9a70119de00e4b7efb918666c779a47fff53cfb9fbfb781e080",
}


@pytest.mark.parametrize("preset,replications", sorted(SWEEP_DIGESTS))
def test_sweep_csv_digest(preset, replications):
    design = preset_design(preset).with_options(replications=replications)
    lines = run_sweep(design, seed=7).csv_lines()
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == SWEEP_DIGESTS[(preset, replications)]


MOMENTS = {
    "unit": NoiseMoments(1.0, 0.5, 0.75),
    "gamma3": NoiseMoments(0.0939, 0.0052, 0.00087),
    "wide": NoiseMoments(2.5, 0.02, 0.0009),
}

# (moments, v) -> palm_quantile(PalmParams(moments), v).hex()
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
        (name, v): palm_quantile(PalmParams(MOMENTS[name]), v).hex()
        for name, v in QUANTILES
    }
    assert got == QUANTILES


def test_supremum_threshold_bits():
    got = {
        (name, length, alpha, conv): supremum_threshold(
            MOMENTS[name], length, alpha, conv
        ).hex()
        for name, length, alpha, conv in SUPREMUM
    }
    assert got == SUPREMUM
