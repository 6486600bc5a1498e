"""Stationary Gaussian noise: generation, spectral moments, estimation.

The noise model is white noise driven through a Gaussian autocorrelation
filter of scale ``nu`` (``nu = 0`` gives independent samples).  Smoothing
such noise with a Gaussian kernel of bandwidth ``gamma`` yields the same
kind of process at the combined scale ``xi = sqrt(gamma^2 + nu^2)``, for
which the variance and the derivative variances have closed forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSequenceError, positive_finite
from .grid import SQRT_2PI, SampledSequence

_SQRT_PI = math.sqrt(math.pi)
# fewest samples estimate_moments takes from inside a sequence's margins
MIN_INTERIOR_SAMPLES = 10
# Delta and NoiseMoments.survival_terms, as a refusal names them
_TERMS = (
    "sigma2 * lambda4 - lambda2^2",
    "lambda4 / Delta",
    "lambda2^2 / (Delta sigma2)",
    "2 pi lambda2^2 / (lambda4 sigma2)",
)
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx),
# and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _powers(init: int, mult: int, n: int) -> np.ndarray:
    """``init * mult**i`` modulo 2**32 for ``i < n``."""
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, np.uint32)


# generate_state's constants: output word i is pool word i % 4, XORed
# with constant i and multiplied by constant i + 1
_STATE_MIX = _powers(_INIT_B, _MULT_B, 9)


@dataclass(frozen=True)
class GaussianAcvfParams:
    """Marginal scale ``sigma`` and autocorrelation scale ``nu`` (>= 0)."""

    sigma: float
    nu: float = 0.0

    def __post_init__(self):
        positive_finite("sigma", self.sigma)
        if not 0.0 <= self.nu < math.inf:
            raise ValueError(f"nu must be finite and non-negative, got {self.nu!r}")


@dataclass(frozen=True)
class NoiseMoments:
    """Variance of a smooth stationary process and of its derivatives.

    ``sigma2`` is the variance of the process, ``lambda2`` the variance
    of its first derivative and ``lambda4`` the variance of its second
    derivative.  Validity requires ``Delta = sigma2 * lambda4 - lambda2^2
    > 0``, and Delta and :meth:`survival_terms` must be positive, finite
    doubles: moments that overflow or underflow there raise ``ValueError``.
    """

    sigma2: float
    lambda2: float
    lambda4: float

    def __post_init__(self):
        for name in ("sigma2", "lambda2", "lambda4"):
            positive_finite(name, getattr(self, name))
        try:
            delta = self.delta
            terms = self.survival_terms() if delta > 0 else ()
        except OverflowError:
            raise ValueError("moments overflow: lambda2^2 is not finite") from None
        except ZeroDivisionError:
            raise ValueError(
                "moments underflow: Delta * sigma2 or lambda4 * sigma2 rounds to 0"
            ) from None
        if not (delta > 0):
            raise ValueError(
                "moments are incompatible: sigma2 * lambda4 must exceed lambda2^2"
            )
        for name, x in zip(_TERMS, (delta, *terms)):
            if not x < math.inf:
                raise ValueError(f"moments overflow: {name} is not finite")
            if not x > 0:
                raise ValueError(f"moments underflow: {name} rounds to 0")

    @property
    def delta(self) -> float:
        return self.sigma2 * self.lambda4 - self.lambda2**2

    def survival_terms(self) -> tuple[float, float, float]:
        """``(lambda4 / Delta, lambda2^2 / (Delta sigma2), 2 pi lambda2^2 /
        (lambda4 sigma2))``, the squares of the coefficients a1, a2 and c1
        of the height law of local maxima (:mod:`stem1d.palm`), in Python
        floats."""
        return (
            self.lambda4 / self.delta,
            self.lambda2**2 / (self.delta * self.sigma2),
            2.0 * math.pi * self.lambda2**2 / (self.lambda4 * self.sigma2),
        )

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def to_json_dict(self) -> dict:
        return {
            "sigma2": self.sigma2,
            "lambda2": self.lambda2,
            "lambda4": self.lambda4,
        }


def closed_form_moments(params: GaussianAcvfParams, gamma: float) -> NoiseMoments:
    """Moments of model noise smoothed by a Gaussian kernel of scale ``gamma``.

    The combined scale is ``xi = sqrt(gamma^2 + nu^2)``; it must be
    positive (unsmoothed white noise has no finite derivative variance).
    """
    if not (gamma >= 0):
        raise ValueError("gamma must be non-negative")
    xi = math.hypot(gamma, params.nu)
    if xi == 0.0:
        raise ValueError("closed-form moments need gamma or nu positive")
    try:
        s2 = params.sigma**2
        return NoiseMoments(
            sigma2=s2 / (2.0 * _SQRT_PI * xi),
            lambda2=s2 / (4.0 * _SQRT_PI * xi**3),
            lambda4=3.0 * s2 / (8.0 * _SQRT_PI * xi**5),
        )
    except OverflowError:  # sigma**2 or a power of xi
        raise ValueError(
            f"closed-form moments overflow: sigma={params.sigma!r}, xi={xi!r}"
        ) from None
    except ZeroDivisionError:  # a power of xi rounds to 0
        raise ValueError(f"closed-form moments underflow: xi={xi!r}") from None


def smoothing_taps(xi: float, dt: float) -> np.ndarray:
    """Sampled filter (1/xi) phi(t/xi) truncated at |t| <= 6 xi.

    These taps are *not* renormalized: together with the sqrt(dt) scaling
    of the driving noise they discretize the underlying stochastic
    integral, so the output variance matches the closed form.
    """
    radius = int(math.ceil(6.0 * xi / dt))
    offsets = np.arange(-radius, radius + 1) * dt
    return np.exp(-0.5 * (offsets / xi) ** 2) / (xi * SQRT_2PI)


def generate_noise(
    params: GaussianAcvfParams,
    gamma: float,
    length: int,
    dt: float,
    seed,
) -> SampledSequence:
    """Sample the model noise smoothed at bandwidth ``gamma``.

    With ``gamma = 0`` and ``nu = 0`` the output is independent
    N(0, sigma^2) samples.  Otherwise white Gaussian noise is driven
    through the sampled filter at scale ``xi = sqrt(gamma^2 + nu^2)``;
    the driving noise extends beyond both ends so every output sample is
    stationary.  The same seed always reproduces the same output, and
    ``sigma`` enters as a pure scale factor.
    """
    return SampledSequence._adopt(noise_rows(params, gamma, length, dt, [seed])[0], dt)


def noise_rows(
    params: GaussianAcvfParams,
    gamma: float,
    length: int,
    dt: float,
    seeds,
) -> np.ndarray:
    """The values of :func:`generate_noise` for each of ``seeds``, one row
    per seed, each row drawn from the stream of
    ``np.random.default_rng(seed)``.  A seed is a non-negative int or a
    tuple of them."""
    if not (gamma >= 0):
        raise ValueError("gamma must be non-negative")
    length = int(length)
    if length <= 0:
        raise ValueError("length must be positive")
    positive_finite("dt", dt)
    xi = math.hypot(gamma, params.nu)
    taps = smoothing_taps(xi, dt) if xi > 0.0 else None
    if taps is not None and length < taps.size:
        raise ValueError(
            f"length {length} is shorter than the smoothing filter ({taps.size} taps)"
        )
    scale = params.sigma * math.sqrt(dt)
    out = np.empty((len(seeds), length))
    bitgen = np.random.PCG64(0)  # reseeded from each key below
    rng = np.random.Generator(bitgen)
    for row, (state, inc) in zip(out, _pcg64_states(seeds)):
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        if taps is None:
            rng.standard_normal(out=row)
            row *= params.sigma
        else:
            driving = rng.standard_normal(length + taps.size - 1)
            np.multiply(scale, np.convolve(driving, taps, mode="valid"), out=row)
    return out


def _key_words(seed) -> list[int]:
    """The 32-bit words, low first, that numpy's SeedSequence hashes for ``seed``."""
    words = []
    for k in seed if isinstance(seed, tuple) else (seed,):
        if not (isinstance(k, (int, np.integer)) and k >= 0):
            raise ValueError(
                f"seed must be a non-negative int or a tuple of them, got {seed!r}"
            )
        k = int(k)
        words.append(k & _MASK32)
        while k := k >> 32:
            words.append(k & _MASK32)
    return words


@functools.lru_cache
def _hash_tables(count: int) -> tuple[np.ndarray, np.ndarray]:
    """What SeedSequence's ``hashmix`` XORs and multiplies by at each call
    (``INIT_A * MULT_A**i`` and the next power at call ``i``) for keys of
    ``count`` words, one ``(4, 1)`` column per pass of :func:`_hash`.  The
    entry for pool word ``s`` in pass ``1 + s`` is unused."""
    d = np.arange(4)
    calls = np.array([d] + [4 + 3 * s + d - (d > s) for s in range(4)]
                     + [16 + 4 * e + d for e in range(count - 4)])
    c = _powers(_INIT_A, _MULT_A, 18 + 4 * max(count - 4, 0))
    return c[calls, np.newaxis], c[calls + 1, np.newaxis]


def _hashmix(x, xor, mult):
    x = x ^ xor
    x *= mult  # uint32 arrays wrap as the C hash does
    x ^= x >> 16
    return x


def _mix(x, y):
    x = x * _MIX_L
    x -= y * _MIX_R
    x ^= x >> 16
    return x


def _hash(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(8, uint32)`` of every key whose
    words are a row of ``words`` (keys of one word count), as 8 rows.
    Pass 0 hashes the first four words (zeros past the key) into the
    pool, pass ``1 + s`` pool word ``s`` into the other three, and each
    later pass one more key word into all four."""
    count = words.shape[1]
    entropy = np.zeros((max(count, 4), len(words)), np.uint32)
    entropy[:count] = words.T
    xor, mult = _hash_tables(count)
    pool = _hashmix(entropy[:4], xor[0], mult[0])
    for s in range(4):
        mixed = _mix(pool, _hashmix(pool[s], xor[1 + s], mult[1 + s]))
        mixed[s] = pool[s]
        pool = mixed
    for i, x in enumerate(entropy[4:], 5):
        pool = _mix(pool, _hashmix(x, xor[i], mult[i]))
    state = np.concatenate([pool, pool]) ^ _STATE_MIX[:8, np.newaxis]
    state *= _STATE_MIX[1:, np.newaxis]
    state ^= state >> 16
    return state


def _pcg64_states(seeds) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``np.random.PCG64(seed)`` for each of ``seeds``:
    the hash runs once over all keys of each word count, then PCG64's
    128-bit seeding step runs on Python ints."""
    words = [_key_words(seed) for seed in seeds]
    out = [None] * len(words)
    for count in set(map(len, words)):
        rows = [i for i, w in enumerate(words) if len(w) == count]
        state = _hash(np.array([words[i] for i in rows], np.uint32))
        # generate_state(4, uint64) pairs the words little-endian, and
        # PCG64 reads (high, low) pairs as 128-bit state and increment
        state = np.ascontiguousarray(state.T, "<u4").view("<u8").tolist()
        for i, (a, b, c, d) in zip(rows, state):
            inc = ((c << 64 | d) << 1 | 1) & _MASK128
            out[i] = (((a << 64 | b) + inc) * _PCG_MULT + inc) & _MASK128, inc
    return out


def model_acvf(params: GaussianAcvfParams, gamma: float, lag) -> np.ndarray:
    """Closed-form autocovariance of the smoothed model noise.  A variance
    that overflows, or a ``4 xi^2`` that overflows or rounds to 0, raises
    ``ValueError``, as in :func:`closed_form_moments`."""
    xi = math.hypot(gamma, params.nu)
    if xi == 0.0:
        raise ValueError("autocovariance requires gamma or nu positive")
    lag = np.asarray(lag, dtype=np.float64)
    try:
        variance = params.sigma**2 / (2.0 * _SQRT_PI * xi)
        width = 4.0 * xi**2
    except OverflowError:  # sigma**2 or xi**2
        variance = width = math.inf
    if variance == math.inf:
        raise ValueError(f"autocovariance overflow: sigma={params.sigma!r}, xi={xi!r}")
    if width == 0.0:
        raise ValueError(f"autocovariance underflow: xi={xi!r}")
    return variance * np.exp(-(lag**2) / width)


def estimate_moments(
    runs: SampledSequence | np.ndarray,
    zero_mean: bool = False,
    dt: float | None = None,
    margin: int | None = None,
) -> NoiseMoments | np.ndarray:
    """Empirical moments from calibration runs.

    ``runs`` is one calibration sequence, which carries its own spacing
    and margin, or a 2-D array holding one run per row, every run sampled
    at ``dt`` with ``margin`` (default 0) distorted samples at each end.
    A sequence gives its :class:`NoiseMoments`; a block gives one
    (sigma2, lambda2, lambda4) row per run.

    Uses the sample variance of each run's interior values and of their
    first and second forward differences, scaled by dt^2 and dt^4.  The
    margins are excluded; at least 10 interior samples are required.  A
    run that is not finite or whose moments are not valid
    :class:`NoiseMoments` raises :class:`DegenerateSequenceError`.

    With ``zero_mean=True`` the sample mean is not subtracted.  Centering
    costs about 2*(correlation length)/n in relative bias on strongly
    correlated sequences, so skip it when the mean is known to be zero.
    """
    if isinstance(runs, SampledSequence):
        if dt is not None or margin is not None:
            raise ValueError("a sequence carries its own dt and margin; pass neither")
        row = estimate_moments(runs.values[np.newaxis], zero_mean, runs.dt, runs.margin)
        try:
            return NoiseMoments(*row[0].tolist())
        except ValueError as exc:  # moments that overflow or underflow the law
            raise DegenerateSequenceError(str(exc)) from None
    if np.ndim(runs) != 2:
        raise ValueError(f"runs must be a sequence or a 2-D array, not {np.ndim(runs)}-D")
    if dt is None:
        raise ValueError("an array of runs needs its sample spacing dt")
    n, margin = runs.shape[1], margin or 0
    check_interior(n, margin)
    _check_runs(np.isfinite(runs).all(axis=1), "values must be finite")
    v = runs[:, margin:n - margin]
    # values near the largest doubles, or a dt**4 that underflows to 0,
    # give inf or nan, which the checks below refuse; so do finite moments
    # whose products overflow in delta (inf - inf is nan)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d1 = np.diff(v, axis=1)
        d2 = np.diff(d1, axis=1)
        if zero_mean:
            # np.mean(x * x, axis=1), squaring the differences in place
            squares = (np.square(v), np.square(d1, out=d1), np.square(d2, out=d2))
            moments = np.stack([np.add.reduce(x, axis=1) / x.shape[1] for x in squares], axis=1)
        else:
            moments = np.stack([np.var(x, axis=1, ddof=1) for x in (v, d1, d2)], axis=1)
        moments[:, 1] /= dt**2
        moments[:, 2] /= dt**4
        sigma2, lambda2, lambda4 = moments.T
        delta = sigma2 * lambda4 - lambda2**2
    _check_runs(
        ((moments > 0) & np.isfinite(moments)).all(axis=1),
        "sequence carries no usable variation",
    )
    _check_runs(
        np.isfinite(delta),
        "moments overflow: sigma2 * lambda4 - lambda2^2 is not finite",
    )
    _check_runs(
        delta > 0,
        "moments are incompatible: sigma2 * lambda4 must exceed lambda2^2",
    )
    return moments


def check_interior(samples: int, margin: int) -> None:
    """Refuse fewer than ``MIN_INTERIOR_SAMPLES`` inside a ``margin`` at each end."""
    if samples - 2 * margin < MIN_INTERIOR_SAMPLES:
        raise DegenerateSequenceError(
            f"need at least {MIN_INTERIOR_SAMPLES} interior samples, "
            f"got {max(samples - 2 * margin, 0)}"
        )


def _check_runs(ok: np.ndarray, message: str) -> None:
    """Raise :class:`DegenerateSequenceError` for the first run not ``ok``,
    naming it when the block holds more than one."""
    if not ok.all():
        bad = int(np.flatnonzero(~ok)[0])
        raise DegenerateSequenceError(message if ok.size == 1 else f"run {bad}: {message}")
