"""Peak detection in noisy 1D signals via testing of smoothed local maxima.

The pipeline smooths a sequence with a kernel, takes the local maxima of
the smoothed sequence as candidate peaks, converts their heights to
p-values under the height distribution of maxima of smooth stationary
Gaussian noise, and applies a multiple-testing correction over the
observed candidates.
"""

from .grid import SampledRows, SampledSequence
from .kernels import (
    Kernel,
    KernelFamily,
    convolve,
    estimate_template,
    gaussian_kernel,
    quartic_kernel,
)
from .signals import (
    CauchyShape,
    EpanechnikovShape,
    LaplaceShape,
    PeakSpec,
    RegionSet,
    SignalSpec,
    TriangularShape,
    TruncatedGaussianShape,
    compute_regions,
    synthesize_signal,
)
from .noise import (
    GaussianAcvfParams,
    NoiseMoments,
    closed_form_moments,
    estimate_moments,
    generate_noise,
    model_acvf,
)
from .candidates import CandidateSet
from .palm import (
    candidate_pvalues,
    expected_maxima_density,
    palm_quantile,
    palm_survival,
)
from .multitest import (
    DetectionReport,
    Procedure,
    asymptotic_thresholds,
    run_procedure,
)
from .pipeline import (
    StemResult,
    find_local_maxima,
    stem_detect,
)
from .baselines import (
    height_rule_report,
    pointwise_correct,
    pointwise_pvalues,
    supremum_threshold,
)
from .evaluation import (
    SimulationDesign,
    SweepResult,
    SweepRow,
    TrialOutcome,
    preset_design,
    run_sweep,
    score_trial,
)
from .seriesio import load_kernel_csv, save_kernel_csv
from . import errors

__version__ = "0.1.0"

__all__ = [
    "SampledRows",
    "SampledSequence",
    "Kernel",
    "KernelFamily",
    "convolve",
    "estimate_template",
    "gaussian_kernel",
    "quartic_kernel",
    "save_kernel_csv",
    "load_kernel_csv",
    "CauchyShape",
    "EpanechnikovShape",
    "LaplaceShape",
    "TriangularShape",
    "TruncatedGaussianShape",
    "PeakSpec",
    "RegionSet",
    "SignalSpec",
    "compute_regions",
    "synthesize_signal",
    "GaussianAcvfParams",
    "NoiseMoments",
    "closed_form_moments",
    "estimate_moments",
    "generate_noise",
    "model_acvf",
    "CandidateSet",
    "candidate_pvalues",
    "expected_maxima_density",
    "palm_quantile",
    "palm_survival",
    "DetectionReport",
    "Procedure",
    "asymptotic_thresholds",
    "run_procedure",
    "StemResult",
    "find_local_maxima",
    "stem_detect",
    "height_rule_report",
    "pointwise_correct",
    "pointwise_pvalues",
    "supremum_threshold",
    "SimulationDesign",
    "SweepResult",
    "SweepRow",
    "TrialOutcome",
    "preset_design",
    "run_sweep",
    "score_trial",
    "errors",
]
