"""stablekit: optimal stable approximation of unstable descriptor systems.

Given an LTI continuous-time descriptor system (E, A, B, C, D) whose pencil
has no eigenvalues on the imaginary axis, stablekit computes the closest
stable system in the L2 norm and, via a balance-free construction that
handles the singular-pencil boundary case, an optimal or suboptimal stable
approximant in the L-infinity norm.
"""

from .approximation import (
    ApproxResult,
    Branch,
    GammaSystem,
    construct_gamma_system,
    reduce_singular_svd,
    solve_ap2,
    solve_apinf,
)
from .dsysio import load_dsys, parse_dsys, save_dsys, write_dsys, write_freqresp_csv
from .errors import (
    AtPole,
    AxisEigenvalue,
    ConvergenceFailure,
    DimensionMismatch,
    GammaTooSmall,
    NegativeSpectrum,
    NoUniqueSolution,
    NonFiniteSample,
    NonzeroFeedthrough,
    ParseError,
    SingularPencil,
    SingularTransform,
    SpectrumViolation,
    StablekitError,
    StructureViolation,
)
from .gramians import (
    FrequencyGrid,
    GramianPair,
    HankelData,
    gramians,
    h2_norm_antistable,
    hankel_sigma_max,
    linf_error,
    linf_of,
    rl2_norm,
)
from .kernels import (
    OrderedQz,
    SvdResult,
    pencil_eigendata,
    solve_generalized_sylvester,
    svd,
)
from .synth import random_orthogonal, random_unstable_system
from .systems import (
    AdditiveDecomposition,
    DescriptorSystem,
    SpectrumReport,
    StabilityClass,
    WeierstrassSplit,
    additive_decompose,
    direct_sum,
    empty_system,
    frequency_response,
    negate_output,
    pencil_spectrum,
    rse_transform,
    weierstrass_split,
)

__version__ = "0.1.0"
