"""Matrix-free hyperparameter estimation for hierarchical Bayesian linear inverse problems."""

from .operators import (
    DENSE_LIMIT,
    DenseSymOp,
    LinOp,
    MatvecCounter,
    NumericalError,
    ScaledIdentityOp,
    SparseLinOp,
    SymOp,
)
from .probes import canonical_probes, rademacher_probes
from .lanczos import (
    LanczosDecomp,
    lanczos_decompose,
    slq_logdet_batch,
)
from .pcg import PcgResult, pcg_solve
from .nystrom import NystromPreconditioner, nystrom_preconditioner
from .rng import stream
from .kernels import (
    matern_covariance,
    matern_dlengthscale,
    matern_kernel,
    pairwise_distances,
)
from .model import (
    Box,
    CounterLedger,
    HyperPrior,
    ProblemSpec,
    PsiOperator,
    build_psi,
    reconstruct,
    synthesize_data,
)
from .problems import (
    ConvolutionOp,
    SuperresOp,
    deblur_problem,
    identity_problem,
    make_test_problem,
    phantom_image,
    psf_stencil,
    ray_matrix,
    superres_problem,
    tomo_problem,
)
from .objective import (
    ObjectiveEval,
    eval_F_exact,
    eval_F_slq,
    grad_F_exact,
    grad_F_slq,
    psi_preconditioner,
)
from .mm import (
    InnerResult,
    M3cResult,
    OuterRecord,
    Point,
    StochasticSurrogate,
    build_surrogate,
    exact_surrogate,
    exact_surrogate_grad,
    m3c_optimize,
    mm_optimize_exact,
    projected_gradient_min,
)
from .saa import SaaRecord, SaaResult, saa_optimize
from .bounds import (
    M3cSchedule,
    SlqPlan,
    SpectralConstants,
    covering_number_log,
    estimate_spectral_constants,
    lanczos_steps_bound,
    m3c_sample_schedule,
    slq_samples_bound,
    uniform_slq_plan,
)
from .randmat import LogdetMatrix, logdet_test_matrix
from .config import ConfigError
from .harness import majorant_slice, run_experiment, sample_size_report, trace_bench

__version__ = "0.1.0"
