"""randghep: randomized matrix-free solvers for A x = lambda B x and the GSVD.

Everything runs on the three contracts Ax, Bx and B^{-1}x; no square root of
B is ever formed, and the dense test oracles work on B's own factor.

``RANDGHEP_THREADS`` caps the BLAS thread pools: on import, before numpy is
loaded by the submodules, its value becomes the default of the OpenMP,
OpenBLAS, MKL, numexpr and vecLib thread-count variables (a variable that is
already set is kept).  BLAS reads those variables when numpy loads it, so
the cap has no effect if numpy was imported before randghep.
"""

import os as _os

__version__ = "0.1.0"


def _setup_threads() -> None:
    cap = _os.environ.get("RANDGHEP_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
            _os.environ.setdefault(var, cap)


_setup_threads()

from .borth import BOrthoBasis, chol_qr_w, mgs_w, mgs_w_reorth, pre_chol_qr_w, qr_metrics
from .errors import (
    ErrorEstimate,
    SpectrumReference,
    apriori_bound,
    b_norm,
    b_sine,
    dense_ghep_oracle,
    eigenpair_bounds,
    grow_sketch_until,
    posterior_estimate,
    range_error_exact,
    single_pass_bound,
)
from .ghep import GhepSolution, ghep_nystrom, ghep_single_pass, ghep_two_pass
from .gsvd import GsvdResult, randomized_gsvd
from .kle import (
    Grid1D,
    KleSolution,
    MaternConfig,
    assemble_covariance,
    assemble_mass_1d,
    kle_pencil,
    kle_solve,
    kle_truncation_check,
    matern_kernel,
)
from .operators import (
    ConfigError,
    GhepPencil,
    IllConditionedError,
    LinearMap,
    MatrixFormatError,
    NotPositiveDefiniteError,
    NumericalError,
    SpdOperator,
    UnsupportedFieldError,
    dense_operator,
    dense_spd,
    load_matrix_market,
    save_matrix_market,
    sparse_spd,
)
from .sketch import (
    GENERATOR_ID,
    RangeResult,
    SketchConfig,
    derive_seed,
    gaussian_matrix,
    range_finder_b,
)
