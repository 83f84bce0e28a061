"""Word-matrix ensembles: permutation-invariant observables, a 5-parameter
Gaussian matrix model with Monte Carlo validation, exact invariant
counting, and a PPMI + ridge-regression corpus pipeline."""

__version__ = "0.1.0"

import os

#: Thread-count variables of the BLAS and OpenMP runtimes numpy may load.
#: Each one that is unset is set to 1 before numpy is first imported, so a
#: process that imports lingmat first runs one thread and its corpus reads
#: may fork workers (`corpus._can_fork`).  A value the caller set is kept.
#: On a 2-CPU host no lingmat stage ran faster with two BLAS threads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var

from .matrix_core import (  # noqa: F401
    Ensemble,
    ParseError,
    PermutationMap,
    WordMatrix,
    antisymmetric_part,
    apply_permutation,
    read_ensemble,
    read_matrix,
    symmetric_part,
    write_ensemble,
    write_matrix,
)
from .invariants import (  # noqa: F401
    CATALOG,
    QUADRATIC_TAGS,
    EnsembleAverages,
    GraphInvariant,
    element_histogram,
    ensemble_averages,
    eval_all,
    eval_graph_invariant,
    eval_invariant,
)
from .counting import (  # noqa: F401
    Partition,
    count_invariants,
    count_invariants_stable,
    enumerate_quadratic_graphs,
    partitions,
)
from .gauss import (  # noqa: F401
    FIT_TAGS,
    HIGHER_TAGS,
    GaussParams,
    GeneralGaussSpec,
    MomentReport,
    NonGaussianAveragesError,
    fit,
    log_partition,
    moment_report,
    predict_moment,
)
from .sampler import (  # noqa: F401
    SampleSpec,
    monte_carlo_check,
    sample,
)
from .regression import (  # noqa: F401
    DivergenceError,
    RegressionConfig,
    SingularSystemError,
    TrainingSet,
    fit_closed_form,
    fit_gradient_descent,
    loss,
)
from .pipeline import PipelineConfig, PipelineError, run_pipeline  # noqa: F401
