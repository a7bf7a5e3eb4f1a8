"""Communication-efficient approximate gradient coding.

Structured worker-assignment designs (symmetric-design transposes, Paley
graph adjacency, coset bipartite graphs, random bi-regular graphs), two
randomized encodings plus the repetition baseline, optimal least-squares
decoding, closed-form error bounds with a matching worst-case floor, and
Monte Carlo / training experiments.
"""

from .bounds import (
    BASELINE_BIBD,
    BIBD_UPPER,
    COSET_UPPER,
    DIAG_DOM_UPPER,
    EXPECTED_UPPER,
    LOWER,
    SRG_UPPER,
    BoundReport,
    adversarial_straggler_set,
    baseline_bibd_error,
    bound_bibd,
    bound_coset,
    bound_diag_dominant,
    bound_expected,
    bound_srg,
    closed_form,
    compute_c,
    lower_bound,
    srg_theta,
)
from .decoding import (
    DecodeResult,
    NonStragglerSet,
    build_target,
    decode,
    decode_each,
    reconstruct,
    reconstruct_each,
    split_gradients,
)
from .designs import (
    BI_REGULAR,
    BIBD_TRANSPOSE,
    COSET_BIPARTITE,
    SRG_ADJACENCY,
    AssignmentMatrix,
    BibdParams,
    BiRegularParams,
    CosetParams,
    SrgParams,
    ValidationReport,
    bibd_transpose_from_difference_set,
    biregular_random,
    builtin_difference_sets,
    coset_base_block,
    coset_bipartite,
    coset_is_invertible_base,
    load_difference_set,
    search_planar_difference_set,
    srg_paley,
    validate_bibd,
    validate_design,
    validate_difference_set,
    validate_srg,
)
from .encoders import (
    BASELINE,
    NULLSPACE_HADAMARD,
    RANDOM_DIAGONAL,
    V1_ALL_ONES,
    V1_GAUSSIAN,
    DiagonalDraws,
    DiagonalLaw,
    EncodingMatrix,
    NullSpaceVectors,
    encode_baseline,
    encode_nullspace_hadamard,
    encode_random_diagonal,
    sample_diagonal,
    verify_support,
)
from .errors import (
    CodingError,
    ConfigError,
    ConstructionError,
    FieldError,
    NonFiniteError,
    NumericalError,
    ParameterError,
    ShapeError,
    SingularMatrixError,
)
from .experiments import (
    EXACT,
    Bernoulli,
    DatasetSpec,
    ExperimentResult,
    FixedCount,
    SchemeSpec,
    SweepConfig,
    SweepScheme,
    TrainConfig,
    TrainResult,
    UnbiasednessResult,
    coset_supports_unbiasedness,
    estimate_unbiasedness,
    logistic_loss,
    make_dataset,
    sample_straggler_set,
    simulate_training,
    sweep_error,
)
from .linalg import (
    CERT_COND_MAX,
    QR_COND_MAX,
    RANK_EPS,
    certify_gram,
    circulant_eigenvalues,
    null_space_basis,
    project,
    rank_of,
)

__version__ = "0.1.0"
