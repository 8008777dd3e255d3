"""uqgeom: geometric shape fitting on uncertain and indecisive point sets.

Computes complete output distributions (quantizations) of shape-fitting
measures over uncertain inputs, by three routes:

* a randomized sampling engine with an everywhere-epsilon guarantee,
* a deterministic exact engine for LP-type measures on indecisive points,
* a discretization pipeline turning continuous distributions into
  indecisive approximations the exact engine can consume.

Shape-inclusion-probability (SIP) fields, alpha-kernel coresets, raster and
isoline export, and a CLI round out the toolkit.
"""

from .exact import (
    BasisRecord,
    ConservationError,
    ExactDistribution,
    brute_force_distribution,
    deterministic_sip,
    distributions_match,
    enumerate_potential_bases,
    exact_distribution,
)
from .discretize import (
    LatticeSample,
    discretize_for_measure,
    lattice_eps_sample,
)
from .harness import (
    CylinderConfig,
    ExperimentConfig,
    FitResult,
    cylinder_uncertain_set,
    fit_sample_constant,
    run_deviation_experiment,
)
from .isolines import extract_isolines, isolines_svg
from .measures import (
    Basis,
    BasisMember,
    MeasureId,
    NotLPTypeError,
    combinatorial_dimension,
    evaluate,
    tolerance,
)
from .model import (
    ContinuousUncertainSet,
    GaussianPoint,
    IndecisivePoint,
    IndecisivePointSet,
    PointMassPoint,
    ResourceCapError,
    UniformDiskPoint,
    ValidationError,
    canonical_jitter,
    load_point_set,
    sample_support,
    save_point_set,
)
from .montecarlo import (
    SampleBudget,
    alpha_kernel,
    build_eda_kernel,
    build_kvariate_quantization,
    build_quantization,
    build_random_sip,
    query_eda_kernel,
    trial_rng,
)
from .quantize import (
    Quantization1D,
    QuantizationKD,
    eval_cdf,
    eval_dominance,
    max_deviation,
    quantization_to_csv,
    simplify,
)
from .sip import Raster, SipField, rasterize_sip, write_pgm

__version__ = "0.1.0"
