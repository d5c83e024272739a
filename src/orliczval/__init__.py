"""Gauge-function calculus, weighted measures, and moment valuations.

The package builds vector-valued moment valuations over simple
functions against the radially weighted measure, together with the
gauge (Young-function) machinery, the two standard norms, the polytope
operators they classify, and the verification batteries the CLI runs.
"""

from .errors import (
    AccuracyError,
    BracketError,
    CapabilityError,
    ConstructionError,
    DisjointnessError,
    DomainError,
    OrliczvalError,
    WitnessNotFoundError,
)
from .numerics import solve_monotone
from .young import (
    ConjugatePair,
    DensityYoung,
    ExpYoung,
    LogYoung,
    PowerYoung,
    delta2_report,
    limit_report,
    young_from_json,
)
from .regions import (
    Annulus,
    AxisBox,
    OriginBall,
    Region,
    ShiftedBall,
    WeightedMeasure,
    cube_cover,
    estimate_symmetric_difference,
    estimate_weighted_measure,
    symmetric_difference,
    unit_ball_volume,
)
from .polytopes import (
    Polytope,
    cone_hull,
    continuity_constraint_system,
    diagonal_unimodular,
    edge_sum,
    moment,
    planar_valuation,
    random_unimodular,
    shear,
    spatial_valuation,
    visible_span,
    visible_vertices,
)
from .functions import (
    GridFunction,
    RefinedPair,
    SimpleFunction,
    difference,
    lattice_max_min,
    rasterize,
    refine,
)
from .norms import (
    indicator_norm,
    luxemburg_norm,
    modular,
    norm_report,
    orlicz_norm,
)
from .valuations import (
    Composer,
    DivergencePlan,
    OddComposer,
    PolynomialComposer,
    SigmoidComposer,
    TabulatedComposer,
    build_divergence_plan,
    check_cphi,
    check_covariance,
    check_valuation_identity,
    composer_from_json,
    continuity_probe,
    divergent_truncation,
    find_divergence_witnesses,
    psi,
)
from .suites import SUITES

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
