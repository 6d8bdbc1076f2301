"""Contagion and stability indices for M4 max-stable random fields.

The package computes extremal dependence indices of moving-maxima random
fields in closed form (exactly, when the pattern weights are rational),
simulates such fields reproducibly, and estimates the same indices from
replicated data through rank-based extremal coefficient estimates.
"""

from ._version import __version__
from .dependence import (
    DependenceSummary,
    contagion_index,
    contagion_index_region,
    exponent_value,
    extremal_coefficient,
    extremal_coefficient_matrix,
    fragility_index,
    multivariate_tail_dependence,
    pairwise_tail_dependence,
    stability_bounds,
    stability_index,
    summarize,
)
from .errors import (
    ArgumentError,
    DegenerateConditioningError,
    DomainError,
    M4Error,
    ParseError,
    SpecValidationError,
    UndefinedConditionalError,
    UnknownStationError,
)
from .estimate import (
    ExtremalCoefficientEstimate,
    StudyResult,
    UniformScores,
    empirical_contagion,
    empirical_stability,
    estimate_contagion,
    estimate_contagion_region,
    estimate_extremal_coefficient,
    estimate_stability,
    estimate_summary,
    monte_carlo_study,
    rank_transform,
    scores_from_matrix,
)
from .lattice import LatticePoint, LatticeRect, Region, neighbors
from .patterns import (
    M4Spec,
    PatternRule,
    ValidationReport,
    dump_spec,
    from_json_dict,
    load_spec,
    preset,
    preset_one_pattern,
    preset_two_pattern,
    to_json_dict,
    validate,
)
from .rng import substream, uniform_block
from .simulate import (
    FieldSample,
    export_sample,
    read_sample_csv,
    simulate_m4,
    write_sample_csv,
)
from .stations import (
    Station,
    StationDataset,
    StationIndicesReport,
    field_sample_to_station_csv,
    ingest_stations,
    station_indices,
)

# the classes and functions bound above, not the submodules that the imports bind too
__all__ = [name for name in dir() if not name.startswith("_") and callable(globals()[name])]
