"""Exact-arithmetic laboratory for self-avoiding walks and height
functions on Cayley graphs and periodic graphs."""

from ._linalg import integer_kernel
from .presentations import (
    Presentation,
    PresentationError,
    choose_ghf,
    coefficient_matrix,
    parse_presentation,
    preset_presentation,
    PRESENTATION_PRESETS,
)
from .graphs import (
    Ball,
    BudgetExceeded,
    GraphError,
    GraphOracle,
    PeriodicGraph,
    PGOracle,
    ball,
    periodic_graph_from_document,
    resolve_model,
)
from .heights import (
    GammaHeight,
    HarmonicSolution,
    HeightConflict,
    HeightError,
    HeightFunction,
    LevelHeight,
    PeriodicHeight,
    RepairExhausted,
    Verification,
    compute_r,
    harmonic_residuals,
    increase_repair,
    repair_document,
    resolve_height,
    solution_space,
    verify,
)
from .saw import (
    BoundsReport,
    BoundsRow,
    CountTable,
    MultiplicativityReport,
    check_multiplicativity,
    count_bridges,
    count_saws,
    mu_bounds,
)
from .locality import (
    IsoRadiusResult,
    ScanRecord,
    ScanReport,
    ball_iso,
    count_agreement,
    iso_radius,
    locality_scan,
)

__version__ = "0.1.0"
