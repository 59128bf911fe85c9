"""Iteration invariants of isolated fixed points of Hamiltonian germs.

The package computes, at desk scale, the invariants attached to an
isolated fixed point of a Hamiltonian diffeomorphism germ and how they
behave under iteration: rotation-quantity and index functions of
symplectic paths, admissible and good iteration orders, generating
functions of close-to-identity maps, local Morse homology over Z2 on
cubical grids, local Floer-type graded ranks with their shift law,
quantitative isolation certificates, and a scenario-driven command line
runner over a corpus of model germs.
"""
from .errors import LocalFloerError
from .symplectic import (
    standard_j,
    vectorfield_j,
    SymplecticMatrix,
    validate_symplectic,
    EigenCluster,
    EigenData,
    spectrum,
    admissible,
    good,
)
from .paths import (
    SymplecticPath,
    rho,
    winding,
    mean_index,
    conley_zehnder,
    IndexReport,
    index_report,
)
from .germs import (
    HamiltonianGerm,
    flow_jacobians,
    monodromy,
    translate,
    concatenate,
    orbit_action,
    FixedPointRecord,
    fixed_point_record,
    find_fixed_points,
    GapTable,
    gap_table,
)
from .fields import Box, SampledField
from .genfun import (
    GermMap,
    OdeGermMap,
    SplineGermMap,
    PsiMap,
    psi,
    GeneratingFunction,
    generating_function,
)
from .cubical import (
    GradedRanks,
    CubicalPair,
    sublevel_pair,
    relative_homology_z2,
    local_morse_homology,
    MorseReport,
    gradient_degree,
)
from .invariants import (
    LocalFloer,
    local_floer,
    PersistenceRow,
    PersistenceReport,
    verify_persistence,
    detect_sdm,
    total_ranks,
)
from .isolation import (
    c_constant_exact,
    periodic_point_search,
    SearchReport,
)
from .corpus import GERMS, FIELDS
from .scenarios import Scenario, load_scenario, run_scenario, emit_plots

__version__ = "0.1.0"

__all__ = [
    "LocalFloerError",
    "standard_j",
    "vectorfield_j",
    "SymplecticMatrix",
    "validate_symplectic",
    "EigenCluster",
    "EigenData",
    "spectrum",
    "admissible",
    "good",
    "SymplecticPath",
    "rho",
    "winding",
    "mean_index",
    "conley_zehnder",
    "IndexReport",
    "index_report",
    "HamiltonianGerm",
    "flow_jacobians",
    "monodromy",
    "translate",
    "concatenate",
    "orbit_action",
    "FixedPointRecord",
    "fixed_point_record",
    "find_fixed_points",
    "GapTable",
    "gap_table",
    "Box",
    "SampledField",
    "GermMap",
    "OdeGermMap",
    "SplineGermMap",
    "PsiMap",
    "psi",
    "GeneratingFunction",
    "generating_function",
    "GradedRanks",
    "CubicalPair",
    "sublevel_pair",
    "relative_homology_z2",
    "local_morse_homology",
    "MorseReport",
    "gradient_degree",
    "LocalFloer",
    "local_floer",
    "PersistenceRow",
    "PersistenceReport",
    "verify_persistence",
    "detect_sdm",
    "total_ranks",
    "c_constant_exact",
    "periodic_point_search",
    "SearchReport",
    "GERMS",
    "FIELDS",
    "Scenario",
    "load_scenario",
    "run_scenario",
    "emit_plots",
    "__version__",
]
