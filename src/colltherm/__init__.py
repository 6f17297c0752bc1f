"""Joint estimation of several bath temperatures through a collisional probe
stream.

A register of thermal probes (one per bath) is visited by a stream of
ancillas; each ancilla collides with every probe in turn, gets rotated
between collisions, and is finally measured.  The package builds the
channels involved, differentiates the resulting states with respect to the
temperature vector, and reports quantum Fisher information matrices together
with two figures of merit against the per-bath thermal benchmark.
"""

from .channels import (
    BathSpec,
    CollisionSpec,
    KrausSet,
    RotationSpec,
    collision_superoperator,
    collision_unitary,
    collision_unitary_qubit,
    collision_unitary_qubit_qutrit,
    kraus_from_collision,
    nbar,
    rotation_superoperator,
    thermal_populations,
    thermal_state,
    thermal_state_dT,
    thermalization_channel,
    thermalization_channel_dT,
)
from .estimation import (
    EstimationReport,
    ParamDerivatives,
    Qfim,
    ThermalFim,
    build_report,
    det_singular_threshold,
    eta_metrics,
    qfim,
    singularity_test,
    sld,
    thermal_fim,
)
from .linalg import (
    DensityMatrix,
    choi_matrix,
    devectorize,
    herm_eig,
    kron,
    vectorize,
)
from .presets import PRESETS, get_preset
from .protocols import (
    MERIT_COLUMNS,
    ProtocolConfig,
    SweepGrid,
    check_scenario,
    evaluate,
    multi_ancilla_correlated,
    multi_ancilla_uncorrelated,
    point,
    scenario_for,
    single_run,
    sweep,
    three_bath_qutrit,
)
from .verify import run_all, run_group

__version__ = "0.1.0"

__all__ = [
    "BathSpec", "CollisionSpec", "KrausSet", "RotationSpec",
    "collision_superoperator", "collision_unitary", "collision_unitary_qubit",
    "collision_unitary_qubit_qutrit", "kraus_from_collision", "nbar",
    "rotation_superoperator", "thermal_populations", "thermal_state",
    "thermal_state_dT", "thermalization_channel", "thermalization_channel_dT",
    "EstimationReport", "ParamDerivatives", "Qfim", "ThermalFim",
    "build_report", "det_singular_threshold", "eta_metrics", "qfim",
    "singularity_test", "sld", "thermal_fim",
    "DensityMatrix", "choi_matrix", "devectorize", "herm_eig", "kron",
    "vectorize",
    "PRESETS", "get_preset",
    "MERIT_COLUMNS", "ProtocolConfig", "SweepGrid", "check_scenario", "evaluate",
    "multi_ancilla_correlated", "multi_ancilla_uncorrelated", "point",
    "scenario_for", "single_run", "sweep", "three_bath_qutrit",
    "run_all", "run_group",
    "__version__",
]
