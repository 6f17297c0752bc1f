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
    RotationSpec,
    collision_maps,
    collision_superoperator,
    collision_unitary,
    nbar,
    rotation_superoperator,
    thermal_populations,
    thermal_state,
    thermalization_channel,
)
from .estimation import (
    EstimationReport,
    Qfim,
    QfimStack,
    build_report,
    qfim_stack,
    singularity_test,
    thermal_fim,
)
from .linalg import choi_matrix, herm_eig
from .presets import PRESETS, get_preset
from .protocols import (
    MERIT_COLUMNS,
    ProtocolConfig,
    SweepGrid,
    check_scenario,
    evaluate,
    point,
    single_run,
    sweep,
    sweep_values,
)
from .verify import run_all, run_group

__version__ = "0.1.0"

__all__ = [
    "BathSpec", "RotationSpec", "collision_maps",
    "collision_superoperator", "collision_unitary", "nbar",
    "rotation_superoperator", "thermal_populations", "thermal_state",
    "thermalization_channel",
    "EstimationReport", "Qfim", "QfimStack", "build_report", "qfim_stack",
    "singularity_test", "thermal_fim",
    "choi_matrix", "herm_eig",
    "PRESETS", "get_preset",
    "MERIT_COLUMNS", "ProtocolConfig", "SweepGrid", "check_scenario", "evaluate",
    "point", "single_run", "sweep", "sweep_values",
    "run_all", "run_group",
    "__version__",
]
