"""Coherent information of a pulse-driven Lambda emitter's photon channel.

The package splits into a generic channel engine (``linalg``, ``channel``),
the physical model of the three-level emitter (``lambda_system``), and the
survey layer (``sweep``, ``cli``).
"""

from .channel import (
    ChannelMap,
    ChannelReport,
    DensityMatrix,
    JointProbabilityTable,
    PurifiedState,
    apply_channel,
    choi_matrix,
    coherent_information,
    entropy_exchange,
    identity_channel,
    joint_output,
    maximally_mixed,
    purify,
    qubit_state,
    shannon_mutual_information,
    validate_channel,
)
from .lambda_system import (
    LambdaParams,
    channel_map,
    closed_form_channel,
    coherent_information_at,
    decay_isometry,
    pulse_propagator,
)
from .linalg import Spectrum, entropy_bits, hermitian_eigensystem, kron
from .sweep import (
    Axis,
    Optimum,
    SweepResult,
    SweepSpec,
    figure_preset,
    grid_sweep,
    maximize_ic,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "ChannelMap",
    "ChannelReport",
    "DensityMatrix",
    "JointProbabilityTable",
    "LambdaParams",
    "Optimum",
    "PurifiedState",
    "Spectrum",
    "SweepResult",
    "SweepSpec",
    "apply_channel",
    "channel_map",
    "choi_matrix",
    "closed_form_channel",
    "coherent_information",
    "coherent_information_at",
    "decay_isometry",
    "entropy_bits",
    "entropy_exchange",
    "figure_preset",
    "grid_sweep",
    "hermitian_eigensystem",
    "identity_channel",
    "joint_output",
    "kron",
    "maximally_mixed",
    "maximize_ic",
    "pulse_propagator",
    "purify",
    "qubit_state",
    "shannon_mutual_information",
    "validate_channel",
]
