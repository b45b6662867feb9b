"""Coherent information of a pulse-driven Lambda emitter's photon channel.

The package splits into the emitter model and its evaluator
(``lambda_system``: the field and atom spectra of each point, and the
transfer operators that ``validate`` checks), states and channel
diagnostics (``channel``), the entropy of a spectrum (``linalg``), and the
survey layer (``sweep``, ``cli``).
"""

from .channel import (
    ChannelMap,
    ChannelReport,
    DensityMatrix,
    choi_matrix,
    qubit_state,
    validate_channel,
)
from .lambda_system import (
    LambdaParams,
    channel_map,
    coherent_information_at,
)
from .linalg import entropy_bits
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
    "LambdaParams",
    "Optimum",
    "SweepResult",
    "SweepSpec",
    "channel_map",
    "choi_matrix",
    "coherent_information_at",
    "entropy_bits",
    "figure_preset",
    "grid_sweep",
    "maximize_ic",
    "qubit_state",
    "validate_channel",
]
