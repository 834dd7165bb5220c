"""Numerics for entropic uncertainty relations with quantum memory."""

__version__ = "0.1.0"

from .qstate import (
    CQState,
    DensityMatrix,
    GridWaveFunction,
    POVM,
    partial_trace,
    purify_cq,
    validate,
)
from .entropy import (
    EntropyValue,
    cond_vn_cq,
    max_relative_entropy,
    relative_entropy,
    shannon,
    von_neumann,
)
from .minmax import (
    SDPResult,
    cond_min_entropy_value,
    decoupling_fidelity,
    guessing_probability,
    h_max_cq,
    h_min_cq,
)
from .discretize import (
    ConvergenceTable,
    Partition,
    convergence_ladder,
    discretize_position,
    gaussian_wavefunction,
    momentum_transform,
)
from .overlap import (
    OverlapResult,
    frank_lieb_overlap,
    povm_overlap,
    prolate_overlap,
    prolate_top_eigenfunction,
)
from .gaussian import (
    epr_conditional_entropies,
    epr_gap,
    epr_grid_wavefunction,
    fig2_table,
)
from .verify import (
    CheckReport,
    check_operator_lemmas,
    check_bipartite,
    check_minmax_tripartite,
    check_vn_tripartite,
    gedankenexperiment,
)
from .serialize import StateFormatError, load_state, loads_state, save_state

__all__ = [name for name in dir() if not name.startswith("_")]
