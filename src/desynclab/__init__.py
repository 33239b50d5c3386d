"""desynclab: pulse-coupled-oscillator desynchronization as numerical optimization.

Single-channel and joint multichannel TDMA coordination primitives, their
convergence bounds and spectral certificates, a discrete-event protocol
simulator, and a reproducible experiment harness.
"""

from .problems import (
    MultichannelProblem,
    SingleChannelProblem,
    alpha_to_beta,
    as_phase_vector,
    beta_to_alpha,
)
from .objectives import (
    desync_objective,
    gap_residual,
    multichannel_objective,
)
from .bounds import (
    desync_round_bound,
    fast_desync_round_bound,
    solution_distance,
    worst_case_distance_sq,
)
from .spectral import (
    SpectralReport,
    build_iteration_matrix,
    consensus_block_eigenvalues,
    desync_block_eigenvalues,
    momentum_onset,
    spectral_report,
)
from .rounds import (
    ConvergenceReport,
    DesyncState,
    MultichannelState,
    NesterovState,
    desync_round,
    fast_desync_round,
    fast_sync_desync_round,
    momentum_coefficient,
    run_until_convergence,
    sync_desync_round,
)
from .eventsim import (
    NodeState,
    SimConfig,
    Simulation,
    SimulationResult,
    SwapError,
    TraceRecord,
    elect_sync_node,
    run_simulation,
)
from .experiments import (
    ExperimentSpec,
    SpecError,
    SweepResult,
    SweepRow,
    certify_spectra,
    compare_bounds,
    emit_plotdata,
    load_summary,
    parse_spec,
    run_sweep,
    trace_to_csv,
)

__version__ = "0.1.0"
