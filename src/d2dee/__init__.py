"""Stochastic-geometry energy-efficiency toolkit for D2D underlay uplinks.

Closed-form STP/ASR/EE metrics (model), a Monte Carlo PPP oracle that
validates them (simulate), a two-phase joint power allocator (solver) and
an experiment harness with a CLI (config, harness, cli).
"""

from .model import (
    BandParams,
    MetricsReport,
    PowerAllocation,
    SystemParams,
    asr,
    ee_per_band,
    gamma_product,
    interference_coeff,
    metrics,
    stp_cell,
    stp_d2d,
)
from .simulate import SimScenario, StpEstimate, estimate_links
from .solver import (
    AllocationResult,
    InfeasibleProblem,
    IterationTrace,
    SolveOptions,
    baseline_fixed_cell,
    check_feasible,
    curvature_interval,
    optimize_powers,
    solve_cell_phase,
    solve_d2d_phase,
    x_from_powers,
)
from .config import DEFAULTS, ExperimentConfig, build_system, load_config, save_config

__version__ = "0.1.0"
