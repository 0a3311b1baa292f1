"""Stochastic-geometry energy-efficiency toolkit for D2D underlay uplinks.

Closed-form STP/ASR/EE metrics (model), a Monte Carlo PPP oracle that
validates them (simulate), a two-phase joint power allocator (solver) and
an experiment harness with a CLI (config, harness, cli).

The oracle is the only module that needs numpy, so it loads on first use:
``SimScenario``, ``StpEstimate`` and ``estimate_links`` are served from
``simulate`` when first asked for, and importing the package, or running
any command but ``validate``, loads neither ``simulate`` nor numpy.
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
from .solver import (
    AllocationResult,
    InfeasibleProblem,
    Iterate,
    IterationTrace,
    PhaseResult,
    SolveOptions,
    baseline_fixed_cell,
    check_feasible,
    optimize_powers,
    solve_cell_phase,
    solve_d2d_phase,
)
from .config import DEFAULTS, ExperimentConfig, build_system, load_config, save_config

__version__ = "0.1.0"

_SIMULATE_NAMES = ("SimScenario", "StpEstimate", "estimate_links")


def __getattr__(name):
    if name in _SIMULATE_NAMES:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_SIMULATE_NAMES])
