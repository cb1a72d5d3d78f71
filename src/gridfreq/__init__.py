"""gridfreq: multi-machine grid frequency dynamics with UFLS and
dispatched-by-design buses."""

from .grid import (BusSpec, GeneratorSpec, GridConfigError, GridModel,
                   IslandingError, LineSpec, build_full_susceptance_matrix,
                   ieee39, load_grid_config, solve_dc_flow)
from .machines import (HydroGovState, HydroParams, SteamGovState, SteamParams,
                       hydro_governor_step, hydro_init, hydro_turbine_step,
                       steam_governor_step, steam_init, steam_turbine_step)
from .profiles import resample_wind, scale_profile
from .dispatch import (ideal_battery_injection, perturb_injection,
                       sample_tracking_error)
from .protection import (UflsRelayState, estimate_frequency, filter_gain,
                         ufls_step)
from .engine import (ContingencyEvent, Scenario, ScenarioError, SimParams,
                     Trajectory, build_profiles, load_scenario, run_ensemble,
                     run_scenario)
from .metrics import (CaseComparison, Metrics, compute_metrics, export_results,
                      format_comparison, load_metrics)

__version__ = "0.1.0"
