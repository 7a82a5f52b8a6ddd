"""CDM load-frequency controller design, WCA tuning, and two-area simulation toolkit."""

__version__ = "0.1.0"

from .cdm import CdmController, CdmGains, controller_to_statespace, synthesize
from .plant import AreaParams, DesignPlant, NonlinearityConfig, TieLine, derive_design_plant, frequency_bias
from .poly import Polynomial, is_hurwitz, lipatov_sufficient, stability_indices, target_poly
from .scenarios import Metrics, TuningObjective, indices, run_case, run_scenario, sensitivity_sweep, transient_measures
from .sim import IntegralSpec, PidSpec, SystemModel, Trajectory, simulate
from .wca import WcaConfig, minimize

__all__ = [
    "__version__",
    "AreaParams",
    "CdmController",
    "CdmGains",
    "DesignPlant",
    "IntegralSpec",
    "Metrics",
    "NonlinearityConfig",
    "PidSpec",
    "Polynomial",
    "SystemModel",
    "TieLine",
    "Trajectory",
    "TuningObjective",
    "WcaConfig",
    "controller_to_statespace",
    "derive_design_plant",
    "frequency_bias",
    "indices",
    "is_hurwitz",
    "lipatov_sufficient",
    "minimize",
    "run_case",
    "run_scenario",
    "sensitivity_sweep",
    "simulate",
    "stability_indices",
    "synthesize",
    "target_poly",
    "transient_measures",
]
