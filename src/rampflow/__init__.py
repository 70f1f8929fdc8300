"""Ramp-metering control laboratory: plant models, set-valued estimation,
an exact MILP-based predictive controller, and classical baselines.

The package has no outside users. ``__all__`` lists the plant API for
convenience only and promises no compatibility: a public definition stays
only while the package or its benchmark calls it, apart from the few that
``tests/test_packaging.py`` keeps on purpose.
"""

__version__ = "0.1.0"

from .ctm import (
    AdmissibilityError,
    FreewayParams,
    Observation,
    OutputModel,
    compact_step,
    demand_fn,
    equilibrium_flow,
    equilibrium_uncongested,
    homogeneous_params,
    mainline_outflow,
    measure,
    plant_step,
    ramp_outflow,
    split_state,
)

__all__ = [
    "AdmissibilityError",
    "FreewayParams",
    "Observation",
    "OutputModel",
    "compact_step",
    "demand_fn",
    "equilibrium_flow",
    "equilibrium_uncongested",
    "homogeneous_params",
    "mainline_outflow",
    "measure",
    "plant_step",
    "ramp_outflow",
    "split_state",
    "__version__",
]
