"""powertrace: desk-scale simulation and verification of quantum
trace-power estimation.

The package estimates Tr(rho^k O) under purified access by combining
Chebyshev approximations of the power function, an exact
eigenvalue-transform stand-in for the singular-value transform of the
density block encoding, and a Hadamard-test + amplitude-estimation
readout; a generalized swap test provides the sample-access baseline,
and lower-bound constructions make the sample-vs-query separation
runnable. Every estimate ships with the exact dense-matrix oracle value
for self-validation.
"""

from .errors import (
    ConstructionError,
    ContractError,
    PowertraceError,
    ResourceError,
    UnreliableEstimateError,
    ValidationError,
)
from .linalg import (
    DensityMatrix,
    EighResult,
    Observable,
    op_norm,
    trace_power_obs_oracle,
)
from .chebyshev import (
    clenshaw_eval,
    minimal_empirical_degree,
    power_expansion,
    required_degree,
    sup_error_scan,
    truncation_tails,
)
from .blockenc import PurifiedState, halmos_dilate, purify
from .estimator import (
    AE_SUCCESS_PROB,
    EntropyEstimate,
    EstimationReport,
    VdRatioResult,
    estimate_trace_power,
    renyi_entropy,
    tsallis_entropy,
    vd_ratio_stack,
)
from .bounds import (
    DiscriminationInstance,
    HelstromTable,
    HybridBoundTable,
    SwapTestResult,
    discrimination_instance,
    helstrom_experiment,
    hybrid_bound_demo,
    lecam_construction,
    swap_test_estimate,
    swap_test_moments,
)
from .instances import InstanceSpec, make_observable, make_state, pauli_string

__version__ = "0.1.0"

__all__ = [
    "AE_SUCCESS_PROB",
    "ConstructionError",
    "ContractError",
    "DensityMatrix",
    "DiscriminationInstance",
    "EighResult",
    "EntropyEstimate",
    "EstimationReport",
    "HelstromTable",
    "HybridBoundTable",
    "InstanceSpec",
    "Observable",
    "PowertraceError",
    "PurifiedState",
    "ResourceError",
    "SwapTestResult",
    "UnreliableEstimateError",
    "ValidationError",
    "VdRatioResult",
    "clenshaw_eval",
    "discrimination_instance",
    "estimate_trace_power",
    "halmos_dilate",
    "helstrom_experiment",
    "hybrid_bound_demo",
    "lecam_construction",
    "make_observable",
    "make_state",
    "minimal_empirical_degree",
    "op_norm",
    "pauli_string",
    "power_expansion",
    "purify",
    "renyi_entropy",
    "required_degree",
    "sup_error_scan",
    "swap_test_estimate",
    "swap_test_moments",
    "trace_power_obs_oracle",
    "truncation_tails",
    "tsallis_entropy",
    "vd_ratio_stack",
]
