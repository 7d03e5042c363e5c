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
    NumericalError,
    PowertraceError,
    ResourceError,
    UnreliableEstimateError,
    ValidationError,
)
from .linalg import (
    DensityMatrix,
    EighResult,
    Observable,
    eigh,
    fidelity,
    get_qubit_cap,
    kron,
    op_norm,
    partial_trace,
    set_qubit_cap,
    trace_power_obs_oracle,
)
from .chebyshev import (
    ChebyshevPoly,
    TruncationReport,
    clenshaw_eval,
    degree_lower_bound_solve,
    minimal_empirical_degree,
    power_expansion,
    required_degree,
    sup_error_scan,
    truncate,
)
from .blockenc import PurifiedState, halmos_dilate, purify
from .qsvt import QueryLedger, power_block_encoding
from .estimator import (
    AE_SUCCESS_PROB,
    AeOutcome,
    EntropyEstimate,
    EstimationReport,
    VdRatioResult,
    amplitude_estimate,
    estimate_trace_power,
    renyi_entropy,
    tsallis_entropy,
    vd_ratio,
)
from .bounds import (
    BqpInstance,
    DiscriminationInstance,
    HelstromTable,
    HybridBoundTable,
    SwapTestResult,
    bqp_instance,
    cyclic_permutation,
    discrimination_instance,
    helstrom_experiment,
    hybrid_bound_demo,
    lecam_construction,
    swap_test_estimate,
    swap_test_moments,
)
from .instances import InstanceSpec, make_observable, make_state, pauli_string, random_density, random_unitary

__version__ = "0.1.0"

__all__ = [
    "AE_SUCCESS_PROB",
    "AeOutcome",
    "BqpInstance",
    "ChebyshevPoly",
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
    "NumericalError",
    "Observable",
    "PowertraceError",
    "PurifiedState",
    "QueryLedger",
    "ResourceError",
    "SwapTestResult",
    "TruncationReport",
    "UnreliableEstimateError",
    "ValidationError",
    "VdRatioResult",
    "amplitude_estimate",
    "bqp_instance",
    "clenshaw_eval",
    "cyclic_permutation",
    "degree_lower_bound_solve",
    "discrimination_instance",
    "eigh",
    "estimate_trace_power",
    "fidelity",
    "get_qubit_cap",
    "halmos_dilate",
    "helstrom_experiment",
    "hybrid_bound_demo",
    "kron",
    "lecam_construction",
    "make_observable",
    "make_state",
    "minimal_empirical_degree",
    "op_norm",
    "partial_trace",
    "pauli_string",
    "power_block_encoding",
    "power_expansion",
    "purify",
    "random_density",
    "random_unitary",
    "renyi_entropy",
    "required_degree",
    "set_qubit_cap",
    "sup_error_scan",
    "swap_test_estimate",
    "swap_test_moments",
    "trace_power_obs_oracle",
    "truncate",
    "tsallis_entropy",
    "vd_ratio",
]
