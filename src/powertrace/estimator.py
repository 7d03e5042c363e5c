"""End-to-end estimation of Tr(rho^k O) from purified access.

Pipeline: encode p(rho) O with p a truncated Chebyshev expansion of
x^(k-1) (model error budget eps/2 at trace level), read the overlap out of
a Hadamard-test circuit, and estimate the control-qubit probability with a
simulated phase-estimation grid (amplitude-estimation error budget eps/2
after scale amplification). The final estimator is

    E = alpha_O * (2 P(0) - 1),

with the control probability P(0) = 1/2 + Re Tr(rho p(rho) O) / (2 alpha_O)
for the plain setting and the imaginary part when an extra inverse phase
gate precedes the final Hadamard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockenc import BlockEncoding, PurifiedState
from .errors import ResourceError, UnreliableEstimateError, ValidationError
from .linalg import Observable, get_qubit_cap, trace_power_obs_oracle
from .qsvt import QueryLedger, power_times_obs

AE_SUCCESS_PROB = 8.0 / math.pi ** 2
_MAX_AE_GRID = 2 ** 26


@dataclass(frozen=True)
class HadamardTestResult:
    """Born probability of control outcome 0 for one circuit setting."""

    p_zero: float
    w_setting: str
    circuit_qubits: int


@dataclass(frozen=True)
class AeOutcome:
    """One draw of the simulated amplitude-estimation readout."""

    p_estimate: float
    grid_size_K: int
    raw_outcome_index: int
    within_bound: bool


@dataclass(frozen=True)
class EstimationReport:
    """Everything one estimation run produced, self-validating by design:
    the exact oracle value is always computed and stored alongside."""

    estimate: complex
    oracle_value: complex
    k: int
    eps_requested: float
    eps_poly_budget: float
    eps_ae_budget: float
    ae_queries_K: int
    u_rho_queries_total: int
    seed: int
    mode: str
    alpha_o: float
    poly_degree: int
    model_error: float
    circuit_path: str

    def to_json(self) -> dict:
        return {
            "estimate": {"re": self.estimate.real, "im": self.estimate.imag},
            "oracle_value": {
                "re": self.oracle_value.real,
                "im": self.oracle_value.imag,
            },
            "k": self.k,
            "eps_requested": self.eps_requested,
            "eps_poly_budget": self.eps_poly_budget,
            "eps_ae_budget": self.eps_ae_budget,
            "ae_queries_K": self.ae_queries_K,
            "u_rho_queries_total": self.u_rho_queries_total,
            "seed": self.seed,
            "mode": self.mode,
            "alpha_o": self.alpha_o,
            "poly_degree": self.poly_degree,
            "model_error": self.model_error,
            "circuit_path": self.circuit_path,
        }


def hadamard_test_prob(
    be: BlockEncoding, purification: PurifiedState, w: str = "I"
) -> HadamardTestResult:
    """Exact control-0 probability of the Hadamard-test circuit.

    Registers are ordered (control, encoding ancillas, environment,
    system). The circuit applies H on the control, the dilation controlled
    on it, optionally the inverse phase gate on the control (setting
    ``w="S_dagger"``), and a final H, starting from
    |0>_c |0>_anc |purification>.

    The circuit is simulated on its state vector: the dilation acts on
    (ancillas, system) with the environment idle, so its image of the
    ancilla-zero input is the purification, reshaped to (environment,
    system), contracted with the dilation's ancilla-zero columns. No
    operator on the whole circuit is built. The qubit cap bounds the
    circuit width, 1 + ancillas + environment + system, and is checked
    before anything is allocated.
    """
    if w not in ("I", "S_dagger"):
        raise ValidationError(f'w must be "I" or "S_dagger", got {w!r}')
    if be.dilation is None:
        raise ValidationError("Hadamard test needs an explicit dilation")
    if be.dim != purification.sys_dim:
        raise ValidationError("encoded block does not act on the system register")
    anc_dim = 2 ** be.physical_ancillas
    env_dim = purification.env_dim
    sys_dim = purification.sys_dim
    total_qubits = (
        1
        + be.physical_ancillas
        + purification.env_qubits
        + purification.sys_qubits
    )
    if total_qubits > get_qubit_cap():
        raise ResourceError(
            f"Hadamard-test circuit needs {total_qubits} qubits, cap is "
            f"{get_qubit_cap()}"
        )
    psi = purification.vec.reshape(env_dim, sys_dim)
    # U (|0>_anc x |psi_e>) for every environment row e, ordered (env, anc, sys)
    image = (psi @ be.dilation[:, :sys_dim].T).reshape(env_dim, anc_dim, sys_dim)

    rest_dim = anc_dim * env_dim * sys_dim
    branch = np.zeros(rest_dim, dtype=np.complex128)
    branch[: env_dim * sys_dim] = purification.vec  # ancillas in |0>

    # after H_c and the controlled dilation: (|0>|phi> + |1>U|phi>)/sqrt(2)
    amp0 = branch / math.sqrt(2.0)
    amp1 = image.transpose(1, 0, 2).reshape(rest_dim) / math.sqrt(2.0)
    if w == "S_dagger":
        amp1 = -1j * amp1
    # final H_c: outcome-0 amplitude (amp0 + amp1)/sqrt(2)
    p_zero = float(np.linalg.norm((amp0 + amp1) / math.sqrt(2.0)) ** 2)
    p_zero = min(max(p_zero, 0.0), 1.0)
    return HadamardTestResult(
        p_zero=p_zero, w_setting=w, circuit_qubits=total_qubits
    )


def closed_form_p_zero(be: BlockEncoding, purification: PurifiedState, w: str = "I") -> float:
    """The circuit-free identity P(0) = 1/2 +- Re/Im(Tr(rho block))/(2 alpha)."""
    rho = purification.reduced_state()
    overlap = complex(np.trace(rho.mat @ be.block)) / be.alpha
    part = overlap.real if w == "I" else overlap.imag
    return 0.5 + part / 2.0


def ae_error_bound(p: float, grid_size: int) -> float:
    """Estimation-error bound 2 pi sqrt(p(1-p))/K + pi^2/K^2 of the K-grid readout."""
    return (
        2.0 * math.pi * math.sqrt(max(p * (1.0 - p), 0.0)) / grid_size
        + math.pi ** 2 / grid_size ** 2
    )


def ae_outcome_distribution(p_true: float, grid_size: int) -> np.ndarray:
    """Phase-estimation outcome distribution over the K-point grid.

    The phase theta = arcsin(sqrt(p))/pi appears in both rotation
    directions; each branch contributes the squared Dirichlet kernel
    sin^2(K pi d) / (K^2 sin^2(pi d)) at grid offset d, and the branches
    mix with weight 1/2.
    """
    theta = math.asin(math.sqrt(p_true)) / math.pi
    y = np.arange(grid_size)
    probs = np.zeros(grid_size, dtype=np.float64)
    for branch in (theta, -theta):
        delta = branch - y / grid_size
        sin_small = np.sin(np.pi * delta)
        on_grid = np.abs(sin_small) < 1e-14
        safe = np.where(on_grid, 1.0, sin_small)
        kernel = np.where(
            on_grid,
            1.0,
            (np.sin(grid_size * np.pi * delta) / (grid_size * safe)) ** 2,
        )
        probs += 0.5 * kernel
    total = probs.sum()
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ValidationError(f"outcome distribution sums to {total}, not 1")
    return probs / total


def amplitude_estimate(
    p_true: float, K: int, mode: str = "sampled", rng_seed: int = 0
) -> AeOutcome:
    """Simulate one amplitude-estimation readout of a probability.

    ``sampled`` draws a grid outcome y from the canonical phase-estimation
    distribution and returns sin^2(pi y / K); ``ideal`` returns the true
    probability pushed exactly to the edge of the error bound, for
    deterministic worst-case budget checks.
    """
    if not -1e-12 <= p_true <= 1.0 + 1e-12:
        raise ValidationError(f"probability {p_true} outside [0, 1]")
    p_true = min(max(p_true, 0.0), 1.0)
    if mode not in ("sampled", "ideal"):
        raise ValidationError(f"unknown amplitude-estimation mode {mode!r}")
    bound = ae_error_bound(p_true, K)
    if mode == "ideal":
        if not isinstance(K, (int, np.integer)) or K < 2:
            raise ValidationError(f"grid size must be an integer >= 2, got {K!r}")
        p_est = p_true + bound
        if p_est > 1.0:
            p_est = max(0.0, p_true - bound)
        return AeOutcome(
            p_estimate=p_est,
            grid_size_K=int(K),
            raw_outcome_index=-1,
            within_bound=True,
        )
    if not isinstance(K, (int, np.integer)) or K < 2 or (K & (K - 1)):
        raise ValidationError(
            f"sampled mode needs a power-of-two grid size >= 2, got {K!r}"
        )
    probs = ae_outcome_distribution(p_true, int(K))
    rng = np.random.default_rng(rng_seed)
    y = int(rng.choice(int(K), p=probs))
    p_est = math.sin(math.pi * y / K) ** 2
    return AeOutcome(
        p_estimate=p_est,
        grid_size_K=int(K),
        raw_outcome_index=y,
        within_bound=abs(p_est - p_true) <= bound + 1e-12,
    )


def choose_ae_grid(eps_prime: float) -> int:
    """Smallest power-of-two K with 2 pi / K + pi^2 / K^2 <= eps_prime."""
    if eps_prime <= 0:
        raise ValidationError("probability accuracy must be positive")
    K = 2
    while 2.0 * math.pi / K + math.pi ** 2 / K ** 2 > eps_prime:
        K *= 2
        if K > _MAX_AE_GRID:
            raise ValidationError(
                f"amplitude-estimation grid for accuracy {eps_prime} exceeds "
                f"the supported maximum {_MAX_AE_GRID}"
            )
    return K


def _derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def estimate_trace_power(
    purification: PurifiedState,
    o: Observable,
    k: int,
    eps: float,
    mode: str = "sampled",
    seed: int = 0,
    ae_grid: int | None = None,
) -> EstimationReport:
    """Estimate Tr(rho^k O) to additive error eps from purified access.

    One circuit setting for Hermitian O; non-Hermitian O adds a second,
    phase-shifted setting for the imaginary part (each with the full
    budget). The report splits the error budget (eps/2 model error at trace
    level, eps/2 after amplitude-estimation amplification) and carries the
    exact oracle value and query counts. ``ae_grid`` forces a specific
    readout grid size instead of the smallest one meeting the budget.
    """
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise ValidationError(f"estimation needs integer k >= 2, got {k!r}")
    if not 0.0 < eps <= 1.0:
        raise ValidationError(f"eps must lie in (0, 1], got {eps!r}")
    be, ledger = power_times_obs(purification, o, int(k), eps)
    alpha_o = be.alpha
    eps_prime = eps / (4.0 * alpha_o)
    grid = int(ae_grid) if ae_grid is not None else choose_ae_grid(eps_prime)

    settings = ["I"] if o.hermitian else ["I", "S_dagger"]
    parts = []
    circuit_path = "explicit"
    for idx, setting in enumerate(settings):
        total_qubits = (
            1
            + be.physical_ancillas
            + purification.env_qubits
            + purification.sys_qubits
        )
        if be.dilation is not None and total_qubits <= get_qubit_cap():
            p_true = hadamard_test_prob(be, purification, setting).p_zero
        else:
            circuit_path = "bookkeeping"
            p_true = closed_form_p_zero(be, purification, setting)
        outcome = amplitude_estimate(
            p_true, grid, mode=mode, rng_seed=_derived_seed(seed, idx)
        )
        parts.append(alpha_o * (2.0 * outcome.p_estimate - 1.0))
    estimate = complex(parts[0], parts[1] if len(parts) > 1 else 0.0)

    rho = purification.reduced_state()
    oracle = trace_power_obs_oracle(rho, o, int(k))
    model_error = abs(complex(np.trace(rho.mat @ be.block)) - oracle)
    return EstimationReport(
        estimate=estimate,
        oracle_value=oracle,
        k=int(k),
        eps_requested=float(eps),
        eps_poly_budget=eps / 2.0,
        eps_ae_budget=eps_prime,
        ae_queries_K=grid,
        u_rho_queries_total=ledger.u_rho_queries * grid * len(settings),
        seed=int(seed),
        mode=mode,
        alpha_o=alpha_o,
        poly_degree=ledger.poly_degree,
        model_error=model_error,
        circuit_path=circuit_path,
    )


def _identity_observable(dim: int) -> Observable:
    return Observable(np.eye(dim))


@dataclass(frozen=True)
class EntropyEstimate:
    """Entropy value with the error bound propagated from the trace power."""

    value: float
    error_bound: float
    trace_power: EstimationReport


def renyi_entropy(
    purification: PurifiedState,
    alpha_order: int,
    eps: float,
    mode: str = "sampled",
    seed: int = 0,
) -> EntropyEstimate:
    """Renyi entropy S_alpha = log(Tr rho^alpha) / (1 - alpha), alpha >= 2.

    The entropy error bound comes from the logarithm's Lipschitz constant
    on [max(t - eps, dim^(1-alpha)), 1], the smallest interval the true
    trace power can occupy given the estimate.
    """
    if not isinstance(alpha_order, (int, np.integer)) or alpha_order < 2:
        raise ValidationError(f"entropy order must be an integer >= 2, got {alpha_order!r}")
    report = estimate_trace_power(
        purification,
        _identity_observable(purification.sys_dim),
        int(alpha_order),
        eps,
        mode=mode,
        seed=seed,
    )
    t_est = report.estimate.real
    if t_est - eps <= 0.0:
        raise UnreliableEstimateError(
            f"trace-power estimate {t_est} minus eps {eps} is not positive; "
            "logarithm undefined in this regime"
        )
    floor = float(purification.sys_dim) ** (1 - int(alpha_order))
    # interval must contain the true power (>= max(t - eps, floor)) and the
    # estimate itself, which can dip below the floor
    t_min = min(max(t_est - eps, floor), t_est)
    value = math.log(t_est) / (1 - int(alpha_order))
    error_bound = eps / ((int(alpha_order) - 1) * t_min)
    return EntropyEstimate(value=value, error_bound=error_bound, trace_power=report)


def tsallis_entropy(
    purification: PurifiedState,
    q: int,
    eps: float,
    mode: str = "sampled",
    seed: int = 0,
    standard_form: bool = False,
) -> EntropyEstimate:
    """Tsallis entropy from the trace power, q >= 2.

    Default is the plain ratio Tr(rho^q) / (1 - q); ``standard_form``
    switches to (1 - Tr(rho^q)) / (q - 1). Both are linear in the trace
    power, so the error bound is eps / (q - 1) either way.
    """
    if not isinstance(q, (int, np.integer)) or q < 2:
        raise ValidationError(f"entropy order must be an integer >= 2, got {q!r}")
    report = estimate_trace_power(
        purification,
        _identity_observable(purification.sys_dim),
        int(q),
        eps,
        mode=mode,
        seed=seed,
    )
    t_est = report.estimate.real
    if standard_form:
        value = (1.0 - t_est) / (int(q) - 1)
    else:
        value = t_est / (1 - int(q))
    return EntropyEstimate(
        value=value, error_bound=eps / (int(q) - 1), trace_power=report
    )


@dataclass(frozen=True)
class VdRatioResult:
    """Distilled expectation-value ratio with a conservative error bound."""

    ratio_estimate: float
    error_bound: float
    numerator: EstimationReport
    denominator: EstimationReport


def vd_ratio(
    purification: PurifiedState,
    o: Observable,
    k: int,
    eps_num: float,
    eps_den: float,
    mode: str = "sampled",
    seed: int = 0,
) -> VdRatioResult:
    """Estimate Tr(rho^k O) / Tr(rho^k), the distilled expectation value.

    Error propagation for the ratio follows
    |a/b - a~/b~| <= |a - a~|/b + |a| |b - b~| / b^2, evaluated
    conservatively with b replaced by (b~ - eps_den) and |a| by
    (|a~| + eps_num). Each of the two calls carries its own
    amplitude-estimation success probability, so the joint success is the
    product (no boosting applied here).
    """
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise ValidationError(f"distillation needs integer k >= 2, got {k!r}")
    num = estimate_trace_power(
        purification, o, int(k), eps_num, mode=mode, seed=_derived_seed(seed, 100)
    )
    den = estimate_trace_power(
        purification,
        _identity_observable(purification.sys_dim),
        int(k),
        eps_den,
        mode=mode,
        seed=_derived_seed(seed, 200),
    )
    a_est = num.estimate.real
    b_est = den.estimate.real
    if b_est <= eps_den:
        raise UnreliableEstimateError(
            f"denominator estimate {b_est} is indistinguishable from 0 at "
            f"accuracy {eps_den}"
        )
    b_low = b_est - eps_den
    error_bound = eps_num / b_low + (abs(a_est) + eps_num) * eps_den / b_low ** 2
    return VdRatioResult(
        ratio_estimate=a_est / b_est,
        error_bound=error_bound,
        numerator=num,
        denominator=den,
    )
