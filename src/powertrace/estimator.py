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

P(0) depends on the circuit's unitary only through its encoded block, so
the estimator reads it from that identity (``closed_form_p_zero``) at
every system size and builds no unitary; ``hadamard_test_prob``, the
simulated circuit, is the reference the identity is tested against.

The readout draws the phase-estimation outcome exactly in O(W) time and
memory, W a fixed window, whatever the grid size K: ``amplitude_estimate``
picks one of the two rotation branches, computes that branch's law on the
2W+1 outcomes around its peak and reaches the rest of the grid by
rejection under a 1/distance^2 envelope. ``ae_outcome_distribution``
builds the dense K-point law; it is the reference the draw is tested
against and is not on the estimator's path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockenc import BlockEncoding, PurifiedState
from .errors import ResourceError, UnreliableEstimateError, ValidationError
from .instances import derive_seed
from .linalg import Observable, get_qubit_cap, trace_power_obs_oracle
from .qsvt import power_times_obs

AE_SUCCESS_PROB = 8.0 / math.pi ** 2
_MAX_AE_GRID = 2 ** 26
# half-width of the exactly computed outcome window around a branch's peak
_AE_WINDOW = 2 ** 10


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
        }


def hadamard_test_prob(
    be: BlockEncoding, purification: PurifiedState, w: str = "I"
) -> HadamardTestResult:
    """Exact control-0 probability of the Hadamard-test circuit.

    This is the circuit-level reference that the estimator's identity,
    ``closed_form_p_zero``, is tested against; the estimator itself never
    calls it.

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
    """The circuit-free identity P(0) = 1/2 + Re/Im(Tr(rho block))/(2 alpha).

    Exact for any unitary with ancilla-zero block block/alpha; ``w="I"``
    takes the real part, ``"S_dagger"`` the imaginary part.
    """
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

    This dense O(K) law is the reference the tests check the sampled
    readout against; ``amplitude_estimate`` never builds it.
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


def _check_grid(K, mode: str) -> None:
    """Reject a readout grid before anything is sized from it: an integer
    >= 2, and in ``sampled`` mode also a power of two <= ``_MAX_AE_GRID``."""
    if not isinstance(K, (int, np.integer)) or K < 2:
        raise ValidationError(f"grid size must be an integer >= 2, got {K!r}")
    if mode == "sampled" and (K & (K - 1) or K > _MAX_AE_GRID):
        raise ValidationError(
            f"sampled mode needs a power-of-two grid size <= {_MAX_AE_GRID}, "
            f"got {K!r}"
        )


def _branch_law(frac: float, offsets, grid_size: int) -> np.ndarray:
    """One branch's outcome law at integer offsets j from its nearest grid
    point c, with frac = x - c for the branch peak x = +-theta K:
    sin^2(pi frac) / (K^2 sin^2(pi (frac - j) / K)), and 1 at frac - j = 0.
    Over the K residues of c + j it sums to exactly 1."""
    offsets = np.asarray(offsets)
    if frac == 0.0:  # the peak sits on the grid
        return (offsets == 0).astype(np.float64)
    denom = grid_size * np.sin((math.pi / grid_size) * (frac - offsets))
    return (math.sin(math.pi * frac) / denom) ** 2


def _draw_tail(frac: float, grid_size: int, rng: np.random.Generator) -> int:
    """Offset j, W < |j| on the grid, drawn exactly from the branch law
    restricted to the outcomes outside the window.

    An outcome at |j| = m lies at circular distance >= m - 1/2 from the
    peak, so with sin(pi s / K) >= 2 s / K its law is at most
    sin^2(pi frac) / (4 (m - 1/2)^2). The proposal m = floor((W+1)/U)
    (P(m' >= m) = (W+1)/m) with a fair sign, times the constant
    sin^2(pi frac) (W+1)(W+2) / (4 (W+1/2)^2), lies above that envelope for
    every m >= W+1; offsets past the grid are rejected.
    """
    w = _AE_WINDOW
    scale = math.sin(math.pi * frac) ** 2 * (w + 1) * (w + 2) / (4.0 * (w + 0.5) ** 2)
    while True:
        m = math.floor((w + 1) / (1.0 - rng.random()))
        j = m if rng.random() < 0.5 else -m
        if not -(grid_size - 1 - grid_size // 2) <= j <= grid_size // 2:
            continue
        if rng.random() * scale / (m * (m + 1.0)) <= _branch_law(frac, j, grid_size):
            return j


def _draw_outcome(theta: float, grid_size: int, rng: np.random.Generator) -> int:
    """One grid outcome of the phase-estimation law, in O(_AE_WINDOW).

    A fair branch choice, then that branch's law: computed exactly on the
    window of offsets -W..W around the peak (the whole grid once
    K <= 2W+1) and drawn by rejection outside it. The window mass is
    checked against 1 minus the envelope's tail mass sin^2(pi frac)/(2W).
    """
    peak = (theta if rng.random() < 0.5 else -theta) * grid_size
    centre = round(peak)
    frac = peak - centre
    offsets = np.arange(
        -min(_AE_WINDOW, grid_size // 2),
        min(_AE_WINDOW, grid_size - 1 - grid_size // 2) + 1,
    )
    cdf = np.cumsum(_branch_law(frac, offsets, grid_size))
    mass = float(cdf[-1])
    whole_grid = offsets.size == grid_size
    envelope_tail = 0.0 if whole_grid else math.sin(math.pi * frac) ** 2 / (2 * _AE_WINDOW)
    if not 1.0 - envelope_tail - 1e-9 <= mass <= 1.0 + 1e-9:
        raise ValidationError(
            f"outcome window holds mass {mass}, outside "
            f"[1 - {envelope_tail} - 1e-9, 1 + 1e-9]"
        )
    u = rng.random()
    if whole_grid or u < mass:
        idx = int(np.searchsorted(cdf, u * mass if whole_grid else u, side="right"))
        j = int(offsets[min(idx, offsets.size - 1)])
    else:
        j = _draw_tail(frac, grid_size, rng)
    return (centre + j) % grid_size


def amplitude_estimate(
    p_true: float, K: int, mode: str = "sampled", rng_seed: int = 0
) -> AeOutcome:
    """Simulate one amplitude-estimation readout of a probability.

    ``sampled`` draws a grid outcome y from the canonical phase-estimation
    distribution and returns sin^2(pi y / K). The draw is exact and costs
    O(W) time and memory at any K (window plus rejection-sampled tail, see
    ``_draw_outcome``); the dense law ``ae_outcome_distribution`` is its
    test reference only. ``ideal`` returns the true probability pushed
    exactly to the edge of the error bound, for deterministic worst-case
    budget checks.
    """
    if not -1e-12 <= p_true <= 1.0 + 1e-12:
        raise ValidationError(f"probability {p_true} outside [0, 1]")
    p_true = min(max(p_true, 0.0), 1.0)
    if mode not in ("sampled", "ideal"):
        raise ValidationError(f"unknown amplitude-estimation mode {mode!r}")
    _check_grid(K, mode)
    bound = ae_error_bound(p_true, K)
    if mode == "ideal":
        p_est = p_true + bound
        if p_est > 1.0:
            p_est = max(0.0, p_true - bound)
        return AeOutcome(
            p_estimate=p_est,
            grid_size_K=int(K),
            raw_outcome_index=-1,
            within_bound=True,
        )
    theta = math.asin(math.sqrt(p_true)) / math.pi
    y = _draw_outcome(theta, int(K), np.random.default_rng(rng_seed))
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
    budget). Each setting's control probability P(0) comes from the block
    identity ``closed_form_p_zero``, one exact route at every system size,
    and feeds the amplitude-estimation readout. The report splits the error
    budget (eps/2 model error at trace level, eps/2 after
    amplitude-estimation amplification) and carries the exact oracle value
    and query counts. ``ae_grid`` forces a specific
    readout grid size instead of the smallest one meeting the budget; it is
    checked before any encoding is built.
    """
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise ValidationError(f"estimation needs integer k >= 2, got {k!r}")
    if not 0.0 < eps <= 1.0:
        raise ValidationError(f"eps must lie in (0, 1], got {eps!r}")
    if ae_grid is not None:
        _check_grid(ae_grid, mode)
    be, ledger = power_times_obs(purification, o, int(k), eps)
    alpha_o = be.alpha
    eps_prime = eps / (4.0 * alpha_o)
    grid = int(ae_grid) if ae_grid is not None else choose_ae_grid(eps_prime)

    settings = ["I"] if o.hermitian else ["I", "S_dagger"]
    parts = []
    for idx, setting in enumerate(settings):
        p_true = closed_form_p_zero(be, purification, setting)
        outcome = amplitude_estimate(
            p_true, grid, mode=mode, rng_seed=derive_seed(seed, idx)
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
        purification, o, int(k), eps_num, mode=mode, seed=derive_seed(seed, 100)
    )
    den = estimate_trace_power(
        purification,
        _identity_observable(purification.sys_dim),
        int(k),
        eps_den,
        mode=mode,
        seed=derive_seed(seed, 200),
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
