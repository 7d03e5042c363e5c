"""End-to-end estimation of Tr(rho^k O) from purified access.

Pipeline: transform the density block encoding by p, a truncated
Chebyshev expansion of x^(k-1) (model error budget eps/2 at trace level),
multiply by the observable's (max(1, ||O||), 1) encoding, read the overlap
out of a Hadamard-test circuit, and estimate the control-qubit probability
with a simulated phase-estimation grid (amplitude-estimation error budget
eps/2 after scale amplification). The final estimator is

    E = alpha_O * (2 P(0) - 1),

with the control probability P(0) = 1/2 + Re Tr(rho p(rho) O) / (2 alpha_O)
for the plain setting and the imaginary part when an extra inverse phase
gate precedes the final Hadamard.

P(0) depends on the circuit only through its encoded block p(rho) O /
alpha_O, and p(rho) is diagonal in rho's eigenbasis (l, V), so the overlap
is the spectral sum

    Tr(rho p(rho) O) = sum_i l_i p(l_i) (V^dag O V)_ii,

read from the spectrum of the state the purified access carries and one
O V product. No d x d block and no purification vector is built. For a
stack of R states, one per record, ``estimate_stack`` runs the transform,
the products, the sums, the oracle and the readout once over the record
axis; ``estimate_trace_power`` is its one-record case, and
``vd_ratio_stack`` makes two of its calls.

``_readouts`` is the one route from a draw's (P(0), K) to its estimate.
``ideal`` returns P(0) pushed exactly to the edge of the error bound, a
deterministic worst case for budget checks. ``sampled`` draws the
phase-estimation outcome y exactly in O(log K) time and O(1) memory on a
K = 2^t point grid, as the circuit produces it, and returns
sin^2(pi y / K): ``_draw_outcome`` picks one of the two rotation branches
with a fair coin, then measures the t counting qubits one at a time (the
semiclassical inverse QFT), each bit from a Bernoulli law set by the
phase and the bits already drawn, all 1 + t uniforms from one call.
Setting j of the record seeded s reads ``default_rng(derive_seed(s, j))``.
A stack of ``STACK_SEEDS`` or more sampled draws hashes its seeds as
arrays (``instances.derive_seeds``, ``instances.generators``) and decides
each bit for all its draws at once, to the same outcomes (``_draw_outcomes``).

The simulated Hadamard-test circuit, the block identity
``closed_form_p_zero`` and the dense K-point outcome law that these are
tested against are in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockenc import PurifiedState
from .errors import UnreliableEstimateError, ValidationError
from .instances import STACK_SEEDS, derive_seeds, generators, shared_observable
from .linalg import Observable, trace_power_obs_oracles
from .qsvt import transform_spectra

AE_SUCCESS_PROB = 8.0 / math.pi ** 2
_MAX_AE_GRID = 2 ** 26


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
        out = dict(vars(self))
        for key in ("estimate", "oracle_value"):
            out[key] = {"re": out[key].real, "im": out[key].imag}
        return out


def _power_overlap(
    purification: PurifiedState, o: Observable, ks: list, eps: float
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The Hadamard test's overlap Tr(rho p(rho) O), alpha_O and p's degree
    for each of the R states of ``purification``, with ``ks`` their powers
    and ``o`` one observable or R, a pair ``trace_power_obs_oracles`` accepts.

    p approximates x^(k-1) to eps / (2 ||O||), so the trace-level model
    error stays below eps / 2, and alpha_O = max(1, ||O||): never below
    the operator norm, and never below 1 so that O / alpha_O stays a
    contraction for tiny observables. The overlap is
    sum_i l_i p(l_i) (V^dag O V)_ii over rho's cached spectrum (l, V). The
    diagonal is summed over column blocks of at most 2^16 entries, so O V
    is the one d x d temporary per state (d <= 256 is one block).
    """
    rho, dim = purification.state, purification.state.dim
    w, v = rho.spectrum()
    w, v = w.reshape(-1, dim), v.reshape(-1, dim, dim)
    norms = np.full(rho.mat.shape[:-2], o.op_norm).ravel().tolist()
    if min(norms) <= 0.0:
        raise ValidationError("observable must be nonzero")
    p_w, degrees = transform_spectra(w, ks, [min(1.0, eps / (2.0 * norm)) for norm in norms])
    ov, step = o.mat @ v, max(1, 2 ** 16 // dim)
    blocks = [  # (V^dag O V)_ii
        (v[..., j:j + step].conj() * ov[..., j:j + step]).sum(axis=-2) for j in range(0, dim, step)
    ]
    o_diag = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=-1)
    return (w * p_w * o_diag).sum(axis=-1), np.array([max(1.0, norm) for norm in norms]), degrees


def _p_zero(overlap: complex, w: str) -> float:
    part = overlap.real if w == "I" else overlap.imag
    return 0.5 + part / 2.0


def ae_error_bound(p: float, grid_size: int) -> float:
    """Estimation-error bound 2 pi sqrt(p(1-p))/K + pi^2/K^2 of the K-grid readout."""
    return (
        2.0 * math.pi * math.sqrt(max(p * (1.0 - p), 0.0)) / grid_size
        + math.pi ** 2 / grid_size ** 2
    )


def _bit_probability(phi: float, t: int, m: int, low: int) -> float:
    """P(y_m = 1) for bit m of the t-qubit phase-estimation outcome y, given
    its lower bits low = y mod 2^m: sin^2(pi (2^(t-1-m) phi - low / 2^(m+1))).

    The phase is reduced mod 1 before ``sin``; scaling by a power of two
    is exact, so the bit keeps full precision at every grid size.
    """
    x = (math.ldexp(phi, t - 1 - m) % 1.0 - math.ldexp(low, -(m + 1))) % 1.0
    return math.sin(math.pi * x) ** 2


def _draw_outcome(theta: float, grid_size: int, rng: np.random.Generator) -> int:
    """One outcome y of the K = 2^t point phase-estimation law, in O(t).

    A fair coin picks the branch phi = +-theta. Before the inverse QFT the
    counting register is the product state of (|0> + e^(2 pi i 2^j phi)
    |1>) / sqrt(2), so measuring it one qubit at a time (the semiclassical
    inverse QFT of Griffiths and Niu) draws y bit by bit, least significant
    first, each bit from ``_bit_probability``. The product of these
    Bernoulli laws telescopes (sin 2x = 2 sin x cos x) to the Fejer law
    sin^2(pi K d) / (K^2 sin^2(pi d)), d = phi - y / K, so the draw is
    exact. It takes 1 + t uniforms from one ``rng.random`` call, then draws
    the bits on Python floats with ``math.sin``.
    """
    t = grid_size.bit_length() - 1
    coin, *uniforms = rng.random(1 + t).tolist()
    phi = theta if coin < 0.5 else -theta
    y = 0
    for m, u in enumerate(uniforms):
        if u < _bit_probability(phi, t, m, y):
            y += 1 << m
    return y


def _draw_outcomes(thetas: np.ndarray, grid_size: int, uniforms: np.ndarray) -> np.ndarray:
    """``_draw_outcome`` of each of ``thetas`` from its row of 1 + t ``uniforms``, a bit for all rows at
    once. ``np.sin`` may round apart from ``math.sin``, so a bit whose uniform lies within 2^-40 of its
    array probability is decided again by ``_bit_probability``: each outcome is the scalar draw's."""
    t = grid_size.bit_length() - 1
    phi, y = np.where(uniforms[:, 0] < 0.5, thetas, -thetas), np.zeros(len(thetas))
    for m in range(t):
        u = uniforms[:, 1 + m]
        p = np.sin(np.pi * ((np.ldexp(phi, t - 1 - m) % 1.0 - np.ldexp(y, -(m + 1))) % 1.0)) ** 2
        bit = u < p
        for i in np.flatnonzero(np.abs(u - p) < 2.0 ** -40).tolist():
            bit[i] = u[i] < _bit_probability(float(phi[i]), t, m, int(y[i]))
        y += bit * 2.0 ** m
    return y


def _checked_probability(p_true: float) -> float:
    if not -1e-12 <= p_true <= 1.0 + 1e-12:
        raise ValidationError(f"probability {p_true} outside [0, 1]")
    return min(max(p_true, 0.0), 1.0)


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


def _readouts(draws: list, mode: str, seeds: list, settings: int) -> list[float]:
    """The estimate of each (P(0), K) of ``draws``, ``settings`` per record of ``seeds`` (record-major),
    each P(0) checked once. ``ideal`` returns p + b, b = ``ae_error_bound(p, K)``, or max(0, p - b) where
    p + b passes 1, and draws nothing. ``sampled`` returns sin^2(pi y / K) for an outcome y of the phase
    asin(sqrt(p)) / pi, drawn in O(log K) time and O(1) memory; setting j of the record seeded s reads
    ``default_rng(derive_seed(s, j))``. A stack of ``STACK_SEEDS`` or more draws on one grid draws its
    outcomes by ``_draw_outcomes``, any other by ``_draw_outcome``, to the same y."""
    ps, grids = [_checked_probability(p) for p, _ in draws], [grid for _, grid in draws]
    if mode == "ideal":
        edges = [(p, ae_error_bound(p, grid)) for p, grid in zip(ps, grids)]
        return [p + b if p + b <= 1.0 else max(0.0, p - b) for p, b in edges]
    masters = [seed for seed in seeds for _ in range(settings)]
    rngs = generators(derive_seeds(masters, [*range(settings)] * len(seeds)))
    thetas = [math.asin(math.sqrt(p)) / math.pi for p in ps]
    if len(draws) < STACK_SEEDS or len(set(grids)) > 1:
        ys = [_draw_outcome(theta, grid, rng) for theta, grid, rng in zip(thetas, grids, rngs)]
    else:
        uniforms = np.empty((len(draws), grids[0].bit_length()))
        for row, rng in zip(uniforms, rngs):
            rng.random(out=row)
        ys = _draw_outcomes(np.array(thetas), grids[0], uniforms).tolist()
    return [math.sin(math.pi * y / grid) ** 2 for y, grid in zip(ys, grids)]


def estimate_stack(purification: PurifiedState, o: Observable, ks: list, eps: float, seeds: list,
                   mode: str = "sampled") -> list[EstimationReport]:
    """One ``estimate_trace_power`` report per record of a stack (R, d, d) of
    states, with ``o`` one observable or R, and ``ks`` and ``seeds`` the R
    powers and readout seeds. Each report equals its record's alone."""
    if len(seeds) != len(ks) or not all(isinstance(k, (int, np.integer)) and k >= 2 for k in ks):
        raise ValidationError(f"estimation needs integers k >= 2, one per seed, got k={ks!r}")
    ks = [int(k) for k in ks]
    if not 0.0 < eps <= 1.0:
        raise ValidationError(f"eps must lie in (0, 1], got {eps!r}")
    if mode not in ("sampled", "ideal"):
        raise ValidationError(f"unknown amplitude-estimation mode {mode!r}")
    oracles = trace_power_obs_oracles(purification.state, o, ks)  # also checks the stacks pair up
    overlaps, alphas, degrees = _power_overlap(purification, o, ks, eps)
    settings = ["I"] if o.hermitian else ["I", "S_dagger"]
    reports = []
    grids = {alpha_o: choose_ae_grid(eps / (4.0 * alpha_o)) for alpha_o in set(alphas.tolist())}
    draws = [(_p_zero(overlap / alpha_o, setting), grids[alpha_o])
             for overlap, alpha_o in zip(overlaps.tolist(), alphas.tolist()) for setting in settings]
    p_estimates = iter(_readouts(draws, mode, seeds, len(settings)))
    for overlap, alpha_o, degree, oracle, k_i, seed in zip(
        overlaps.tolist(), alphas.tolist(), degrees, oracles, ks, seeds, strict=True
    ):
        eps_prime, grid = eps / (4.0 * alpha_o), grids[alpha_o]
        parts = [alpha_o * (2.0 * next(p_estimates) - 1.0) for _ in settings]
        # each degree of p applies the density block encoding: two purification-unitary queries
        reports.append(EstimationReport(
            estimate=complex(parts[0], parts[1] if len(parts) > 1 else 0.0), oracle_value=oracle,
            k=k_i, eps_requested=float(eps), eps_poly_budget=eps / 2.0, eps_ae_budget=eps_prime,
            ae_queries_K=grid, u_rho_queries_total=2 * degree * grid * len(settings),
            seed=int(seed), mode=mode, alpha_o=alpha_o, poly_degree=degree,
            model_error=abs(overlap - oracle),
        ))
    return reports


def estimate_trace_power(
    purification: PurifiedState,
    o: Observable,
    k: int,
    eps: float,
    mode: str = "sampled",
    seed: int = 0,
) -> EstimationReport:
    """Estimate Tr(rho^k O) to additive error eps from purified access.

    One circuit setting for Hermitian O; non-Hermitian O adds a second,
    phase-shifted setting for the imaginary part (each with the full
    budget). Each setting's control probability P(0) comes from the
    overlap Tr(rho p(rho) O), one spectral sum over rho's cached
    eigenbasis at every system size, and feeds the amplitude-estimation
    readout. The report splits the error budget (eps/2 model error at
    trace level, eps/2 after amplitude-estimation amplification) and
    carries the exact oracle value and query counts. The readout grid is
    the smallest one meeting the amplitude-estimation budget, and ``mode``
    is checked before the overlap is computed. The overlap serves every
    setting and the trace-level model error.
    """
    return estimate_stack(purification, o, [k], eps, [seed], mode)[0]


def _trace_powers(purification: PurifiedState, ks: list, eps: float, seeds: list, mode: str) -> list:
    """The estimates of Tr(rho^k): O is the shared identity observable."""
    identity = shared_observable("identity", purification.state.qubits)
    return estimate_stack(purification, identity, ks, eps, seeds, mode)


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
    report = _trace_powers(purification, [alpha_order], eps, [seed], mode)[0]
    t_est, alpha = report.estimate.real, report.k
    if t_est - eps <= 0.0:
        raise UnreliableEstimateError(
            f"trace-power estimate {t_est} minus eps {eps} is not positive; "
            "logarithm undefined in this regime"
        )
    floor = float(purification.state.dim) ** (1 - alpha)
    # interval must contain the true power (>= max(t - eps, floor)) and the
    # estimate itself, which can dip below the floor
    t_min = min(max(t_est - eps, floor), t_est)
    value = math.log(t_est) / (1 - alpha)
    error_bound = eps / ((alpha - 1) * t_min)
    return EntropyEstimate(value=value, error_bound=error_bound, trace_power=report)


def tsallis_entropy(
    purification: PurifiedState,
    q: int,
    eps: float,
    mode: str = "sampled",
    seed: int = 0,
) -> EntropyEstimate:
    """Tsallis entropy from the trace power, q >= 2, in the printed form
    Tr(rho^q) / (1 - q). It is linear in the trace power, so the error
    bound is eps / (q - 1).
    """
    report = _trace_powers(purification, [q], eps, [seed], mode)[0]
    return EntropyEstimate(
        value=report.estimate.real / (1 - report.k),
        error_bound=eps / (report.k - 1),
        trace_power=report,
    )


@dataclass(frozen=True)
class VdRatioResult:
    """Distilled expectation-value ratio with a conservative error bound."""

    ratio_estimate: float
    error_bound: float
    numerator: EstimationReport
    denominator: EstimationReport


def vd_ratio_stack(purification: PurifiedState, o: Observable, k: int, eps: float, seeds: list,
                   mode: str = "sampled") -> list[VdRatioResult]:
    """Estimate Tr(rho^k O) / Tr(rho^k), the distilled expectation value, for
    each record of a stack (one per seed) from two ``estimate_stack`` calls,
    each half to additive error ``eps``. The ratio's bound
    |a/b - a~/b~| <= |a - a~|/b + |a| |b - b~| / b^2 is evaluated with b
    replaced by (b~ - eps) and |a| by (|a~| + eps); a record whose b~ is at
    most eps is refused alone, with nan for both.
    Each estimate carries its own amplitude-estimation success probability,
    so the joint success is their product (no boosting applied here)."""
    ks = [k] * len(seeds)
    nums = estimate_stack(purification, o, ks, eps, derive_seeds(seeds, [100] * len(seeds)), mode)
    dens = _trace_powers(purification, ks, eps, derive_seeds(seeds, [200] * len(seeds)), mode)
    results = []
    for num, den in zip(nums, dens, strict=True):
        a_est, b_est = num.estimate.real, den.estimate.real
        if b_est <= eps:
            results.append(VdRatioResult(math.nan, math.nan, num, den))
            continue
        b_low = b_est - eps
        error_bound = eps / b_low + (abs(a_est) + eps) * eps / b_low ** 2
        results.append(VdRatioResult(a_est / b_est, error_bound, num, den))
    return results
