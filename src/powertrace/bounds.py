"""Sample-access baseline and runnable lower-bound constructions.

The generalized swap test reads Tr(rho^k O) out of k state copies through
the identity Tr(P_k rho^(x k) (O x I)) = Tr(rho^k O) with P_k the cyclic
permutation of the copies (``tests/reference.py`` builds it for the
tests). The sampled test needs only the control and first-copy state
after the controlled cycle, (1/2) [[rho, rho^k], [rho^k, rho]]: its
off-diagonal block is Tr_{2..k}(P_k rho^(x k)) = rho^k. Both blocks are
diagonal in rho's eigenbasis, so the exact outcome law is read from rho's
and O's cached spectra at every k, without forming rho^k or P_k, and the
shots are one multinomial draw of counts over it: O(d) at any shot count.
The remaining constructions turn the estimation task into discrimination
problems: a two-state instance whose optimal discrimination success is
governed by fidelity decay, a two-coin instance governed by the Bernoulli
KL divergence, and a hybrid-argument pair of dilations whose
distinguishability grows linearly in circuit queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockenc import halmos_dilate
from .errors import ConstructionError, ValidationError
from .linalg import DensityMatrix, Observable, op_norm, trace_power_obs_oracle


@dataclass(frozen=True)
class DiscriminationInstance:
    """Two-state instance whose trace powers differ by 1 - (1 - eps')^k."""

    rho0: DensityMatrix
    rho1: DensityMatrix
    obs: Observable
    eps_prime: float
    k: int

    @property
    def gap(self) -> float:
        return 1.0 - (1.0 - self.eps_prime) ** self.k


def discrimination_instance(k: int, eps_prime: float) -> DiscriminationInstance:
    """The one-qubit pair |0><0| vs (1-eps')|0><0| + eps'|1><1| with O = |0><0|."""
    if not 0.0 < eps_prime < 1.0:
        raise ValidationError(f"eps' must lie in (0, 1), got {eps_prime!r}")
    rho0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    rho1 = DensityMatrix(np.diag([1.0 - eps_prime, eps_prime]).astype(complex))
    obs = Observable(np.diag([1.0, 0.0]).astype(complex))
    return DiscriminationInstance(
        rho0=rho0, rho1=rho1, obs=obs, eps_prime=eps_prime, k=int(k)
    )


def swap_test_moments(rho: DensityMatrix, o: Observable, k: int) -> tuple[float, float]:
    """Exact per-shot mean and variance of the generalized swap test.

    Mean is Tr(rho^k O); the second moment collapses to Tr(rho O^2)
    because the cyclic permutation fixes identical copies.
    """
    mean = trace_power_obs_oracle(rho, o, k).real
    second = float(np.trace(rho.mat @ o.mat @ o.mat).real)
    return mean, max(second - mean ** 2, 0.0)


@dataclass(frozen=True)
class SwapTestResult:
    """Shot-sampled estimate of Tr(rho^k O) from k-copy measurements."""

    mean: float
    stderr: float
    copies_used: int
    mode: str


def _swap_test_outcome_table(
    rho: DensityMatrix, o: Observable, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome values and probabilities of measuring (X on the control) x
    (O on the first copy) after the controlled-cycle circuit.

    The control and first-copy state after the circuit is
    (1/2) [[rho, rho^k], [rho^k, rho]], since Tr_{2..k}(P rho^(x k)) = rho^k
    for the cyclic permutation P. With rho = V diag(w) V^dag and
    C = V^dag V_O over O's eigenvectors, outcome +-o_j has probability
    (1/2) sum_i (w_i +- w_i^k) |C_ij|^2, read from the two cached spectra
    at any k.
    """
    w, v = rho.spectrum()
    w_o, v_o = o.spectrum()
    weights = np.abs(v.conj().T @ v_o) ** 2  # |C_ij|^2
    w_k = w ** k
    # w^k <= w on [0, 1]; an eigenvalue above 1 within the trace tolerance is clipped
    probs = 0.5 * np.concatenate(((w + w_k) @ weights, np.maximum(w - w_k, 0.0) @ weights))
    return np.concatenate((w_o, -w_o)), probs / probs.sum()


def swap_test_estimate(
    rho: DensityMatrix, o: Observable, k: int, shots: int, seed: int = 0
) -> SwapTestResult:
    """Estimate Tr(rho^k O) by sampling the generalized swap test.

    The shots are one multinomial draw of counts over the exact outcome law
    of the (n*k + 1)-qubit circuit (``_swap_test_outcome_table``, closed
    form at any k); the mean and ddof=1 stderr read only the 2d counts, so
    the draw is O(d) at any shot count below 2^63. ``mode`` is always "exact".
    """
    if not isinstance(shots, (int, np.integer)) or not 2 <= shots < 2 ** 63:
        raise ValidationError(f"shots must be an integer in [2, 2^63), got {shots!r}")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValidationError(f"copy order k must be a positive integer, got {k!r}")
    if not o.hermitian:
        raise ValidationError("swap-test readout needs a Hermitian observable")
    if rho.dim != o.dim:
        raise ValidationError("state and observable dimensions differ")
    rng = np.random.default_rng(seed)
    values, probs = _swap_test_outcome_table(rho, o, int(k))
    counts = rng.multinomial(int(shots), probs)
    mean_hat = float(counts @ values / shots)
    stderr = math.sqrt(counts @ (values - mean_hat) ** 2 / (shots - 1) / shots)
    return SwapTestResult(
        mean=mean_hat,
        stderr=stderr,
        copies_used=int(k) * int(shots),
        mode="exact",
    )


@dataclass(frozen=True)
class HelstromRow:
    m: int
    fidelity: float
    success_lower_bound: float


@dataclass(frozen=True)
class HelstromTable:
    k: int
    eps_prime: float
    rows: tuple[HelstromRow, ...]
    m_star: int


def helstrom_m_star(k: int, c: float) -> int:
    """Smallest copy count m with 1 - (1/2)(1 - c/k)^(m/2) >= 2/3; refused where 1 - c/k rounds to 1."""
    log_fidelity = math.log(1.0 - c / k)
    if log_fidelity == 0.0:
        raise ValidationError(f"c={c} is too small for k={k}: m* is not a finite number")
    return math.ceil(math.log(4.0 / 9.0) / log_fidelity)


def helstrom_experiment(k: int, c: float, m_values: list[int]) -> HelstromTable:
    """Discrimination success bounds for the eps' = c/k two-state instance.

    For each copy count m: the exact m-copy fidelity (1 - c/k)^m and the
    optimal-discrimination success lower bound 1 - (1/2) sqrt(fidelity).
    ``m_star`` is the smallest m reaching success 2/3.
    """
    if not m_values:
        raise ValidationError("m_values must be nonempty")
    if not 0.0 < c < 1.0:
        raise ValidationError(f"c must lie in (0, 1), got {c!r}")
    eps_prime = c / k
    rows = []
    for m in m_values:
        if m < 0:
            raise ValidationError(f"copy counts must be nonnegative, got {m}")
        fid = (1.0 - eps_prime) ** m
        rows.append(
            HelstromRow(
                m=int(m),
                fidelity=fid,
                success_lower_bound=1.0 - 0.5 * math.sqrt(fid),
            )
        )
    return HelstromTable(
        k=int(k),
        eps_prime=eps_prime,
        rows=tuple(rows),
        m_star=helstrom_m_star(k, c),
    )


def lecam_construction(
    o: Observable, eps: float
) -> tuple[DensityMatrix, DensityMatrix, float]:
    """Two-coin construction on the extreme eigenspaces of O.

    With delta = eps / (2 ||O||), the states put weight (1/2 +- delta) on
    the normalized projectors onto the +||O|| and -||O|| eigenspaces, so
    their expectation values are exactly +-eps. Returns both states and
    the Bernoulli KL divergence D(1/2 + delta || 1/2 - delta).
    """
    norm = o.op_norm
    if norm <= 0.0:
        raise ValidationError("observable must be nonzero")
    delta = eps / (2.0 * norm)
    if not 0.0 < delta < 0.5:
        raise ValidationError(
            f"eps={eps} gives bias delta={delta}, outside (0, 1/2)"
        )
    w, v = o.spectrum()
    tol = 1e-9 * max(norm, 1.0)
    plus_idx = np.where(np.abs(w - norm) <= tol)[0]
    minus_idx = np.where(np.abs(w + norm) <= tol)[0]
    if plus_idx.size == 0 or minus_idx.size == 0:
        raise ConstructionError(
            "observable spectrum is one-sided: the construction needs both "
            "+||O|| and -||O|| eigenspaces"
        )

    def _normalized_projector(idx: np.ndarray) -> np.ndarray:
        cols = v[:, idx]
        return (cols @ cols.conj().T) / idx.size

    p_plus = _normalized_projector(plus_idx)
    p_minus = _normalized_projector(minus_idx)
    rho0 = DensityMatrix((0.5 + delta) * p_plus + (0.5 - delta) * p_minus)
    rho1 = DensityMatrix((0.5 - delta) * p_plus + (0.5 + delta) * p_minus)
    for sign, rho in ((1.0, rho0), (-1.0, rho1)):
        value = float(np.trace(rho.mat @ o.mat).real)
        if abs(value - sign * eps) > 1e-10:
            raise ConstructionError(
                f"construction check failed: Tr(rho O) = {value}, "
                f"expected {sign * eps}"
            )
    p, q = 0.5 + delta, 0.5 - delta
    kl = p * math.log(p / q) + q * math.log(q / p)
    if not (kl > 0.0 and math.isfinite(1.0 / kl)):
        raise ValidationError(f"eps={eps} is too small: the copy bound 1/KL is not a finite number")
    return rho0, rho1, kl


@dataclass(frozen=True)
class HybridBoundTable:
    delta: float
    norm_direct: float
    norm_closed_form: float
    t_star: int


def hybrid_bound_demo(o: Observable, eps: float) -> HybridBoundTable:
    """Distinguishability growth of two dilations differing by a rank-one kick.

    Dilates the zero matrix and delta |nu><nu| (nu the top eigenvector of
    O, delta = 2 eps / ||O||), confirms the closed form
    ||U0 - U1|| = sqrt(delta^2 + (1 - sqrt(1 - delta^2))^2), and returns
    the query count t* = ceil(1 / ||U0 - U1||) where the cumulative hybrid
    bound t ||U0 - U1|| first reaches 1. It needs 0 < delta <= 1: at delta = 0
    the dilations are equal, and no query count separates them.
    """
    norm = o.op_norm
    if norm <= 0.0:
        raise ValidationError("observable must be nonzero")
    delta = 2.0 * eps / norm
    if not 0.0 < delta <= 1.0:
        raise ValidationError(f"eps={eps} gives delta={delta} outside (0, 1]")
    w, v = o.spectrum()
    top = int(np.argmax(np.abs(w)))
    nu = v[:, top]
    dim = o.dim
    u0 = halmos_dilate(np.zeros((dim, dim), dtype=complex))
    u1 = halmos_dilate(delta * np.outer(nu, nu.conj()))
    direct = op_norm(u0 - u1)
    closed = math.sqrt(delta ** 2 + (1.0 - math.sqrt(1.0 - delta ** 2)) ** 2)
    if abs(direct - closed) > 1e-9:
        raise ConstructionError(
            f"dilation distance {direct} disagrees with the closed form {closed}"
        )
    if not (direct > 0.0 and math.isfinite(1.0 / direct)):
        raise ValidationError(f"eps={eps} is too small: t* = ceil(1 / ||U0 - U1||) is not a finite number")
    t_star = math.ceil(1.0 / direct)
    return HybridBoundTable(
        delta=delta,
        norm_direct=direct,
        norm_closed_form=closed,
        t_star=t_star,
    )
