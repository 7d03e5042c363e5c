import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import powertrace as pt
import reference
from powertrace import blockenc, estimator, instances, linalg, qsvt
from powertrace.cli import main
from powertrace.estimator import ae_error_bound, choose_ae_grid
from reference import (
    _swap_registers,
    ae_outcome_distribution,
    closed_form_p_zero,
    dense_power_times_obs,
    hadamard_test_prob,
    random_density,
)

PROJ0 = np.diag([1.0, 0.0]).astype(complex)
Z = np.diag([1.0, -1.0]).astype(complex)


# --------------------------------------------------------- hadamard_test_prob

def test_zero_block_gives_half():
    rho = random_density(1, 2, seed=0)
    p_zero = hadamard_test_prob(pt.halmos_dilate(np.zeros((2, 2))), pt.purify(rho), "I")
    assert p_zero == pytest.approx(0.5, abs=1e-12)


def test_pure_state_projector_gives_one():
    rho = random_density(2, 1, seed=1)
    p_zero = hadamard_test_prob(pt.halmos_dilate(rho.mat), pt.purify(rho), "I")
    assert p_zero == pytest.approx(1.0, abs=1e-10)


def _alpha(obs):
    return max(1.0, obs.op_norm)


def _unitary(rho, obs, k, eps):
    """The one-ancilla Halmos dilation of B / alpha_O, B = p(rho) O built
    densely: a unitary realizing the encoding the estimate reads, so the
    circuit can be simulated."""
    return pt.halmos_dilate(dense_power_times_obs(rho, obs, k, eps) / _alpha(obs))


@pytest.mark.parametrize("seed", range(30))
def test_circuit_matches_closed_form(seed):
    rho = random_density(2, 2, seed)
    obs = pt.make_observable(pt.InstanceSpec(qubits=2, rank=1, seed=seed))
    block = dense_power_times_obs(rho, obs, 3, 0.05)
    for setting in ("I", "S_dagger"):
        circuit = hadamard_test_prob(pt.halmos_dilate(block / _alpha(obs)), pt.purify(rho), setting)
        assert circuit == pytest.approx(
            closed_form_p_zero(block, _alpha(obs), pt.purify(rho), setting), abs=1e-10
        )


def _embed_outer_pair(u, dim_outer_pair, dim_mid):
    """Embed U acting on (A, C) into (A, B, C) with identity on the middle B."""
    dim_a, dim_c = dim_outer_pair
    big = np.kron(u, np.eye(dim_mid))  # acts on (A, C, B)
    perm = np.kron(np.eye(dim_a), _swap_registers(dim_c, dim_mid))  # (A,C,B)->(A,B,C)
    return perm @ big @ perm.conj().T


def _dense_circuit_p_zero(unitary, purification, w):
    """Control-0 probability from the whole-circuit operator: the unitary
    embedded on (ancillas, environment, system) applied to the input."""
    env_dim = sys_dim = purification.state.dim
    anc_dim = unitary.shape[0] // sys_dim
    u_embedded = _embed_outer_pair(unitary, (anc_dim, sys_dim), env_dim)
    branch = np.zeros(anc_dim * env_dim * sys_dim, dtype=complex)
    branch[: env_dim * sys_dim] = reference.purification_vector(purification.state)
    image = u_embedded @ branch
    if w == "S_dagger":
        image = -1j * image
    return float(np.linalg.norm((branch + image) / 2) ** 2)


def _non_hermitian_observable(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2 ** n, 2 ** n)) + 1j * rng.standard_normal((2 ** n, 2 ** n))
    return pt.Observable(g / np.linalg.norm(g, 2), hermitian=False)


@pytest.mark.parametrize("hermitian", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_state_vector_circuit_matches_dense_circuit(n, hermitian):
    for seed in range(3):
        rho = random_density(n, 2 ** n, seed)
        if hermitian:
            obs = pt.make_observable(pt.InstanceSpec(qubits=n, rank=1, seed=seed))
        else:
            obs = _non_hermitian_observable(n, seed)
        pur = pt.purify(rho)
        unitary = _unitary(rho, obs, 4, 0.05)
        for setting in ("I", "S_dagger"):
            circuit = hadamard_test_prob(unitary, pur, setting)
            assert abs(circuit - _dense_circuit_p_zero(unitary, pur, setting)) <= 1e-12


def test_hadamard_test_respects_cap(monkeypatch):
    rho = random_density(2, 2, seed=2)
    unitary = _unitary(rho, pt.Observable(np.eye(4, dtype=complex)), 3, 0.05)
    # 1 control + 1 ancilla + 2 environment + 2 system = 6 qubits
    monkeypatch.setattr(linalg, "QUBIT_CAP", 5)
    with pytest.raises(pt.ResourceError):
        hadamard_test_prob(unitary, pt.purify(rho), "I")


def test_hadamard_test_rejects_bad_setting():
    rho = random_density(1, 2, seed=3)
    unitary = reference.density_block_unitary(pt.purify(rho))
    with pytest.raises(pt.ValidationError):
        hadamard_test_prob(unitary, pt.purify(rho), "S")


# ------------------------------------------------------ amplitude estimation

def _theta(p):
    return math.asin(math.sqrt(p)) / math.pi


def _draw_alone(p, K, seed):
    """The outcome of the one-record draw of ``p`` on the K grid, record seeded ``seed``."""
    return estimator._draw_outcome(_theta(p), K, np.random.default_rng(instances.derive_seed(seed, 0)))


def _ideal_edge(p, K):
    bound = ae_error_bound(p, K)
    return p + bound if p + bound <= 1.0 else max(0.0, p - bound)


def test_ae_zero_probability_is_exact():
    for seed in range(20):
        assert estimator._readouts([(0.0, 64)], "sampled", [seed], 1) == [0.0]


def test_ae_one_probability_is_exact():
    for K in (8, 64, 256):
        for seed in range(10):
            (p_est,) = estimator._readouts([(1.0, K)], "sampled", [seed], 1)
            assert p_est == pytest.approx(1.0, abs=1e-12)


def test_ae_outcomes_live_on_grid():
    (p_est,) = estimator._readouts([(0.37, 128)], "sampled", [5], 1)
    assert min(abs(p_est - math.sin(math.pi * y / 128) ** 2) for y in range(128)) <= 1e-15


def test_ae_coverage_p03_k256():
    probs = ae_outcome_distribution(0.3, 256)
    rng = np.random.default_rng(123)
    ys = rng.choice(256, size=10_000, p=probs)
    p_est = np.sin(np.pi * ys / 256) ** 2
    frac = np.mean(np.abs(p_est - 0.3) <= ae_error_bound(0.3, 256))
    assert frac >= 8 / math.pi ** 2


def test_ae_distribution_sums_to_one():
    for p in (0.0, 0.2, 0.5, 0.77, 1.0):
        probs = ae_outcome_distribution(p, 64)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= 0)


def _fft_outcome_law(p, K):
    """QPE outcome law as |FFT|^2 of the phase register e^{+-2 pi i theta m},
    branches mixed with weight 1/2; shares no code with the estimator."""
    theta = math.asin(math.sqrt(p)) / math.pi
    m = np.arange(K)
    law = np.zeros(K)
    for branch in (theta, -theta):
        law += 0.5 * np.abs(np.fft.fft(np.exp(2j * np.pi * branch * m))) ** 2 / K ** 2
    return law


def _test_probabilities(K):
    """0, 1, on the grid, peaks within half a step of 0 and of K/2 (where
    a branch's law wraps around the grid), and a generic value."""
    return (
        0.0,
        1.0,
        math.sin(math.pi * 3 / K) ** 2,
        math.sin(math.pi * 0.4 / K) ** 2,
        math.cos(math.pi * 0.4 / K) ** 2,
        0.3,
    )


@pytest.mark.parametrize("K", [2 ** e for e in range(1, 11)])
def test_ae_distribution_matches_fft_oracle(K):
    for p in _test_probabilities(K) + (0.77,):
        assert np.max(np.abs(ae_outcome_distribution(p, K) - _fft_outcome_law(p, K))) <= 1e-12


def _chi_square_pvalue(observed, expected, min_expected=20.0):
    """Pearson test of draw counts against expected counts, in cell order;
    neighbouring cells are merged until each bin expects min_expected draws."""
    obs_bins, exp_bins = [0], [0.0]
    for obs, exp in zip(observed, expected):
        if exp_bins[-1] >= min_expected:
            obs_bins.append(0)
            exp_bins.append(0.0)
        obs_bins[-1] += int(obs)
        exp_bins[-1] += float(exp)
    obs_bins, exp_bins = np.array(obs_bins), np.array(exp_bins)
    stat = float(np.sum((obs_bins - exp_bins) ** 2 / exp_bins))
    return 1.0 if obs_bins.size == 1 else float(chi2.sf(stat, obs_bins.size - 1))


def _bit_product_law(p, K):
    """The outcome law as the product of the sampler's own per-bit
    probabilities over every y, branches mixed with weight 1/2."""
    theta = math.asin(math.sqrt(p)) / math.pi
    t = K.bit_length() - 1
    law = np.zeros(K)
    for phi in (theta, -theta):
        for y in range(K):
            prob = 0.5
            for m in range(t):
                one = estimator._bit_probability(phi, t, m, y % 2 ** m)
                prob *= one if y >> m & 1 else 1.0 - one
            law[y] += prob
    return law


@pytest.mark.parametrize("K", [2 ** e for e in range(1, 11)])
def test_ae_bit_product_is_the_dense_law(K):
    for p in _test_probabilities(K) + (0.77,):
        assert np.max(np.abs(_bit_product_law(p, K) - ae_outcome_distribution(p, K))) <= 1e-12


@pytest.mark.parametrize("K", [2 ** 4, 2 ** 8, 2 ** 12, 2 ** 14])
def test_ae_draws_follow_dense_law(K):
    """The bit-by-bit draw against the dense reference law."""
    draws = 4000
    for idx, p in enumerate(_test_probabilities(K)):
        theta = math.asin(math.sqrt(p)) / math.pi
        rng = np.random.default_rng(1000 * K + idx)
        outcomes = [estimator._draw_outcome(theta, K, rng) for _ in range(draws)]
        observed = np.bincount(outcomes, minlength=K)
        expected = draws * ae_outcome_distribution(p, K)
        assert _chi_square_pvalue(observed, expected) >= 1e-4


class _CountingRng:
    """A generator that records the size of each uniform draw and offers
    nothing else."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.sizes = []

    def random(self, size=None):
        self.sizes.append(size)
        return self._rng.random(size)


def test_ae_draw_takes_one_uniform_per_counting_qubit():
    """A draw over t counting qubits takes its 1 + t uniforms in one call."""
    for t in (1, 10, 26):
        for seed, theta in enumerate((0.0, 0.5, 0.123456789, 1 / 3)):
            rng = _CountingRng(seed)
            y = estimator._draw_outcome(theta, 2 ** t, rng)
            assert 0 <= y < 2 ** t
            assert rng.sizes == [1 + t]


# (theta, t, seed, y): the draw of P(0) = sin^2(pi theta) on the 2^t grid from
# default_rng(seed) reads outcome y; recorded when each draw took its uniforms
# one at a time.
_PINNED_AE_OUTCOMES = [
    (0.0, 1, 3, 0), (0.5, 2, 20, 2), (0.123456789, 3, 37, 7), (1 / 3, 4, 54, 5),
    (0.25, 5, 71, 8), (0.07, 6, 88, 4), (0.4999, 7, 105, 64), (1e-07, 8, 122, 0),
    (0.2718281828, 9, 139, 139), (0.31415926, 10, 156, 319), (0.0, 11, 173, 0),
    (0.5, 12, 190, 2048), (0.123456789, 13, 207, 1011), (1 / 3, 14, 224, 10923),
    (0.25, 15, 241, 8192), (0.07, 16, 258, 4588), (0.4999, 17, 275, 65549),
    (1e-07, 18, 292, 0), (0.2718281828, 19, 309, 142517), (0.31415926, 20, 326, 329420),
    (0.0, 21, 343, 0), (0.5, 22, 360, 2097152), (0.123456789, 23, 377, 1035631),
    (1 / 3, 24, 394, 11184811), (0.25, 25, 411, 8388608), (0.07, 26, 428, 62411244),
    (0.4999, 3, 445, 4), (1e-07, 7, 462, 0), (0.2718281828, 10, 479, 278),
    (0.31415926, 13, 496, 5619), (0.0, 16, 513, 0), (0.5, 19, 530, 262144),
    (0.123456789, 21, 547, 258908), (1 / 3, 22, 564, 2796203), (0.25, 24, 581, 12582912),
    (0.07, 26, 598, 62411244), (0.4999, 26, 615, 33561143), (1e-07, 25, 632, 3),
    (0.2718281828, 20, 649, 763544), (0.31415926, 12, 666, 2809),
]


def test_ae_outcomes_are_pinned():
    """Every seeded draw reads the outcome it read when its uniforms were
    drawn one at a time: the one-call draw takes the same uniforms in the
    same order."""
    got = [(theta, t, seed, estimator._draw_outcome(_theta(math.sin(math.pi * theta) ** 2), 2 ** t,
                                                    np.random.default_rng(seed)))
           for theta, t, seed, _ in _PINNED_AE_OUTCOMES]
    assert got == _PINNED_AE_OUTCOMES


def _near_bit_boundaries(t: int) -> list:
    """0, 1, 1/2, a grid point sin^2(pi j / 2^t) with its two float neighbours, and 0.3."""
    edge = math.sin(math.pi * (2 ** t // 3) / 2 ** t) ** 2
    return [0.0, 1.0, 0.5, edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0), 0.3]


@pytest.mark.parametrize("size", [instances.STACK_SEEDS, 200])
@pytest.mark.parametrize("t", range(1, 27))
def test_a_stacked_readout_is_each_draw_alone(t, size):
    """The stacked readout reads each draw's outcome and estimate bit for bit as
    ``_draw_outcome`` alone with the same derived seed."""
    K, ps = 2 ** t, _near_bit_boundaries(t)
    draws, seeds = [(ps[j % len(ps)], K) for j in range(size)], list(range(1000 * t, 1000 * t + size))
    alone = [_draw_alone(p, K, seed) for (p, _), seed in zip(draws, seeds)]
    assert estimator._readouts(draws, "sampled", seeds, 1) == [math.sin(math.pi * y / K) ** 2 for y in alone]
    thetas = np.array([_theta(p) for p, _ in draws])
    uniforms = np.array([np.random.default_rng(instances.derive_seed(seed, 0)).random(1 + t) for seed in seeds])
    assert estimator._draw_outcomes(thetas, K, uniforms).tolist() == alone


def test_a_stack_on_two_grids_reads_each_draw_alone():
    draws, seeds = [(0.3, 2 ** (5 + 4 * (j % 2))) for j in range(40)], list(range(40))
    assert estimator._readouts(draws, "sampled", seeds, 1) == [
        math.sin(math.pi * _draw_alone(p, K, seed) / K) ** 2 for (p, K), seed in zip(draws, seeds)]


class _FixedUniforms:
    def __init__(self, row):
        self.row = row

    def random(self, size):
        assert size == len(self.row)
        return self.row


def test_a_bit_at_its_array_probability_is_decided_by_the_scalar_law():
    """Where ``np.sin`` rounds apart from ``math.sin``, a uniform equal to the
    smaller of the two probabilities is a 1 for one of them and a 0 for the
    other; the stacked draw decides it as the scalar draw does. So does a
    uniform of 0 at probability 0 (theta 0)."""
    thetas = np.random.default_rng(5).random(20000) / 2
    p_np = np.sin(np.pi * thetas) ** 2
    p_math = np.array([math.sin(math.pi * theta) ** 2 for theta in thetas.tolist()])
    apart = np.flatnonzero(p_np != p_math)[:50]
    thetas = np.append(thetas[apart], 0.0)
    uniforms = np.stack([np.zeros(len(thetas)), np.append(np.minimum(p_np, p_math)[apart], 0.0)], axis=1)
    expected = [estimator._draw_outcome(theta, 2, _FixedUniforms(row)) for theta, row in zip(thetas, uniforms)]
    assert estimator._draw_outcomes(thetas, 2, uniforms).tolist() == expected
    assert apart.size > 0, "np.sin rounds as math.sin on every phase tried"


def test_an_ideal_stack_builds_no_readout_generator(monkeypatch):
    monkeypatch.setattr(estimator, "generators", lambda seeds: pytest.fail("built readout generators"))
    draws = [(p, 64) for p in np.linspace(0.0, 1.0, 40).tolist()]
    estimates = estimator._readouts(draws, "ideal", list(range(40)), 1)
    assert estimates == [_ideal_edge(p, 64) for p, _ in draws]
    assert estimates[-1] == 1.0 - ae_error_bound(1.0, 64)  # the lower edge where the upper passes 1


def test_ae_sampled_draw_memory_is_independent_of_grid():
    estimator._readouts([(0.3, 2 ** 22)], "sampled", [0], 1)  # warm-up
    tracemalloc.start()
    try:
        estimator._readouts([(0.3, 2 ** 22)], "sampled", [1], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_ae_ideal_mode_sits_on_bound_edge():
    (p_est,) = estimator._readouts([(0.3, 128)], "ideal", [0], 1)
    assert abs(p_est - 0.3) == pytest.approx(ae_error_bound(0.3, 128), abs=1e-15)


def test_choose_ae_grid_meets_budget():
    for eps_prime in (0.2, 0.0125, 1e-3):
        K = choose_ae_grid(eps_prime)
        assert 2 * math.pi / K + math.pi ** 2 / K ** 2 <= eps_prime
        assert K & (K - 1) == 0
        half = K // 2
        assert 2 * math.pi / half + math.pi ** 2 / half ** 2 > eps_prime


# -------------------------------------------------------- estimate_trace_power

def test_estimate_pure_projector_instance():
    rho0 = pt.DensityMatrix(np.zeros((4, 4), dtype=complex) + np.diag([1, 0, 0, 0]))
    obs = pt.Observable(np.diag([1.0, 0, 0, 0]).astype(complex))
    report = pt.estimate_trace_power(pt.purify(rho0), obs, 4, 0.05, seed=0)
    assert abs(report.estimate - 1.0) <= 0.05
    assert report.oracle_value == pytest.approx(1.0)


def test_estimate_traceless_is_near_zero():
    rho = pt.DensityMatrix(np.eye(2, dtype=complex) / 2)
    report = pt.estimate_trace_power(pt.purify(rho), pt.Observable(Z), 3, 0.05, seed=1)
    assert abs(report.estimate) <= 0.05


def test_budget_split_identity():
    rho = random_density(2, 2, seed=4)
    obs = pt.Observable(2.5 * np.kron(Z, np.eye(2)).astype(complex))
    report = pt.estimate_trace_power(pt.purify(rho), obs, 5, 0.08, seed=2)
    assert report.eps_poly_budget + report.eps_ae_budget * 2 * report.alpha_o == pytest.approx(
        0.08, abs=1e-12
    )


def test_budget_split_observability_ideal_mode():
    rho = random_density(2, 3, seed=5)
    obs = pt.make_observable(pt.InstanceSpec(qubits=2, rank=1, seed=5))
    eps = 0.04
    report = pt.estimate_trace_power(pt.purify(rho), obs, 8, eps, mode="ideal", seed=3)
    assert report.model_error <= eps / 2 + 1e-12
    worst_ae = 2 * report.alpha_o * (
        2 * math.pi / report.ae_queries_K + math.pi ** 2 / report.ae_queries_K ** 2
    )
    assert worst_ae <= eps / 2 + 1e-12
    assert abs(report.estimate - report.oracle_value) <= eps


@pytest.mark.parametrize("k", [4, 8])
def test_estimate_success_fraction_sampled(k):
    hits = 0
    runs = 60
    for seed in range(runs):
        rho = random_density(2, 2, seed)
        obs = pt.make_observable(pt.InstanceSpec(qubits=2, rank=2, seed=seed))
        report = pt.estimate_trace_power(pt.purify(rho), obs, k, 0.05, seed=seed)
        if abs(report.estimate - report.oracle_value) <= 0.05:
            hits += 1
    assert hits / runs >= 8 / math.pi ** 2 - 0.05


def test_query_count_structure():
    rho = random_density(2, 2, seed=6)
    obs = pt.make_observable(pt.InstanceSpec(qubits=2, rank=1, seed=6))
    report = pt.estimate_trace_power(pt.purify(rho), obs, 16, 0.05, seed=4)
    assert report.poly_degree == pt.required_degree(15, 0.05 / (2 * obs.op_norm))
    assert report.u_rho_queries_total == 2 * report.poly_degree * report.ae_queries_K


def test_query_scaling_exponent():
    rho = random_density(2, 2, seed=7)
    obs = pt.Observable(np.kron(Z, np.eye(2)).astype(complex))
    ks = [4, 8, 16, 32, 64]
    queries = []
    for k in ks:
        report = pt.estimate_trace_power(pt.purify(rho), obs, k, 0.05, seed=k)
        queries.append(report.u_rho_queries_total)
    slope = np.polyfit(np.log(ks), np.log(queries), 1)[0]
    assert 0.4 <= slope <= 0.6


def test_non_hermitian_observable_recovers_complex_value():
    rho = random_density(1, 2, seed=8)
    ladder = pt.Observable(np.array([[0, 1], [0, 0]], dtype=complex), hermitian=False)
    eps = 0.02
    report = pt.estimate_trace_power(pt.purify(rho), ladder, 4, eps, mode="ideal", seed=5)
    oracle = report.oracle_value
    assert abs(oracle.imag) > 0 or abs(oracle.real) >= 0  # complex-valued target
    assert abs(report.estimate.real - oracle.real) <= eps
    assert abs(report.estimate.imag - oracle.imag) <= eps
    assert report.u_rho_queries_total == 2 * 2 * report.poly_degree * report.ae_queries_K


def test_estimate_is_reproducible():
    rho = random_density(2, 2, seed=9)
    obs = pt.make_observable(pt.InstanceSpec(qubits=2, rank=2, seed=9))
    a = pt.estimate_trace_power(pt.purify(rho), obs, 6, 0.05, seed=77)
    b = pt.estimate_trace_power(pt.purify(rho), obs, 6, 0.05, seed=77)
    assert a == b


def _matrix_power_value(rho, obs, k):
    """Tr(rho^k O) by repeated multiplication, sharing no code with the
    package's eigendecomposition route."""
    return complex(np.trace(np.linalg.matrix_power(rho.mat, k) @ obs.mat))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_estimate_beyond_four_qubits_at_default_cap(n):
    assert linalg.QUBIT_CAP == 14
    spec = pt.InstanceSpec(qubits=n, rank=1, seed=n)
    rho, obs = pt.make_state(spec), pt.make_observable(spec)
    eps = 0.05
    report = pt.estimate_trace_power(pt.purify(rho), obs, 16, eps, mode="ideal", seed=n)
    exact = _matrix_power_value(rho, obs, 16)
    assert abs(report.oracle_value - exact) <= 1e-10
    assert report.model_error <= eps / 2
    assert abs(report.estimate - exact) <= eps


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 5),
    rank_frac=st.floats(0.0, 1.0),
    k=st.integers(2, 64),
    eps=st.floats(1e-3, 0.1),
    seed=st.integers(0, 2 ** 16),
)
def test_ideal_estimate_against_matrix_power(n, rank_frac, k, eps, seed):
    rank = 1 + round(rank_frac * (2 ** n - 1))
    spec = pt.InstanceSpec(qubits=n, rank=rank, seed=seed)
    rho, obs = pt.make_state(spec), pt.make_observable(spec)
    report = pt.estimate_trace_power(pt.purify(rho), obs, k, eps, mode="ideal", seed=seed)
    exact = _matrix_power_value(rho, obs, k)
    assert abs(report.oracle_value - exact) <= 1e-10
    assert report.model_error <= eps / 2
    assert abs(report.estimate - exact) <= eps


def test_estimate_decomposes_the_reduced_state_once(numpy_decompositions):
    rho = random_density(3, 5, seed=17)
    hermitian = pt.make_observable(pt.InstanceSpec(qubits=3, rank=1, seed=17))
    for obs in (hermitian, _non_hermitian_observable(3, 17)):
        pur = pt.purify(rho)
        numpy_decompositions.clear()
        pt.estimate_trace_power(pur, obs, 5, 0.05, seed=0)
        # rho's validation, before purify, was its one eigh; the estimate
        # reads that spectrum and runs no SVD, eigvalsh or einsum anywhere
        assert [name for name, _ in numpy_decompositions] == []


def test_estimate_evaluates_its_polynomial_once(monkeypatch):
    calls = []
    real = qsvt.clenshaw_eval
    monkeypatch.setattr(qsvt, "clenshaw_eval", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    rho = random_density(2, 3, seed=19)
    hermitian = pt.make_observable(pt.InstanceSpec(qubits=2, rank=1, seed=19))
    for obs in (hermitian, _non_hermitian_observable(2, 19)):
        calls.clear()
        pt.estimate_trace_power(pt.purify(rho), obs, 5, 0.05, seed=0)
        # the transform's p(l_i), which the model error reuses; the
        # admissibility check is certified by the coefficient sum
        assert len(calls) == 1


def test_estimate_checks_hermiticity_of_the_state_once(monkeypatch):
    rho = random_density(2, 3, seed=20)
    obs = pt.make_observable(pt.InstanceSpec(qubits=2, rank=1, seed=20))
    calls = []
    real = linalg._check_hermitian
    monkeypatch.setattr(linalg, "_check_hermitian", lambda *a, **kw: calls.append(a[2]) or real(*a, **kw))
    pt.estimate_trace_power(pt.purify(rho), obs, 5, 0.05, seed=0)
    # rho's validation proved it Hermitian before the patch; the purification
    # carries rho, and the transform reads the spectrum it proved
    assert calls == []


def test_estimate_builds_no_unitary(monkeypatch):
    calls = []

    def counting(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(name) or real(*a, **kw))

    counting(blockenc, "halmos_dilate")
    for name in ("_complete_unitary", "density_block_unitary", "hadamard_test_prob"):
        counting(reference, name)
    pur = pt.purify(random_density(2, 3, seed=18))
    obs = pt.make_observable(pt.InstanceSpec(qubits=2, rank=1, seed=18))
    pt.estimate_trace_power(pur, obs, 5, 0.05, seed=0)
    pt.estimate_trace_power(pur, _non_hermitian_observable(2, 18), 5, 0.05, seed=0)
    assert calls == []


def test_no_sampled_draw_builds_the_dense_law(monkeypatch, tmp_path):
    def dense_law(*args, **kwargs):
        raise AssertionError("the sampled readout built the dense outcome law")

    monkeypatch.setattr(reference, "ae_outcome_distribution", dense_law)
    pur = pt.purify(random_density(1, 2, seed=19))
    report = pt.estimate_trace_power(pur, pt.Observable(Z), 4, 1e-5, seed=0)
    assert report.ae_queries_K >= 2 ** 20
    assert main(["estimate", "--runs", "5", "--out", str(tmp_path)]) == 0


def test_mode_is_checked_before_encoding(monkeypatch):
    calls = []
    real = estimator.transform_spectra
    monkeypatch.setattr(estimator, "transform_spectra", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    pur = pt.purify(random_density(1, 2, seed=20))
    with pytest.raises(pt.ValidationError, match="mode"):
        pt.estimate_trace_power(pur, pt.Observable(Z), 4, 0.05, mode="bogus")
    assert calls == []


def test_estimate_validation():
    rho = random_density(1, 2, seed=10)
    obs = pt.Observable(Z)
    with pytest.raises(pt.ValidationError):
        pt.estimate_trace_power(pt.purify(rho), obs, 1, 0.05)
    with pytest.raises(pt.ValidationError):
        pt.estimate_trace_power(pt.purify(rho), obs, 4, 0.0)


# ----------------------------------------------------------------- the overlap

def _state(n, levels, kind, seed):
    """A density matrix with the given eigenvalue levels (zeros and exact
    ties included): diagonal, or rotated by a seeded unitary."""
    weights = np.asarray(levels[: 2 ** n], dtype=float)
    if weights.sum() == 0.0:
        weights[0] = 1.0
    weights = weights / weights.sum()
    if kind == "diagonal":
        return pt.DensityMatrix(np.diag(weights).astype(complex))
    u = reference.haar_unitary(2 ** n, seed)
    m = (u * weights) @ u.conj().T
    return pt.DensityMatrix((m + m.conj().T) / 2)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 3),
    levels=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), min_size=8, max_size=8),
    kind=st.sampled_from(["diagonal", "rotated"]),
    hermitian=st.booleans(),
    scale=st.sampled_from([0.25, 1.0, 3.0]),
    k=st.integers(2, 64),
    eps=st.sampled_from([0.05, 1e-3]),
    seed=st.integers(0, 2 ** 16),
)
def test_overlap_is_the_trace_of_the_dense_product(n, levels, kind, hermitian, scale, k, eps, seed):
    """The spectral sum equals Tr(rho p(rho) O) with p(rho) from the matrix
    Chebyshev recurrence, and at n <= 2 the estimator's P(0) is the
    simulated Hadamard test's on the Halmos dilation of p(rho) O / alpha_O."""
    rho = _state(n, levels, kind, seed)
    if hermitian:
        obs = pt.make_observable(pt.InstanceSpec(qubits=n, rank=1, seed=seed))
    else:
        obs = _non_hermitian_observable(n, seed)
    obs = pt.Observable(scale * obs.mat, hermitian=hermitian)
    pur = pt.purify(rho)
    overlap, alpha, (degree,) = estimator._power_overlap(pur, obs, [k], eps)
    assert degree == pt.required_degree(k - 1, min(1.0, eps / (2 * obs.op_norm)))
    block = dense_power_times_obs(rho, obs, k, eps)
    assert abs(overlap - np.trace(rho.mat @ block)) <= 1e-12
    assert alpha == max(1.0, obs.op_norm)
    if n <= 2:
        unitary = pt.halmos_dilate(block / alpha)
        for setting in ("I", "S_dagger"):
            circuit = hadamard_test_prob(unitary, pur, setting)
            assert circuit == pytest.approx(estimator._p_zero(overlap / alpha, setting), abs=1e-12)


def test_estimate_leaves_no_block_on_the_purification():
    """An estimate keeps no d x d array alive: at n = 8 the memory traced
    across it grows by less than one 256 x 256 complex array (1 MiB)."""
    warm = pt.purify(random_density(1, 2, seed=0))
    pt.estimate_trace_power(warm, pt.Observable(Z), 16, 0.05, seed=0)
    spec = pt.InstanceSpec(qubits=8, rank=2 ** 8, seed=8)
    rho, obs = pt.make_state(spec), pt.make_observable(spec)
    pur = pt.purify(rho)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = pt.estimate_trace_power(pur, obs, 16, 0.05, seed=8)
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.model_error <= 0.05 / 2
    assert growth < 256 * 256 * 16


def test_overlap_holds_one_square_temporary():
    """Above one 2^16-entry block the overlap's diagonal is summed block by
    block: at n = 9 the traced peak stays below 1.5 d x d complex arrays
    (O V plus two blocks), and the sum is bitwise the unblocked one."""
    spec = pt.InstanceSpec(qubits=9, rank=2 ** 9, seed=8)
    pur, obs = pt.purify(pt.make_state(spec)), pt.make_observable(spec)
    tracemalloc.start()
    try:
        overlap = estimator._power_overlap(pur, obs, [16], 0.05)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2 ** 18 * 16
    eps_poly = min(1.0, 0.05 / (2 * obs.op_norm))
    w, v = pur.state.spectrum()
    p_w = qsvt.transform_spectra(w[None], [16], [eps_poly])[0][0]
    assert overlap == complex(np.sum(w * p_w * np.sum(v.conj() * (obs.mat @ v), axis=0)))


@pytest.mark.parametrize(
    "module, name",
    [("powertrace", "BlockEncoding"), ("powertrace", "density_block"),
     ("powertrace", "observable_block_encoding"), ("powertrace", "be_product"),
     ("powertrace", "apply_poly"), ("powertrace", "power_times_obs"),
     ("powertrace.blockenc", "ALPHA_SLACK"), ("powertrace.estimator", "_block_trace"),
     ("powertrace.estimator", "closed_form_p_zero")],
)
def test_the_block_machinery_is_gone(module, name):
    """The d x d block encodings left the pipeline with their names."""
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})
    for home in (blockenc, qsvt, estimator):
        assert not hasattr(home, name)
    assert "_last_power" not in {f.name for f in dataclasses.fields(pt.PurifiedState)}
    assert not hasattr(pt, "QueryLedger") and not hasattr(qsvt, "QueryLedger")


# ------------------------------------------------------------------ entropies

def test_renyi_of_pure_state_is_zero():
    rho = random_density(2, 1, seed=11)
    est = pt.renyi_entropy(pt.purify(rho), 3, 0.05, seed=0)
    assert abs(est.value) <= est.error_bound + 1e-12


def test_renyi_two_of_maximally_mixed():
    rho = pt.DensityMatrix(np.eye(2, dtype=complex) / 2)
    est = pt.renyi_entropy(pt.purify(rho), 2, 0.01, mode="ideal", seed=1)
    assert abs(est.value - math.log(2)) <= est.error_bound


def test_renyi_raises_in_log_undefined_regime():
    rho = pt.DensityMatrix(np.eye(4, dtype=complex) / 4)
    with pytest.raises(pt.UnreliableEstimateError):
        pt.renyi_entropy(pt.purify(rho), 3, 0.1, mode="ideal", seed=2)


def test_tsallis_printed_form():
    rho = pt.DensityMatrix(np.eye(4, dtype=complex) / 4)
    pur = pt.purify(rho)
    printed = pt.tsallis_entropy(pur, 3, 0.005, mode="ideal", seed=3)
    # Tr(rho^3) = 1/16 under the plain ratio form
    assert printed.value == pytest.approx((1 / 16) / (1 - 3), abs=printed.error_bound)


# -------------------------------------------------------------------- vd_ratio

def test_vd_ratio_pure_state():
    rho = random_density(2, 1, seed=12)
    obs = pt.Observable(np.kron(Z, np.eye(2)).astype(complex))
    result = pt.vd_ratio_stack(pt.purify(rho), obs, 4, 0.01, [0], mode="ideal")[0]
    expected = pt.trace_power_obs_oracle(rho, obs, 1).real  # <psi|O|psi>
    assert abs(result.ratio_estimate - expected) <= result.error_bound


def test_vd_ratio_distills_dominant_eigenvector():
    rng = np.random.default_rng(21)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    rho = pt.DensityMatrix(0.9 * np.outer(psi, psi.conj()) + 0.1 * np.eye(4) / 4)
    obs = pt.Observable(np.kron(Z, np.eye(2)).astype(complex))
    result = pt.vd_ratio_stack(pt.purify(rho), obs, 20, 2e-3, [1], mode="ideal")[0]
    pure_expectation = float(np.real(psi.conj() @ obs.mat @ psi))
    assert abs(result.ratio_estimate - pure_expectation) <= 0.02


def test_vd_ratio_refuses_vanishing_denominator():
    """Tr((I/4)^8) = 4^-7 is below eps: that record's ratio and bound are
    nan, and the other record of the stack is what it is alone."""
    pure = random_density(2, 1, seed=12)
    stack = pt.DensityMatrix(np.stack([np.eye(4, dtype=complex) / 4, pure.mat]))
    obs = pt.Observable(np.kron(Z, np.eye(2)).astype(complex))
    refused, kept = pt.vd_ratio_stack(pt.purify(stack), obs, 8, 0.01, [2, 0], mode="ideal")
    assert refused.denominator.estimate.real <= 0.01
    assert math.isnan(refused.ratio_estimate) and math.isnan(refused.error_bound)
    assert kept == pt.vd_ratio_stack(pt.purify(pure), obs, 8, 0.01, [0], mode="ideal")[0]
    assert math.isfinite(kept.ratio_estimate) and math.isfinite(kept.error_bound)


def test_identity_observable_is_built_once_per_dimension(numpy_decompositions):
    identity = pt.make_observable(pt.InstanceSpec(qubits=2, rank=1, seed=0, observable_kind="identity"))
    assert instances.shared_observable("identity", 2) is identity
    assert not identity.mat.flags.writeable
    rho = random_density(2, 3, seed=23)
    pt.renyi_entropy(pt.purify(rho), 2, 0.05, mode="ideal")
    numpy_decompositions.clear()
    pt.tsallis_entropy(pt.purify(rho), 2, 0.05, mode="ideal")
    # no operator-norm SVD of a new identity, and no eigh: the
    # purification carries rho and its spectrum
    assert [name for name, _ in numpy_decompositions] == []


def test_vd_ratio_bound_covers_in_most_runs():
    covered = 0
    runs = 40
    obs = pt.Observable(np.kron(Z, np.eye(2)).astype(complex))
    for seed in range(runs):
        rho = random_density(2, 2, seed=seed)
        result = pt.vd_ratio_stack(pt.purify(rho), obs, 4, 0.02, [seed])[0]
        true_ratio = (
            pt.trace_power_obs_oracle(rho, obs, 4).real
            / pt.trace_power_obs_oracle(rho, pt.Observable(np.eye(4, dtype=complex)), 4).real
        )
        if abs(result.ratio_estimate - true_ratio) <= result.error_bound:
            covered += 1
    assert covered / runs >= 0.9


# ------------------------------------------------------------ record stacks

@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 4),
    records=st.lists(
        st.tuples(st.integers(1, 16), st.integers(2, 64), st.integers(0, 2 ** 32 - 1)),
        min_size=1, max_size=4,
    ),
    eps=st.sampled_from([0.5, 0.05, 1e-3]),
    mode=st.sampled_from(["sampled", "ideal"]),
    observable=st.sampled_from(["hermitian", "non-hermitian", "shared"]),
)
def test_a_record_does_not_depend_on_its_stack(n, records, eps, mode, observable):
    """Estimating a stack of R states gives each record the report it gets
    alone: any rank, a k of its own, Hermitian, non-Hermitian or shared O."""
    dim = 2 ** n
    mats = [random_density(n, min(rank, dim), seed).mat for rank, _, seed in records]
    rng = np.random.default_rng(len(records))
    if observable == "shared":
        o_mats = None
        shared = pt.make_observable(pt.InstanceSpec(qubits=n, rank=1, seed=0))
    else:
        o_mats = rng.standard_normal((len(records), dim, dim)) + 1j * rng.standard_normal((len(records), dim, dim))
        if observable == "hermitian":
            o_mats = o_mats + o_mats.conj().swapaxes(-1, -2)
    hermitian = observable != "non-hermitian"
    ks = [k for _, k, _ in records]
    seeds = [seed for _, _, seed in records]
    stack_o = shared if o_mats is None else pt.Observable(o_mats, hermitian=hermitian)
    reports = estimator.estimate_stack(
        pt.purify(pt.DensityMatrix(np.stack(mats))), stack_o, ks, eps, seeds, mode
    )
    assert len(reports) == len(records)
    for i, report in enumerate(reports):
        o = shared if o_mats is None else pt.Observable(o_mats[i], hermitian=hermitian)
        alone = pt.estimate_trace_power(
            pt.purify(pt.DensityMatrix(mats[i])), o, ks[i], eps, mode=mode, seed=seeds[i]
        )
        assert report == alone


def test_vd_ratio_stack_is_its_records_alone():
    spec = pt.InstanceSpec(qubits=2, rank=2, seed=0)
    obs = pt.make_observable(pt.InstanceSpec(qubits=2, rank=2, seed=0, observable_kind="pauli:ZI"))
    seeds = [3, 4, 5]
    stack = pt.vd_ratio_stack(pt.purify(instances.make_states(spec, seeds)), obs, 4, 0.02, seeds)
    for seed, result in zip(seeds, stack):
        state = pt.make_state(dataclasses.replace(spec, seed=seed))
        assert result == pt.vd_ratio_stack(pt.purify(state), obs, 4, 0.02, [seed])[0]


def test_stacked_instances_are_their_seeds_alone():
    seeds = [11, 12, 13]
    for kind in ("random_mixed", "diagonal"):
        spec = pt.InstanceSpec(qubits=2, rank=3, seed=0, state_kind=kind)
        stack = instances.make_states(spec, seeds)
        for i, seed in enumerate(seeds):
            alone = pt.make_state(dataclasses.replace(spec, seed=seed))
            assert np.array_equal(stack.mat[i], alone.mat)
            assert np.array_equal(stack.spectrum().eigenvalues[i], alone.spectrum().eigenvalues)
    spec = pt.InstanceSpec(qubits=2, rank=2, seed=0)
    stack = instances.make_observables(spec, seeds)
    for i, seed in enumerate(seeds):
        alone = pt.make_observable(dataclasses.replace(spec, seed=seed))
        assert np.array_equal(stack.mat[i], alone.mat) and stack.op_norm[i] == alone.op_norm


def test_stack_needs_one_k_and_seed_per_record():
    spec = pt.InstanceSpec(qubits=1, rank=2, seed=0)
    pur = pt.purify(instances.make_states(spec, [1, 2]))
    obs = pt.Observable(Z)
    with pytest.raises(pt.ValidationError, match="2 trace power orders"):
        estimator.estimate_stack(pur, obs, [4], 0.05, [1])
    with pytest.raises(pt.ValidationError, match="k >= 2, one per seed"):
        estimator.estimate_stack(pur, obs, [4, 4], 0.05, [1])
    with pytest.raises(pt.ValidationError, match="k >= 2, one per seed"):
        estimator.estimate_stack(pur, obs, [4, 1], 0.05, [1, 2])
    one = pt.purify(pt.make_state(spec))
    assert estimator.estimate_stack(one, obs, [4], 0.05, [1]) == [pt.estimate_trace_power(one, obs, 4, 0.05, seed=1)]


@pytest.mark.parametrize("order", [1, 2.0, True])
def test_entropies_and_distillation_refuse_an_order_through_estimate_stack(order):
    """Each application passes its order on unconverted; ``estimate_stack`` alone refuses a power that is not
    an integer >= 2."""
    pur = pt.purify(pt.make_state(pt.InstanceSpec(qubits=1, rank=2, seed=0)))
    for refused in (lambda: pt.renyi_entropy(pur, order, 0.05), lambda: pt.tsallis_entropy(pur, order, 0.05),
                    lambda: pt.vd_ratio_stack(pur, pt.Observable(Z), order, 0.05, [0])):
        with pytest.raises(pt.ValidationError, match="k >= 2, one per seed"):
            refused()


@pytest.mark.parametrize("n", [6, 8])
def test_large_stack_records_match_their_single_estimates(n):
    seeds = [5, 6]
    spec = pt.InstanceSpec(qubits=n, rank=2 ** n, seed=0)
    reports = estimator.estimate_stack(
        pt.purify(instances.make_states(spec, seeds)), instances.make_observables(spec, seeds), [16, 4], 0.05, seeds=seeds
    )
    for seed, k, report in zip(seeds, [16, 4], reports):
        one = dataclasses.replace(spec, seed=seed)
        alone = pt.estimate_trace_power(pt.purify(pt.make_state(one)), pt.make_observable(one), k, 0.05, seed=seed)
        assert report == alone


def test_an_observable_stack_must_match_the_state_stack():
    """A stacked O pairs with the state stack record by record: one of
    another length, against a stack or a single state, is rejected rather
    than cut to the shorter of the two."""
    spec = pt.InstanceSpec(qubits=1, rank=2, seed=0)
    two = pt.purify(instances.make_states(spec, [1, 2]))
    one = pt.purify(pt.make_state(spec))
    for pur, o, ks in [
        (two, pt.Observable(Z[None]), [4, 4]),
        (two, pt.Observable(np.stack([Z, Z, Z])), [4, 4]),
        (one, pt.Observable(np.stack([Z, Z])), [4]),
    ]:
        with pytest.raises(pt.ValidationError, match="observable stack"):
            estimator.estimate_stack(pur, o, ks, 0.05, list(range(len(ks))))
        with pytest.raises(pt.ValidationError, match="observable stack"):
            linalg.trace_power_obs_oracles(pur.state, o, ks)
    with pytest.raises(pt.ValidationError, match="observable stack"):
        pt.estimate_trace_power(one, pt.Observable(np.stack([Z, Z])), 4, 0.05)
