import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powertrace as pt
from powertrace import linalg
from powertrace.blockenc import _embed_outer_pair
from powertrace.estimator import ae_error_bound, ae_outcome_distribution, choose_ae_grid, closed_form_p_zero

PROJ0 = np.diag([1.0, 0.0]).astype(complex)
Z = np.diag([1.0, -1.0]).astype(complex)


# --------------------------------------------------------- hadamard_test_prob

def test_zero_block_gives_half():
    rho = pt.random_density(1, 2, seed=0)
    zero = np.zeros((2, 2), dtype=complex)
    be = pt.BlockEncoding(zero, 1.0, 1, 0.0, dilation=pt.halmos_dilate(zero))
    result = pt.hadamard_test_prob(be, pt.purify(rho), "I")
    assert result.p_zero == pytest.approx(0.5, abs=1e-12)


def test_pure_state_projector_gives_one():
    rho = pt.random_density(2, 1, seed=1)
    be = pt.BlockEncoding(rho.mat, 1.0, 1, 0.0, dilation=pt.halmos_dilate(rho.mat))
    result = pt.hadamard_test_prob(be, pt.purify(rho), "I")
    assert result.p_zero == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("seed", range(30))
def test_circuit_matches_closed_form(seed):
    rho = pt.random_density(2, 2, seed)
    obs = pt.make_observable(pt.InstanceSpec(qubits=2, rank=1, seed=seed))
    be, _ = pt.power_times_obs(pt.purify(rho), obs, 3, 0.05)
    for setting in ("I", "S_dagger"):
        circuit = pt.hadamard_test_prob(be, pt.purify(rho), setting).p_zero
        assert circuit == pytest.approx(
            closed_form_p_zero(be, pt.purify(rho), setting), abs=1e-10
        )


def _dense_circuit_p_zero(be, purification, w):
    """Control-0 probability from the whole-circuit operator: the dilation
    embedded on (ancillas, environment, system) applied to the input."""
    anc_dim = 2 ** be.physical_ancillas
    env_dim, sys_dim = purification.env_dim, purification.sys_dim
    u_embedded = _embed_outer_pair(be.dilation, (anc_dim, sys_dim), env_dim)
    branch = np.zeros(anc_dim * env_dim * sys_dim, dtype=complex)
    branch[: env_dim * sys_dim] = purification.vec
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
        rho = pt.random_density(n, 2 ** n, seed)
        if hermitian:
            obs = pt.make_observable(pt.InstanceSpec(qubits=n, rank=1, seed=seed))
        else:
            obs = _non_hermitian_observable(n, seed)
        pur = pt.purify(rho)
        be, _ = pt.power_times_obs(pur, obs, 4, 0.05)
        for setting in ("I", "S_dagger"):
            circuit = pt.hadamard_test_prob(be, pur, setting).p_zero
            assert abs(circuit - _dense_circuit_p_zero(be, pur, setting)) <= 1e-12


def test_hadamard_test_respects_cap():
    rho = pt.random_density(2, 2, seed=2)
    be, _ = pt.power_times_obs(pt.purify(rho), pt.Observable(np.eye(4, dtype=complex)), 3, 0.05)
    pt.set_qubit_cap(5)
    try:
        with pytest.raises(pt.ResourceError):
            pt.hadamard_test_prob(be, pt.purify(rho), "I")
    finally:
        pt.set_qubit_cap(14)


def test_hadamard_test_rejects_bad_setting():
    rho = pt.random_density(1, 2, seed=3)
    be = pt.density_block_encoding(pt.purify(rho))
    with pytest.raises(pt.ValidationError):
        pt.hadamard_test_prob(be, pt.purify(rho), "S")


# ---------------------------------------------------------- amplitude_estimate

def test_ae_zero_probability_is_exact():
    for seed in range(20):
        out = pt.amplitude_estimate(0.0, 64, rng_seed=seed)
        assert out.p_estimate == 0.0
        assert out.within_bound


def test_ae_one_probability_is_exact():
    for K in (8, 64, 256):
        for seed in range(10):
            out = pt.amplitude_estimate(1.0, K, rng_seed=seed)
            assert out.p_estimate == pytest.approx(1.0, abs=1e-12)


def test_ae_outcomes_live_on_grid():
    out = pt.amplitude_estimate(0.37, 128, rng_seed=5)
    assert 0 <= out.raw_outcome_index < 128
    assert out.p_estimate == pytest.approx(
        math.sin(math.pi * out.raw_outcome_index / 128) ** 2, abs=1e-15
    )


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


def test_ae_rejects_bad_grid():
    with pytest.raises(pt.ValidationError):
        pt.amplitude_estimate(0.5, 100)  # not a power of two
    with pytest.raises(pt.ValidationError):
        pt.amplitude_estimate(0.5, 1)


def test_ae_ideal_mode_sits_on_bound_edge():
    out = pt.amplitude_estimate(0.3, 128, mode="ideal")
    assert abs(out.p_estimate - 0.3) == pytest.approx(ae_error_bound(0.3, 128), abs=1e-15)
    assert out.within_bound


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
    rho = pt.random_density(2, 2, seed=4)
    obs = pt.Observable(2.5 * np.kron(Z, np.eye(2)).astype(complex))
    report = pt.estimate_trace_power(pt.purify(rho), obs, 5, 0.08, seed=2)
    assert report.eps_poly_budget + report.eps_ae_budget * 2 * report.alpha_o == pytest.approx(
        0.08, abs=1e-12
    )


def test_budget_split_observability_ideal_mode():
    rho = pt.random_density(2, 3, seed=5)
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
        rho = pt.random_density(2, 2, seed)
        obs = pt.make_observable(pt.InstanceSpec(qubits=2, rank=2, seed=seed))
        report = pt.estimate_trace_power(pt.purify(rho), obs, k, 0.05, seed=seed)
        if abs(report.estimate - report.oracle_value) <= 0.05:
            hits += 1
    assert hits / runs >= 8 / math.pi ** 2 - 0.05


def test_query_count_structure():
    rho = pt.random_density(2, 2, seed=6)
    obs = pt.make_observable(pt.InstanceSpec(qubits=2, rank=1, seed=6))
    report = pt.estimate_trace_power(pt.purify(rho), obs, 16, 0.05, seed=4)
    assert report.poly_degree == pt.required_degree(15, 0.05 / (2 * obs.op_norm))
    assert report.u_rho_queries_total == 2 * report.poly_degree * report.ae_queries_K


def test_query_scaling_exponent():
    rho = pt.random_density(2, 2, seed=7)
    obs = pt.Observable(np.kron(Z, np.eye(2)).astype(complex))
    ks = [4, 8, 16, 32, 64]
    queries = []
    for k in ks:
        report = pt.estimate_trace_power(pt.purify(rho), obs, k, 0.05, seed=k)
        queries.append(report.u_rho_queries_total)
    slope = np.polyfit(np.log(ks), np.log(queries), 1)[0]
    assert 0.4 <= slope <= 0.6


def test_non_hermitian_observable_recovers_complex_value():
    rho = pt.random_density(1, 2, seed=8)
    ladder = pt.Observable(np.array([[0, 1], [0, 0]], dtype=complex), hermitian=False)
    eps = 0.02
    report = pt.estimate_trace_power(pt.purify(rho), ladder, 4, eps, mode="ideal", seed=5)
    oracle = report.oracle_value
    assert abs(oracle.imag) > 0 or abs(oracle.real) >= 0  # complex-valued target
    assert abs(report.estimate.real - oracle.real) <= eps
    assert abs(report.estimate.imag - oracle.imag) <= eps
    assert report.u_rho_queries_total == 2 * 2 * report.poly_degree * report.ae_queries_K


def test_estimate_is_reproducible():
    rho = pt.random_density(2, 2, seed=9)
    obs = pt.make_observable(pt.InstanceSpec(qubits=2, rank=2, seed=9))
    a = pt.estimate_trace_power(pt.purify(rho), obs, 6, 0.05, seed=77)
    b = pt.estimate_trace_power(pt.purify(rho), obs, 6, 0.05, seed=77)
    assert a == b


def _matrix_power_value(rho, obs, k):
    """Tr(rho^k O) by repeated multiplication, sharing no code with the
    package's eigendecomposition route."""
    return complex(np.trace(np.linalg.matrix_power(rho.mat, k) @ obs.mat))


@pytest.mark.parametrize("n, path", [(5, "explicit"), (6, "bookkeeping")])
def test_estimate_beyond_four_qubits_at_default_cap(n, path):
    assert pt.get_qubit_cap() == 14
    spec = pt.InstanceSpec(qubits=n, rank=1, seed=n)
    rho, obs = pt.make_state(spec), pt.make_observable(spec)
    eps = 0.05
    report = pt.estimate_trace_power(pt.purify(rho), obs, 16, eps, mode="ideal", seed=n)
    assert report.circuit_path == path
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


def test_estimate_decomposes_the_reduced_state_once(monkeypatch):
    pur = pt.purify(pt.random_density(2, 3, seed=17))
    obs = pt.make_observable(pt.InstanceSpec(qubits=2, rank=1, seed=17))
    calls = []
    real_eigh = linalg.eigh
    monkeypatch.setattr(linalg, "eigh", lambda *a, **kw: calls.append(1) or real_eigh(*a, **kw))
    pt.estimate_trace_power(pur, obs, 5, 0.05, seed=0)
    assert len(calls) == 1


def test_estimate_validation():
    rho = pt.random_density(1, 2, seed=10)
    obs = pt.Observable(Z)
    with pytest.raises(pt.ValidationError):
        pt.estimate_trace_power(pt.purify(rho), obs, 1, 0.05)
    with pytest.raises(pt.ValidationError):
        pt.estimate_trace_power(pt.purify(rho), obs, 4, 0.0)


# ------------------------------------------------------------------ entropies

def test_renyi_of_pure_state_is_zero():
    rho = pt.random_density(2, 1, seed=11)
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


def test_tsallis_printed_and_standard_forms():
    rho = pt.DensityMatrix(np.eye(4, dtype=complex) / 4)
    pur = pt.purify(rho)
    printed = pt.tsallis_entropy(pur, 3, 0.005, mode="ideal", seed=3)
    # Tr(rho^3) = 1/16 under the plain ratio form
    assert printed.value == pytest.approx((1 / 16) / (1 - 3), abs=printed.error_bound)
    standard = pt.tsallis_entropy(pur, 3, 0.005, mode="ideal", seed=3, standard_form=True)
    assert standard.value == pytest.approx((1 - 1 / 16) / 2, abs=standard.error_bound)


# -------------------------------------------------------------------- vd_ratio

def test_vd_ratio_pure_state():
    rho = pt.random_density(2, 1, seed=12)
    obs = pt.Observable(np.kron(Z, np.eye(2)).astype(complex))
    result = pt.vd_ratio(pt.purify(rho), obs, 4, 0.01, 0.01, mode="ideal", seed=0)
    expected = pt.trace_power_obs_oracle(rho, obs, 1).real  # <psi|O|psi>
    assert abs(result.ratio_estimate - expected) <= result.error_bound


def test_vd_ratio_distills_dominant_eigenvector():
    rng = np.random.default_rng(21)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    rho = pt.DensityMatrix(0.9 * np.outer(psi, psi.conj()) + 0.1 * np.eye(4) / 4)
    obs = pt.Observable(np.kron(Z, np.eye(2)).astype(complex))
    result = pt.vd_ratio(pt.purify(rho), obs, 20, 2e-3, 2e-3, mode="ideal", seed=1)
    pure_expectation = float(np.real(psi.conj() @ obs.mat @ psi))
    assert abs(result.ratio_estimate - pure_expectation) <= 0.02


def test_vd_ratio_refuses_vanishing_denominator():
    rho = pt.DensityMatrix(np.eye(4, dtype=complex) / 4)
    obs = pt.Observable(np.kron(Z, np.eye(2)).astype(complex))
    with pytest.raises(pt.UnreliableEstimateError):
        pt.vd_ratio(pt.purify(rho), obs, 8, 0.01, 0.01, mode="ideal", seed=2)


def test_vd_ratio_bound_covers_in_most_runs():
    covered = 0
    runs = 40
    obs = pt.Observable(np.kron(Z, np.eye(2)).astype(complex))
    for seed in range(runs):
        rho = pt.random_density(2, 2, seed=seed)
        result = pt.vd_ratio(pt.purify(rho), obs, 4, 0.02, 0.02, seed=seed)
        true_ratio = (
            pt.trace_power_obs_oracle(rho, obs, 4).real
            / pt.trace_power_obs_oracle(rho, pt.Observable(np.eye(4, dtype=complex)), 4).real
        )
        if abs(result.ratio_estimate - true_ratio) <= result.error_bound:
            covered += 1
    assert covered / runs >= 0.9
