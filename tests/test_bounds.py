import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powertrace as pt
from powertrace.bounds import _swap_test_outcome_table, helstrom_m_star
from powertrace.reference import cyclic_permutation, fidelity, partial_trace

PROJ0 = np.diag([1.0, 0.0]).astype(complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def tensor_power(m, k):
    out = np.array([[1.0 + 0.0j]])
    for _ in range(k):
        out = np.kron(out, m)
    return out


# -------------------------------------------------------- cyclic_permutation

def test_two_cycle_is_swap():
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    assert np.array_equal(cyclic_permutation(2, 2), swap)


@pytest.mark.parametrize("k,d", [(2, 2), (3, 2), (4, 2), (3, 3)])
def test_cycle_has_order_k(k, d):
    p = cyclic_permutation(k, d)
    assert np.array_equal(np.linalg.matrix_power(p, k), np.eye(d ** k))
    if k > 1:
        assert not np.array_equal(p, np.eye(d ** k))


def test_cycle_action_on_basis():
    p = cyclic_permutation(3, 2)
    # |0,1,1> -> |1,0,1>
    src = np.zeros(8)
    src[0b011] = 1.0
    dst = p @ src
    assert dst[0b101] == 1.0


@pytest.mark.parametrize("k", [2, 3, 4])
def test_permutation_trace_identity_one_qubit(k):
    for seed in range(6):
        rho = pt.random_density(1, 2, seed)
        obs = pt.make_observable(pt.InstanceSpec(qubits=1, rank=1, seed=seed))
        lhs = np.trace(
            cyclic_permutation(k, 2)
            @ tensor_power(rho.mat, k)
            @ np.kron(obs.mat, np.eye(2 ** (k - 1)))
        )
        rhs = pt.trace_power_obs_oracle(rho, obs, k)
        assert abs(lhs - rhs) <= 1e-9


@pytest.mark.parametrize("k", [2, 3])
def test_permutation_trace_identity_two_qubits(k):
    for seed in range(4):
        rho = pt.random_density(2, 3, seed)
        obs = pt.make_observable(pt.InstanceSpec(qubits=2, rank=1, seed=seed))
        lhs = np.trace(
            cyclic_permutation(k, 4)
            @ tensor_power(rho.mat, k)
            @ np.kron(obs.mat, np.eye(4 ** (k - 1)))
        )
        rhs = pt.trace_power_obs_oracle(rho, obs, k)
        assert abs(lhs - rhs) <= 1e-9


def test_cycle_respects_cap():
    with pytest.raises(pt.ResourceError):
        cyclic_permutation(20, 2)


# --------------------------------------------------------- swap_test_estimate

def test_swap_test_pure_state_identity_observable():
    rho = pt.random_density(1, 1, seed=0)
    obs = pt.Observable(np.eye(2, dtype=complex))
    result = pt.swap_test_estimate(rho, obs, 4, shots=200, seed=1)
    assert result.mean == pytest.approx(1.0, abs=1e-9)
    assert result.stderr == pytest.approx(0.0, abs=1e-9)
    assert result.copies_used == 800
    assert result.mode == "exact"


def test_swap_test_maximally_mixed_purity():
    rho = pt.DensityMatrix(np.eye(2, dtype=complex) / 2)
    obs = pt.Observable(np.eye(2, dtype=complex))
    result = pt.swap_test_estimate(rho, obs, 3, shots=20_000, seed=2)
    assert abs(result.mean - 0.25) <= 4 * result.stderr


def test_swap_test_unbiased_pooled():
    rho = pt.random_density(1, 2, seed=3)
    obs = pt.Observable(Z)
    oracle = pt.trace_power_obs_oracle(rho, obs, 3).real
    result = pt.swap_test_estimate(rho, obs, 3, shots=100_000, seed=4)
    assert abs(result.mean - oracle) <= 5 * result.stderr


def test_swap_test_outcome_table_matches_full_circuit():
    # independent oracle: build the (H, controlled-cycle) circuit explicitly
    rho = pt.random_density(1, 2, seed=5)
    obs = pt.make_observable(pt.InstanceSpec(qubits=1, rank=1, seed=5))
    k = 3
    d, n_all = 2, 2 ** 3
    r = tensor_power(rho.mat, k)
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    big_h = np.kron(h, np.eye(n_all))
    ctrl_p = np.block(
        [
            [np.eye(n_all), np.zeros((n_all, n_all))],
            [np.zeros((n_all, n_all)), cyclic_permutation(k, d)],
        ]
    )
    circuit = ctrl_p @ big_h
    state_in = np.zeros((2 * n_all, 2 * n_all), dtype=complex)
    state_in[:n_all, :n_all] = r
    state_out = circuit @ state_in @ circuit.conj().T
    x_obs = np.array([[0, 1], [1, 0]], dtype=complex)
    m_full = np.kron(x_obs, np.kron(obs.mat, np.eye(d ** (k - 1))))
    values, probs = _swap_test_outcome_table(rho, obs, k)
    assert float(values @ probs) == pytest.approx(
        float(np.trace(m_full @ state_out).real), abs=1e-10
    )
    second_moment = float((values ** 2) @ probs)
    assert second_moment == pytest.approx(
        float(np.trace(m_full @ m_full @ state_out).real), abs=1e-10
    )


def test_swap_test_moments_closed_form():
    rho = pt.random_density(2, 2, seed=6)
    obs = pt.Observable(np.kron(Z, np.eye(2)).astype(complex))
    mean, var = pt.swap_test_moments(rho, obs, 5)
    assert mean == pytest.approx(pt.trace_power_obs_oracle(rho, obs, 5).real, abs=1e-12)
    assert var == pytest.approx(
        np.trace(rho.mat @ obs.mat @ obs.mat).real - mean ** 2, abs=1e-12
    )


@pytest.mark.parametrize("k", [10, 64])  # 21 and 129 qubits
def test_swap_test_exact_above_cap(k):
    rho = pt.random_density(2, 2, seed=7)
    obs = pt.Observable(np.kron(Z, np.eye(2)).astype(complex))
    result = pt.swap_test_estimate(rho, obs, k, shots=50_000, seed=8)
    assert result.mode == "exact"
    mean, var = pt.swap_test_moments(rho, obs, k)
    assert abs(result.mean - mean) <= 5 * result.stderr
    assert result.stderr == pytest.approx(math.sqrt(var / 50_000), rel=0.05)


def _tensor_product_outcome_table(rho, obs, k):
    # the d^k-dimensional construction: rho^(x k), the cycle P, and the
    # control-0/1 blocks (1/2) [[R, R P^dag], [P R, P R P^dag]] reduced to
    # the first copy, read out in the same order as the closed form
    d = rho.dim
    r = tensor_power(rho.mat, k)
    p_cycle = cyclic_permutation(k, d).astype(complex)
    rest = d ** (k - 1)
    top_right = partial_trace(r @ p_cycle.conj().T, (d, rest), keep="A")
    bottom_left = partial_trace(p_cycle @ r, (d, rest), keep="A")
    diag = partial_trace(r, (d, rest), keep="A")
    tau = 0.5 * np.block([[diag, top_right], [bottom_left, diag]])
    w_o, v_o = pt.eigh(obs.mat)
    values, probs = [], []
    for s, ctrl in ((1.0, [1.0, 1.0]), (-1.0, [1.0, -1.0])):
        for j in range(d):
            proj_vec = np.kron(np.array(ctrl) / math.sqrt(2.0), v_o[:, j])
            values.append(s * float(w_o[j]))
            probs.append(max(float(np.real(proj_vec.conj() @ tau @ proj_vec)), 0.0))
    probs = np.asarray(probs)
    return np.asarray(values), probs / probs.sum()


@pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 3), (1, 5), (2, 4), (3, 3), (1, 8)])
def test_swap_test_closed_form_matches_tensor_construction(n, k):
    rho = pt.random_density(n, 2, seed=20 + n + k)
    obs = pt.make_observable(pt.InstanceSpec(qubits=n, rank=1, seed=k))
    want_values, want_probs = _tensor_product_outcome_table(rho, obs, k)
    values, probs = _swap_test_outcome_table(rho, obs, k)
    assert np.max(np.abs(values - want_values)) <= 1e-12
    assert np.max(np.abs(probs - want_probs)) <= 1e-12
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        draws = want_values[rng.choice(want_values.size, size=500, p=want_probs)]
        result = pt.swap_test_estimate(rho, obs, k, shots=500, seed=seed)
        assert result.mean == float(np.mean(draws))
        assert result.stderr == float(np.std(draws, ddof=1) / math.sqrt(500))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 3),
    rank_frac=st.floats(0.0, 1.0),
    k=st.integers(1, 256),
    seed=st.integers(0, 2 ** 16),
)
def test_swap_test_outcome_table_law(n, rank_frac, k, seed):
    rank = 1 + round(rank_frac * (2 ** n - 1))
    spec = pt.InstanceSpec(qubits=n, rank=rank, seed=seed)
    rho, obs = pt.make_state(spec), pt.make_observable(spec)
    values, probs = _swap_test_outcome_table(rho, obs, k)
    assert np.all(probs >= 0.0)
    assert abs(probs.sum() - 1.0) <= 1e-12
    mean = float(values @ probs)
    exact = np.trace(np.linalg.matrix_power(rho.mat, k) @ obs.mat).real
    assert abs(mean - exact) <= 1e-12
    var = float((values ** 2) @ probs) - mean ** 2
    assert abs(var - pt.swap_test_moments(rho, obs, k)[1]) <= 1e-12


def test_swap_tests_on_one_state_share_one_decomposition(numpy_decompositions):
    rho = pt.random_density(2, 3, seed=21)
    obs = pt.Observable(np.kron(Z, np.eye(2)).astype(complex))
    pt.swap_test_moments(rho, obs, 4)
    for seed in range(5):
        pt.swap_test_estimate(rho, obs, 4, shots=100, seed=seed)
    names = [name for name, _ in numpy_decompositions]
    assert "eigvalsh" not in names and "einsum" not in names
    # rho is diagonalised once, when it is validated, and the observable
    # once, on first use, for all five swap tests
    on_rho = [arg for name, arg in numpy_decompositions if name == "eigh" and np.array_equal(arg, rho.mat)]
    assert len(on_rho) == 1
    on_obs = [arg for name, arg in numpy_decompositions if name == "eigh" and np.array_equal(arg, obs.mat)]
    assert len(on_obs) == 1


def test_swap_test_stderr_scaling():
    # balanced spectrum keeps the per-shot outcome variance well away from 0,
    # so the sampled stderr tracks c / sqrt(shots) tightly
    rho = pt.DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
    obs = pt.Observable(np.eye(2, dtype=complex))
    stderrs = []
    shots_list = [100, 1000, 10000]
    for i, shots in enumerate(shots_list):
        reps = [
            pt.swap_test_estimate(rho, obs, 3, shots=shots, seed=100 * i + r).stderr
            for r in range(5)
        ]
        stderrs.append(np.mean(reps))
    slope = np.polyfit(np.log(shots_list), np.log(stderrs), 1)[0]
    assert abs(slope + 0.5) <= 0.05


def test_swap_test_validation():
    rho = pt.random_density(1, 2, seed=10)
    with pytest.raises(pt.ValidationError):
        pt.swap_test_estimate(rho, pt.Observable(Z), 3, shots=1)
    ladder = pt.Observable(np.array([[0, 1], [0, 0]], dtype=complex), hermitian=False)
    with pytest.raises(pt.ValidationError):
        pt.swap_test_estimate(rho, ladder, 3, shots=100)


# --------------------------------------------------------- helstrom_experiment

def test_helstrom_no_copies_no_information():
    table = pt.helstrom_experiment(10, 0.5, [0])
    assert table.rows[0].success_lower_bound == pytest.approx(0.5)
    assert table.rows[0].fidelity == 1.0


def test_helstrom_threshold_value():
    # (1 - 0.05)^m <= 4/9 first holds at m = 16
    assert helstrom_m_star(10, 0.5) == 16
    table = pt.helstrom_experiment(10, 0.5, [15, 16])
    assert table.m_star == 16
    assert (1 - 0.05) ** 16 <= 4 / 9 < (1 - 0.05) ** 15


def test_helstrom_linear_growth():
    ks = [10, 20, 40, 80]
    m_stars = [helstrom_m_star(k, 0.5) for k in ks]
    slope = np.polyfit(ks, m_stars, 1)[0]
    base_rate = m_stars[0] / ks[0]
    assert 0.8 * base_rate <= slope <= 1.2 * base_rate


def test_helstrom_fidelity_matches_dense_computation():
    k, c, m = 10, 0.5, 3
    eps_prime = c / k
    inst = pt.discrimination_instance(k, eps_prime)
    a = pt.DensityMatrix(tensor_power(inst.rho0.mat, m))
    b = pt.DensityMatrix(tensor_power(inst.rho1.mat, m))
    table = pt.helstrom_experiment(k, c, [m])
    assert table.rows[0].fidelity == pytest.approx(fidelity(a, b), abs=1e-9)


def test_discrimination_instance_gap():
    inst = pt.discrimination_instance(5, 0.1)
    t0 = pt.trace_power_obs_oracle(inst.rho0, inst.obs, 5).real
    t1 = pt.trace_power_obs_oracle(inst.rho1, inst.obs, 5).real
    assert t0 - t1 == pytest.approx(inst.gap, abs=1e-12)


# ----------------------------------------------------------- lecam_construction

def test_lecam_expectations():
    rho0, rho1, kl = pt.lecam_construction(pt.Observable(Z), 0.1)
    assert np.trace(rho0.mat @ Z).real == pytest.approx(0.1, abs=1e-10)
    assert np.trace(rho1.mat @ Z).real == pytest.approx(-0.1, abs=1e-10)
    assert kl > 0


def test_lecam_small_bias_limit():
    # D(1/2+d || 1/2-d) / d^2 -> 8 as d -> 0
    for eps, delta in ((2e-2, 1e-2), (2e-3, 1e-3)):
        _, _, kl = pt.lecam_construction(pt.Observable(Z), eps)
        assert kl / delta ** 2 == pytest.approx(8.0, rel=2e-3)


def test_lecam_copy_bound_scaling():
    eps_grid = [0.3, 0.1, 0.03, 0.01]
    bounds = []
    for eps in eps_grid:
        _, _, kl = pt.lecam_construction(pt.Observable(Z), eps)
        bounds.append(1.0 / kl)
    slope = np.polyfit(np.log([1 / e for e in eps_grid]), np.log(bounds), 1)[0]
    assert abs(slope - 2.0) <= 0.1


def test_lecam_degenerate_eigenspaces():
    obs = pt.Observable(np.diag([2.0, 2.0, -2.0, -2.0]).astype(complex))
    rho0, rho1, _ = pt.lecam_construction(obs, 0.4)
    assert np.trace(rho0.mat @ obs.mat).real == pytest.approx(0.4, abs=1e-10)
    assert abs(np.trace(rho0.mat) - 1.0) <= 1e-12


def test_lecam_rejects_one_sided_spectrum():
    with pytest.raises(pt.ConstructionError):
        pt.lecam_construction(pt.Observable(PROJ0), 0.1)


# ------------------------------------------------------------ hybrid_bound_demo

def test_hybrid_zero_kick():
    table = pt.hybrid_bound_demo(pt.Observable(Z), 0.0)
    assert table.norm_direct == pytest.approx(0.0, abs=1e-12)
    assert table.t_star == 0


def test_hybrid_closed_form_delta_03():
    # ||O|| = 1, eps = 0.15 -> delta = 0.3
    table = pt.hybrid_bound_demo(pt.Observable(Z), 0.15)
    expected = math.sqrt(0.09 + (1 - math.sqrt(0.91)) ** 2)
    assert table.delta == pytest.approx(0.3)
    assert table.norm_direct == pytest.approx(expected, abs=1e-9)
    assert table.norm_closed_form == pytest.approx(expected, abs=1e-15)


def test_hybrid_crossing_scales_inversely_with_eps():
    eps_grid = [0.1, 0.03, 0.01, 0.003]
    t_stars = [
        pt.hybrid_bound_demo(pt.Observable(Z), eps).t_star for eps in eps_grid
    ]
    slope = np.polyfit(np.log([1 / e for e in eps_grid]), np.log(t_stars), 1)[0]
    assert abs(slope - 1.0) <= 0.05


def test_hybrid_rejects_delta_above_one():
    with pytest.raises(pt.ValidationError):
        pt.hybrid_bound_demo(pt.Observable(Z), 0.6)


# ---------------------------------------------------------------- bqp_instance

def _accept_first_qubit(r_qubits):
    return pt.Observable(
        np.kron(np.diag([0.0, 1.0]).astype(complex), np.eye(2 ** (r_qubits - 1)))
    )


def test_bqp_accepting_circuit():
    # X on the first register qubit sends |00> to an accepting state
    x_first = np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2))
    inst = pt.bqp_instance(x_first, _accept_first_qubit(2), q=10.0, k=5)
    assert inst.p_x == pytest.approx(1.0)
    lam = 1 - 1 / (10 * 5)
    assert inst.lam == pytest.approx(lam)
    rho = inst.purified_state.state
    assert pt.trace_power_obs_oracle(rho, inst.obs, 5).real == pytest.approx(
        lam ** 5, abs=1e-10
    )


def test_bqp_rejecting_circuit():
    inst = pt.bqp_instance(np.eye(4, dtype=complex), _accept_first_qubit(2), q=10.0, k=5)
    assert inst.p_x == pytest.approx(0.0)
    rho = inst.purified_state.state
    assert abs(pt.trace_power_obs_oracle(rho, inst.obs, 5)) <= 1e-12


@pytest.mark.parametrize("q", [2.0, 10.0, 100.0])
@pytest.mark.parametrize("k", [1, 5, 50])
def test_bqp_weight_decay_bound(q, k):
    if q * k <= 1:
        pytest.skip("weight undefined")
    inst = pt.bqp_instance(
        pt.random_unitary(4, seed=int(q) + k), _accept_first_qubit(2), q=q, k=k
    )
    assert inst.lam ** k >= 1 - 1 / q - 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_bqp_identity_defect_random_circuits(seed):
    inst = pt.bqp_instance(
        pt.random_unitary(4, seed=seed), _accept_first_qubit(2), q=2.0, k=5
    )
    assert inst.identity_defect <= 1e-10
    a, b = inst.thresholds
    assert a - b == pytest.approx(inst.lam ** inst.k / 3, abs=1e-12)


def test_bqp_thresholds_classify_promise():
    u = pt.random_unitary(4, seed=0)
    inst = pt.bqp_instance(u, _accept_first_qubit(2), q=10.0, k=3)
    value = inst.lam ** inst.k * inst.p_x
    a, b = inst.thresholds
    if inst.p_x >= 2 / 3:
        assert value >= a - 1e-12
    if inst.p_x <= 1 / 3:
        assert value <= b + 1e-12


def test_bqp_no_null_state_available():
    always_accept = pt.Observable(np.eye(4, dtype=complex))
    with pytest.raises(pt.ConstructionError):
        pt.bqp_instance(np.eye(4, dtype=complex), always_accept, q=10.0, k=2)


def test_bqp_rejects_non_projector():
    bad = pt.Observable(0.5 * np.eye(4, dtype=complex))
    with pytest.raises(pt.ValidationError):
        pt.bqp_instance(np.eye(4, dtype=complex), bad, q=10.0, k=2)


def test_bqp_rejects_non_unitary():
    with pytest.raises(pt.ValidationError):
        pt.bqp_instance(
            np.diag([1.0, 0.5, 1.0, 1.0]).astype(complex),
            _accept_first_qubit(2),
            q=10.0,
            k=2,
        )


def test_bqp_estimator_integration():
    # the reduction instance feeds straight into the query-access estimator
    inst = pt.bqp_instance(
        pt.random_unitary(4, seed=13), _accept_first_qubit(2), q=10.0, k=2
    )
    report = pt.estimate_trace_power(inst.purified_state, inst.obs, 2, 0.05, seed=3)
    assert abs(report.estimate - report.oracle_value) <= 0.05
