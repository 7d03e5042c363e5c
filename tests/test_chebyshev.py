import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import powertrace as pt
from powertrace import chebyshev
from powertrace.qsvt import SUP_NORM_SLACK


# ------------------------------------------------------------ power_expansion

def test_expansion_k1_is_t1():
    c = pt.power_expansion(1)
    assert c.dtype == np.float64 and c.tolist() == [0.0, 1.0]
    assert not c.flags.writeable


def test_expansion_k2():
    assert pt.power_expansion(2).tolist() == [0.5, 0.0, 0.5]


def test_expansion_k3_matches_basis_change_oracle():
    # brute-force basis change via numpy's monomial -> Chebyshev conversion
    c = pt.power_expansion(3)
    assert c[1] == pytest.approx(0.75, abs=1e-15)
    assert c[3] == pytest.approx(0.25, abs=1e-15)
    oracle = np.polynomial.chebyshev.poly2cheb([0, 0, 0, 1])
    assert np.allclose(c, oracle, atol=1e-14)


@pytest.mark.parametrize("k", [4, 7, 12, 19, 30])
def test_expansion_matches_poly2cheb(k):
    mono = np.zeros(k + 1)
    mono[k] = 1.0
    oracle = np.polynomial.chebyshev.poly2cheb(mono)
    assert np.allclose(pt.power_expansion(k), oracle, atol=1e-13)


@pytest.mark.parametrize("k", [1, 2, 9, 64, 200])
def test_expansion_nonnegative_and_normalized(k):
    c = pt.power_expansion(k)
    assert np.all(c >= 0)
    # evaluation at 1 equals 1^k
    assert pt.clenshaw_eval(c, 1.0) == pytest.approx(1.0, abs=1e-12)
    # modes of the other parity are exact zeros
    assert np.all(c[1 - k % 2::2] == 0.0)


def test_expansion_large_k_stays_finite():
    c = pt.power_expansion(1024)
    assert np.all(np.isfinite(c))
    assert pt.clenshaw_eval(c, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_expansion_rejects_bad_k():
    with pytest.raises(pt.ValidationError):
        pt.power_expansion(0)
    with pytest.raises(pt.ValidationError):
        pt.power_expansion(2000)


# ------------------------------------------------------------ required_degree

def test_required_degree_examples():
    assert pt.required_degree(50, 0.01) == 24
    assert pt.required_degree(2, 1.0) == 2
    assert pt.required_degree(8, 0.7358) == 4


def test_required_degree_parity_and_monotonicity():
    prev = 0
    for k in range(1, 60):
        m = pt.required_degree(k, 1e-2)
        assert m % 2 == k % 2
        assert m >= math.sqrt(2 * k * math.log(2 / 1e-2)) - 1e-12
        assert m >= prev - 1  # parity wiggle allows 1 step down
        prev = m


def test_required_degree_validation():
    with pytest.raises(pt.ValidationError):
        pt.required_degree(0, 0.1)
    with pytest.raises(pt.ValidationError):
        pt.required_degree(5, 0.0)


# ---------------------------------------------------- truncation: c[:m + 1]

def test_truncate_k2_at_zero():
    c = pt.power_expansion(2)
    tail_exact, _ = pt.truncation_tails(c, 0)
    assert tail_exact == pytest.approx(0.5, abs=1e-15)
    assert c[:1].tolist() == [0.5]


def test_truncate_nothing_dropped():
    for k in (3, 8):
        c = pt.power_expansion(k)
        assert pt.truncation_tails(c, k)[0] == 0.0
        assert c[k] > 0  # the truncation keeps degree k


def test_truncate_k8_m4():
    tail_exact, tail_chernoff = pt.truncation_tails(pt.power_expansion(8), 4)
    # drops T_6 (8/128) and T_8 (1/128)
    assert tail_exact == pytest.approx(9 / 128, abs=1e-15)
    assert tail_exact <= 2 * math.exp(-1) + 1e-12
    assert tail_chernoff == pytest.approx(2 * math.exp(-1), abs=1e-12)


@pytest.mark.parametrize("k", [3, 10, 41, 100])
def test_tail_exact_below_chernoff(k):
    expansion = pt.power_expansion(k)
    for m in range(0, k + 1):
        tail_exact, tail_chernoff = pt.truncation_tails(expansion, m)
        assert tail_exact <= tail_chernoff + 1e-12


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(k=st.integers(1, 1024))
def test_expansion_is_a_normalised_nonnegative_array(k):
    """Nonnegative, zero at the other parity and summing to 1; every
    prefix passes the transform's certificate, and every exact tail is
    within the Chernoff bound."""
    c = pt.power_expansion(k)
    assert c.shape == (k + 1,) and np.all(c >= 0)
    assert np.all(c[1 - k % 2::2] == 0.0)
    assert abs(math.fsum(c) - 1.0) <= 1e-12
    assert np.all(np.cumsum(c) <= 1.0 + SUP_NORM_SLACK)
    for m in range(k + 1):
        tail_exact, tail_chernoff = pt.truncation_tails(c, m)
        assert tail_exact <= tail_chernoff


# ------------------------------------------------------------- clenshaw_eval

def test_clenshaw_t3_at_half():
    assert pt.clenshaw_eval(np.array([0.0, 0.0, 0.0, 1.0]), 0.5) == pytest.approx(-1.0, abs=1e-14)


@pytest.mark.parametrize("k", [1, 2, 5, 17, 30])
def test_clenshaw_reproduces_powers(k):
    c = pt.power_expansion(k)
    xs = np.linspace(-1, 1, 101)
    assert np.max(np.abs(pt.clenshaw_eval(c, xs) - xs ** k)) <= 1e-12


def test_clenshaw_many_random_points_high_degree():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1, 1, size=1000)
    for k in (40, 60):
        c = pt.power_expansion(k)
        assert np.max(np.abs(pt.clenshaw_eval(c, xs) - xs ** k)) <= 1e-10


def test_clenshaw_at_one_equals_coefficient_sum():
    kept = pt.power_expansion(12)[:7]
    assert pt.clenshaw_eval(kept, 1.0) == pytest.approx(kept.sum(), abs=1e-13)


def test_clenshaw_bounded_by_abs_sum():
    rng = np.random.default_rng(5)
    c = rng.standard_normal(9)
    xs = rng.uniform(-1, 1, 200)
    assert np.max(np.abs(pt.clenshaw_eval(c, xs))) <= np.abs(c).sum() + 1e-12


def test_clenshaw_rejects_out_of_domain():
    with pytest.raises(pt.ValidationError):
        pt.clenshaw_eval(pt.power_expansion(2), 1.5)


def _textbook_clenshaw(c, x):
    b1 = b2 = np.zeros_like(x)
    for n in range(len(c) - 1, 0, -1):
        b1, b2 = c[n] + 2.0 * x * b1 - b2, b1
    return c[0] + x * b1 - b2


_unit = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    c=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=80),
    x=st.one_of(_unit, st.lists(_unit, min_size=1, max_size=16)),
)
def test_clenshaw_step_is_the_textbook_recurrence_bit_for_bit(c, x):
    """The in-place step computes (c[n] + (2x) b1) - b2, the textbook
    expression in the same operation order, so every bit agrees."""
    c = np.array(c)
    x_arr = np.array(x, dtype=np.float64)
    got = pt.clenshaw_eval(c, x if isinstance(x, float) else x_arr)
    assert isinstance(got, float) == isinstance(x, float)
    assert np.array_equal(got, _textbook_clenshaw(c, x_arr))


def _routes(c, x):
    """``clenshaw_eval(c, x)`` on the numpy route, then on the Python-float route."""
    outs = []
    for limit in (0, 10 ** 9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chebyshev, "SCALAR_POINTS", limit)
            outs.append(pt.clenshaw_eval(c, x))
    return outs


_point = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 1.0]), _unit)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    c=st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6, allow_nan=False)),
               min_size=1, max_size=60),
    x=st.lists(_point, min_size=1, max_size=40),
)
def test_clenshaw_routes_agree_bit_for_bit(c, x):
    """The Python-float route makes the numpy route's IEEE operations in the
    same order: every output bit agrees, the sign of a zero included."""
    numpy_route, float_route = _routes(np.array(c), np.array(x))
    assert numpy_route.shape == float_route.shape == (len(x),)
    assert np.array_equal(numpy_route.view(np.uint64), float_route.view(np.uint64))


_LIMIT = chebyshev.SCALAR_POINTS


@pytest.mark.parametrize("shape,on_floats", [((_LIMIT,), True), ((2, _LIMIT // 2), True), ((_LIMIT + 1,), False),
                                             ((1, _LIMIT + 1), False)], ids=["at-limit", "two-rows", "one-past", "one-row-past"])
def test_clenshaw_takes_the_float_route_up_to_scalar_points(monkeypatch, shape, on_floats):
    """A 1-D c on at most SCALAR_POINTS points steps on Python floats, point
    by point, and on more it steps in numpy; the two agree bit for bit."""
    points = []
    monkeypatch.setattr(chebyshev, "_clenshaw_floats", lambda c, xs, real=chebyshev._clenshaw_floats:
                        points.extend(xs) or real(c, xs))
    c = pt.power_expansion(41)[:30]
    x = np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape)
    got = pt.clenshaw_eval(c, x)
    assert len(points) == (x.size if on_floats else 0)
    assert got.shape == shape
    for route in _routes(c, x):
        assert np.array_equal(got.view(np.uint64), route.view(np.uint64))


@pytest.mark.parametrize("x", [-1.0, -0.0, 0.3, np.float64(1.0)])
def test_clenshaw_of_a_scalar_is_a_python_float_on_both_routes(x):
    c = pt.power_expansion(9)
    numpy_route, float_route = _routes(c, x)
    assert type(numpy_route) is float and type(float_route) is float
    assert np.float64(numpy_route).view(np.uint64) == np.float64(float_route).view(np.uint64)


# ------------------------------------------------------------ sup_error_scan

def test_sup_error_untruncated():
    assert pt.sup_error_scan(pt.power_expansion(20), 20, 512) <= 1e-12


def test_sup_error_at_formula_degree():
    k = 50
    m = pt.required_degree(k, 1e-3)
    assert pt.sup_error_scan(pt.power_expansion(k)[:m + 1], k, 4096) <= 1e-3


def test_gross_truncation_fails():
    assert pt.sup_error_scan(pt.power_expansion(10)[:3], 10, 1024) > 0.1


def test_scan_maximum_sits_at_the_boundary():
    # dropped coefficients are positive, so the error peaks at x = 1
    c = pt.power_expansion(16)
    measured = pt.sup_error_scan(c[:9], 16, 2048)
    assert measured == pytest.approx(pt.truncation_tails(c, 8)[0], abs=1e-12)


def test_minimal_empirical_degree_frozen_values():
    # frozen from exact dropped-coefficient sums
    assert pt.minimal_empirical_degree(8, 1e-3) == 8
    assert pt.minimal_empirical_degree(16, 1e-3) == 12
    assert pt.minimal_empirical_degree(32, 1e-3) == 18


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.integers(1, 1024), eps=st.floats(1e-12, 1.0))
def test_minimal_empirical_degree_is_the_least_scanned_degree(k, eps):
    """The exact-tail degree passes the grid scan, and the degree of the same
    parity below it fails the scan: the scan's binary search, as an oracle."""
    c = pt.power_expansion(k)
    tails = [pt.truncation_tails(c, m)[0] for m in range(k + 1)]
    assume(all(abs(tail - eps) > 1e-12 * eps for tail in tails))  # rounding decides there
    m = pt.minimal_empirical_degree(k, eps)
    assert m % 2 == k % 2 and m <= k
    assert pt.sup_error_scan(c[:m + 1], k, 4096) <= eps
    if m >= 2:
        assert pt.sup_error_scan(c[:m - 1], k, 4096) > eps


def test_minimal_empirical_degree_is_minimal():
    k, eps = 24, 1e-3
    m = pt.minimal_empirical_degree(k, eps)
    expansion = pt.power_expansion(k)
    assert pt.sup_error_scan(expansion[:m + 1], k, 4096) <= eps
    if m >= 2:
        assert pt.sup_error_scan(expansion[:m - 1], k, 4096) > eps


# ------------------------------------------------------- assorted invariants

def test_truncations_are_admissible():
    # every truncation is bounded by 1 on [-1, 1]
    xs = np.linspace(-1, 1, 401)
    for k in (5, 12, 33):
        expansion = pt.power_expansion(k)
        for m in range(k % 2, k + 1, max(2, k // 4)):
            assert np.max(np.abs(pt.clenshaw_eval(expansion[:m + 1], xs))) <= 1.0 + 1e-12


def test_endpoint_derivative_of_chebyshev_basis():
    # |T_l'(+-1)| = l^2, the boundary growth that makes sqrt(k) degrees work
    for ell in (1, 2, 5, 11):
        t = np.polynomial.chebyshev.Chebyshev([0] * ell + [1])
        dt = t.deriv()
        assert abs(dt(1.0)) == pytest.approx(ell ** 2, rel=1e-10)
        assert abs(dt(-1.0)) == pytest.approx(ell ** 2, rel=1e-10)
