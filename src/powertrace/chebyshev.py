"""Chebyshev-T expansion and truncation of the power function x^k.

The expansion used throughout is

    x^k = 2^(1-k) * sum_{j=0}^{floor(k/2)} a_j C(k, j) T_{k-2j}(x),

with a_j = 1/2 when k is even and j = k/2, else a_j = 1 (Sachdeva and
Vishnoi, "Faster Algorithms via Approximation Theory", 2014, section 3).
An expansion is its coefficient array c[0..k]; the truncation at degree m
is the prefix c[:m + 1]. All coefficients are nonnegative and sum to 1,
so every truncation is bounded by 1 on [-1, 1] -- the admissibility
condition the eigenvalue transform in :mod:`powertrace.qsvt` certifies.
Dropping the modes above m leaves a tail, the sup error at x = 1, bounded
by the binomial Chernoff estimate 2*exp(-m^2 / (2k)).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ValidationError

# terms below this are exact zeros: 2^-(k-1) is the least term, first below it at k = 998
COEFF_FLOOR = 1e-300

MAX_POWER = 1024
# up to this many points, Python floats step faster than three numpy calls a
# degree (timed crossover: 36-48 points, at every degree from 41 to 1300)
SCALAR_POINTS = 32


@functools.cache
def power_expansion(k: int) -> np.ndarray:
    """Chebyshev-T coefficients c[0..k] of x^k on [-1, 1], read-only, built once per k.

    Each coefficient is the exact integer ratio a_j C(k, j) / 2^(k-1)
    evaluated with arbitrary-precision integers, so nothing overflows for
    k up to 1024 and dyadic values (such as the 1/2's at k = 2) come out
    exact. Modes of the other parity, and terms below 1e-300, are exact
    zeros. The truncation at degree m is the prefix c[:m + 1].
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValidationError(f"power must be a positive integer, got {k!r}")
    if k > MAX_POWER:
        raise ValidationError(f"power {k} exceeds supported maximum {MAX_POWER}")
    k = int(k)
    c = np.zeros(k + 1)
    for j in range(k // 2 + 1):
        shift = k - 1
        if k % 2 == 0 and j == k // 2:
            shift = k  # the central mode carries an extra factor 1/2
        value = math.comb(k, j) / (1 << shift)
        if value >= COEFF_FLOOR:
            c[k - 2 * j] = value
    c.flags.writeable = False
    return c


def truncation_tails(c: np.ndarray, m: int) -> tuple[float, float]:
    """(exact, Chernoff) tails of truncating the expansion c of x^k,
    k = len(c) - 1, at degree m.

    The exact tail is the sum of the dropped (nonnegative) coefficients and
    bounds the sup-norm truncation error exactly; the Chernoff tail is its
    closed-form bound 2*exp(-m^2/(2k)).
    """
    k = len(c) - 1
    return math.fsum(c[m + 1:]), 2.0 * math.exp(-(m ** 2) / (2.0 * k))


def required_degree(k: int, eps: float) -> int:
    """Truncation degree for approximating x^k to sup error eps.

    Smallest integer at least sqrt(2 k ln(2/eps)) sharing the parity of k,
    from inverting the Chernoff tail bound 2*exp(-m^2/(2k)) <= eps. The
    modes of the other parity are zero, so the round-up makes m the
    degree of the truncated polynomial the transform is charged for.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValidationError(f"power must be a positive integer, got {k!r}")
    if not 0.0 < eps <= 1.0:
        raise ValidationError(f"eps must lie in (0, 1], got {eps!r}")
    value = math.sqrt(2.0 * k * math.log(2.0 / eps))
    m = math.ceil(value)
    if m % 2 != k % 2:
        m += 1
    return m


def clenshaw_eval(c: np.ndarray, x):
    """Evaluate sum_n c[n] T_n(x) by the backward (Clenshaw) recurrence.

    ``x`` may be a scalar or an array; every entry must lie in [-1, 1]. A
    ``c`` of shape (n, R, 1) holds one column per row of an x (R, d).
    Trailing zero coefficients leave the recurrence at +0, so a prefix
    padded with zeros evaluates to the same bits. Each step computes
    ((2x) b1 + c[n]) - b2: on Python floats for a 1-D ``c`` on at most
    ``SCALAR_POINTS`` points (a small spectrum), else in numpy,
    in place, in the buffer the last b2 left free. Both routes make the
    same IEEE operations in the same order, so their bits agree.
    """
    c, x_arr = np.asarray(c), np.asarray(x, dtype=np.float64)
    if (np.abs(x_arr) > 1.0).any():
        raise ValidationError("clenshaw_eval requires |x| <= 1")
    if c.ndim == 1 and x_arr.size <= SCALAR_POINTS:
        out = _clenshaw_floats(c.tolist(), x_arr.ravel().tolist())
        return out[0] if np.isscalar(x) else np.array(out).reshape(x_arr.shape)
    two_x = 2.0 * x_arr
    b1, b2, b0 = np.zeros_like(x_arr), np.zeros_like(x_arr), np.empty_like(x_arr)
    for n in range(len(c) - 1, 0, -1):
        np.multiply(two_x, b1, out=b0)
        np.add(b0, c[n], out=b0)
        np.subtract(b0, b2, out=b0)
        b0, b1, b2 = b2, b0, b1
    out = c[0] + x_arr * b1 - b2
    return float(out) if np.isscalar(x) else out


def _clenshaw_floats(coeffs: list, points: list) -> list[float]:
    """``clenshaw_eval``'s recurrence on Python floats, point by point, in its operation order."""
    out = []
    for x in points:
        two_x, b1, b2 = 2.0 * x, 0.0, 0.0
        for cn in coeffs[:0:-1]:
            b1, b2 = two_x * b1 + cn - b2, b1
        out.append(coeffs[0] + x * b1 - b2)
    return out


def _scan_grid(grid_size: int) -> np.ndarray:
    # Chebyshev nodes plus both endpoints: error extrema concentrate at +-1
    j = np.arange(grid_size)
    nodes = np.cos(np.pi * (j + 0.5) / grid_size)
    return np.concatenate(([-1.0], np.sort(nodes), [1.0]))


def sup_error_scan(c: np.ndarray, k: int, grid_size: int) -> float:
    """Max of |x^k - p(x)| for p = sum_n c[n] T_n over a Chebyshev-node
    grid with endpoints.

    A grid scan lower-bounds the true sup-norm; with the nonnegative
    power-expansion coefficients the maximum sits exactly at x = 1.
    """
    if grid_size < 2:
        raise ValidationError(f"grid_size must be >= 2, got {grid_size}")
    xs = _scan_grid(grid_size)
    return float(np.max(np.abs(xs ** int(k) - clenshaw_eval(c, xs))))


def minimal_empirical_degree(k: int, eps: float) -> int:
    """Least truncation degree of the parity of k, at most k, whose exact
    tail (its sup error, attained at x = 1) is at most eps.

    :func:`sup_error_scan` measures the same error independently.
    """
    expansion = power_expansion(k)
    m = k % 2
    while m < k and truncation_tails(expansion, m)[0] > eps:
        m += 2
    return m
