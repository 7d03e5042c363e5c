"""Simulated singular-value transformation of the density block encoding.

The transform is simulated at the matrix-function level: for the purified
state's density block rho, whose spectrum lies in [0, 1], and an
admissible polynomial p (definite parity, |p| <= 1 on [-1, 1]), the
quantum singular-value transform realizes p(rho) exactly on rho's
eigenvalues. So p(rho) is returned as its eigendecomposition (p(l_i), V)
in rho's cached eigenbasis, and no d x d matrix is built. Query counts are
recorded as the polynomial degree the query-model circuit would use, with
each application of the density block encoding costing two queries to the
purification unitary.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .blockenc import PurifiedState
from .chebyshev import ChebyshevPoly, clenshaw_eval, power_expansion, required_degree, truncate
from .errors import ContractError, ValidationError
from .linalg import EighResult

SUP_NORM_SLACK = 1e-9
_SUP_GRID = 512


def _check_parity(poly: ChebyshevPoly, exponent: int) -> None:
    if poly.parity == "none":
        raise ContractError("transform polynomial needs a definite parity")
    if poly.parity != ("odd" if exponent % 2 else "even"):
        raise ContractError(
            f"polynomial parity {poly.parity!r} does not match exponent {exponent}"
        )


def _check_admissible(poly: ChebyshevPoly) -> None:
    """Require a definite parity and |p| <= 1 + SUP_NORM_SLACK on [-1, 1].

    |T_n| <= 1 there, so sum |c_n| within that bound certifies it in O(m);
    only a polynomial failing this certificate is scanned on the Chebyshev
    grid plus both endpoints. The scan under-estimates the true sup, so
    the certificate accepts nothing the scan would reject."""
    if poly.parity == "none":
        raise ContractError("transform polynomial needs a definite parity")
    if poly.abs_coefficient_sum() <= 1.0 + SUP_NORM_SLACK:
        return
    xs = np.cos(np.pi * (np.arange(_SUP_GRID) + 0.5) / _SUP_GRID)
    xs = np.concatenate((xs, [-1.0, 1.0]))
    sup = float(np.max(np.abs(clenshaw_eval(poly, xs))))
    if sup > 1.0 + SUP_NORM_SLACK:
        raise ContractError(f"polynomial sup-norm {sup} exceeds 1")


def _eigen_transform(spectrum: EighResult, poly: ChebyshevPoly) -> EighResult:
    """p(A) as (p(l_i), V) for a Hermitian A = V diag(l) V^dag: the exact
    eigenvalue transform standing in for the singular-value transform,
    after the admissibility check. Eigenvalues are clipped to [-1, 1]."""
    _check_admissible(poly)
    w, v = spectrum
    return EighResult(clenshaw_eval(poly, np.clip(w, -1.0, 1.0)), v)


@dataclass(frozen=True)
class QueryLedger:
    """Query accounting for one power encoding.

    ``poly_degree`` is the degree the query-model circuit is charged for
    (the Chernoff-formula degree), ``be_rho_applications`` the number of
    applications of the density block encoding, and ``u_rho_queries`` the
    resulting purification-unitary queries (two per application).
    ``model_error`` is the measured operator-norm distance between the
    encoded polynomial of the state and the exact matrix power; both are
    diagonal in the state's eigenbasis, so it is max_i |p(l_i) - l_i^(k-1)|
    over the cached spectrum; ``tail_bound`` is its closed-form Chernoff
    bound.
    """

    poly_degree: int
    be_rho_applications: int
    u_rho_queries: int
    model_error: float
    tail_bound: float

    def to_json(self) -> dict:
        return asdict(self)


def power_block_encoding(
    purification: PurifiedState, k: int, eps: float
) -> tuple[EighResult, QueryLedger]:
    """p(rho) for a truncated-expansion stand-in p of x^(k-1), as its
    eigendecomposition (p(l_i), V) in the cached eigenbasis of the state
    rho that ``purification`` gives access to.

    The truncation degree is the Chernoff-formula degree for approximating
    x^(k-1) to sup error ``eps``; the polynomial must have the exponent's
    parity and pass the admissibility check. The returned ledger carries
    that degree, the implied purification-query count (two per application
    of the density encoding), and the model error
    max_i |p(l_i) - l_i^(k-1)|. p is evaluated once, on rho's eigenvalues.
    """
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise ValidationError(f"power estimation needs integer k >= 2, got {k!r}")
    if not 0.0 < eps <= 1.0:
        raise ValidationError(f"eps must lie in (0, 1], got {eps!r}")
    exponent = int(k) - 1
    degree = required_degree(exponent, eps)
    report = truncate(power_expansion(exponent), degree, k=exponent)
    _check_parity(report.kept, exponent)
    spectrum = purification.state.spectrum()
    power = _eigen_transform(spectrum, report.kept)
    model_error = float(np.max(np.abs(power.eigenvalues - spectrum.eigenvalues ** exponent)))
    ledger = QueryLedger(
        poly_degree=degree,
        be_rho_applications=degree,
        u_rho_queries=2 * degree,
        model_error=model_error,
        tail_bound=report.tail_chernoff,
    )
    return power, ledger
