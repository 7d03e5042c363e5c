"""Simulated singular-value transformation of the density block encoding.

The transform is simulated at the matrix-function level: for the purified
state's density block rho, whose spectrum lies in [0, 1], and an
admissible polynomial p (|p| <= 1 on [-1, 1], certified by its Chebyshev
coefficients summing to at most 1), the quantum singular-value transform
realizes p(rho) exactly on rho's eigenvalues. So p(rho) is returned as
its eigendecomposition (p(l_i), V) in rho's cached eigenbasis, and no
d x d matrix is built. Query counts are recorded as the polynomial degree
the query-model circuit would use, with each application of the density
block encoding costing two queries to the purification unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockenc import PurifiedState
from .chebyshev import clenshaw_eval, power_expansion, required_degree, truncation_tails
from .errors import ContractError, ValidationError
from .linalg import EighResult

SUP_NORM_SLACK = 1e-9


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


def power_block_encoding(
    purification: PurifiedState, k: int, eps: float
) -> tuple[EighResult, QueryLedger]:
    """p(rho) for a truncated-expansion stand-in p of x^(k-1), as its
    eigendecomposition (p(l_i), V) in the cached eigenbasis of the state
    rho that ``purification`` gives access to.

    p keeps the Chebyshev modes of x^(k-1) up to the Chernoff-formula
    degree for sup error ``eps``. |T_n| <= 1 on [-1, 1], so kept
    coefficients whose absolute values sum to at most 1 + SUP_NORM_SLACK
    certify |p| <= 1 there in O(m); otherwise ContractError is raised. The
    returned ledger carries that degree, the implied purification-query
    count (two per application of the density encoding), the model error
    max_i |p(l_i) - l_i^(k-1)| and the Chernoff tail bound. p is evaluated
    once, on rho's eigenvalues.
    """
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise ValidationError(f"power estimation needs integer k >= 2, got {k!r}")
    if not 0.0 < eps <= 1.0:
        raise ValidationError(f"eps must lie in (0, 1], got {eps!r}")
    exponent = int(k) - 1
    degree = required_degree(exponent, eps)
    expansion = power_expansion(exponent)
    kept = expansion[:degree + 1]
    coefficient_sum = float(np.sum(np.abs(kept)))
    if coefficient_sum > 1.0 + SUP_NORM_SLACK:
        raise ContractError(f"polynomial coefficient sum {coefficient_sum} exceeds 1")
    w, v = purification.state.spectrum()
    p_w = clenshaw_eval(kept, np.clip(w, -1.0, 1.0))
    ledger = QueryLedger(
        poly_degree=degree,
        be_rho_applications=degree,
        u_rho_queries=2 * degree,
        model_error=float(np.max(np.abs(p_w - w ** exponent))),
        tail_bound=truncation_tails(expansion, degree)[1],
    )
    return EighResult(p_w, v), ledger
