"""Simulated singular-value transformation of the density block encoding.

The transform is simulated at the matrix-function level: for the purified
state's density block rho, whose spectrum lies in [0, 1], and an
admissible polynomial p (|p| <= 1 on [-1, 1], certified by its Chebyshev
coefficients summing to at most 1), the quantum singular-value transform
realizes p(rho) exactly on rho's eigenvalues. So p(rho) is its values
p(l_i) on the spectrum, in the eigenbasis V the state cached, and no
d x d matrix is built. Query counts are recorded as the polynomial degree
the query-model circuit would use, with each application of the density
block encoding costing two queries to the purification unitary. A stack
of spectra is transformed in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebyshev import clenshaw_eval, power_expansion, required_degree, truncation_tails
from .errors import ContractError

SUP_NORM_SLACK = 1e-9


@dataclass(frozen=True)
class QueryLedger:
    """Query accounting for one power encoding.

    ``poly_degree`` is the degree the query-model circuit is charged for
    (the Chernoff-formula degree), one density-block application per
    degree, and ``u_rho_queries`` the purification-unitary queries (two per
    application). ``model_error`` is the operator-norm distance between the
    encoded polynomial of the state and the exact matrix power, both
    diagonal in the state's eigenbasis: max_i |p(l_i) - l_i^(k-1)| over the
    cached spectrum. ``tail_bound`` is its closed-form Chernoff bound.
    """

    poly_degree: int
    u_rho_queries: int
    model_error: float
    tail_bound: float


def transform_spectra(w: np.ndarray, ks: list, eps: list) -> tuple[np.ndarray, list[QueryLedger]]:
    """p(l) on spectra w (R, d) for the truncated-expansion stand-in p of
    x^(k-1), with ``ks`` and ``eps`` the R powers and accuracies, and one
    ledger per spectrum.

    p keeps the Chebyshev modes of x^(k-1) up to the Chernoff-formula
    degree for sup error ``eps``. |T_n| <= 1 on [-1, 1], so kept
    coefficients whose absolute values sum to at most 1 + SUP_NORM_SLACK
    certify |p| <= 1 there in O(m); otherwise ContractError is raised. The
    prefixes are zero-padded to the longest, which leaves their bits
    unchanged, so one Clenshaw pass evaluates the stack; a stack that shares
    one polynomial passes its coefficients as they are.
    """
    prefixes, terms = {}, []
    for k, eps_k in zip(ks, eps, strict=True):
        degree = required_degree(k - 1, eps_k)
        if (k, degree) not in prefixes:
            expansion = power_expansion(k - 1)
            kept = expansion[:degree + 1]
            if (coefficient_sum := float(np.abs(kept).sum())) > 1.0 + SUP_NORM_SLACK:
                raise ContractError(f"polynomial coefficient sum {coefficient_sum} exceeds 1")
            prefixes[k, degree] = kept, truncation_tails(expansion, degree)[1]
        terms.append((degree, *prefixes[k, degree]))
    if len(prefixes) == 1:  # scalar coefficients step faster than broadcast columns
        c = terms[0][1]
    else:
        c = np.zeros((max(len(kept) for _, kept, _ in terms), len(terms), 1))
        for j, (_, kept, _) in enumerate(terms):
            c[:len(kept), j, 0] = kept
    p_w = clenshaw_eval(c, w.clip(-1.0, 1.0))
    errors, distinct = np.empty(len(ks)), set(ks)
    for k in distinct:  # one power per distinct k, each with a Python int exponent
        sel = slice(None) if len(distinct) == 1 else np.equal(ks, k)
        errors[sel] = np.abs(p_w[sel] - w[sel] ** (k - 1)).max(axis=-1)
    return p_w, [QueryLedger(degree, 2 * degree, error, tail)
                 for (degree, _, tail), error in zip(terms, errors.tolist(), strict=True)]
