"""Simulated singular-value transformation of the density block encoding.

The transform is simulated at the matrix-function level: for the purified
state's density block rho, whose spectrum lies in [0, 1], and an
admissible polynomial p (|p| <= 1 on [-1, 1], certified by its Chebyshev
coefficients summing to at most 1), the quantum singular-value transform
realizes p(rho) exactly on rho's eigenvalues. So p(rho) is its values
p(l_i) on the spectrum, in the eigenbasis V the state cached, and no
d x d matrix is built. The query count is the polynomial degree the
query-model circuit would use; the estimator charges two queries to the
purification unitary per degree. A stack of spectra is transformed in one
pass.
"""

from __future__ import annotations

import numpy as np

from .chebyshev import clenshaw_eval, power_expansion, required_degree
from .errors import ContractError

SUP_NORM_SLACK = 1e-9


def transform_spectra(w: np.ndarray, ks: list, eps: list) -> tuple[np.ndarray, list[int]]:
    """p(l) on spectra w (R, d) for the truncated-expansion stand-in p of
    x^(k-1), with ``ks`` and ``eps`` the R powers and accuracies, and the
    degree of each spectrum's p.

    p keeps the Chebyshev modes of x^(k-1) up to the Chernoff-formula
    degree for sup error ``eps``. |T_n| <= 1 on [-1, 1], so kept
    coefficients whose absolute values sum to at most 1 + SUP_NORM_SLACK
    certify |p| <= 1 there in O(m); otherwise ContractError is raised. The
    prefixes are zero-padded to the longest, which leaves their bits
    unchanged, so one Clenshaw pass evaluates the stack; a stack that shares
    one polynomial passes its coefficients as they are, which ``clenshaw_eval``
    steps on Python floats for at most ``SCALAR_POINTS`` eigenvalues in all.
    """
    prefixes, degrees, degree_of = {}, [], {}
    for k, eps_k in zip(ks, eps, strict=True):
        # one degree per distinct (k, eps); a degree is at least 1
        degree = degree_of.get((k, eps_k)) or degree_of.setdefault((k, eps_k), required_degree(k - 1, eps_k))
        if (k, degree) not in prefixes:
            kept = power_expansion(k - 1)[:degree + 1]
            if (coefficient_sum := float(np.abs(kept).sum())) > 1.0 + SUP_NORM_SLACK:
                raise ContractError(f"polynomial coefficient sum {coefficient_sum} exceeds 1")
            prefixes[k, degree] = kept
        degrees.append(degree)
    if len(prefixes) == 1:  # scalar coefficients step faster than broadcast columns
        (c,) = prefixes.values()
    else:
        c = np.zeros((max(map(len, prefixes.values())), len(ks), 1))
        for j, key in enumerate(zip(ks, degrees)):
            c[:len(prefixes[key]), j, 0] = prefixes[key]
    return clenshaw_eval(c, w.clip(-1.0, 1.0)), degrees
