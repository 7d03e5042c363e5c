"""Simulated singular-value transformation of block-encoded matrices.

The transform is simulated at the matrix-function level: for a Hermitian
encoded block A with spectrum in [-1, 1] and an admissible polynomial p
(definite parity, |p| <= 1 on [-1, 1]), the encoding of p(A) is produced by
an exact eigenvalue transform of the encoded block. Query counts are
recorded as the polynomial degree the query-model circuit would use, with
each application of the density block encoding costing two queries to the
purification unitary.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .blockenc import BlockEncoding, PurifiedState, be_product, density_block, observable_block_encoding
from .chebyshev import ChebyshevPoly, clenshaw_eval, power_expansion, required_degree, truncate
from .errors import ContractError, ValidationError
from .linalg import EighResult, Observable, eigh

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


@dataclass(frozen=True)
class QueryLedger:
    """Query accounting for one power (or power-times-observable) encoding.

    ``poly_degree`` is the degree the query-model circuit is charged for
    (the Chernoff-formula degree), ``be_rho_applications`` the number of
    applications of the density block encoding, and ``u_rho_queries`` the
    resulting purification-unitary queries (two per application).
    ``model_error`` is the measured operator-norm distance between the
    encoded polynomial of the state and the exact matrix power; both are
    diagonal in the state's eigenbasis, so it is max_i |p(l_i) - l_i^(k-1)|
    over the cached spectrum;
    ``tail_bound`` is its closed-form Chernoff bound. ``alt_poly_degree``
    records the degree the looser main-text budget ln(4*alpha_O*||O||/eps)
    would prescribe (equal to ``poly_degree`` for plain powers).
    """

    poly_degree: int
    be_rho_applications: int
    u_rho_queries: int
    model_error: float
    tail_bound: float
    alt_poly_degree: int

    def to_json(self) -> dict:
        return asdict(self)


def apply_poly(source: BlockEncoding, poly: ChebyshevPoly) -> BlockEncoding:
    """Block encoding of p(A) for a Hermitian encoded block A.

    The block is transformed exactly in its eigenbasis (the singular-value
    transform reduces to an eigenvalue transform for Hermitian blocks), so
    the returned encoding error is 0; any distance between p(A) and a
    matrix power being approximated is tracked by the caller as model
    error. The eigenbasis is the source's cached one (for the density
    block, the spectrum whose validation proved it Hermitian); a source
    without one is checked and diagonalised by ``eigh``. One ancilla is
    added on top of the source's count. The result carries the block,
    max |p(l_i)| as its norm bound and (p(l_i), V) as its
    spectrum, so p is evaluated once per transform.
    """
    if source.alpha != 1.0 or source.err != 0.0:
        raise ValidationError(
            "eigenvalue transform expects an exact, scale-1 source encoding"
        )
    w, v = source._spectrum or eigh(source.block, what="source block")
    _check_admissible(poly)
    p_w = clenshaw_eval(poly, np.clip(w, -1.0, 1.0))
    transformed = (v * p_w) @ v.conj().T
    transformed = (transformed + transformed.conj().T) / 2
    bound = float(np.max(np.abs(p_w)))
    return BlockEncoding(transformed, 1.0, source.ancillas + 1, 0.0,
                         _norm_bound=bound, _spectrum=EighResult(p_w, v))


def power_block_encoding(
    purification: PurifiedState, k: int, eps: float
) -> tuple[BlockEncoding, QueryLedger]:
    """Encoding of a truncated-expansion stand-in for rho^(k-1).

    The truncation degree is the Chernoff-formula degree for approximating
    x^(k-1) to sup error ``eps``; the returned ledger carries that degree,
    the implied purification-query count (two per application of the
    density encoding), and the model error max_i |p(l_i) - l_i^(k-1)|,
    with p(l_i) read from the transformed encoding's spectrum. The
    purification keeps the last result, block read-only, for the next
    request of the same exponent and degree.
    """
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise ValidationError(f"power estimation needs integer k >= 2, got {k!r}")
    if not 0.0 < eps <= 1.0:
        raise ValidationError(f"eps must lie in (0, 1], got {eps!r}")
    exponent = int(k) - 1
    degree = required_degree(exponent, eps)
    last = purification._last_power
    if last is not None and last[0] == (exponent, degree):
        return last[1]
    report = truncate(power_expansion(exponent), degree, k=exponent)
    source = density_block(purification)
    _check_parity(report.kept, exponent)
    be = apply_poly(source, report.kept)
    w = source._spectrum.eigenvalues
    model_error = float(np.max(np.abs(be._spectrum.eigenvalues - w ** exponent)))
    ledger = QueryLedger(
        poly_degree=degree,
        be_rho_applications=degree,
        u_rho_queries=2 * degree,
        model_error=model_error,
        tail_bound=report.tail_chernoff,
        alt_poly_degree=degree,
    )
    be.block.flags.writeable = False
    object.__setattr__(purification, "_last_power", ((exponent, degree), (be, ledger)))
    return be, ledger


def power_times_obs(
    purification: PurifiedState, o: Observable, k: int, eps_total: float
) -> tuple[BlockEncoding, QueryLedger]:
    """Encoding of p(rho) O with p approximating x^(k-1).

    The polynomial budget is eps_total / (2 ||O||), so the trace-level
    model error stays below eps_total / 2; the recorded encoding error is
    the scale-amplified polynomial budget alpha_O * eps_total / (2 ||O||),
    which bounds the defect against the exact rho^(k-1) O. The ledger's
    ``alt_poly_degree`` records the degree under the alternative budget
    eps_total / (4 alpha_O ||O||) folded into the logarithm.
    """
    if purification.sys_dim != o.dim:
        raise ValidationError(
            f"system dim {purification.sys_dim} does not match observable dim {o.dim}"
        )
    if not 0.0 < eps_total <= 1.0:
        raise ValidationError(f"eps must lie in (0, 1], got {eps_total!r}")
    if o.op_norm <= 0.0:
        raise ValidationError("observable must be nonzero")
    eps_poly = min(1.0, eps_total / (2.0 * o.op_norm))
    power_be, power_ledger = power_block_encoding(purification, k, eps_poly)
    obs_be = observable_block_encoding(o)
    recorded = be_product(power_be, obs_be, err=obs_be.alpha * eps_poly)
    alt_eps = min(1.0, eps_total / (4.0 * obs_be.alpha * o.op_norm))
    return recorded, replace(
        power_ledger, alt_poly_degree=required_degree(int(k) - 1, alt_eps)
    )
