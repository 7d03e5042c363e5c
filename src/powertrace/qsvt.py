"""Simulated singular-value transformation of block-encoded matrices.

The transform is simulated at the matrix-function level: for a Hermitian
encoded block A with spectrum in [-1, 1] and an admissible polynomial p
(definite parity, |p| <= 1 on [-1, 1]), the encoding of p(A) is produced by
an exact eigenvalue transform followed by a contraction dilation. Query
counts are recorded as the polynomial degree the query-model circuit would
use, with each application of the density block encoding costing two
queries to the purification unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockenc import BlockEncoding, PurifiedState, density_block, halmos_dilate
from .chebyshev import ChebyshevPoly, clenshaw_eval, power_expansion, required_degree, truncate
from .errors import ContractError, ValidationError
from .linalg import Observable, eigh, op_norm
from .blockenc import be_product, observable_block_encoding

SUP_NORM_SLACK = 1e-9
_SUP_GRID = 512


@dataclass(frozen=True)
class QsvtRequest:
    """Validated bundle for one eigenvalue-transform application."""

    source: BlockEncoding
    poly: ChebyshevPoly
    target_exponent: int
    eps_poly: float

    def validate(self) -> None:
        if self.poly.parity == "none":
            raise ContractError("transform polynomial needs a definite parity")
        if self.poly.parity != ("odd" if self.target_exponent % 2 else "even"):
            raise ContractError(
                f"polynomial parity {self.poly.parity!r} does not match "
                f"exponent {self.target_exponent}"
            )
        _check_admissible(self.poly)


def _check_admissible(poly: ChebyshevPoly) -> None:
    if poly.parity == "none":
        raise ContractError("transform polynomial needs a definite parity")
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
    encoded polynomial of the state and the exact matrix power;
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
        return {
            "poly_degree": self.poly_degree,
            "be_rho_applications": self.be_rho_applications,
            "u_rho_queries": self.u_rho_queries,
            "model_error": self.model_error,
            "tail_bound": self.tail_bound,
            "alt_poly_degree": self.alt_poly_degree,
        }


def apply_poly(source: BlockEncoding, poly: ChebyshevPoly) -> BlockEncoding:
    """Block encoding of p(A) for a Hermitian encoded block A.

    The block is transformed exactly in its eigenbasis (the singular-value
    transform reduces to an eigenvalue transform for Hermitian blocks), so
    the returned encoding error is 0; any distance between p(A) and a
    matrix power being approximated is tracked by the caller as model
    error. One ancilla is added on top of the source's count.
    """
    if source.alpha != 1.0 or source.err != 0.0:
        raise ValidationError(
            "eigenvalue transform expects an exact, scale-1 source encoding"
        )
    herm_defect = op_norm(source.block - source.block.conj().T)
    if herm_defect > 1e-8:
        raise ValidationError(
            f"source block is not Hermitian (defect {herm_defect:.3e})"
        )
    _check_admissible(poly)
    w, v = eigh(source.block)
    w = np.clip(w, -1.0, 1.0)
    transformed = (v * clenshaw_eval(poly, w)) @ v.conj().T
    transformed = (transformed + transformed.conj().T) / 2
    return BlockEncoding(
        block=transformed,
        alpha=1.0,
        ancillas=source.ancillas + 1,
        err=0.0,
        dilation=halmos_dilate(transformed),
    )


def power_block_encoding(
    purification: PurifiedState, k: int, eps: float
) -> tuple[BlockEncoding, QueryLedger]:
    """Encoding of a truncated-expansion stand-in for rho^(k-1).

    The truncation degree is the Chernoff-formula degree for approximating
    x^(k-1) to sup error ``eps``; the returned ledger carries that degree,
    the implied purification-query count (two per application of the
    density encoding), and the measured model error against the exact
    power.
    """
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise ValidationError(f"power estimation needs integer k >= 2, got {k!r}")
    if not 0.0 < eps <= 1.0:
        raise ValidationError(f"eps must lie in (0, 1], got {eps!r}")
    exponent = int(k) - 1
    degree = required_degree(exponent, eps)
    report = truncate(power_expansion(exponent), degree, k=exponent)
    source = density_block(purification)
    request = QsvtRequest(
        source=source, poly=report.kept, target_exponent=exponent, eps_poly=eps
    )
    request.validate()
    be = apply_poly(source, report.kept)

    exact_power = purification.reduced_state().power(exponent)
    model_error = op_norm(be.block - exact_power)
    ledger = QueryLedger(
        poly_degree=degree,
        be_rho_applications=degree,
        u_rho_queries=2 * degree,
        model_error=model_error,
        tail_bound=report.tail_chernoff,
        alt_poly_degree=degree,
    )
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
    product = be_product(power_be, obs_be)
    recorded = BlockEncoding(
        block=product.block,
        alpha=product.alpha,
        ancillas=product.ancillas,
        err=obs_be.alpha * eps_poly,
        dilation=product.dilation,
    )
    alt_eps = min(1.0, eps_total / (4.0 * obs_be.alpha * o.op_norm))
    ledger = QueryLedger(
        poly_degree=power_ledger.poly_degree,
        be_rho_applications=power_ledger.be_rho_applications,
        u_rho_queries=power_ledger.u_rho_queries,
        model_error=power_ledger.model_error,
        tail_bound=power_ledger.tail_bound,
        alt_poly_degree=required_degree(int(k) - 1, alt_eps),
    )
    return recorded, ledger
