"""The four benchmark workloads: seeded inputs, the ops of one pass, and
the correctness gates each op's output must pass.

A workload is a fixed list of ops. Its inputs (states, observables) are
made once from the workload seed when the workload is built; each op then
draws its readout seed from (workload seed, op index, pass index), so ops
never share a seed and every pass does the same work on fresh draws.

An op's ``run`` is the only call into powertrace that a pass times. Its
``check`` runs after the pass and returns the gate violations it found.
Checks compare against oracles computed here with
``np.linalg.matrix_power``, a route that shares no code with powertrace's
own eigendecomposition oracle.
"""

from __future__ import annotations

import cmath
import math
import os
import shutil
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

import powertrace as pt
import powertrace.cli  # noqa: F401  (binds pt.cli for SuiteOp)
import powertrace.suites  # noqa: F401  (binds pt.suites for the suite list)

# The estimate suite's pass threshold, AE_SUCCESS_PROB - 0.05, written out
# here so that no change to the package can lower it.
WITHIN_EPS_THRESHOLD = 8.0 / math.pi ** 2 - 0.05
ORACLE_ATOL = 1e-10
SWAP_STDERR_MULTIPLE = 5.0
SWAP_SHOTS = 1000
PAULI_Z = "pauli:Z"


def derive_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _exact_trace_power(rho: pt.DensityMatrix, obs: pt.Observable, k: int) -> complex:
    return complex(np.trace(np.linalg.matrix_power(rho.mat, k) @ obs.mat))


@dataclass
class EstimateOp:
    """One ``estimate_trace_power`` call on a fixed instance."""

    n: int
    k: int
    eps: float
    rho: pt.DensityMatrix
    obs: pt.Observable
    seed: int
    # estimate_scale probes the qubit cap: a ResourceError there is a
    # refusal (the op did not complete), not a failure.
    refusable: bool = False

    @cached_property
    def exact(self) -> complex:
        return _exact_trace_power(self.rho, self.obs, self.k)

    def run(self, pass_index: int):
        return pt.estimate_trace_power(
            pt.purify(self.rho), self.obs, self.k, self.eps,
            seed=derive_seed(self.seed, pass_index),
        )

    def check(self, report) -> list[str]:
        where = f"estimate n={self.n} k={self.k} eps={self.eps:g}"
        if not (cmath.isfinite(report.estimate) and cmath.isfinite(report.oracle_value)):
            return [f"{where}: non-finite estimate {report.estimate} or oracle {report.oracle_value}"]
        problems = []
        if abs(report.oracle_value - self.exact) > ORACLE_ATOL:
            problems.append(
                f"{where}: oracle_value {report.oracle_value} differs from "
                f"Tr(matrix_power(rho, k) O) = {self.exact}"
            )
        if not report.model_error <= self.eps / 2:
            problems.append(f"{where}: model_error {report.model_error} exceeds eps/2")
        return problems

    def within_eps(self, report) -> bool:
        return abs(report.estimate - self.exact) <= self.eps


@dataclass
class SwapOp:
    """One ``swap_test_estimate`` call on a fixed instance."""

    n: int
    k: int
    rho: pt.DensityMatrix
    obs: pt.Observable
    seed: int
    refusable = False

    @cached_property
    def exact(self) -> float:
        return _exact_trace_power(self.rho, self.obs, self.k).real

    def run(self, pass_index: int):
        return pt.swap_test_estimate(
            self.rho, self.obs, self.k, SWAP_SHOTS, seed=derive_seed(self.seed, pass_index)
        )

    def check(self, result) -> list[str]:
        where = f"swap test n={self.n} k={self.k}"
        if not (math.isfinite(result.mean) and math.isfinite(result.stderr) and result.stderr > 0):
            return [f"{where}: mean {result.mean} / stderr {result.stderr} not finite and positive"]
        if abs(result.mean - self.exact) > SWAP_STDERR_MULTIPLE * result.stderr:
            return [
                f"{where}: mean {result.mean} is more than {SWAP_STDERR_MULTIPLE:g} "
                f"stderr ({result.stderr}) from the oracle {self.exact}"
            ]
        return []

    def within_eps(self, result) -> None:
        return None


@dataclass(frozen=True)
class SuiteRun:
    code: int
    suite_dir: str


@dataclass
class SuiteOp:
    """One suite run through the command-line entry point."""

    suite: str
    n: int
    workdir: str
    extra_args: tuple[str, ...] = ()
    refusable = False
    table: bytes | None = field(default=None, repr=False)

    def run(self, pass_index: int) -> SuiteRun:
        out = os.path.join(self.workdir, f"pass-{pass_index}")
        code = pt.cli.main([self.suite, "--out", out, *self.extra_args])
        return SuiteRun(code, os.path.join(out, self.suite))

    def check(self, run: SuiteRun) -> list[str]:
        if run.code != 0:
            return [f"suite {self.suite}: exit code {run.code}"]
        (config_dir,) = os.listdir(run.suite_dir)
        with open(os.path.join(run.suite_dir, config_dir, "table.csv"), "rb") as fh:
            table = fh.read()
        if self.table is None:
            self.table = table
        elif table != self.table:
            return [f"suite {self.suite}: table.csv differs between passes of one run"]
        return []

    def within_eps(self, run: SuiteRun) -> None:
        return None


def output_bytes(results) -> int:
    """Bytes of every file the suite runs among ``results`` wrote."""
    total = 0
    for result in results:
        if isinstance(result, SuiteRun):
            for dirpath, _, files in os.walk(result.suite_dir):
                total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


@dataclass
class Workload:
    name: str
    ops: list
    workdir: str | None = None

    def end_pass(self, pass_index: int) -> None:
        """Drop a pass's suite output once it has been checked."""
        if self.workdir is not None:
            shutil.rmtree(os.path.join(self.workdir, f"pass-{pass_index}"), ignore_errors=True)

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _instance(n: int, seed: int, observable_kind: str):
    spec = pt.InstanceSpec(qubits=n, rank=2 ** n, seed=seed, observable_kind=observable_kind)
    return pt.make_state(spec), pt.make_observable(spec)


def _non_hermitian_observable(n: int, seed: int) -> pt.Observable:
    rng = np.random.default_rng(seed)
    dim = 2 ** n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return pt.Observable(g / np.linalg.norm(g, 2), hermitian=False)


def suites_default(seed: int, size: str, workdir: str) -> Workload:
    """The seven suites at their default configs, as users run them.

    The default configs fix their own seeds (the reproduction path), so
    the workload seed does not change this workload's inputs.
    """
    del seed
    # tiny: fewer records in the two long suites, for the smoke test
    extra = {"estimate": ("--runs", "20"), "apps": ("--runs", "20")} if size == "tiny" else {}
    ops = [
        SuiteOp(
            suite=suite,
            n=int(pt.suites.suite_defaults(suite).get("qubits", 1)),
            workdir=workdir,
            extra_args=extra.get(suite, ()),
        )
        for suite in pt.suites.SUITES
    ]
    return Workload("suites_default", ops, workdir)


def estimate_scale(seed: int, size: str, workdir: str) -> Workload:
    """Full-rank estimates at eps=0.05 while n grows to past the qubit cap.

    n <= 3 runs every k in {4, 16, 64}, with a Hermitian and a
    non-Hermitian observable; n >= 4 runs one Hermitian op at k=16.
    """
    del workdir
    if size == "tiny":
        small, large, ks = (1, 2), (5,), (4,)
    else:
        small, large, ks = (1, 2, 3), (4, 5, 6, 7), (4, 16, 64)
    configs = [(n, k, hermitian) for n in small for hermitian in (True, False) for k in ks]
    configs += [(n, 16, True) for n in large]
    ops = []
    for index, (n, k, hermitian) in enumerate(configs):
        op_seed = derive_seed(seed, index)
        rho, obs = _instance(n, op_seed, "random_hermitian")
        if not hermitian:
            obs = _non_hermitian_observable(n, op_seed)
        ops.append(EstimateOp(n=n, k=k, eps=0.05, rho=rho, obs=obs, seed=op_seed, refusable=True))
    return Workload("estimate_scale", ops)


def ae_fine(seed: int, size: str, workdir: str) -> Workload:
    """Small states at fine eps, so the AE grid K runs from 2^15 to 2^22."""
    del workdir
    if size == "tiny":
        configs = [(1, 4, 1e-3), (2, 4, 1e-3)]
    else:
        configs = [(n, k, eps) for eps in (1e-3, 1e-4, 1e-5) for n in (1, 2) for k in (4, 16, 64)]
    ops = []
    for index, (n, k, eps) in enumerate(configs):
        op_seed = derive_seed(seed, index)
        rho, obs = _instance(n, op_seed, "random_hermitian")
        ops.append(EstimateOp(n=n, k=k, eps=eps, rho=rho, obs=obs, seed=op_seed))
    return Workload("ae_fine", ops)


def swap_deep(seed: int, size: str, workdir: str) -> Workload:
    """Swap tests with 1000 shots and a Z x I... observable.

    Within the qubit cap (n*k + 1 <= 14) the exact outcome table is built,
    at O(d^(3k)) cost; the last two configs sit above the cap and take the
    surrogate path to the same entry point.
    """
    del workdir
    if size == "tiny":
        configs = [(1, 3), (2, 8)]
    else:
        configs = [(1, 8), (1, 10), (1, 11), (2, 4), (2, 5), (3, 3), (2, 8), (2, 16)]
    ops = []
    for index, (n, k) in enumerate(configs):
        op_seed = derive_seed(seed, index)
        rho, obs = _instance(n, op_seed, PAULI_Z + "I" * (n - 1))
        ops.append(SwapOp(n=n, k=k, rho=rho, obs=obs, seed=op_seed))
    return Workload("swap_deep", ops)


WORKLOADS = {
    "suites_default": suites_default,
    "estimate_scale": estimate_scale,
    "ae_fine": ae_fine,
    "swap_deep": swap_deep,
}
