"""Experiment suites: instance sweeps, persistence, and scaling tables.

``SUITE_REGISTRY`` holds one ``Suite`` per suite name: its config
defaults, its runner, its table columns and the config keys the shared
command-line flags set. A runner returns ``(records, summary)``; the
records are the suite's only data. ``table.csv`` is a projection of them:
each column names a dotted path into a record ("report.estimate.re"),
with "|"-separated fallbacks for tables that mix record kinds
("report.m_star|report.t_star"), and a cell no path reaches is nan.

Every suite resolves a flat JSON config (defaults <- config file <- CLI
overrides <- POWERTRACE_SEED), runs its records, and writes

    <out>/<suite>/<config-hash>/records.json   per-record inputs + reports
    <out>/<suite>/<config-hash>/table.csv      plot-ready table
    <out>/<suite>/<config-hash>/summary.json   fits, pass fraction, verdict

The ``estimate`` and ``apps`` runners cut their records into contiguous
chunks of at most 2^16 / d^2 records each and run each chunk as one stack
of states. A record does not depend on its chunk.

A config holds only experiment parameters; the gate thresholds are the
module constants below, and each summary reports those it applied. A
config key outside the suite's defaults is rejected, and so is a value of
another JSON kind than its default's, or a fractional or too small value
of an integer key; ``seed`` is read by every suite, since POWERTRACE_SEED
sets it for all, and must be a non-negative integer.

Numeric output is printed with 17 significant digits and JSON keys are
sorted, so reruns with the same config and seed are byte-identical (except
record timestamps). Files are written atomically (temp then rename).
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
import os
import tempfile
from functools import partial
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bounds import (
    bqp_instance,
    helstrom_experiment,
    hybrid_bound_demo,
    lecam_construction,
    swap_test_estimate,
    swap_test_moments,
)
from .blockenc import purify
from .chebyshev import (
    degree_lower_bound_solve,
    minimal_empirical_degree,
    power_expansion,
    required_degree,
    sup_error_scan,
    truncation_tails,
)
from .errors import ValidationError
from .estimator import (AE_SUCCESS_PROB, estimate_stack, estimate_trace_power, renyi_entropy,
                        tsallis_entropy, vd_ratio_stack)
from .instances import (InstanceSpec, derive_seed, make_observable, make_observables, make_state,
                        make_states, random_unitary)
from .linalg import DensityMatrix, Observable, trace_power_obs_oracle

SEED_ENV_VAR = "POWERTRACE_SEED"

APPROX_SLOPE_RANGE = (0.4, 0.6)  # degree ~ sqrt(k)
ESTIMATE_PASS_THRESHOLD = AE_SUCCESS_PROB - 0.05  # share of estimates within eps
BASELINE_SLOPE_TOLERANCE = 0.05  # stderr ~ shots^(-1/2)
HELSTROM_RATIO_WINDOW = (0.875, 1.125)  # m* ~ k: the m* ratio over the k ratio
LECAM_EXPONENT_WINDOW = (1.9, 2.1)  # copies ~ 1/eps^2
HYBRID_EXPONENT_WINDOW = (0.95, 1.05)  # t* ~ 1/eps
BQP_DEFECT_TOLERANCE = 1e-10
APPS_COVERAGE_THRESHOLD = 0.95
SWAP_EXPONENT_RANGE = (0.85, 1.15)  # copies ~ k
QUERY_EXPONENT_MAX = 0.65  # queries ~ sqrt(k)


# --------------------------------------------------------------------------
# formatting, hashing, atomic output
# --------------------------------------------------------------------------

def fmt(x) -> str:
    """Render one CSV cell; floats with 17 significant digits."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.
    Each value is written once, at ``indent``, the indent of its line."""
    if isinstance(obj, dict):
        pad = " " * (indent + 2)
        items = [f'{pad}"{key}": {canonical_json(obj[key], indent + 2)}' for key in sorted(obj)]
        return "{\n" + ",\n".join(items) + "\n" + pad[2:] + "}" if items else "{}"
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            return format(x, ".17g")
        return '"nan"' if math.isnan(x) else ('"inf"' if x > 0 else '"-inf"')
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (list, tuple)):
        pad = " " * (indent + 2)
        items = [pad + canonical_json(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad[2:] + "]" if items else "[]"
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:12]


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(record: dict, paths: str):
    """The value at the first of the "|"-separated dotted ``paths`` that
    ``record`` holds; nan if it holds none of them."""
    for path in paths.split("|"):
        value = record
        for key in path.split("."):
            if not isinstance(value, dict) or key not in value:
                break
            value = value[key]
        else:
            return value
    return math.nan


def write_csv(path: str, columns: dict[str, str], records: list[dict]) -> None:
    """Write the table of ``records``: one row per record, one column per
    (header, paths) entry of ``columns``."""
    lines = [",".join(columns)]
    lines += [",".join(fmt(_cell(rec, paths)) for paths in columns.values()) for rec in records]
    _atomic_write(path, "\n".join(lines) + "\n")


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _log_slope(xs, ys) -> float:
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    if xs.size < 2 or np.allclose(xs, xs[0]):
        return math.nan
    return float(np.polyfit(xs, ys, 1)[0])


def _map_chunks(fn, count: int, dim: int) -> list:
    """``fn(indices)`` for ``range(count)`` cut into contiguous chunks of at
    most 2^16 / dim^2 records (at least one), joining the record lists in
    order. A stack of a chunk's d x d matrices thus holds at most
    max(2^16, d^2) entries: at d = 4 the 200 default records are one stack,
    at d >= 256 each record is its own."""
    size = max(1, 2 ** 16 // dim ** 2)
    chunks = (range(start, min(start + size, count)) for start in range(0, count, size))
    return [record for chunk in chunks for record in fn(chunk)]


# --------------------------------------------------------------------------
# suite runners: run(cfg) -> (records, summary)
# --------------------------------------------------------------------------

def _suite_approx(cfg: dict):
    records = []
    eps = float(cfg["eps"])
    for k in cfg["k_values"]:
        degree = required_degree(k, eps)
        expansion = power_expansion(k)
        tail_exact, chernoff_tail = truncation_tails(expansion, degree)
        measured = sup_error_scan(expansion[:degree + 1], k, cfg["grid_size"])
        records.append({"spec": {"k": k, "eps": eps}, "report": {
            "formula_degree": degree,
            "empirical_degree": minimal_empirical_degree(k, eps),
            "measured_sup_error": measured,
            "tail_exact": tail_exact,
            "chernoff_tail": chernoff_tail,
            "lower_bound_d": degree_lower_bound_solve(k, eps) if (k >= 2 and eps <= 0.1) else math.nan,
            "within_eps": bool(measured <= eps),
        }})
    ks = [r["spec"]["k"] for r in records]
    within = [r["report"]["within_eps"] for r in records]
    slope = _log_slope(ks, [r["report"]["empirical_degree"] for r in records])
    lo, hi = APPROX_SLOPE_RANGE
    # a scaling fit needs a few decades; short sweeps only gate on accuracy
    slope_checked = len(set(ks)) >= 3
    summary = {
        "all_within_eps": all(within),
        "empirical_degree_slope": slope,
        "slope_range": APPROX_SLOPE_RANGE,
        "slope_checked": slope_checked,
        "pass": bool(all(within) and ((not slope_checked) or (lo <= slope <= hi))),
        "pass_fraction": float(np.mean(within)),
    }
    return records, summary


def _estimate_records(cfg: dict, indices: range) -> list[dict]:
    """The ``estimate`` records ``indices``, estimated as one stack."""
    ks, eps = cfg["k_values"], float(cfg["eps"])
    specs = [InstanceSpec(
        qubits=cfg["qubits"], rank=cfg["rank"], seed=derive_seed(cfg["seed"], index),
        state_kind=cfg["state_kind"], observable_kind=cfg["observable_kind"],
        k=ks[index % len(ks)], eps=eps,
    ) for index in indices]
    seeds = [spec.seed for spec in specs]
    reports = estimate_stack(
        purify(make_states(specs[0], seeds)), make_observables(specs[0], seeds), [spec.k for spec in specs],
        eps, seeds, mode=cfg["mode"],
    )
    records = []
    for index, spec, report in zip(indices, specs, reports):
        err = abs(report.estimate - report.oracle_value)
        records.append({"run": index, "spec": spec.to_json(), "report": report.to_json(),
                        "abs_error": err, "within_eps": bool(err <= eps)})
    return records


def _suite_estimate(cfg: dict):
    records = _map_chunks(partial(_estimate_records, cfg), cfg["runs"], 2 ** cfg["qubits"])
    fraction = float(np.mean([r["within_eps"] for r in records])) if records else 0.0
    summary = {
        "pass_fraction": fraction,
        "pass_threshold": ESTIMATE_PASS_THRESHOLD,
        "pass": bool(fraction >= ESTIMATE_PASS_THRESHOLD),
        "runs": len(records),
    }
    return records, summary


def _suite_baseline(cfg: dict):
    spec = InstanceSpec(
        qubits=cfg["qubits"],
        rank=cfg["rank"],
        seed=cfg["seed"],
        state_kind=cfg["state_kind"],
        observable_kind=cfg["observable_kind"],
        k=cfg["k"],
    )
    rho = make_state(spec)
    obs = make_observable(spec)
    oracle = trace_power_obs_oracle(rho, obs, cfg["k"]).real
    records, mean_stderrs = [], []
    for i, shots in enumerate(cfg["shots_list"]):
        stderrs = []
        for rep in range(cfg["repeats"]):
            result = swap_test_estimate(
                rho,
                obs,
                cfg["k"],
                shots,
                seed=derive_seed(cfg["seed"], 100 * i + rep),
            )
            stderrs.append(result.stderr)
            records.append({"spec": spec.to_json(), "report": {
                "shots": shots,
                "repeat": rep,
                "mean": result.mean,
                "stderr": result.stderr,
                "copies_used": result.copies_used,
                "mode": result.mode,
                "oracle_value": oracle,
                "abs_error": abs(result.mean - oracle),
            }})
        mean_stderrs.append(float(np.mean(stderrs)))
    slope = _log_slope(cfg["shots_list"], mean_stderrs)
    summary = {
        "stderr_slope": slope,
        "expected_slope": -0.5,
        "slope_tolerance": BASELINE_SLOPE_TOLERANCE,
        "pass": bool(abs(slope + 0.5) <= BASELINE_SLOPE_TOLERANCE),
    }
    return records, summary


def _suite_bounds(cfg: dict):
    records = []
    z = Observable(np.diag([1.0, -1.0]).astype(complex))

    m_stars = []
    for k in cfg["k_values"]:
        table = helstrom_experiment(k, float(cfg["c"]), [0, k, 4 * k])
        m_stars.append(table.m_star)
        records.append({
            "spec": {"experiment": "helstrom", "k": k, "c": float(cfg["c"])},
            "report": {
                "m_star": table.m_star,
                "eps_prime": table.eps_prime,
                "rows": [
                    {"m": r.m, "fidelity": r.fidelity, "success_lower_bound": r.success_lower_bound}
                    for r in table.rows
                ],
            },
        })

    kl_values = []
    for eps in map(float, cfg["eps_grid"]):
        rho0, rho1, kl = lecam_construction(z, eps)
        kl_values.append(kl)
        records.append({"spec": {"experiment": "lecam", "eps": eps, "obs": "Z"}, "report": {
            "delta": eps / 2.0,
            "kl": kl,
            "copies_bound": 1.0 / kl,
            "expectation_0": float(np.trace(rho0.mat @ z.mat).real),
            "expectation_1": float(np.trace(rho1.mat @ z.mat).real),
        }})

    t_stars = []
    for eps in map(float, cfg["hybrid_eps_grid"]):
        table = hybrid_bound_demo(z, eps)
        t_stars.append(table.t_star)
        records.append({"spec": {"experiment": "hybrid", "eps": eps, "obs": "Z"}, "report": {
            "delta": table.delta,
            "norm_direct": table.norm_direct,
            "norm_closed_form": table.norm_closed_form,
            "t_star": table.t_star,
        }})

    ratio = m_stars[-1] / m_stars[0] if len(m_stars) >= 2 else math.nan
    expected_ratio = cfg["k_values"][-1] / cfg["k_values"][0] if len(m_stars) >= 2 else math.nan
    lecam_slope = _log_slope(
        [1.0 / float(e) for e in cfg["eps_grid"]], [1.0 / kl for kl in kl_values]
    )
    hybrid_slope = _log_slope(
        [1.0 / float(e) for e in cfg["hybrid_eps_grid"]], t_stars
    )
    lo, hi = (bound * expected_ratio for bound in HELSTROM_RATIO_WINDOW)
    summary = {
        "helstrom_m_stars": m_stars,
        "helstrom_ratio": ratio,
        "helstrom_ratio_expected": expected_ratio,
        "helstrom_ratio_range": [lo, hi],
        "lecam_copies_exponent": lecam_slope,
        "lecam_exponent_window": LECAM_EXPONENT_WINDOW,
        "hybrid_t_star_exponent": hybrid_slope,
        "hybrid_exponent_window": HYBRID_EXPONENT_WINDOW,
        "pass": bool(
            (math.isnan(ratio) or lo <= ratio <= hi)
            and LECAM_EXPONENT_WINDOW[0] <= lecam_slope <= LECAM_EXPONENT_WINDOW[1]
            and HYBRID_EXPONENT_WINDOW[0] <= hybrid_slope <= HYBRID_EXPONENT_WINDOW[1]
        ),
    }
    return records, summary


def _suite_bqp(cfg: dict):
    records = []
    r_dim = 2 ** cfg["r_qubits"]
    acc = np.kron(np.diag([0.0, 1.0]).astype(complex), np.eye(r_dim // 2, dtype=complex))
    accept = Observable(acc)
    qs, ks = list(cfg["q_values"]), list(cfg["k_values"])
    for i in range(cfg["runs"]):
        seed = derive_seed(cfg["seed"], i)
        q = float(qs[i % len(qs)])
        k = ks[(i // len(qs)) % len(ks)]
        inst = bqp_instance(random_unitary(r_dim, seed), accept, q, k)
        records.append({
            "spec": {"run": i, "q": q, "k": k, "seed": seed, "r_qubits": cfg["r_qubits"]},
            "report": {
                "lambda": inst.lam,
                "p_x": inst.p_x,
                "trace_power": inst.lam ** inst.k * inst.p_x,
                "identity_defect": inst.identity_defect,
                "thresholds": list(inst.thresholds),
                "bernoulli_ok": bool(inst.lam ** inst.k >= 1.0 - 1.0 / q - 1e-12),
            },
        })
    defects = [r["report"]["identity_defect"] for r in records]
    all_ok = all(r["report"]["bernoulli_ok"] for r in records)
    summary = {
        "max_identity_defect": max(defects) if defects else math.nan,
        "all_bernoulli_ok": all_ok,
        "defect_tolerance": BQP_DEFECT_TOLERANCE,
        "pass": bool(defects and max(defects) <= BQP_DEFECT_TOLERANCE and all_ok),
    }
    return records, summary


def _vd_records(cfg: dict, indices: range) -> list[dict]:
    """The ``apps`` virtual-distillation records ``indices``, as one stack."""
    k, eps = cfg["vd_k"], float(cfg["vd_eps"])
    specs = [InstanceSpec(
        qubits=cfg["qubits"], rank=cfg["rank"], seed=derive_seed(cfg["seed"], 1000 + index),
        observable_kind="pauli:" + "Z" + "I" * (cfg["qubits"] - 1), k=k, eps=eps,
    ) for index in indices]
    seeds = [spec.seed for spec in specs]
    results = vd_ratio_stack(purify(make_states(specs[0], seeds)), make_observables(specs[0], seeds),
                             k, eps, eps, seeds, mode=cfg["mode"])
    records = []
    for index, spec, result in zip(indices, specs, results):
        # each half's report carries its exact oracle Tr(rho^k O) / Tr(rho^k)
        true_ratio = result.numerator.oracle_value.real / result.denominator.oracle_value.real
        true_err = abs(result.ratio_estimate - true_ratio)
        records.append({"application": "vd_ratio", "run": index, "spec": spec.to_json(), "report": {
            "ratio_estimate": result.ratio_estimate,
            "error_bound": result.error_bound,
            "true_ratio": true_ratio,
            "true_error": true_err,
            "covered": bool(result.error_bound >= true_err),
        }})
    return records


def _suite_apps(cfg: dict):
    records = []
    q = cfg["tsallis_q"]
    entropies = (
        ("renyi", renyi_entropy, cfg["renyi_alpha"], 1, math.log(2.0)),
        ("tsallis", tsallis_entropy, q, 2, (1.0 / 4.0 ** (q - 1)) / (1 - q)),
    )
    for offset, (application, entropy, order, qubits, true_value) in enumerate(entropies):
        dim = 2 ** qubits
        est = entropy(
            purify(DensityMatrix(np.eye(dim, dtype=complex) / dim)), order,
            float(cfg["entropy_eps"]), mode=cfg["entropy_mode"],
            seed=derive_seed(cfg["seed"], offset),
        )
        records.append({
            "spec": {"application": application, "order": order, "state": f"max_mixed_{qubits}q"},
            "report": {"value": est.value, "error_bound": est.error_bound, "true_value": true_value,
                       "within_bound": bool(abs(est.value - true_value) <= est.error_bound),
                       "trace_power": est.trace_power.to_json()},
        })
    renyi_ok, tsallis_ok = (r["report"]["within_bound"] for r in records)

    vd = _map_chunks(partial(_vd_records, cfg), cfg["vd_runs"], 2 ** cfg["qubits"])
    records += vd
    coverage = float(np.mean([r["report"]["covered"] for r in vd])) if vd else math.nan
    summary = {
        "renyi_within_bound": renyi_ok,
        "tsallis_within_bound": tsallis_ok,
        "vd_coverage": coverage,
        "coverage_threshold": APPS_COVERAGE_THRESHOLD,
        "pass": bool(renyi_ok and tsallis_ok and coverage >= APPS_COVERAGE_THRESHOLD),
    }
    return records, summary


def _separation_confidence_z(confidence: float) -> float:
    """Two-sided standard-normal quantile for ``confidence``, from the
    standard library's inverse CDF (no SciPy import on this path)."""
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def _suite_separation(cfg: dict):
    spec_base = InstanceSpec(
        qubits=cfg["qubits"],
        rank=cfg["rank"],
        seed=cfg["seed"],
        observable_kind="pauli:Z" + "I" * (cfg["qubits"] - 1),
    )
    rho = make_state(spec_base)
    obs = make_observable(spec_base)
    pur = purify(rho)
    eps = float(cfg["eps"])
    z = _separation_confidence_z(float(cfg["confidence"]))
    records = []
    ks = cfg["k_values"]
    for k in ks:
        mean, var = swap_test_moments(rho, obs, k)
        shots = math.ceil(var * (z / eps) ** 2)
        report = estimate_trace_power(
            pur, obs, k, eps, mode="sampled", seed=derive_seed(cfg["seed"], k)
        )
        records.append({
            "spec": {"k": k, "eps": eps, "confidence": float(cfg["confidence"]),
                     "instance": spec_base.to_json()},
            "report": {"swap_variance": var, "swap_shots": shots, "swap_copies": k * shots,
                       "abs_error": abs(report.estimate - report.oracle_value),
                       "estimator": report.to_json()},
        })
    swap_exp = _log_slope(ks, [r["report"]["swap_copies"] for r in records])
    query_exp = _log_slope(ks, [r["report"]["estimator"]["u_rho_queries_total"] for r in records])
    lo, hi = SWAP_EXPONENT_RANGE
    summary = {
        "swap_copies_exponent": swap_exp,
        "qsvt_queries_exponent": query_exp,
        "swap_exponent_range": SWAP_EXPONENT_RANGE,
        "query_exponent_max": QUERY_EXPONENT_MAX,
        "pass": bool(lo <= swap_exp <= hi and query_exp <= QUERY_EXPONENT_MAX),
    }
    return records, summary


# --------------------------------------------------------------------------
# the registry
# --------------------------------------------------------------------------

class Suite(NamedTuple):
    """One suite. ``run(cfg)`` returns ``(records, summary)``; ``columns``
    maps each table header to its record paths; ``flag_keys`` names the
    config key a shared CLI flag sets where it is not the flag's usual
    key."""

    defaults: dict
    run: Callable
    columns: dict
    flag_keys: dict = {}


SUITE_REGISTRY = {
    "approx": Suite(
        {"k_values": [8, 16, 32, 64, 128], "eps": 1e-3, "grid_size": 4096},
        _suite_approx,
        {"k": "spec.k", "eps": "spec.eps", "formula_degree": "report.formula_degree",
         "empirical_degree": "report.empirical_degree",
         "measured_sup_error": "report.measured_sup_error",
         "chernoff_tail": "report.chernoff_tail", "lower_bound_d": "report.lower_bound_d"},
    ),
    "estimate": Suite(
        {"qubits": 2, "rank": 2, "k_values": [4, 8, 16], "eps": 0.05, "runs": 200, "seed": 0,
         "state_kind": "random_mixed", "observable_kind": "random_hermitian", "mode": "sampled"},
        _suite_estimate,
        {"run": "run", "k": "spec.k", "seed": "spec.seed",
         "estimate_re": "report.estimate.re", "estimate_im": "report.estimate.im",
         "oracle_re": "report.oracle_value.re", "oracle_im": "report.oracle_value.im",
         "abs_error": "abs_error", "eps": "spec.eps", "within_eps": "within_eps",
         "ae_queries_K": "report.ae_queries_K", "u_rho_queries_total": "report.u_rho_queries_total",
         "poly_degree": "report.poly_degree"},
    ),
    "baseline": Suite(
        {"qubits": 1, "rank": 2, "k": 3, "shots_list": [100, 1000, 10000], "repeats": 5, "seed": 0,
         "state_kind": "random_mixed", "observable_kind": "identity"},
        _suite_baseline,
        {"shots": "report.shots", "repeat": "report.repeat", "mean": "report.mean",
         "stderr": "report.stderr", "copies_used": "report.copies_used", "mode": "report.mode",
         "oracle": "report.oracle_value", "abs_error": "report.abs_error"},
        {"k": "k"},
    ),
    "bounds": Suite(
        {"k_values": [10, 20, 40, 80], "c": 0.5, "eps_grid": [0.3, 0.1, 0.03, 0.01],
         "hybrid_eps_grid": [0.1, 0.03, 0.01, 0.003]},
        _suite_bounds,
        {"experiment": "spec.experiment", "k": "spec.k", "eps_or_c": "spec.c|spec.eps",
         "delta_or_epsprime": "report.eps_prime|report.delta",
         "threshold_count": "report.m_star|report.t_star",
         "value": "report.kl|report.norm_direct"},
    ),
    "bqp": Suite(
        {"r_qubits": 2, "runs": 50, "q_values": [2, 10], "k_values": [1, 5, 20], "seed": 0},
        _suite_bqp,
        {"run": "spec.run", "q": "spec.q", "k": "spec.k", "lambda": "report.lambda",
         "p_x": "report.p_x", "trace_power": "report.trace_power",
         "identity_defect": "report.identity_defect", "bernoulli_ok": "report.bernoulli_ok"},
    ),
    "apps": Suite(
        {"renyi_alpha": 2, "tsallis_q": 3, "entropy_eps": 0.01, "entropy_mode": "ideal",
         "vd_runs": 200, "vd_k": 4, "vd_eps": 0.02, "qubits": 2, "rank": 2, "seed": 0,
         "mode": "sampled"},
        _suite_apps,
        {"application": "spec.application|application", "order_or_run": "spec.order|run",
         "value": "report.value|report.ratio_estimate", "error_bound": "report.error_bound",
         "true_value": "report.true_value|report.true_ratio",
         "within_bound": "report.within_bound|report.covered"},
        {"k": "vd_k", "eps": "vd_eps", "runs": "vd_runs"},
    ),
    "separation": Suite(
        {"qubits": 2, "rank": 2, "k_values": [4, 8, 16, 32, 64], "eps": 0.05, "seed": 7,
         "confidence": AE_SUCCESS_PROB},
        _suite_separation,
        {"k": "spec.k", "swap_variance": "report.swap_variance",
         "swap_shots_for_eps": "report.swap_shots", "swap_copies_for_eps": "report.swap_copies",
         "poly_degree": "report.estimator.poly_degree",
         "ae_queries_K": "report.estimator.ae_queries_K",
         "qsvt_u_rho_queries_for_eps": "report.estimator.u_rho_queries_total",
         "estimator_abs_error": "report.abs_error"},
    ),
}

SUITES = tuple(SUITE_REGISTRY)


def suite_entry(suite: str) -> Suite:
    if suite not in SUITE_REGISTRY:
        raise ValidationError(f"unknown suite {suite!r}; choose one of {SUITES}")
    return SUITE_REGISTRY[suite]


def suite_defaults(suite: str) -> dict:
    return dict(suite_entry(suite).defaults)


def _kind(value) -> str:
    """The JSON kind of a config value; a bool is not a number."""
    kinds = {bool: "boolean", int: "number", float: "number", str: "string", list: "list"}
    return kinds.get(type(value), type(value).__name__)


def _check_kind(key: str, value, default) -> None:
    """Reject a config value of another JSON kind than its default's, and
    for a list key an empty list or any element of another kind than the
    default's elements. ``seed`` is a non-negative integer."""
    if key == "seed":
        ok = type(value) is int and value >= 0
        expected = "a non-negative integer"
    elif isinstance(default, list):
        kinds = sorted({_kind(x) for x in default})
        ok = isinstance(value, list) and all(_kind(x) in kinds for x in value)
        expected = f"a list of {' or '.join(kinds)} values"
        if ok and not value:
            ok, expected = False, "a non-empty list"
    else:
        ok, expected = _kind(value) == _kind(default), f"a {_kind(default)}"
    if not ok:
        raise ValidationError(f"config key {key!r} must be {expected}, got {value!r}")


# integer keys and their least value; a list key holds integers and bounds
# every element. A swap test needs two shots for its standard error, a scan
# two points, and the bqp acceptance projector one qubit of the reduction
# register.
_COUNT_MINIMUM = {"runs": 1, "vd_runs": 1, "repeats": 1, "shots_list": 2, "grid_size": 2,
                  "qubits": 0, "r_qubits": 1, "k_values": 1, "k": 1, "vd_k": 1, "rank": 1,
                  "renyi_alpha": 1, "tsallis_q": 1}


def resolve_config(suite: str, file_config: dict | None, overrides: dict | None) -> dict:
    defaults = suite_entry(suite).defaults
    cfg = dict(defaults)
    readable = {*cfg, "seed"}
    for layer in (file_config or {}), (overrides or {}):
        for key, value in layer.items():
            if key == "suite":
                if value != suite:
                    raise ValidationError(f"config is for suite {value!r}, not {suite}")
                continue
            if key not in readable:
                raise ValidationError(
                    f"suite {suite} reads no config key {key!r}; it reads {', '.join(sorted(readable))}"
                )
            if value is not None:
                _check_kind(key, value, defaults.get(key))
                least = _COUNT_MINIMUM.get(key)
                values = value if isinstance(value, list) else [value]
                if least is not None and not all(type(x) is int for x in values):
                    raise ValidationError(f"config key {key!r} takes integers only, got {value!r}")
                if least is not None and any(x < least for x in values):
                    raise ValidationError(f"config key {key!r} must be at least {least}, got {value!r}")
                cfg[key] = value
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        if not env_seed.strip().isdecimal():
            raise ValidationError(f"{SEED_ENV_VAR} must be a non-negative integer, got {env_seed!r}")
        cfg["seed"] = int(env_seed)
    cfg["suite"] = suite
    return cfg


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def run_suite_config(suite: str, cfg: dict, out_root: str = "out") -> int:
    """Run one suite with a fully resolved config; returns the exit code."""
    entry = suite_entry(suite)
    cfg = {**cfg, "suite": suite}
    cfg_hash = config_hash(cfg)
    records, summary = entry.run(cfg)
    stamp = {"tool_version": __version__, "config_hash": cfg_hash}
    records = [{**rec, **stamp, "timestamp": _timestamp()} for rec in records]

    out_dir = os.path.join(out_root, suite, cfg_hash)
    write_csv(os.path.join(out_dir, "table.csv"), entry.columns, records)
    _atomic_write(
        os.path.join(out_dir, "records.json"), canonical_json(records) + "\n"
    )
    summary_obj = {
        "suite": suite,
        "config": cfg,
        "config_hash": cfg_hash,
        "tool_version": __version__,
        **summary,
    }
    _atomic_write(
        os.path.join(out_dir, "summary.json"), canonical_json(summary_obj) + "\n"
    )
    return 0 if summary["pass"] else 1


def load_config_file(path: str) -> dict:
    """Parse a flat JSON config; parse errors carry the line and column."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config parse error at {path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ValidationError(f"config at {path} must be a JSON object")
    return cfg
