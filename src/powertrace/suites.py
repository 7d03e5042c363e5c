"""Experiment suites: instance sweeps, persistence, and scaling tables.

Every suite resolves a flat JSON config (defaults <- config file <- CLI
overrides <- POWERTRACE_SEED), runs its records, and writes

    <out>/<suite>/<config-hash>/records.json   per-record inputs + reports
    <out>/<suite>/<config-hash>/table.csv      plot-ready table
    <out>/<suite>/<config-hash>/summary.json   fits, pass fraction, verdict

Numeric output is printed with 17 significant digits and JSON keys are
sorted, so reruns with the same config and seed are byte-identical (except
record timestamps). Files are written atomically (temp then rename).
"""

from __future__ import annotations

import concurrent.futures
import datetime
import hashlib
import json
import math
import os
import tempfile
from functools import partial
from statistics import NormalDist

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
    truncate,
)
from .errors import ValidationError
from .estimator import (AE_SUCCESS_PROB, _identity_observable, estimate_trace_power,
                        renyi_entropy, tsallis_entropy, vd_ratio)
from .instances import InstanceSpec, derive_seed, make_observable, make_state, random_unitary
from .linalg import DensityMatrix, Observable, trace_power_obs_oracle

SUITES = ("approx", "estimate", "baseline", "bounds", "bqp", "apps", "separation")

SEED_ENV_VAR = "POWERTRACE_SEED"


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
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = [
            f'{pad}  "{key}": {canonical_json(obj[key], indent + 2).lstrip()}'
            for key in sorted(obj)
        ]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}" if items else pad + "{}"
    if isinstance(obj, (list, tuple)):
        items = [canonical_json(v, indent + 2) for v in obj]
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else pad + "[]"
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if obj is None:
        return pad + "null"
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return pad + '"nan"'
        if math.isinf(x):
            return pad + ('"inf"' if x > 0 else '"-inf"')
        return pad + format(x, ".17g")
    return pad + json.dumps(str(obj))


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


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(fmt(cell) for cell in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _record(spec_obj, report_obj, cfg_hash: str, extra: dict | None = None) -> dict:
    rec = {
        "spec": spec_obj,
        "report": report_obj,
        "timestamp": _timestamp(),
        "tool_version": __version__,
        "config_hash": cfg_hash,
    }
    if extra:
        rec.update(extra)
    return rec


def _log_slope(xs, ys) -> float:
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    if xs.size < 2 or np.allclose(xs, xs[0]):
        return math.nan
    return float(np.polyfit(xs, ys, 1)[0])


def _map(fn, items, jobs: int):
    if jobs <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# --------------------------------------------------------------------------
# config resolution
# --------------------------------------------------------------------------

_DEFAULTS: dict[str, dict] = {
    "approx": {
        "k_values": [8, 16, 32, 64, 128],
        "eps": 1e-3,
        "grid_size": 4096,
        "slope_range": [0.4, 0.6],
    },
    "estimate": {
        "qubits": 2,
        "rank": 2,
        "k_values": [4, 8, 16],
        "eps": 0.05,
        "runs": 200,
        "seed": 0,
        "state_kind": "random_mixed",
        "observable_kind": "random_hermitian",
        "mode": "sampled",
        "pass_threshold": AE_SUCCESS_PROB - 0.05,
        "ae_grid_override": None,
    },
    "baseline": {
        "qubits": 1,
        "rank": 2,
        "k": 3,
        "shots_list": [100, 1000, 10000],
        "repeats": 5,
        "seed": 0,
        "state_kind": "random_mixed",
        "observable_kind": "identity",
        "slope_tolerance": 0.05,
    },
    "bounds": {
        "k_values": [10, 20, 40, 80],
        "c": 0.5,
        "eps_grid": [0.3, 0.1, 0.03, 0.01],
        "t_values": [1, 2, 4, 8, 16, 32, 64, 128],
        "hybrid_eps_grid": [0.1, 0.03, 0.01, 0.003],
        "helstrom_ratio_range": [7.0, 9.0],
    },
    "bqp": {
        "r_qubits": 2,
        "runs": 50,
        "q_values": [2, 10],
        "k_values": [1, 5, 20],
        "seed": 0,
        "defect_tolerance": 1e-10,
    },
    "apps": {
        "renyi_alpha": 2,
        "tsallis_q": 3,
        "entropy_eps": 0.01,
        "entropy_mode": "ideal",
        "vd_runs": 200,
        "vd_k": 4,
        "vd_eps": 0.02,
        "qubits": 2,
        "rank": 2,
        "seed": 0,
        "coverage_threshold": 0.95,
        "mode": "sampled",
    },
    "separation": {
        "qubits": 2,
        "rank": 2,
        "k_values": [4, 8, 16, 32, 64],
        "eps": 0.05,
        "seed": 7,
        "observable_kind": "pauli:ZI",
        "confidence": AE_SUCCESS_PROB,
        "swap_exponent_range": [0.85, 1.15],
        "query_exponent_max": 0.65,
    },
}


def suite_defaults(suite: str) -> dict:
    if suite not in _DEFAULTS:
        raise ValidationError(f"unknown suite {suite!r}; choose one of {SUITES}")
    return dict(_DEFAULTS[suite])


def resolve_config(suite: str, file_config: dict | None, overrides: dict | None) -> dict:
    cfg = suite_defaults(suite)
    for layer in (file_config or {}), (overrides or {}):
        for key, value in layer.items():
            if value is not None and key != "suite":
                cfg[key] = value
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        cfg["seed"] = int(env_seed)
    cfg["suite"] = suite
    return cfg


# --------------------------------------------------------------------------
# suite implementations
# --------------------------------------------------------------------------

def _suite_approx(cfg: dict, cfg_hash: str):
    rows, records = [], []
    eps = float(cfg["eps"])
    for k in cfg["k_values"]:
        k = int(k)
        degree = required_degree(k, eps)
        trunc = truncate(power_expansion(k), degree, k=k)
        measured = sup_error_scan(trunc.kept, k, int(cfg["grid_size"]))
        empirical = minimal_empirical_degree(k, eps, int(cfg["grid_size"]))
        lower = degree_lower_bound_solve(k, eps) if (k >= 2 and eps <= 0.1) else math.nan
        rows.append([k, eps, degree, empirical, measured, trunc.tail_chernoff, lower])
        records.append(
            _record(
                {"k": k, "eps": eps},
                {
                    "formula_degree": degree,
                    "empirical_degree": empirical,
                    "measured_sup_error": measured,
                    "tail_exact": trunc.tail_exact,
                    "chernoff_tail": trunc.tail_chernoff,
                    "lower_bound_d": lower,
                    "within_eps": bool(measured <= eps),
                },
                cfg_hash,
            )
        )
    header = [
        "k",
        "eps",
        "formula_degree",
        "empirical_degree",
        "measured_sup_error",
        "chernoff_tail",
        "lower_bound_d",
    ]
    all_within = all(r["report"]["within_eps"] for r in records)
    slope = _log_slope(
        [r[0] for r in rows], [r[3] for r in rows]
    ) if len(rows) >= 2 else math.nan
    lo, hi = cfg["slope_range"]
    # a scaling fit needs a few decades; short sweeps only gate on accuracy
    slope_checked = len({r[0] for r in rows}) >= 3
    slope_ok = (not slope_checked) or (lo <= slope <= hi)
    summary = {
        "all_within_eps": all_within,
        "empirical_degree_slope": slope,
        "slope_range": list(cfg["slope_range"]),
        "slope_checked": slope_checked,
        "pass": bool(all_within and slope_ok),
        "pass_fraction": float(np.mean([r["report"]["within_eps"] for r in records])),
    }
    return header, rows, records, summary


def _run_estimate_record(cfg: dict, index: int) -> dict:
    ks = cfg["k_values"]
    k = int(ks[index % len(ks)])
    seed = derive_seed(int(cfg["seed"]), index)
    spec = InstanceSpec(
        qubits=int(cfg["qubits"]),
        rank=int(cfg["rank"]),
        seed=seed,
        state_kind=cfg["state_kind"],
        observable_kind=cfg["observable_kind"],
        k=k,
        eps=float(cfg["eps"]),
    )
    rho = make_state(spec)
    obs = make_observable(spec)
    report = estimate_trace_power(
        purify(rho),
        obs,
        k,
        float(cfg["eps"]),
        mode=cfg["mode"],
        seed=seed,
        ae_grid=cfg.get("ae_grid_override"),
    )
    err = abs(report.estimate - report.oracle_value)
    return {
        "index": index,
        "spec": spec.to_json(),
        "report": report.to_json(),
        "abs_error": err,
        "within_eps": bool(err <= float(cfg["eps"])),
    }


def _suite_estimate(cfg: dict, cfg_hash: str, jobs: int = 1):
    results = _map(partial(_run_estimate_record, cfg), range(int(cfg["runs"])), jobs)
    rows, records = [], []
    for res in results:
        rep = res["report"]
        rows.append(
            [
                res["index"],
                res["spec"]["k"],
                res["spec"]["seed"],
                rep["estimate"]["re"],
                rep["estimate"]["im"],
                rep["oracle_value"]["re"],
                rep["oracle_value"]["im"],
                res["abs_error"],
                res["spec"]["eps"],
                res["within_eps"],
                rep["ae_queries_K"],
                rep["u_rho_queries_total"],
                rep["poly_degree"],
            ]
        )
        records.append(
            _record(res["spec"], rep, cfg_hash, {"within_eps": res["within_eps"]})
        )
    header = [
        "run",
        "k",
        "seed",
        "estimate_re",
        "estimate_im",
        "oracle_re",
        "oracle_im",
        "abs_error",
        "eps",
        "within_eps",
        "ae_queries_K",
        "u_rho_queries_total",
        "poly_degree",
    ]
    fraction = float(np.mean([r["within_eps"] for r in records])) if records else 0.0
    summary = {
        "pass_fraction": fraction,
        "pass_threshold": float(cfg["pass_threshold"]),
        "pass": bool(fraction >= float(cfg["pass_threshold"])),
        "runs": len(records),
    }
    return header, rows, records, summary


def _suite_baseline(cfg: dict, cfg_hash: str):
    spec = InstanceSpec(
        qubits=int(cfg["qubits"]),
        rank=int(cfg["rank"]),
        seed=int(cfg["seed"]),
        state_kind=cfg["state_kind"],
        observable_kind=cfg["observable_kind"],
        k=int(cfg["k"]),
    )
    rho = make_state(spec)
    obs = make_observable(spec)
    oracle = trace_power_obs_oracle(rho, obs, int(cfg["k"])).real
    rows, records = [], []
    repeats = int(cfg.get("repeats", 1))
    mean_stderrs = []
    for i, shots in enumerate(cfg["shots_list"]):
        stderrs = []
        for rep in range(repeats):
            result = swap_test_estimate(
                rho,
                obs,
                int(cfg["k"]),
                int(shots),
                seed=derive_seed(int(cfg["seed"]), 100 * i + rep),
            )
            stderrs.append(result.stderr)
            err = abs(result.mean - oracle)
            rows.append(
                [
                    int(shots),
                    rep,
                    result.mean,
                    result.stderr,
                    result.copies_used,
                    result.mode,
                    oracle,
                    err,
                ]
            )
            records.append(
                _record(
                    spec.to_json(),
                    {
                        "shots": int(shots),
                        "repeat": rep,
                        "mean": result.mean,
                        "stderr": result.stderr,
                        "copies_used": result.copies_used,
                        "mode": result.mode,
                        "oracle_value": oracle,
                        "abs_error": err,
                    },
                    cfg_hash,
                )
            )
        mean_stderrs.append(float(np.mean(stderrs)))
    header = ["shots", "repeat", "mean", "stderr", "copies_used", "mode", "oracle", "abs_error"]
    slope = _log_slope([int(s) for s in cfg["shots_list"]], mean_stderrs)
    tol = float(cfg["slope_tolerance"])
    summary = {
        "stderr_slope": slope,
        "expected_slope": -0.5,
        "slope_tolerance": tol,
        "pass": bool(abs(slope + 0.5) <= tol),
    }
    return header, rows, records, summary


def _suite_bounds(cfg: dict, cfg_hash: str):
    rows, records = [], []
    z = Observable(np.diag([1.0, -1.0]).astype(complex))

    m_stars = []
    for k in cfg["k_values"]:
        table = helstrom_experiment(int(k), float(cfg["c"]), [0, int(k), 4 * int(k)])
        m_stars.append(table.m_star)
        rows.append(["helstrom", k, float(cfg["c"]), table.eps_prime, table.m_star, math.nan])
        records.append(
            _record(
                {"experiment": "helstrom", "k": int(k), "c": float(cfg["c"])},
                {
                    "m_star": table.m_star,
                    "rows": [
                        {"m": r.m, "fidelity": r.fidelity, "success_lower_bound": r.success_lower_bound}
                        for r in table.rows
                    ],
                },
                cfg_hash,
            )
        )

    kl_values = []
    for eps in cfg["eps_grid"]:
        rho0, rho1, kl = lecam_construction(z, float(eps))
        kl_values.append(kl)
        rows.append(["lecam", math.nan, float(eps), float(eps) / 2.0, math.nan, kl])
        records.append(
            _record(
                {"experiment": "lecam", "eps": float(eps), "obs": "Z"},
                {
                    "delta": float(eps) / 2.0,
                    "kl": kl,
                    "copies_bound": 1.0 / kl,
                    "expectation_0": float(np.trace(rho0.mat @ z.mat).real),
                    "expectation_1": float(np.trace(rho1.mat @ z.mat).real),
                },
                cfg_hash,
            )
        )

    t_stars = []
    for eps in cfg["hybrid_eps_grid"]:
        table = hybrid_bound_demo(z, float(eps), list(cfg["t_values"]))
        t_stars.append(table.t_star)
        rows.append(["hybrid", math.nan, float(eps), table.delta, table.t_star, table.norm_direct])
        records.append(
            _record(
                {"experiment": "hybrid", "eps": float(eps), "obs": "Z"},
                {
                    "delta": table.delta,
                    "norm_direct": table.norm_direct,
                    "norm_closed_form": table.norm_closed_form,
                    "t_star": table.t_star,
                },
                cfg_hash,
            )
        )

    header = ["experiment", "k", "eps_or_c", "delta_or_epsprime", "threshold_count", "value"]
    ks = [int(k) for k in cfg["k_values"]]
    ratio = m_stars[-1] / m_stars[0] if len(m_stars) >= 2 else math.nan
    expected_ratio = ks[-1] / ks[0] if len(ks) >= 2 else math.nan
    lecam_slope = _log_slope(
        [1.0 / float(e) for e in cfg["eps_grid"]], [1.0 / kl for kl in kl_values]
    )
    hybrid_slope = _log_slope(
        [1.0 / float(e) for e in cfg["hybrid_eps_grid"]], t_stars
    )
    lo, hi = cfg["helstrom_ratio_range"]
    summary = {
        "helstrom_m_stars": m_stars,
        "helstrom_ratio": ratio,
        "helstrom_ratio_expected": expected_ratio,
        "lecam_copies_exponent": lecam_slope,
        "hybrid_t_star_exponent": hybrid_slope,
        "pass": bool(
            (math.isnan(ratio) or lo <= ratio <= hi)
            and abs(lecam_slope - 2.0) <= 0.1
            and abs(hybrid_slope - 1.0) <= 0.05
        ),
    }
    return header, rows, records, summary


def _suite_bqp(cfg: dict, cfg_hash: str):
    rows, records = [], []
    r_dim = 2 ** int(cfg["r_qubits"])
    acc = np.kron(np.diag([0.0, 1.0]).astype(complex), np.eye(r_dim // 2, dtype=complex))
    accept = Observable(acc)
    defects, bernoulli_flags = [], []
    qs, ks = list(cfg["q_values"]), list(cfg["k_values"])
    for i in range(int(cfg["runs"])):
        seed = derive_seed(int(cfg["seed"]), i)
        q = float(qs[i % len(qs)])
        k = int(ks[(i // len(qs)) % len(ks)])
        u = random_unitary(r_dim, seed)
        inst = bqp_instance(u, accept, q, k)
        bernoulli_ok = bool(inst.lam ** inst.k >= 1.0 - 1.0 / q - 1e-12)
        defects.append(inst.identity_defect)
        bernoulli_flags.append(bernoulli_ok)
        rows.append(
            [i, q, k, inst.lam, inst.p_x, inst.lam ** inst.k * inst.p_x,
             inst.identity_defect, bernoulli_ok]
        )
        records.append(
            _record(
                {"run": i, "q": q, "k": k, "seed": seed, "r_qubits": int(cfg["r_qubits"])},
                {
                    "lambda": inst.lam,
                    "p_x": inst.p_x,
                    "trace_power": inst.lam ** inst.k * inst.p_x,
                    "identity_defect": inst.identity_defect,
                    "thresholds": list(inst.thresholds),
                    "bernoulli_ok": bernoulli_ok,
                },
                cfg_hash,
            )
        )
    header = ["run", "q", "k", "lambda", "p_x", "trace_power", "identity_defect", "bernoulli_ok"]
    summary = {
        "max_identity_defect": max(defects) if defects else math.nan,
        "all_bernoulli_ok": all(bernoulli_flags),
        "defect_tolerance": float(cfg["defect_tolerance"]),
        "pass": bool(
            defects
            and max(defects) <= float(cfg["defect_tolerance"])
            and all(bernoulli_flags)
        ),
    }
    return header, rows, records, summary


def _run_vd_record(cfg: dict, index: int) -> dict:
    seed = derive_seed(int(cfg["seed"]), 1000 + index)
    spec = InstanceSpec(
        qubits=int(cfg["qubits"]),
        rank=int(cfg["rank"]),
        seed=seed,
        observable_kind="pauli:" + "Z" + "I" * (int(cfg["qubits"]) - 1),
        k=int(cfg["vd_k"]),
        eps=float(cfg["vd_eps"]),
    )
    rho = make_state(spec)
    obs = make_observable(spec)
    result = vd_ratio(
        purify(rho),
        obs,
        int(cfg["vd_k"]),
        float(cfg["vd_eps"]),
        float(cfg["vd_eps"]),
        mode=cfg["mode"],
        seed=seed,
    )
    num = trace_power_obs_oracle(rho, obs, int(cfg["vd_k"])).real
    den = trace_power_obs_oracle(rho, _identity_observable(rho.dim), int(cfg["vd_k"])).real
    true_ratio = num / den
    true_err = abs(result.ratio_estimate - true_ratio)
    return {
        "index": index,
        "spec": spec.to_json(),
        "ratio_estimate": result.ratio_estimate,
        "error_bound": result.error_bound,
        "true_ratio": true_ratio,
        "true_error": true_err,
        "covered": bool(result.error_bound >= true_err),
    }


def _suite_apps(cfg: dict, cfg_hash: str, jobs: int = 1):
    rows, records = [], []
    eps = float(cfg["entropy_eps"])

    one_qubit_mixed = DensityMatrix(np.eye(2, dtype=complex) / 2)
    ren = renyi_entropy(
        purify(one_qubit_mixed), int(cfg["renyi_alpha"]), eps,
        mode=cfg["entropy_mode"], seed=int(cfg["seed"]),
    )
    ren_true = math.log(2.0)
    rows.append(
        ["renyi", int(cfg["renyi_alpha"]), ren.value, ren.error_bound, ren_true,
         bool(abs(ren.value - ren_true) <= ren.error_bound)]
    )
    records.append(
        _record(
            {"application": "renyi", "order": int(cfg["renyi_alpha"]), "state": "max_mixed_1q"},
            {"value": ren.value, "error_bound": ren.error_bound, "true_value": ren_true,
             "trace_power": ren.trace_power.to_json()},
            cfg_hash,
        )
    )

    two_qubit_mixed = DensityMatrix(np.eye(4, dtype=complex) / 4)
    tsa = tsallis_entropy(
        purify(two_qubit_mixed), int(cfg["tsallis_q"]), eps,
        mode=cfg["entropy_mode"], seed=int(cfg["seed"]) + 1,
    )
    q = int(cfg["tsallis_q"])
    tsa_true = (1.0 / 4.0 ** (q - 1)) / (1 - q)
    rows.append(
        ["tsallis", q, tsa.value, tsa.error_bound, tsa_true,
         bool(abs(tsa.value - tsa_true) <= tsa.error_bound)]
    )
    records.append(
        _record(
            {"application": "tsallis", "order": q, "state": "max_mixed_2q"},
            {"value": tsa.value, "error_bound": tsa.error_bound, "true_value": tsa_true,
             "trace_power": tsa.trace_power.to_json()},
            cfg_hash,
        )
    )

    vd_results = _map(partial(_run_vd_record, cfg), range(int(cfg["vd_runs"])), jobs)
    for res in vd_results:
        rows.append(
            ["vd_ratio", res["index"], res["ratio_estimate"], res["error_bound"],
             res["true_ratio"], res["covered"]]
        )
        records.append(
            _record(res["spec"],
                    {k: res[k] for k in
                     ("ratio_estimate", "error_bound", "true_ratio", "true_error", "covered")},
                    cfg_hash))
    header = ["application", "order_or_run", "value", "error_bound", "true_value", "within_bound"]
    coverage = float(np.mean([res["covered"] for res in vd_results])) if vd_results else math.nan
    entropy_ok = bool(rows[0][5]) and bool(rows[1][5])
    summary = {
        "renyi_within_bound": bool(rows[0][5]),
        "tsallis_within_bound": bool(rows[1][5]),
        "vd_coverage": coverage,
        "coverage_threshold": float(cfg["coverage_threshold"]),
        "pass": bool(entropy_ok and coverage >= float(cfg["coverage_threshold"])),
    }
    return header, rows, records, summary


def _separation_confidence_z(confidence: float) -> float:
    """Two-sided standard-normal quantile for ``confidence``, from the
    standard library's inverse CDF (no SciPy import on this path)."""
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def _suite_separation(cfg: dict, cfg_hash: str, jobs: int = 1):
    spec_base = InstanceSpec(
        qubits=int(cfg["qubits"]),
        rank=int(cfg["rank"]),
        seed=int(cfg["seed"]),
        observable_kind=cfg["observable_kind"],
    )
    rho = make_state(spec_base)
    obs = make_observable(spec_base)
    pur = purify(rho)
    eps = float(cfg["eps"])
    z = _separation_confidence_z(float(cfg["confidence"]))
    rows, records = [], []
    copies_list, queries_list = [], []
    for k in cfg["k_values"]:
        k = int(k)
        mean, var = swap_test_moments(rho, obs, k)
        shots = math.ceil(var * (z / eps) ** 2)
        copies = k * shots
        report = estimate_trace_power(
            pur, obs, k, eps, mode="sampled", seed=derive_seed(int(cfg["seed"]), k)
        )
        copies_list.append(copies)
        queries_list.append(report.u_rho_queries_total)
        rows.append(
            [k, var, shots, copies, report.poly_degree, report.ae_queries_K,
             report.u_rho_queries_total,
             abs(report.estimate - report.oracle_value)]
        )
        records.append(
            _record(
                {"k": k, "eps": eps, "confidence": float(cfg["confidence"]),
                 "instance": spec_base.to_json()},
                {"swap_variance": var, "swap_shots": shots, "swap_copies": copies,
                 "estimator": report.to_json()},
                cfg_hash,
            )
        )
    header = [
        "k", "swap_variance", "swap_shots_for_eps", "swap_copies_for_eps",
        "poly_degree", "ae_queries_K", "qsvt_u_rho_queries_for_eps", "estimator_abs_error",
    ]
    ks = [int(k) for k in cfg["k_values"]]
    swap_exp = _log_slope(ks, copies_list)
    query_exp = _log_slope(ks, queries_list)
    lo, hi = cfg["swap_exponent_range"]
    summary = {
        "swap_copies_exponent": swap_exp,
        "qsvt_queries_exponent": query_exp,
        "swap_exponent_range": list(cfg["swap_exponent_range"]),
        "query_exponent_max": float(cfg["query_exponent_max"]),
        "pass": bool(lo <= swap_exp <= hi and query_exp <= float(cfg["query_exponent_max"])),
    }
    return header, rows, records, summary


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def run_suite_config(suite: str, cfg: dict, out_root: str = "out", jobs: int = 1) -> int:
    """Run one suite with a fully resolved config; returns the exit code."""
    cfg = dict(cfg)
    cfg["suite"] = suite
    cfg_hash = config_hash(cfg)
    if suite == "approx":
        header, rows, records, summary = _suite_approx(cfg, cfg_hash)
    elif suite == "estimate":
        header, rows, records, summary = _suite_estimate(cfg, cfg_hash, jobs)
    elif suite == "baseline":
        header, rows, records, summary = _suite_baseline(cfg, cfg_hash)
    elif suite == "bounds":
        header, rows, records, summary = _suite_bounds(cfg, cfg_hash)
    elif suite == "bqp":
        header, rows, records, summary = _suite_bqp(cfg, cfg_hash)
    elif suite == "apps":
        header, rows, records, summary = _suite_apps(cfg, cfg_hash, jobs)
    elif suite == "separation":
        header, rows, records, summary = _suite_separation(cfg, cfg_hash, jobs)
    else:
        raise ValidationError(f"unknown suite {suite!r}; choose one of {SUITES}")

    out_dir = os.path.join(out_root, suite, cfg_hash)
    write_csv(os.path.join(out_dir, "table.csv"), header, rows)
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
    return 0 if summary.get("pass", True) else 1


def load_config_file(path: str) -> dict:
    """Parse a flat JSON config; parse errors carry the line and column."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config parse error at {path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ValidationError(f"config at {path} must be a JSON object")
    return cfg


def run_suite(config_path: str, out_root: str = "out", jobs: int = 1) -> int:
    """Run the suite named by the config file's "suite" key."""
    cfg_file = load_config_file(config_path)
    suite = cfg_file.get("suite")
    if suite not in SUITES:
        raise ValidationError(
            f'config at {config_path} needs a "suite" key, one of {SUITES}'
        )
    cfg = resolve_config(suite, cfg_file, None)
    return run_suite_config(suite, cfg, out_root=out_root, jobs=jobs)
