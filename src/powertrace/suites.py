"""Experiment suites: instance sweeps, persistence, and scaling tables.

``SUITE_REGISTRY`` holds one ``Suite`` per suite name: its config
defaults, its runner, its table columns and the config keys the shared
command-line flags set. A runner returns ``(records, stats, gates)``: the
records are the suite's only data, ``stats`` its ungated summary figures,
and ``gates`` its ``Gate``s, each a measured value and the bound it must
meet. A fitted exponent is gated only over at least two distinct log x
(``approx``'s degree slope over three); over fewer, where a fit over one x
is undefined, its slope is an ungated stat. ``run_suite_config`` alone
decides the verdict: ``pass`` is true when every gate is ok, and the run
exits 0, or else it names each failed gate on stderr and exits 1.
``table.csv`` is a projection of the records: each column names a dotted
path into a record ("report.estimate.re"), with "|"-separated fallbacks
for tables that mix record kinds ("report.m_star|report.t_star"), and a
cell no path reaches is nan.

Every suite resolves a flat JSON config (defaults <- config file <- CLI
overrides), runs its records, and writes

    <out>/<suite>/<config-hash>/records.json   per-record inputs + reports
    <out>/<suite>/<config-hash>/table.csv      plot-ready table
    <out>/<suite>/<config-hash>/summary.json   stats, gates, verdict

The ``estimate`` and ``apps`` runners cut their records into contiguous
chunks of at most 2^16 / d^2 records each and run each chunk as one stack
of states. A record does not depend on its chunk.

A config holds only experiment parameters; the gate thresholds are the
module constants below, and each summary lists them as its gates' bounds. A
config key outside the suite's defaults is rejected, and so is a value of
another JSON kind than its default's, or a fractional or too small value
of an integer key. A suite that draws random numbers reads ``seed``, a
non-negative integer.

Floats are printed with 17 significant digits and JSON keys are sorted, so
reruns with the same config and seed are byte-identical; a record holds
only what its runner returned. A JSON leaf is true, false, a number
(quoted if nan or +-inf), null or a quoted string; a table cell is true,
false, a float or any other value's ``str()``. One ``run_suite_config``
pass writes each record's JSON item and row by its shape's template
(``_Shape``); files are written atomically.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile
from functools import partial
from operator import itemgetter
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bounds import (
    helstrom_experiment,
    hybrid_bound_demo,
    lecam_construction,
    swap_test_estimate,
    swap_test_moments,
)
from .blockenc import purify
from .chebyshev import (
    minimal_empirical_degree,
    power_expansion,
    required_degree,
    sup_error_scan,
    truncation_tails,
)
from .errors import ValidationError
from .estimator import (AE_SUCCESS_PROB, estimate_stack, estimate_trace_power, renyi_entropy,
                        tsallis_entropy, vd_ratio_stack)
from .instances import (InstanceSpec, derive_seed, derive_seeds, make_observable, make_observables, make_state,
                        make_states, shared_observable)
from .linalg import DensityMatrix, trace_power_obs_oracle

APPROX_SLOPE_RANGE = (0.4, 0.6)  # degree ~ sqrt(k)
ESTIMATE_PASS_THRESHOLD = AE_SUCCESS_PROB - 0.05  # share of estimates within eps
BASELINE_SLOPE_WINDOW = (-0.5499999999999999, -0.45)  # stderr ~ shots^(-1/2): the floats s with |s + 0.5| <= 0.05
HELSTROM_RATIO_WINDOW = (0.875, 1.125)  # m* ~ k: the m* ratio over the k ratio
LECAM_EXPONENT_WINDOW = (1.9, 2.1)  # copies ~ 1/eps^2
HYBRID_EXPONENT_WINDOW = (0.95, 1.05)  # t* ~ 1/eps
APPS_COVERAGE_THRESHOLD = 0.95
SWAP_EXPONENT_RANGE = (0.85, 1.15)  # copies ~ k
QUERY_EXPONENT_MAX = 0.65  # queries ~ sqrt(k)


# --------------------------------------------------------------------------
# formatting, hashing, atomic output
# --------------------------------------------------------------------------

_quote, _CONTAINERS, _NONE = json.encoder.encode_basestring_ascii, (dict, list, tuple), type(None)


def _leaf_json(value) -> str:
    """The JSON of a value that is no container: a bool (numpy's too) as true or false, a number's digits
    (a float's 17 significant ones, quoted if nan or +-inf), null, or any other value's quoted string."""
    if not isinstance(value, (bool, np.bool_, float, np.floating, int, np.integer)):
        return "null" if value is None else _quote(str(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    text = format(float(value), ".17g") if isinstance(value, (float, np.floating)) else str(value)
    return f'"{text}"' if text in ("nan", "inf", "-inf") else text


class _Shape:
    """One value shape's templates, both formatting ``values``: ``json`` writes the value as ``canonical_json``
    at indent ``pad``, ``row`` as a table row of its value at each column's first key path in ``split``, or
    nan; a cell is a float's 17 significant digits, a bool's ``_leaf_json`` or any other value's ``str()``."""

    def __init__(self, value, pad: str, split: list = ()):
        self.types, self.kinds, self.steps, self.cached, paths = [type(value)], [_CONTAINERS], [], True, {}
        pieces = [pad]  # the head of the value: its indent
        self._compile(value, 0, pad, (), paths, pieces)
        kinds, types = self.kinds, self.types
        cells = [next((paths[path] for path in column if path in paths), None) for column in split]
        self.floats = [i for i, kind in enumerate(kinds) if kind is float]
        self.texts = [i for i, kind in enumerate(kinds) if kind in (str, object)]
        text = {i: len(kinds) + j for j, i in enumerate(self.texts)}  # where leaf i's JSON is
        self.json = "".join(piece.replace("{", "{{").replace("}", "}}") if type(piece) is str else "null"
                            if kinds[piece] is _NONE else "{%d:.17g}" % piece if kinds[piece] is float else
                            "{%d}" % (piece if kinds[piece] is int else text[piece]) for piece in pieces)
        self.row = ",".join("nan" if i is None else "{%d:.17g}" % i if issubclass(types[i], (float, np.floating))
                            else "{%d}" % text[i] if issubclass(types[i], (bool, np.bool_)) else "{%d!s}" % i
                            for i in cells)

    def _compile(self, value, at: int, pad: str, path, paths: dict, pieces: list) -> None:
        """Add the steps that flatten container ``value`` (at position ``at``, indent ``pad``, key path
        ``path``, None under a list), its key paths to ``paths`` and its format pieces to ``pieces``."""
        is_dict, inner, base = isinstance(value, dict), pad + "  ", len(self.kinds)
        keys = sorted(value) if is_dict else range(len(value))
        items = [value[key] for key in keys] if is_dict else list(value)
        self.cached &= type(value) in _CONTAINERS and (not is_dict or all(type(key) is str for key in keys))
        getter = None if not is_dict else itemgetter(*keys) if len(keys) > 1 else (
            lambda d: [*map(d.__getitem__, keys)])
        self.steps.append((at, type(value), frozenset(keys) if is_dict else len(items), getter))
        self.types += map(type, items)
        self.kinds += [_CONTAINERS if isinstance(v, _CONTAINERS) else float if type(v) is float and math.isfinite(v)
                       else type(v) if type(v) in (int, str, _NONE) else object for v in items]
        close = "}" if is_dict else "]"
        pieces.append(("{" if is_dict else "[") + ("\n" if items else close))
        for i, (key, v) in enumerate(zip(keys, items)):
            where = path + (key,) if is_dict and path is not None else None
            if where is not None:
                paths[where] = base + i
            pieces.append((",\n" if i else "") + inner + (_quote(str(key)) + ": " if is_dict else ""))
            if isinstance(v, _CONTAINERS):
                self._compile(v, base + i, inner, where, paths, pieces)
            else:
                pieces.append(base + i)
        if items:
            pieces.append("\n" + pad + close)

    def values(self, value) -> list | None:
        """The flattened ``value`` (container types and lengths, sorted dict keys and exact leaf types checked),
        then the JSON of each leaf but a finite float, an int or None; None unless it has this shape."""
        out = [value]
        for at, kind, keys, getter in self.steps:  # a getter reads only the type and keys it was compiled for
            item = out[at]
            if type(item) is not kind or (item.keys() != keys if getter else len(item) != keys):
                return None
            out += getter(item) if getter else item
        if [*map(type, out)] != self.types or not all(map(math.isfinite, map(out.__getitem__, self.floats))):
            return None
        return out + [*map(_leaf_json, map(out.__getitem__, self.texts))]


def _rendered(records: list, columns: dict):
    """Per record (a container), its ``records.json`` item and table row, each one ``str.format`` of the
    first cached shape it has (latest first) or of its own, cached while fewer than 8 are."""
    split, shapes = [[tuple(p.split(".")) for p in paths.split("|")] for paths in columns.values()], []
    for record in records:
        shape, values = next(((shape, values) for shape in shapes if (values := shape.values(record))), (None, None))
        if shape is None:
            shape = _Shape(record, "  ", split)
            values = shape.values(record)
            if shape.cached and len(shapes) < 8:
                shapes.insert(0, shape)
        yield shape.json.format(*values), shape.row.format(*values)


def canonical_json(obj) -> str:
    """Deterministic JSON by the value's shape's template (``_Shape``): sorted keys, strings and keys
    ASCII-escaped, each leaf as ``_leaf_json`` writes it (a non-finite float as "nan", "inf" or "-inf")."""
    shape = _Shape(obj, "") if isinstance(obj, _CONTAINERS) else None
    return shape.json.format(*shape.values(obj)) if shape else _leaf_json(obj)


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:12]


def _atomic_write(path: str, pieces: list[str]) -> None:
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _log_slope(xs, ys) -> float:
    """The least-squares slope of log y against log x; nan for fewer than
    two distinct log x, or for a y <= 0, which has no logarithm."""
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.asarray(ys, dtype=float)
    if len(set(xs.tolist())) < 2 or (ys <= 0).any():
        return math.nan
    ys = np.log(ys)
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


class Gate(NamedTuple):
    """One check of a suite's verdict: ``value`` must be true (``bound`` True) or lie in ``bound`` = (low, high),
    ends included and a None end open. A nan lies in no bound."""

    name: str
    value: object
    bound: tuple | bool

    def ok(self) -> bool:
        if self.bound is True:
            return self.value is True
        low, high = self.bound
        return (low is None or low <= self.value) and (high is None or self.value <= high)


def _fit_gate(name: str, xs, ys, bound, gates: list, stats: dict, least: int = 2) -> None:
    """Append the gate ``name`` on the log-log slope of ``ys`` against ``xs`` to ``gates`` over at least
    ``least`` distinct log x; over fewer, the slope goes to ``stats`` ungated (over one it is undefined)."""
    slope = _log_slope(xs, ys)
    if len(set(np.log(np.asarray(xs, dtype=float)).tolist())) >= least:
        gates.append(Gate(name, slope, bound))
    else:
        stats[name] = slope


# --------------------------------------------------------------------------
# suite runners: run(cfg) -> (records, stats, gates)
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
            "within_eps": bool(measured <= eps),
        }})
    within = [r["report"]["within_eps"] for r in records]
    stats, gates = {"pass_fraction": float(np.mean(within))}, [Gate("all_within_eps", all(within), True)]
    # a degree fit needs a few decades: shorter sweeps gate on accuracy alone
    _fit_gate("empirical_degree_slope", cfg["k_values"], [r["report"]["empirical_degree"] for r in records],
              APPROX_SLOPE_RANGE, gates, stats, least=3)
    return records, stats, gates


def _estimate_records(cfg: dict, indices: range) -> list[dict]:
    """The ``estimate`` records ``indices``, estimated as one stack."""
    ks, eps, seeds = cfg["k_values"], float(cfg["eps"]), derive_seeds([cfg["seed"]] * len(indices), [*indices])
    specs = [InstanceSpec(
        qubits=cfg["qubits"], rank=cfg["rank"], seed=seed, state_kind=cfg["state_kind"],
        observable_kind=cfg["observable_kind"], k=ks[index % len(ks)], eps=eps,
    ) for index, seed in zip(indices, seeds)]
    reports = estimate_stack(purify(make_states(specs[0], seeds)), make_observables(specs[0], seeds),
                             [spec.k for spec in specs], eps, seeds, mode=cfg["mode"])
    records = []
    for index, spec, report in zip(indices, specs, reports):
        err = abs(report.estimate - report.oracle_value)
        records.append({"run": index, "spec": spec.to_json(), "report": report.to_json(),
                        "abs_error": err, "within_eps": bool(err <= eps)})
    return records


def _suite_estimate(cfg: dict):
    records = _map_chunks(partial(_estimate_records, cfg), cfg["runs"], 2 ** cfg["qubits"])
    fraction = float(np.mean([r["within_eps"] for r in records])) if records else 0.0
    return records, {"runs": len(records)}, [Gate("pass_fraction", fraction, (ESTIMATE_PASS_THRESHOLD, None))]


def _suite_baseline(cfg: dict):
    if cfg["repeats"] > 100:  # repeat r of shot level i is seeded 100 i + r
        raise ValidationError(f"baseline needs repeats <= 100, got {cfg['repeats']}")
    spec = InstanceSpec(qubits=cfg["qubits"], rank=cfg["rank"], seed=cfg["seed"], state_kind=cfg["state_kind"],
                        observable_kind=cfg["observable_kind"], k=cfg["k"])
    rho, obs = make_state(spec), make_observable(spec)
    oracle = trace_power_obs_oracle(rho, obs, cfg["k"]).real
    records, mean_stderrs = [], []
    for i, shots in enumerate(cfg["shots_list"]):
        stderrs = []
        for rep in range(cfg["repeats"]):
            result = swap_test_estimate(rho, obs, cfg["k"], shots, seed=derive_seed(cfg["seed"], 100 * i + rep))
            stderrs.append(result.stderr)
            records.append({"spec": spec.to_json(), "report": {
                **vars(result), "shots": shots, "repeat": rep, "oracle_value": oracle,
                "abs_error": abs(result.mean - oracle)}})
        mean_stderrs.append(float(np.mean(stderrs)))
    stats, gates = {}, []
    _fit_gate("stderr_slope", cfg["shots_list"], mean_stderrs, BASELINE_SLOPE_WINDOW, gates, stats)
    return records, stats, gates


def _suite_bounds(cfg: dict):
    records = []
    z = shared_observable("pauli:Z", 1)

    m_stars = []
    for k in cfg["k_values"]:
        table = helstrom_experiment(k, float(cfg["c"]), [0, k, 4 * k])
        m_stars.append(table.m_star)
        records.append({"spec": {"experiment": "helstrom", "k": k, "c": float(cfg["c"])}, "report": {
            "m_star": table.m_star, "eps_prime": table.eps_prime, "rows": [vars(row) for row in table.rows]}})

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
        records.append({"spec": {"experiment": "hybrid", "eps": eps, "obs": "Z"}, "report": vars(table)})

    stats, gates = {"helstrom_m_stars": m_stars}, []
    if len(m_stars) >= 2:  # m* ~ k: the last m* over the first, against the last k over the first
        expected_ratio = cfg["k_values"][-1] / cfg["k_values"][0]
        gates.append(Gate("helstrom_ratio", m_stars[-1] / m_stars[0],
                          tuple(bound * expected_ratio for bound in HELSTROM_RATIO_WINDOW)))
    _fit_gate("lecam_copies_exponent", [1.0 / float(e) for e in cfg["eps_grid"]], [1.0 / kl for kl in kl_values],
              LECAM_EXPONENT_WINDOW, gates, stats)
    _fit_gate("hybrid_t_star_exponent", [1.0 / float(e) for e in cfg["hybrid_eps_grid"]], t_stars,
              HYBRID_EXPONENT_WINDOW, gates, stats)
    return records, stats, gates


def _vd_records(cfg: dict, indices: range) -> list[dict]:
    """The ``apps`` virtual-distillation records ``indices``, as one stack."""
    k, eps = cfg["vd_k"], float(cfg["vd_eps"])
    seeds = derive_seeds([cfg["seed"]] * len(indices), [1000 + index for index in indices])
    specs = [InstanceSpec(qubits=cfg["qubits"], rank=cfg["rank"], seed=seed, k=k, eps=eps,
                          observable_kind="pauli:Z" + "I" * (cfg["qubits"] - 1)) for seed in seeds]
    results = vd_ratio_stack(purify(make_states(specs[0], seeds)), make_observables(specs[0], seeds),
                             k, eps, seeds, mode=cfg["mode"])
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
        est = entropy(purify(DensityMatrix(np.eye(dim, dtype=complex) / dim)), order, float(cfg["entropy_eps"]),
                      mode=cfg["entropy_mode"], seed=derive_seed(cfg["seed"], offset))
        records.append({"spec": {"application": application, "order": order, "state": f"max_mixed_{qubits}q"},
                        "report": {**vars(est), "trace_power": est.trace_power.to_json(), "true_value": true_value,
                                   "within_bound": bool(abs(est.value - true_value) <= est.error_bound)}})
    renyi_ok, tsallis_ok = (r["report"]["within_bound"] for r in records)

    vd = _map_chunks(partial(_vd_records, cfg), cfg["vd_runs"], 2 ** cfg["qubits"])
    records += vd
    coverage = float(np.mean([r["report"]["covered"] for r in vd])) if vd else math.nan
    return records, {}, [Gate("renyi_within_bound", renyi_ok, True), Gate("tsallis_within_bound", tsallis_ok, True),
                         Gate("vd_coverage", coverage, (APPS_COVERAGE_THRESHOLD, None))]


def _separation_confidence_z(confidence: float) -> float:
    """Two-sided standard-normal quantile for ``confidence``, from the
    standard library's inverse CDF (no SciPy import on this path)."""
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def _suite_separation(cfg: dict):
    eps, confidence = float(cfg["eps"]), float(cfg["confidence"])
    if not (0.0 < confidence < 1.0 and 0.0 < eps <= 1.0):
        raise ValidationError(f"separation needs 0 < confidence < 1 and 0 < eps <= 1, got {confidence}, {eps}")
    spec_base = InstanceSpec(qubits=cfg["qubits"], rank=cfg["rank"], seed=cfg["seed"],
                             observable_kind="pauli:Z" + "I" * (cfg["qubits"] - 1))
    rho, obs = make_state(spec_base), make_observable(spec_base)
    pur = purify(rho)
    z = _separation_confidence_z(confidence)
    records, ks = [], cfg["k_values"]
    for k in ks:
        # the estimator refuses an eps whose AE grid is too large before (z / eps)^2 can overflow
        report = estimate_trace_power(pur, obs, k, eps, mode="sampled", seed=derive_seed(cfg["seed"], k))
        mean, var = swap_test_moments(rho, obs, k)
        shots = math.ceil(var * (z / eps) ** 2)
        records.append({
            "spec": {"k": k, "eps": eps, "confidence": confidence, "instance": spec_base.to_json()},
            "report": {"swap_variance": var, "swap_shots": shots, "swap_copies": k * shots,
                       "abs_error": abs(report.estimate - report.oracle_value),
                       "estimator": report.to_json()},
        })
    stats, gates = {}, []
    _fit_gate("swap_copies_exponent", ks, [r["report"]["swap_copies"] for r in records], SWAP_EXPONENT_RANGE,
              gates, stats)
    _fit_gate("qsvt_queries_exponent", ks, [r["report"]["estimator"]["u_rho_queries_total"] for r in records],
              (None, QUERY_EXPONENT_MAX), gates, stats)
    return records, stats, gates


# --------------------------------------------------------------------------
# the registry
# --------------------------------------------------------------------------

class Suite(NamedTuple):
    """One suite. ``run(cfg)`` returns ``(records, stats, gates)``; ``columns``
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
         "chernoff_tail": "report.chernoff_tail"},
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
    default's elements."""
    if isinstance(default, list):
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
# two points, and an entropy or virtual distillation an order of at least 2.
_COUNT_MINIMUM = {"runs": 1, "vd_runs": 1, "repeats": 1, "shots_list": 2, "grid_size": 2,
                  "qubits": 0, "k_values": 1, "k": 1, "vd_k": 2, "rank": 1,
                  "renyi_alpha": 2, "tsallis_q": 2, "seed": 0}


def resolve_config(suite: str, file_config: dict | None, overrides: dict | None) -> dict:
    defaults = suite_entry(suite).defaults
    cfg = dict(defaults)
    for layer in (file_config or {}), (overrides or {}):
        for key, value in layer.items():
            if key == "suite":
                if value != suite:
                    raise ValidationError(f"config is for suite {value!r}, not {suite}")
                continue
            if key not in defaults:
                raise ValidationError(
                    f"suite {suite} reads no config key {key!r}; it reads {', '.join(sorted(defaults))}"
                )
            if value is not None:
                _check_kind(key, value, defaults[key])
                least = _COUNT_MINIMUM.get(key)
                values = value if isinstance(value, list) else [value]
                if any(type(x) is float and not math.isfinite(x) for x in values):
                    raise ValidationError(f"config key {key!r} must be finite, got {value!r}")
                if least is not None and not all(type(x) is int for x in values):
                    raise ValidationError(f"config key {key!r} takes integers only, got {value!r}")
                if least is not None and any(x < least for x in values):
                    raise ValidationError(f"config key {key!r} must be at least {least}, got {value!r}")
                cfg[key] = value
    cfg["suite"] = suite
    return cfg


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def run_suite_config(suite: str, cfg: dict, out_root: str = "out") -> int:
    """Run one suite with a fully resolved config and write its three files; returns the exit code: 0 when
    every gate is ok, else 1 after naming each failed gate, its value and its bound on stderr."""
    entry = suite_entry(suite)
    cfg = {**cfg, "suite": suite}
    cfg_hash = config_hash(cfg)
    records, stats, gates = entry.run(cfg)

    out_dir = os.path.join(out_root, suite, cfg_hash)
    os.makedirs(out_dir, exist_ok=True)
    rows, items = [",".join(entry.columns)], []
    for item, row in _rendered(records, entry.columns):  # both files in one pass over the records
        items.append(item)
        rows.append(row)
    table, listing = "\n".join(rows), ",\n".join(items)
    del rows, items  # each file's text is held once: not also as its parts, nor copied to add its brackets
    _atomic_write(os.path.join(out_dir, "table.csv"), [table, "\n"])
    _atomic_write(os.path.join(out_dir, "records.json"), ["[\n", listing, "\n]\n"] if listing else ["[]\n"])
    verdicts = [{**gate._asdict(), "ok": gate.ok()} for gate in gates]
    failed = [verdict for verdict in verdicts if not verdict["ok"]]
    summary = {"suite": suite, "config": cfg, "config_hash": cfg_hash, "tool_version": __version__, **stats,
               "gates": verdicts, "pass": not failed}
    _atomic_write(os.path.join(out_dir, "summary.json"), [canonical_json(summary), "\n"])
    for verdict in failed:
        print(f"powertrace: {suite} failed gate {verdict['name']}: value {json.dumps(verdict['value'])}, "
              f"bound {json.dumps(verdict['bound'])}", file=sys.stderr)
    return 1 if failed else 0


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
