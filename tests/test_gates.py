"""Each suite's verdict is the conjunction of its named gates.

A runner returns its gates; ``run_suite_config`` alone decides ``pass``,
lists every gate in ``summary.json`` and names each failed one on stderr.
Each of the twelve gates is pushed past its bound in turn by a fault in
the function that measures its value, never by editing a threshold, and
must then be the only gate that fails.
"""

import dataclasses
import json
import math

import pytest

from powertrace import suites
from powertrace.cli import main

GATES = {
    "approx": ["all_within_eps", "empirical_degree_slope"],
    "estimate": ["pass_fraction"],
    "baseline": ["stderr_slope"],
    "bounds": ["helstrom_ratio", "lecam_copies_exponent", "hybrid_t_star_exponent"],
    "apps": ["renyi_within_bound", "tsallis_within_bound", "vd_coverage"],
    "separation": ["swap_copies_exponent", "qsvt_queries_exponent"],
}


def _wrap(name, change):
    """``suites.<name>`` with ``change`` applied to what it returns."""
    real = getattr(suites, name)
    return name, lambda *args, **kwargs: change(real(*args, **kwargs), *args)


def _replaced(**fields):
    return lambda result, *args: dataclasses.replace(result, **fields)


def _each_replaced(fields):
    """Each result of a stack with the fields ``fields(result)`` names replaced."""
    return lambda results, *args: [dataclasses.replace(r, **fields(r)) for r in results]


# gate -> (suite, the measuring function and the fault it returns)
FAULTS = {
    "all_within_eps": ("approx", ("sup_error_scan", lambda *args: 1.0)),
    "empirical_degree_slope": ("approx", ("minimal_empirical_degree", lambda k, eps: k)),
    "pass_fraction": ("estimate", _wrap("estimate_stack", _each_replaced(lambda r: {"estimate": r.estimate + 1}))),
    "stderr_slope": ("baseline", _wrap("swap_test_estimate", _replaced(stderr=1.0))),
    "helstrom_ratio": ("bounds", _wrap("helstrom_experiment", _replaced(m_star=1))),
    "lecam_copies_exponent": ("bounds", _wrap("lecam_construction", lambda out, *args: (*out[:2], 0.5))),
    "hybrid_t_star_exponent": ("bounds", _wrap("hybrid_bound_demo", _replaced(t_star=1))),
    "renyi_within_bound": ("apps", _wrap("renyi_entropy", lambda est, *args: dataclasses.replace(
        est, value=est.value + 1.0))),
    "tsallis_within_bound": ("apps", _wrap("tsallis_entropy", lambda est, *args: dataclasses.replace(
        est, value=est.value + 1.0))),
    "vd_coverage": ("apps", _wrap("vd_ratio_stack", _each_replaced(
        lambda r: {"ratio_estimate": r.ratio_estimate + 1.0}))),
    "swap_copies_exponent": ("separation", _wrap("swap_test_moments", lambda out, rho, obs, k: (out[0], 1.0 / k))),
    "qsvt_queries_exponent": ("separation", _wrap("estimate_trace_power", lambda report, *args: dataclasses.replace(
        report, u_rho_queries_total=100 * report.k))),
}


def _run(suite, tmp_path, capsys, *argv):
    """(exit code, summary.json, stderr lines) of one run of ``suite``."""
    code = main([suite, *argv, "--out", str(tmp_path)])
    (summary_path,) = (tmp_path / suite).glob("*/summary.json")
    return code, json.loads(summary_path.read_text()), capsys.readouterr().err.splitlines()


def test_every_gate_has_a_fault():
    assert sorted(FAULTS) == sorted(gate for gates in GATES.values() for gate in gates)
    assert len(FAULTS) == 12 and all(suite in GATES and gate in GATES[suite] for gate, (suite, _) in FAULTS.items())


@pytest.mark.parametrize("suite", suites.SUITES)
def test_every_default_suite_passes_each_of_its_gates(tmp_path, capsys, suite):
    code, summary, err = _run(suite, tmp_path, capsys)
    assert code == 0 and summary["pass"] is True and err == []
    assert [gate["name"] for gate in summary["gates"]] == GATES[suite]
    assert all(gate["ok"] is True for gate in summary["gates"])


@pytest.mark.parametrize("gate", FAULTS)
def test_each_gate_fails_alone(tmp_path, capsys, monkeypatch, gate):
    suite, (name, fault) = FAULTS[gate]
    monkeypatch.setattr(suites, name, fault)
    code, summary, err = _run(suite, tmp_path, capsys)
    assert code == 1 and summary["pass"] is False
    assert [g["name"] for g in summary["gates"] if not g["ok"]] == [gate]
    assert [g["name"] for g in summary["gates"]] == GATES[suite]
    (line,) = err
    assert line.startswith(f"powertrace: {suite} failed gate {gate}: value ")


def test_a_pure_baseline_names_its_nan_slope(tmp_path, capsys):
    code, summary, err = _run("baseline", tmp_path, capsys, "--rank", "1")
    assert code == 1 and summary["pass"] is False
    assert err == ["powertrace: baseline failed gate stderr_slope: value NaN, bound [-0.5499999999999999, -0.45]"]


def test_short_sweeps_report_their_fit_ungated(tmp_path, capsys):
    """A fit over too few x is a summary key, not a gate: approx's degree slope needs three distinct k, bounds'
    m* ratio two k, and every other fitted exponent two distinct x. A fit over one x is nan and exits 0."""
    one_eps = tmp_path / "one_eps.json"
    one_eps.write_text(json.dumps({"eps_grid": [0.1]}))
    one_hybrid_eps = tmp_path / "one_hybrid_eps.json"
    one_hybrid_eps.write_text(json.dumps({"hybrid_eps_grid": [0.03]}))
    cases = [  # (suite, flags, the gates kept in their order, the slopes reported ungated as nan)
        ("separation", ["--k", "4"], [], ["swap_copies_exponent", "qsvt_queries_exponent"]),
        ("baseline", ["--shots", "100"], [], ["stderr_slope"]),
        ("bounds", ["--config", str(one_eps)], ["helstrom_ratio", "hybrid_t_star_exponent"],
         ["lecam_copies_exponent"]),
        ("bounds", ["--config", str(one_hybrid_eps)], ["helstrom_ratio", "lecam_copies_exponent"],
         ["hybrid_t_star_exponent"]),
    ]
    for i, (suite, flags, kept, ungated) in enumerate(cases):
        code, summary, err = _run(suite, tmp_path / str(i), capsys, *flags)
        assert code == 0 and summary["pass"] is True and err == [], (suite, flags)
        assert [gate["name"] for gate in summary["gates"]] == kept
        assert [summary[name] for name in ungated] == ["nan"] * len(ungated)
    code, summary, _ = _run("approx", tmp_path / "approx", capsys, "--k", "8,16")
    assert code == 0 and [gate["name"] for gate in summary["gates"]] == ["all_within_eps"]
    assert 0.0 < summary["empirical_degree_slope"] < 1.0
    code, summary, _ = _run("bounds", tmp_path / "bounds", capsys, "--k", "10")
    assert code == 0 and [gate["name"] for gate in summary["gates"]] == GATES["bounds"][1:]
    assert summary["helstrom_m_stars"] == [summary["helstrom_m_stars"][0]] and "helstrom_ratio" not in summary


def test_nearly_equal_x_are_distinct_for_the_fit_and_its_gate(tmp_path, capsys):
    """Two nearly equal x of distinct logs are two x both to the fit and to its gate, so the gate is checked
    on a finite slope, not on nan."""
    near = tmp_path / "near.json"
    near.write_text(json.dumps({"eps_grid": [0.1, 0.1000000001]}))
    code, summary, err = _run("bounds", tmp_path / "out", capsys, "--config", str(near))
    assert code == 0 and err == [] and [gate["name"] for gate in summary["gates"]] == GATES["bounds"]
    (lecam,) = [gate for gate in summary["gates"] if gate["name"] == "lecam_copies_exponent"]
    assert lecam["ok"] is True and math.isfinite(lecam["value"])
    gates, stats = [], {}  # two x whose logs round to one float are one x to both
    suites._fit_gate("slope", [10.0, math.nextafter(10.0, 11.0)], [1.0, 2.0], (0.0, 1.0), gates, stats)
    assert gates == [] and math.isnan(stats["slope"])


def test_baseline_window_is_the_tolerance_test(monkeypatch):
    """The stderr slope s passes exactly when |s + 0.5| <= 0.05, at each float beside both ends."""
    tol, slopes = 0.05, []
    for end in (-0.5 - tol, -0.5 + tol):
        for step in range(-3, 4):
            slope = end
            for _ in range(abs(step)):
                slope = math.nextafter(slope, math.copysign(math.inf, step))
            slopes.append(slope)
    cfg = {**suites.suite_defaults("baseline"), "shots_list": [100, 1000], "repeats": 1}
    for slope in slopes + [-0.5, math.nan]:
        monkeypatch.setattr(suites, "_log_slope", lambda xs, ys: slope)
        (gate,) = suites.SUITE_REGISTRY["baseline"].run(cfg)[2]
        assert gate.value == slope or math.isnan(slope)
        assert gate.ok() == (abs(slope + 0.5) <= tol), slope
