"""Experiment driver: oracles, configs, runs, audits, CSV, CLI."""

import argparse
import collections
import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symfd import runner, schemes
from symfd.cli import build_parser
from symfd.cli import main as cli_main
from symfd.diagnostics import _STATUSES
from symfd.errors import (
    ConfigError,
    DegenerateDenominator,
    MeshTangling,
    PoleError,
    SchemeSingularity,
)
from symfd.mesh import MonitorParams, monitor_arclength
from symfd.runner import (
    _STEPS,
    AUDIT_SCHEMES,
    CONVERGENCE_SCHEMES,
    DiagnosticsRow,
    ExperimentConfig,
    RunOutput,
    convergence_study,
    exact_burgers,
    exact_kdv_double_soliton,
    exact_schwarzian,
    format_convergence_csv,
    format_diagnostics_csv,
    format_snapshots_csv,
    invariance_audit,
    parse_config,
    run_experiment,
    total_variation,
    validate_config,
    write_outputs,
)
from symfd.schemes import GridState, StepInfo

from _helpers import equidistribution_residual

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------

def test_exact_schwarzian_values():
    assert exact_schwarzian(math.pi / 4.0) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(PoleError):
        exact_schwarzian(math.pi / 2.0)  # tan pole


def test_soliton_peak_and_single_soliton_limit():
    # the single soliton peaks at x = c t - a with three times its speed
    assert float(exact_kdv_double_soliton(0.3, 1.3 * 0.3 - 2.0, 1.3, 0.0, 2.0, 0.0)) \
        == pytest.approx(3.9, abs=1e-14)
    # with c2 = 0 it is 3 c1 sech^2(sqrt(c1)/2 (x + a1 - c1 t))
    a = exact_kdv_double_soliton(0.3, np.linspace(-5, 5, 11), 1.0, 0.0, 0.0, 0.0)
    b = 3.0 / np.cosh(0.5 * (np.linspace(-5, 5, 11) - 0.3)) ** 2
    assert np.max(np.abs(a - b)) <= 1e-14


def test_soliton_pde_residual_oracle():
    # fourth-order central differences in extended precision (the float64
    # cancellation in the third difference sits right at the bound)
    def residual(t, x, h=1e-3):
        t, x, h = (np.longdouble(v) for v in (t, x, h))

        def f(tt, xx):
            y = 0.5 * (xx - tt)
            return 3.0 / np.cosh(y) ** 2

        ut = (-f(t + 2 * h, x) + 8 * f(t + h, x) - 8 * f(t - h, x) + f(t - 2 * h, x)) / (12 * h)
        ux = (-f(t, x + 2 * h) + 8 * f(t, x + h) - 8 * f(t, x - h) + f(t, x - 2 * h)) / (12 * h)
        uxxx = (-f(t, x + 3 * h) + 8 * f(t, x + 2 * h) - 13 * f(t, x + h)
                + 13 * f(t, x - h) - 8 * f(t, x - 2 * h) + f(t, x - 3 * h)) / (8 * h**3)
        return float(ut + f(t, x) * ux + uxxx)

    # consistency of the oracle's profile with the module formula: phase
    # x + a - c t collapses to x for a = c t
    xs = np.linspace(-3.0, 3.0, 7)
    mod = exact_kdv_double_soliton(0.4, xs, 1.0, 0.0, 0.4, 0.0)
    ora = 3.0 / np.cosh(0.5 * xs) ** 2
    assert np.max(np.abs(mod - ora)) <= 1e-13
    for x in (-1.0, 0.2, 0.5, 1.5):
        assert abs(residual(0.3, x)) <= 1e-6


def test_two_soliton_with_c2_zero_is_the_single_soliton():
    x = np.linspace(-15.0, 15.0, 61)
    for t in (0.0, 0.7, 12.0):
        a = exact_kdv_double_soliton(t, x, 1.3, 0.0, 2.0, 5.0)
        b = 3.9 / np.cosh(0.5 * math.sqrt(1.3) * (x + 2.0 - 1.3 * t)) ** 2
        assert np.max(np.abs(a - b)) <= 1e-13


def test_two_soliton_maxima_through_the_c06_collision():
    # c06's data: the taller soliton dips during the overtaking collision
    # and recovers
    x = np.linspace(-40.0, 60.0, 20001)
    assert exact_kdv_double_soliton(0.0, x).max() == pytest.approx(3.000, abs=2e-3)
    assert exact_kdv_double_soliton(40.0, x).max() == pytest.approx(2.998, abs=1e-3)
    ts = np.linspace(20.0, 23.0, 61)
    peaks = [exact_kdv_double_soliton(t, x).max() for t in ts]
    i = int(np.argmin(peaks))
    assert peaks[i] == pytest.approx(2.09, abs=0.01)
    assert abs(ts[i] - 21.4) <= 0.2


def test_two_soliton_kdv_residual_is_small_through_the_collision():
    def residual(f, t, x, h=1e-2):
        ut = (-f(t + 2 * h, x) + 8 * f(t + h, x) - 8 * f(t - h, x) + f(t - 2 * h, x)) / (12 * h)
        ux = (-f(t, x + 2 * h) + 8 * f(t, x + h) - 8 * f(t, x - h) + f(t, x - 2 * h)) / (12 * h)
        uxxx = (-f(t, x + 3 * h) + 8 * f(t, x + 2 * h) - 13 * f(t, x + h)
                + 13 * f(t, x - h) - 8 * f(t, x - 2 * h) + f(t, x - 3 * h)) / (8 * h**3)
        return np.max(np.abs(ut + f(t, x) * ux + uxxx))

    x = np.linspace(-30.0, 40.0, 701)
    for t in (0.0, 21.4, 40.0):
        assert residual(exact_kdv_double_soliton, t, x) <= 1e-6


def test_exact_burgers_shape_and_residual():
    assert float(exact_burgers(0.7, 0.0, 0.01)) == 0.0
    assert float(exact_burgers(0.0, 5.0, 0.05)) == pytest.approx(-1.0, abs=1e-6)
    assert float(exact_burgers(0.0, -5.0, 0.05)) == pytest.approx(1.0, abs=1e-6)
    # overflow-safe far in the small-viscosity regime
    assert abs(float(exact_burgers(0.5, 0.5, 0.001))) <= 1.0

    nu = 0.1
    def residual(t, x, h=1e-4):
        f = lambda tt, xx: float(exact_burgers(tt, xx, nu, 0.25))
        ut = (f(t + h, x) - f(t - h, x)) / (2 * h)
        ux = (f(t, x + h) - f(t, x - h)) / (2 * h)
        uxx = (f(t, x + h) - 2 * f(t, x) + f(t, x - h)) / h**2
        return ut + f(t, x) * ux - nu * uxx

    for x in (-0.3, 0.1, 0.4):
        assert abs(residual(0.2, x)) <= 1e-6


@settings(max_examples=200)
@example(c=-1e10, t=0.0, nu=1e-300)  # -(c + t) / (4 nu) overflows to +inf
@given(c=st.floats(-1e12, 1e12), t=st.floats(0.0, 1.0),
       nu=st.floats(-300.0, 0.0).map(lambda p: 10.0**p))
def test_exact_burgers_is_bounded_for_extreme_parameters(c, t, nu):
    # on [-0.5, 0.5], where x / (2 nu) is finite for every nu >= 1e-300
    u = np.asarray(exact_burgers(t, np.linspace(-0.5, 0.5, 16), nu, c))
    assert np.all(np.abs(u) <= 1.0)  # a NaN fails this too


def test_total_variation_examples():
    # total_variation takes the increments of a profile
    assert total_variation(np.diff([0.0, 1.0, 2.0, 3.0])) == pytest.approx(3.0)
    assert total_variation(np.diff([5.0, 5.0, 5.0])) == 0.0
    assert total_variation(np.diff([0.0, 1.0, 0.0, 1.0])) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_parse_config_roundtrip():
    cfg = parse_config("""
        # a comment
        equation = kdv
        scheme = kdv_10pt
        mesh = adaptive
        domain_a = -30
        domain_b = 30
        n_points = 16
        t_final = 0.1
        alpha = 10
    """)
    assert cfg.equation == "kdv"
    assert cfg.dt_constant == 0.5  # equation default
    assert cfg.alpha == 10.0


@pytest.mark.parametrize("text,fragment", [
    ("bogus_key = 1", "unknown key"),
    ("equation = kdv\nscheme = kdv_10pt\ndomain_a = 0\ndomain_b = 1\nn_points = banana\nt_final = 1", "bad value"),
    ("equation = kdv\nscheme = kdv_10pt\ndomain_a = 0\ndomain_b = 1", "missing required"),
    ("equation = kdv\nscheme = burgers_fv\ndomain_a = 0\ndomain_b = 1\nn_points = 16\nt_final = 1", "does not solve"),
    ("equation = kdv\nscheme = kdv_10pt\ndomain_a = 0\ndomain_b = 1\nn_points = 4\nt_final = 1", "at least 8"),
    ("equation = kdv\nscheme = kdv_10pt\nmesh = adaptive\ndomain_a = 0\ndomain_b = 1\nn_points = 16\nt_final = 1", "alpha"),
    ("equation = kdv\nscheme = kdv_10pt\ndomain_a = 0\ndomain_b = 1\nn_points = 16", "t_final"),
    ("equation = burgers\nscheme = burgers_fv\ndomain_a = 0\ndomain_b = 1\nn_points = 16\nt_final = 1\nalpha = 0.5", "nu > 0"),
    ("equation = burgers\nscheme = burgers_fv\ndomain_a = -0.5\ndomain_b = 0.5\nn_points = 16\nt_final = 1\nalpha = 0.5\nnu = 1e-320", "^nu = 1e-320 is too small"),
    ("equation = kdv\nscheme = kdv_naive\nboundary = dirichlet\ndomain_a = 0\ndomain_b = 1\nn_points = 16\nt_final = 1", "unknown key"),
    ("equation = kdv\nscheme = kdv_6pt\nic = gaussian\ndomain_a = 0\ndomain_b = 1\nn_points = 16\nt_final = 1", "unknown key"),
    ("equation = kdv\nscheme = kdv_6pt\nseed = 5\ndomain_a = 0\ndomain_b = 1\nn_points = 16\nt_final = 1", "unknown key"),
])
def test_config_errors(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


@pytest.mark.parametrize("scheme", ["kdv_6pt", "kdv_10pt", "kdv_naive"])
def test_kdv_configs_take_the_three_mesh_strategies_and_no_other(scheme):
    base = {"equation": "kdv", "scheme": scheme, "domain_a": 0.0, "domain_b": 1.0,
            "n_points": 16, "t_final": 1.0}
    with pytest.raises(ConfigError, match="^unknown mesh strategy 'bogus'$"):
        validate_config({**base, "mesh": "bogus"})
    for mesh, extra in (("lagrangian", {}), ("adaptive", {"alpha": 1.0}), ("projection", {})):
        assert validate_config({**base, "mesh": mesh, **extra}).mesh == mesh


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "configs").glob("*.cfg")))
def test_every_config_rejects_an_unknown_mesh(name, tmp_path, capsys):
    text = (ROOT / "configs" / name).read_text(encoding="utf-8")
    values = parse_config(text).values
    assert validate_config({k: v for k, v in values.items() if k != "mesh"}).mesh == "lagrangian"
    with pytest.raises(ConfigError, match="^unknown mesh strategy 'bogus'$"):
        validate_config({**values, "mesh": "bogus"})
    cfg = tmp_path / name
    cfg.write_text(re.sub(r"(?m)^mesh\b.*\n", "", text) + "mesh = bogus\n")
    assert cli_main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: unknown mesh strategy 'bogus'\n"


def test_config_repeated_key_is_an_error(tmp_path, capsys):
    text = ("equation = burgers\nscheme = burgers_fv\ndomain_a = 0\ndomain_b = 1\n"
            "n_points = 16\nn_points = 32\nt_final = 1\nnu = 0.01\n")
    with pytest.raises(ConfigError, match="^line 6: duplicate key 'n_points'$"):
        parse_config(text)
    cfg = tmp_path / "dup.cfg"
    cfg.write_text(text)
    assert cli_main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: line 6: duplicate key 'n_points'\n"


_FLOAT_KEYS = sorted(k for k, typ in get_type_hints(ExperimentConfig).items()
                     if float in (typ, *get_args(typ)))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_config_rejects_nonfinite_floats(key, value):
    values = {"equation": "kdv", "scheme": "kdv_10pt", "mesh": "adaptive", "alpha": "1",
              "domain_a": "-1", "domain_b": "1", "n_points": "16", "t_final": "1", key: value}
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config("".join(f"{k} = {v}\n" for k, v in values.items()))


def test_cli_run_nonfinite_source_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("equation = schwarzian\nscheme = schwarzian_invariant\n"
                   "domain_a = 0\ndomain_b = 1\nn_points = 16\nsource_f = nan\n")
    assert cli_main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: source_f must be finite, got nan\n"


def test_readme_key_table_lists_exactly_the_config_keys():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        table = fh.read().split("\nKeys:\n\n", 1)[1].split("\n\n", 1)[0]
    rows = [row.split("|")[1:3] for row in table.splitlines()[2:]]  # below the rule
    keys = [key for key, _meaning in rows for key in re.findall(r"\w+", key)]
    config_keys = [field.name for field in fields(ExperimentConfig)]
    assert sorted(keys) == sorted(config_keys)
    assert len(config_keys) == 18
    # the equation, scheme and mesh rows list exactly what validation accepts
    meaning = {key.strip(" `"): text for key, text in rows}
    for column, key in enumerate(("equation", "scheme", "mesh")):
        assert sorted(re.findall(r"`(\w+)`", meaning[key])) == sorted(
            {runnable[column] for runnable in _STEPS} - {None})


def test_validate_config_rejects_unknown_keys():
    base = {"equation": "kdv", "scheme": "kdv_6pt", "domain_a": 0.0, "domain_b": 1.0,
            "n_points": 16, "t_final": 1.0}
    validate_config(base)
    for key, val in (("seed", 3), ("ic", "flat"), ("boundary", "periodic"),
                     ("ic_ma", 1.0), ("ic_mb", 0.0), ("ic_mc", 0.0), ("ic_md", 1.0),
                     ("spacing_floor_rel", 1e-3), ("snapshot_every", 0),
                     ("ic_p", 1.0), ("ic_q", 0.0), ("mesh_f", 1.0)):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            validate_config({**base, key: val})


@pytest.mark.parametrize("line,message", [
    ("equation = uxx\nscheme = uxx", "unknown equation 'uxx'"),
    ("equation = schwarzian\nscheme = uxx", "scheme 'uxx' does not solve 'schwarzian'"),
    ("equation = schwarzian\nscheme = schwarzian_invariant\nic_p = 2", "unknown key 'ic_p'"),
    ("equation = schwarzian\nscheme = schwarzian_invariant\nic_q = 1", "unknown key 'ic_q'"),
    ("equation = schwarzian\nscheme = schwarzian_invariant\nmesh_f = 1.3", "unknown key 'mesh_f'"),
])
def test_cli_run_uxx_is_not_a_run(tmp_path, capsys, line, message):
    # the u_xx scheme is audited (symfd audit --scheme uxx), never run
    cfg = tmp_path / "uxx.cfg"
    cfg.write_text(f"{line}\ndomain_a = 0\ndomain_b = 1\nn_points = 11\n")
    assert cli_main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and message in captured.err


# ---------------------------------------------------------------------------
# runs and output formats
# ---------------------------------------------------------------------------

def _small_burgers_cfg(**over):
    base = {
        "equation": "burgers", "scheme": "burgers_fv",
        "domain_a": -0.5, "domain_b": 0.5, "n_points": 16,
        "t_final": 0.01, "dt_constant": 0.4, "nu": 0.01, "alpha": 0.5,
    }
    base.update(over)
    return validate_config(base)


def _csv_texts(out):
    """The snapshots and diagnostics CSVs of a run, their chunks joined."""
    return "".join(format_snapshots_csv(out)), "".join(format_diagnostics_csv(out))


def test_run_deterministic_byte_identical():
    o1 = run_experiment(_small_burgers_cfg())
    o2 = run_experiment(_small_burgers_cfg())
    assert _csv_texts(o1) == _csv_texts(o2)


def test_output_formats():
    out = run_experiment(_small_burgers_cfg())
    snap, diag = _csv_texts(out)
    assert snap.splitlines()[0] == "t,x,u"
    assert len(snap.splitlines()) == 1 + sum(len(x) for _t, x, _u in out.snapshots)
    assert diag.splitlines()[0] == "step,t,min_spacing,tv,residual_inf,newton_iters,status"
    assert len(diag.splitlines()) == 1 + len(out.diagnostics)


def test_csv_formats_special_values_like_per_field_format(monkeypatch):
    monkeypatch.setattr(runner, "_DIAGNOSTICS_CHUNK", 3)  # chunks of 3, 3 and 2 rows
    vals = [0.0, -0.0, 1.0 / 3.0, -2.5e-300, 1e300, math.nan, math.inf, -math.inf]
    x = np.array(vals)
    u = np.array(vals[::-1])
    rows = [DiagnosticsRow(i, v, np.float64(w), w, abs(v), i % 2, "ok")
            for i, (v, w) in enumerate(zip(vals, vals[::-1]))]
    out = RunOutput([(0.25, x, u), (math.nan, x[:3], u[:3])], rows, "completed",
                    _small_burgers_cfg())
    snap = ["t,x,u"] + [f"{t:.17g},{a:.17g},{b:.17g}"
                        for t, xs, us in out.snapshots for a, b in zip(xs, us)]
    diag = ["step,t,min_spacing,tv,residual_inf,newton_iters,status"] + [
        f"{r.step},{r.t:.17g},{r.min_spacing:.17g},{r.tv:.17g},"
        f"{r.residual_inf:.17g},{r.newton_iters},{r.status}" for r in rows]
    assert _csv_texts(out) == ("\n".join(snap) + "\n", "\n".join(diag) + "\n")
    assert len(list(format_diagnostics_csv(out))) == 1 + 3


def _bits(row):
    """A diagnostics row with each float as its exact bits (-0.0 and NaN too)."""
    return (row.step, float(row.t).hex(), float(row.min_spacing).hex(), float(row.tv).hex(),
            float(row.residual_inf).hex(), row.newton_iters, row.status)


def _recording(fn, log):
    """fn, appending each of its results to log."""
    def wrapper(*args, **kwargs):
        log.append(fn(*args, **kwargs))
        return log[-1]
    return wrapper


def _recorded_burgers_run(monkeypatch):
    """A small Burgers run, and the diagnostics row each of its steps
    produced; checks that each step's mesh equidistributes its weights."""
    steps = []
    monkeypatch.setattr(schemes, "burgers_fv_step_detailed",
                        _recording(schemes.burgers_fv_step_detailed, steps))
    cfg = _small_burgers_cfg(t_final=0.05)
    out = run_experiment(cfg)
    k, prev = cfg.t_final / len(steps), GridState(0.0, *out.snapshots[0][1:])
    for state, _info in steps:
        weights = monitor_arclength(prev, k, MonitorParams(cfg.alpha))
        assert equidistribution_residual(weights, state.x) <= 1e-14
        prev = state
    return out, [(i, state.t, info.min_spacing, total_variation(state.du), info.residual_inf,
                  info.newton_iters, "ok") for i, (state, info) in enumerate(steps, start=1)]


def _recorded_schwarzian_run(monkeypatch):
    """A Schwarzian run through a pole, and the diagnostics row each node
    produced: the closed-form step reports a residual of 0."""
    flags = []
    monkeypatch.setattr(schemes, "schwarzian_step_through_pole",
                        _recording(schemes.schwarzian_step_through_pole, flags))
    out = run_experiment(_schwarzian_cfg(domain_b=2.5, n_points=251))
    _t, x, u = out.snapshots[-1]
    h, tv, want = float(x[1] - x[0]), total_variation(np.diff(u[:3])), []
    for i, flag in enumerate(flags, start=1):
        tv += float(abs(u[i + 2] - u[i + 1]))  # the march's running sum
        want.append((i, float(x[i]), h, tv, 0.0, 0, "pole" if flag else "ok"))
    return out, want


@pytest.mark.parametrize("recorded", [_recorded_burgers_run, _recorded_schwarzian_run],
                         ids=["burgers", "schwarzian"])
def test_run_diagnostics_read_back_what_each_step_produced(monkeypatch, recorded):
    out, want = recorded(monkeypatch)
    store, want = out.diagnostics, [_bits(DiagnosticsRow(*w)) for w in want]
    rows = list(store)
    assert len(store) == len(rows) == len(want) > 2
    assert [_bits(r) for r in rows] == want
    assert _bits(store[0]) == want[0] and _bits(store[-1]) == want[-1]
    assert [_bits(store[i]) for i in range(-len(store), len(store))] == want + want
    assert [_bits(r) for r in store[-3:]] == want[-3:]
    with pytest.raises(IndexError):
        store[len(store)]
    as_list = RunOutput(out.snapshots, rows, out.status, out.config, out.message)
    assert "".join(format_diagnostics_csv(out)) == "".join(format_diagnostics_csv(as_list))


@pytest.mark.parametrize("cfg", [
    pytest.param(_small_burgers_cfg(t_final=1.0), id="burgers"),
    pytest.param(validate_config({"equation": "schwarzian", "scheme": "schwarzian_invariant",
                                  "domain_a": 0.0, "domain_b": 2.5, "n_points": 5_001}),
                 id="schwarzian"),
])
def test_a_runs_diagnostics_hold_at_most_64_bytes_a_step(cfg):
    # a list of row objects, with their boxed numbers, holds 224 bytes a step
    tracemalloc.start()
    try:
        out = run_experiment(cfg)
        steps, held = len(out.diagnostics), tracemalloc.get_traced_memory()[0]
        out.diagnostics = []
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.status == "completed" and steps > 500
    assert freed <= 64 * steps, freed / steps


def _csv_peak(out):
    """Traced peak of formatting out's diagnostics CSV, each chunk dropped as read."""
    tracemalloc.start()
    try:
        collections.deque(format_diagnostics_csv(out), maxlen=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_diagnostics_csv_of_a_store_builds_no_chunk_of_rows():
    # a list's rows exist already; a store's are built one at a time, so
    # formatting it holds little more than formatting the list does
    out = run_experiment(_schwarzian_cfg(domain_b=2.5, n_points=5_001))  # 5 chunks
    as_list = RunOutput(out.snapshots, list(out.diagnostics), out.status, out.config)
    store_peak, list_peak = _csv_peak(out), _csv_peak(as_list)
    assert store_peak < 1.1 * list_peak, (store_peak, list_peak)


def test_schwarzian_run_crosses_pole():
    cfg = validate_config({
        "equation": "schwarzian", "scheme": "schwarzian_invariant",
        "domain_a": 0.0, "domain_b": 2.5, "n_points": 251, "source_f": 2.0,
    })
    out = run_experiment(cfg)
    assert out.status == "completed"
    _t, x, u = out.snapshots[-1]
    i1 = int(np.argmin(np.abs(x - 1.0)))
    i2 = int(np.argmin(np.abs(x - 2.0)))
    assert abs(u[i1] - math.tan(1.0)) / abs(math.tan(1.0)) < 1e-2
    assert abs(u[i2] - math.tan(2.0)) / abs(math.tan(2.0)) < 1e-2
    assert any(r.status == "pole" for r in out.diagnostics)


def test_schwarzian_tv_column_is_the_total_variation_of_the_prefix():
    out = run_experiment(validate_config({
        "equation": "schwarzian", "scheme": "schwarzian_invariant",
        "domain_a": 0.0, "domain_b": 2.5, "n_points": 251,
    }))
    u = out.snapshots[-1][2]
    for r in out.diagnostics:
        want = total_variation(np.diff(u[: r.step + 3]))
        assert abs(r.tv - want) <= 1e-13 * want


def test_kdv_lagrangian_run_records_partial_output_on_tangling():
    cfg = validate_config({
        "equation": "kdv", "scheme": "kdv_6pt", "mesh": "lagrangian",
        "domain_a": -30.0, "domain_b": 30.0, "n_points": 128,
        "t_final": 2.0, "dt_constant": 0.5,
    })
    out = run_experiment(cfg)
    assert out.status == "mesh_tangling"
    assert out.diagnostics[-1].status == "mesh_tangling"
    assert len(out.snapshots) >= 2  # partial output preserved
    assert out.message.startswith(f"step {out.diagnostics[-1].step}: MeshTangling: ")
    assert "at index" in out.message


def test_kdv_run_starts_from_the_exact_two_soliton():
    cfg = validate_config({
        "equation": "kdv", "scheme": "kdv_10pt", "mesh": "adaptive", "alpha": 10.0,
        "domain_a": -30.0, "domain_b": 30.0, "n_points": 128,
        "t_final": 0.02, "dt_constant": 0.0625,
    })
    t, x, u = run_experiment(cfg).snapshots[0]
    assert t == 0.0
    assert np.array_equal(u, exact_kdv_double_soliton(0.0, x, cfg.ic_c1, cfg.ic_c2,
                                                      cfg.ic_a1, cfg.ic_a2))


@pytest.mark.parametrize("mesh", ["lagrangian", "adaptive", "projection"])
def test_kdv_6pt_run_commutes_with_power_of_two_scaling(mesh):
    # x -> lam x, t -> lam^3 t, u -> u / lam^2 with lam = 2^j is exact in
    # floating point, so a scale-free run maps onto its image bit for bit
    base = {
        "equation": "kdv", "scheme": "kdv_6pt", "mesh": mesh, "alpha": 10.0,
        "domain_a": -12.0, "domain_b": 12.0, "n_points": 48, "t_final": 0.25,
        "dt_constant": 0.5, "ic_c1": 1.0, "ic_a1": 4.0, "ic_c2": 0.5, "ic_a2": -4.0,
    }
    ref = run_experiment(validate_config(base))
    assert ref.status == "completed" and len(ref.diagnostics) == 4
    _, x_ref, u_ref = ref.snapshots[-1]
    for j in (-60, -50, -40, -20, 20, 40, 60):
        lam = 2.0**j
        cfg = dict(base, t_final=base["t_final"] * lam**3)
        for key in ("domain_a", "domain_b", "ic_a1", "ic_a2"):
            cfg[key] = base[key] * lam
        for key in ("ic_c1", "ic_c2"):
            cfg[key] = base[key] / lam**2
        out = run_experiment(validate_config(cfg))
        assert (out.status, len(out.diagnostics)) == (ref.status, 4), (j, out.message)
        _, x, u = out.snapshots[-1]
        assert np.array_equal(x / lam, x_ref) and np.array_equal(u * lam**2, u_ref), j


def test_burgers_march_commutes_with_power_of_two_scaling():
    # x -> lam x, t -> lam^2 t, u -> u / lam with lam = 2^j is exact in
    # floating point, and the limiter's vanishing test is relative to the
    # values it compares, so the run's march maps onto its image bit for bit
    x = np.linspace(-0.5, 0.5, 48)
    h = x[1] - x[0]
    k, nu, alpha = 0.4 * h * h, 0.01, 0.5

    def march(lam):
        state = GridState(0.0, lam * x, exact_burgers(0.0, x, nu) / lam)
        for _ in range(20):
            state, _ = schemes.burgers_fv_step_detailed(
                state, lam**2 * k, nu, alpha, spacing_floor=lam * runner._SPACING_FLOOR_REL * h)
        return state

    ref = march(1.0)
    for j in (-60, -50, -40, -20, 20, 40, 60):
        lam = 2.0**j
        out = march(lam)
        assert np.array_equal(out.x / lam, ref.x) and np.array_equal(out.u * lam, ref.u), j


def _schwarzian_cfg(**over):
    return validate_config({"equation": "schwarzian", "scheme": "schwarzian_invariant",
                            "domain_a": 0.0, "domain_b": 1.0, "n_points": 16, **over})


# a step's error and the status it stops a run with, in either march
_STOP_FAULTS = [
    pytest.param(MeshTangling("tangled"), "mesh_tangling", id="mesh_tangling"),
    pytest.param(SchemeSingularity("singular band"), "scheme_singularity",
                 id="scheme_singularity"),
    pytest.param(DegenerateDenominator("vanishing spacing"), "numerical_failure",
                 id="numerical_failure"),
]


@pytest.mark.parametrize("fault,status", _STOP_FAULTS)
def test_schwarzian_singular_step_stops_with_its_message(monkeypatch, fault, status):
    calls = []
    step = schemes.schwarzian_step

    def fake_step(*args):
        calls.append(args)
        if len(calls) == 4:
            raise fault
        return step(*args)

    monkeypatch.setattr(schemes, "schwarzian_step", fake_step)
    out = run_experiment(_schwarzian_cfg())
    assert out.status == status
    assert out.message == f"step 4: {type(fault).__name__}: {fault}"
    # the nodes and rows before node 4 are kept
    _t, x, u = out.snapshots[-1]
    assert x.size == u.size == 6
    assert [r.step for r in out.diagnostics] == [1, 2, 3]
    monkeypatch.undo()
    whole = run_experiment(_schwarzian_cfg())
    assert np.array_equal(u, whole.snapshots[-1][2][:6])


@pytest.mark.parametrize("domain_a,domain_b,n_points", [
    pytest.param(0.1, 0.1000001, 100, id="spacing_1e-9"),
    # values near 1e-300, whose products underflow: the step reads differences only
    pytest.param(1e-300, 2e-300, 50, id="tiny_domain"),
])
def test_fine_grid_schwarzian_run_tracks_tan_x(domain_a, domain_b, n_points):
    # the march's closed-form step is scale-free
    out = run_experiment(_schwarzian_cfg(domain_a=domain_a, domain_b=domain_b,
                                         n_points=n_points))
    assert (out.status, out.message) == ("completed", "")
    _t, x, u = out.snapshots[-1]
    assert x.size == n_points
    assert np.max(np.abs(u - np.tan(x)) / np.abs(np.tan(x))) <= 1e-9


@pytest.mark.parametrize("domain_a,node", [
    pytest.param(math.pi / 2, 0, id="pole_at_node_0"),
    pytest.param(math.pi / 2 - 0.1, 1, id="pole_at_node_1"),  # h = 0.1
])
def test_cli_schwarzian_seed_on_a_pole_writes_partial_csvs(tmp_path, capsys, domain_a, node):
    snaps, diags = tmp_path / "s.csv", tmp_path / "d.csv"
    cfg = tmp_path / "pole.cfg"
    cfg.write_text("equation = schwarzian\nscheme = schwarzian_invariant\n"
                   f"domain_a = {domain_a!r}\ndomain_b = {domain_a + 1.0!r}\n"
                   "n_points = 11\n"
                   f"snapshots_path = {snaps}\ndiagnostics_path = {diags}\n")
    assert cli_main(["run", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "status: numerical_failure\n"
    assert captured.err.startswith(
        f"run stopped: seed node {node}: PoleError: denominator vanishes near x = ")
    rows = snaps.read_text().splitlines()
    assert rows[0] == "t,x,u" and len(rows) == 1 + node  # the seed nodes before it
    assert [float(r.split(",")[2]) for r in rows[1:]] == [
        exact_schwarzian(domain_a) for _ in range(node)]
    assert diags.read_text().splitlines() == [
        "step,t,min_spacing,tv,residual_inf,newton_iters,status"]


def test_cli_schwarzian_degenerate_run_writes_partial_csvs(tmp_path, capsys):
    # h^2 F = 1e296 makes the target cross-ratio ~0, so the first step
    # repeats its last value and the second meets equal consecutive values
    snaps, diags = tmp_path / "s.csv", tmp_path / "d.csv"
    cfg = tmp_path / "schwarzian.cfg"
    cfg.write_text("equation = schwarzian\nscheme = schwarzian_invariant\n"
                   "domain_a = 0\ndomain_b = 2.5\nn_points = 251\nsource_f = 1e300\n"
                   f"snapshots_path = {snaps}\ndiagnostics_path = {diags}\n")
    assert cli_main(["run", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "status: scheme_singularity\n"
    assert captured.err == ("run stopped: step 2: SchemeSingularity: "
                            "consecutive u values must be distinct\n")
    assert snaps.read_text().splitlines()[0] == "t,x,u"
    assert len(snaps.read_text().splitlines()) == 1 + 4  # the seed nodes and step 1's
    rows = diags.read_text().splitlines()
    assert rows[0] == "step,t,min_spacing,tv,residual_inf,newton_iters,status"
    assert [r.split(",")[0] for r in rows[1:]] == ["1"]


@pytest.mark.parametrize("scheme", ["kdv_10pt", "kdv_naive", "burgers_fv"])
@pytest.mark.parametrize("fault,status", [
    *_STOP_FAULTS,
    # the third step returns NaN values instead of raising
    pytest.param(None, "nonfinite", id="nonfinite"),
])
def test_run_stops_with_status_row_and_partial_snapshot(monkeypatch, scheme, fault, status):
    # two good steps, then a failing third one, through the schemes module
    calls = []

    def fake_step(prev, k, *args, **kwargs):
        calls.append(k)
        u = prev.u
        if len(calls) == 3:
            if fault is not None:
                raise fault
            u = np.full_like(u, np.nan)
        nxt = GridState(prev.t + k, 1.5 * prev.x, u)  # a moved mesh
        return nxt if scheme == "kdv_naive" else (nxt, StepInfo(0, 0.0, 1.0))

    for name in ("kdv_step_detailed", "naive_kdv_step", "burgers_fv_step_detailed"):
        monkeypatch.setattr(schemes, name, fake_step)
    if scheme == "burgers_fv":
        cfg = _small_burgers_cfg()
    else:
        cfg = validate_config({
            "equation": "kdv", "scheme": scheme, "mesh": "adaptive", "alpha": 1.0,
            "domain_a": -30.0, "domain_b": 30.0, "n_points": 16,
            "t_final": 200.0, "dt_constant": 0.5,
        })
    out = run_experiment(cfg)

    assert out.status == status
    assert len(calls) == 3  # the run stopped at the failing step
    rows = out.diagnostics
    assert [r.status for r in rows] == ["ok", "ok", status]
    last = rows[-1]
    assert last.step == 3 and last.newton_iters == 0
    assert math.isnan(last.residual_inf)
    k = calls[0]
    # an exception leaves the last good state, NaN values the state they hit
    assert last.t == pytest.approx((3 if fault is None else 2) * k)
    t, x, u = out.snapshots[-1]
    assert t == last.t
    assert last.min_spacing == float(np.diff(x).min())
    assert np.isnan(u).all() == (fault is None)
    assert len(out.snapshots) == 4  # initial, two good steps, the stop
    if fault is None:
        assert out.message == f"step 3: u is not finite at node 0 ({u.size} of {u.size} nodes)"
    else:
        assert out.message == f"step 3: {type(fault).__name__}: {fault}"


def test_nonfinite_stop_names_the_first_nonfinite_node(monkeypatch):
    def fake_step(prev, k, *args, **kwargs):
        u = prev.u.copy()
        u[[5, 9]] = [np.inf, np.nan]
        return GridState(prev.t + k, prev.x, u)

    monkeypatch.setattr(schemes, "naive_kdv_step", fake_step)
    out = run_experiment(validate_config({
        "equation": "kdv", "scheme": "kdv_naive", "domain_a": -30.0, "domain_b": 30.0,
        "n_points": 16, "t_final": 1.0, "dt_constant": 0.5,
    }))
    assert out.status == "nonfinite"
    assert out.message == "step 1: u is not finite at node 5 (2 of 16 nodes)"


# ---------------------------------------------------------------------------
# audits and convergence
# ---------------------------------------------------------------------------

def test_invariance_audit_passes_for_invariant_schemes():
    for scheme in ("schwarzian_invariant", "kdv_6pt", "burgers_fv", "uxx"):
        rep = invariance_audit(scheme, n_elements=10, n_configs=4, seed=11)
        assert rep.passed, (scheme, rep.strong_max, rep.weak_max)
        assert set(rep.per_direction) == set(
            {"schwarzian_invariant": ("shift_u", "dilate_u", "special_u", "mixed"),
             "kdv_6pt": ("shift_x", "shift_t", "boost", "scale", "mixed"),
             "burgers_fv": ("shift_x", "shift_t", "boost", "scale", "mixed"),
             "uxx": ("shift_x", "shift_u", "scale_x", "shear", "scale_u", "mixed"),
             }[scheme])


def test_invariance_audit_flags_naive_scheme():
    rep = invariance_audit("kdv_naive", n_elements=10, n_configs=4, seed=11)
    assert rep.expected_to_fail
    assert rep.passed  # pass = the defect is present and matches the formula
    assert rep.strong_max > 1e-9
    assert rep.formula_match_error <= 1e-10
    assert any("boost-defect" in line for line in rep.lines())


def test_invariance_audit_unknown_scheme():
    with pytest.raises(ConfigError):
        invariance_audit("nonexistent")


def test_zero_error_sanity_on_scheme_fixed_point():
    # a rest state is a fixed point of every scheme; the error against the
    # matching oracle stays at machine noise for any resolution
    cfg = validate_config({
        "equation": "kdv", "scheme": "kdv_naive", "domain_a": -10.0,
        "domain_b": 10.0, "n_points": 32, "t_final": 0.05,
        "dt_constant": 0.1, "ic_c1": 0.0, "ic_c2": 0.0,
    })
    out = run_experiment(cfg)
    _t, _x, u = out.snapshots[-1]
    assert np.max(np.abs(u)) <= 1e-14


def test_convergence_csv_format():
    rows = convergence_study("schwarzian_invariant", [0.1, 0.05])
    text = format_convergence_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "h,error,observed_order"
    assert len(lines) == 3
    assert math.isnan(rows[0].observed_order)
    assert rows[1].observed_order == pytest.approx(1.0, abs=0.35)


def test_burgers_converges_at_second_order():
    # nu = 0.02 resolves the shock on these meshes, so the smooth-region
    # order of the finite-volume scheme shows in the max norm
    rows = convergence_study("burgers_fv", [1 / 64, 1 / 128])
    assert rows[1].observed_order >= 1.8, rows


def test_convergence_study_rejects_bad_input_before_any_level(monkeypatch):
    calls = []
    for scheme in CONVERGENCE_SCHEMES:
        monkeypatch.setitem(runner._CONVERGENCE, scheme, lambda h: calls.append(h) or 1.0)
    with pytest.raises(ConfigError, match="no convergence driver for scheme 'nope'"):
        convergence_study("nope", [])
    for scheme in CONVERGENCE_SCHEMES:
        with pytest.raises(ConfigError, match="no mesh spacing given"):
            convergence_study(scheme, [])
        for bad in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ConfigError, match="positive and finite"):
                convergence_study(scheme, [0.1, 0.05, bad])
    assert calls == []


def test_convergence_order_of_a_repeated_spacing_is_nan():
    rows = convergence_study("schwarzian_invariant", [0.1, 0.1])
    assert rows[0].error == rows[1].error
    assert math.isnan(rows[1].observed_order)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

_BURGERS_TEXT = ("equation = burgers\nscheme = burgers_fv\n"
                 "domain_a = -0.5\ndomain_b = 0.5\nn_points = 16\n"
                 "t_final = 0.01\nnu = 0.01\nalpha = 0.5\n")


def test_cli_run_and_outputs(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    snaps = tmp_path / "s.csv"
    diags = tmp_path / "d.csv"
    cfg.write_text(
        "equation = burgers\nscheme = burgers_fv\n"
        "domain_a = -0.5\ndomain_b = 0.5\nn_points = 16\n"
        "t_final = 0.01\nnu = 0.01\nalpha = 0.5\n"
        f"snapshots_path = {snaps}\ndiagnostics_path = {diags}\n")
    assert cli_main(["run", str(cfg)]) == 0
    assert snaps.read_text().startswith("t,x,u")
    assert diags.read_text().startswith("step,t,min_spacing")
    out = capsys.readouterr().out
    assert "status: completed" in out


def test_cli_run_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("equation = kdv\nwhatever = 1\n")
    assert cli_main(["run", str(cfg)]) == 2


@pytest.mark.parametrize("ic_line,message", [
    ("ic = flat\n", "unknown key 'ic'"),
    ("", "nu > 0"),
])
def test_cli_run_burgers_without_viscosity_is_a_config_error(tmp_path, capsys, ic_line, message):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(
        "equation = burgers\nscheme = burgers_fv\ndomain_a = -0.5\ndomain_b = 0.5\n"
        f"n_points = 16\nt_final = 0.01\nalpha = 0.5\nnu = 0\n{ic_line}")
    assert cli_main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and message in captured.err


def test_cli_run_numerical_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "tangle.cfg"
    snaps = tmp_path / "s.csv"
    cfg.write_text(
        "equation = kdv\nscheme = kdv_6pt\nmesh = lagrangian\n"
        "domain_a = -30\ndomain_b = 30\nn_points = 128\nt_final = 2.0\n"
        f"snapshots_path = {snaps}\n")
    assert cli_main(["run", str(cfg)]) == 3
    assert snaps.exists()  # partial outputs still written
    captured = capsys.readouterr()
    assert captured.out == "status: mesh_tangling\n"
    assert captured.err.startswith("run stopped: step ")
    assert "MeshTangling: mesh ordering lost at index" in captured.err


def test_cli_run_unwritable_output_path(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "equation = burgers\nscheme = burgers_fv\n"
        "domain_a = -0.5\ndomain_b = 0.5\nn_points = 16\n"
        "t_final = 0.01\nnu = 0.01\nalpha = 0.5\n"
        f"snapshots_path = {tmp_path / 'missing' / 's.csv'}\n")
    assert cli_main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert "missing" in captured.err
    assert "status:" not in captured.out


def test_cli_run_nonfinite_exit_code(tmp_path, capsys):
    # k = 2 h^3 is far beyond the explicit naive scheme's stability limit
    cfg = tmp_path / "blowup.cfg"
    snaps = tmp_path / "s.csv"
    diags = tmp_path / "d.csv"
    cfg.write_text(
        "equation = kdv\nscheme = kdv_naive\n"
        "domain_a = -30\ndomain_b = 30\nn_points = 128\nt_final = 40\n"
        f"dt_constant = 2\nsnapshots_path = {snaps}\ndiagnostics_path = {diags}\n")
    assert cli_main(["run", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "status: nonfinite"
    assert captured.err.startswith("run stopped: step ")
    assert "u is not finite at node " in captured.err
    rows = diags.read_text().splitlines()[1:]
    assert rows[-1].endswith(",nonfinite")
    assert all(r.endswith(",ok") for r in rows[:-1])
    assert len(rows) < 194  # stopped before the final step
    assert snaps.read_text().count("\n") > 128  # partial snapshots kept


# ---------------------------------------------------------------------------
# output files: each run writes new files
# ---------------------------------------------------------------------------

def _output(path, diags=""):
    return run_experiment(_small_burgers_cfg(snapshots_path=str(path), diagnostics_path=diags))


def test_write_replaces_a_longer_existing_file_with_a_new_one(tmp_path):
    fresh, old = tmp_path / "fresh.csv", tmp_path / "old.csv"
    write_outputs(_output(fresh))
    old.write_text("stale,row\n" * 10_000)
    os.link(old, tmp_path / "link.csv")
    ino = old.stat().st_ino
    write_outputs(_output(old))
    assert old.read_bytes() == fresh.read_bytes()
    assert old.stat().st_ino != ino
    # another hard link to the old file keeps the old contents
    assert (tmp_path / "link.csv").read_text() == "stale,row\n" * 10_000


def test_cli_run_twice_gives_byte_identical_csvs(tmp_path, capsys):
    snaps, diags, cfg = tmp_path / "s.csv", tmp_path / "d.csv", tmp_path / "run.cfg"
    cfg.write_text(
        "equation = burgers\nscheme = burgers_fv\n"
        "domain_a = -0.5\ndomain_b = 0.5\nn_points = 16\n"
        "t_final = 0.01\nnu = 0.01\nalpha = 0.5\n"
        f"snapshots_path = {snaps}\ndiagnostics_path = {diags}\n")
    assert cli_main(["run", str(cfg)]) == 0
    first = snaps.read_bytes(), diags.read_bytes()
    assert cli_main(["run", str(cfg)]) == 0
    assert (snaps.read_bytes(), diags.read_bytes()) == first
    captured = capsys.readouterr()
    assert captured.out == "status: completed\n" * 2
    assert captured.err == ""  # a completed run has no stop message


def test_write_through_a_symlink_keeps_the_link(tmp_path):
    fresh, target, link = tmp_path / "fresh.csv", tmp_path / "target.csv", tmp_path / "link.csv"
    write_outputs(_output(fresh))
    target.write_text("stale,row\n" * 10_000)
    link.symlink_to(target)
    write_outputs(_output(link))
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh.read_bytes()


def test_write_to_a_non_regular_path_never_unlinks(monkeypatch):
    def no_unlink(path):
        raise AssertionError(f"unlink({path!r})")

    monkeypatch.setattr(os, "unlink", no_unlink)
    write_outputs(_output(os.devnull, diags=os.devnull))
    assert os.path.exists(os.devnull)


def test_write_through_when_the_unlink_is_refused(monkeypatch, tmp_path):
    fresh, path = tmp_path / "fresh.csv", tmp_path / "s.csv"
    write_outputs(_output(fresh))
    path.write_text("stale,row\n" * 10_000)
    ino = path.stat().st_ino

    def refuse(p):
        raise PermissionError(13, "Permission denied", p)

    monkeypatch.setattr(os, "unlink", refuse)
    write_outputs(_output(path))
    assert path.read_bytes() == fresh.read_bytes()
    assert path.stat().st_ino == ino  # truncated and rewritten in place


# k = 2 h^3 is far beyond the explicit naive scheme's stability limit
_NAIVE_BLOWUP = {"equation": "kdv", "scheme": "kdv_naive", "domain_a": -30.0,
                 "domain_b": 30.0, "n_points": 128, "t_final": 40.0, "dt_constant": 2.0}


@pytest.mark.parametrize("kind", ["completed", "stopped", "schwarzian"])
def test_written_csvs_are_the_joined_chunks(tmp_path, kind):
    snaps, diags = tmp_path / "s.csv", tmp_path / "d.csv"
    paths = {"snapshots_path": str(snaps), "diagnostics_path": str(diags)}
    cfg = {"completed": lambda: _small_burgers_cfg(**paths),
           "stopped": lambda: validate_config({**_NAIVE_BLOWUP, **paths}),
           "schwarzian": lambda: _schwarzian_cfg(**paths)}[kind]()
    out = run_experiment(cfg)
    assert (out.status == "completed") == (kind != "stopped")
    write_outputs(out)
    snap, diag = _csv_texts(out)
    assert snaps.read_bytes() == snap.encode()
    assert diags.read_bytes() == diag.encode()


def test_cli_run_that_blows_up_warns_nothing_and_names_the_stop(tmp_path, capsys):
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text("".join(f"{key} = {val}\n" for key, val in _NAIVE_BLOWUP.items()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would raise out of the run
        assert cli_main(["run", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "run stopped: step 17: u is not finite at node 0 (29 of 128 nodes)\n")


@st.composite
def _runnable_configs(draw):
    """The values of a valid config for each runnable (equation, scheme, mesh),
    the keys of ``runner._STEPS``, where a mesh of None is a run that reads
    none: 8-48 nodes and at most 300 steps (KdV and Burgers) or nodes (Schwarzian)."""
    eq, scheme, mesh = draw(st.sampled_from(list(_STEPS)))
    n = draw(st.integers(8, 48))
    values = {"equation": eq, "scheme": scheme, "n_points": n}
    if mesh is not None:
        values["mesh"] = mesh
    if eq == "schwarzian":
        a = draw(st.floats(-3.0, 3.0))
        values.update(domain_a=a, domain_b=a + draw(st.floats(0.1, 4.0)),
                      source_f=draw(st.floats(-5.0, 5.0)))
        return values
    if eq == "kdv":
        a = draw(st.floats(-40.0, 10.0))
        values.update(domain_a=a, domain_b=a + draw(st.floats(10.0, 70.0)),
                      alpha=draw(st.floats(0.0, 100.0)), ic_c1=draw(st.floats(0.0, 2.0)),
                      ic_c2=draw(st.floats(0.0, 2.0)))
    else:
        values.update(domain_a=-0.5, domain_b=0.5, nu=draw(st.floats(1e-3, 0.1)),
                      alpha=draw(st.floats(0.0, 100.0)))
    values["dt_constant"] = draw(st.floats(0.01, 2.0))
    # t_final of about the drawn number of steps of k = dt_constant h^p
    h = (values["domain_b"] - values["domain_a"]) / (n - 1)
    k = values["dt_constant"] * h ** (3 if eq == "kdv" else 2)
    values["t_final"] = draw(st.integers(1, 300)) * k
    return values


@settings(max_examples=60)
@given(values=_runnable_configs())
def test_every_runnable_config_completes_cleanly_or_stops_with_its_state(values):
    with tempfile.TemporaryDirectory() as tmp:
        snaps, diags, cfg = (os.path.join(tmp, name) for name in ("s.csv", "d.csv", "run.cfg"))
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key} = {val}\n" for key, val in values.items())
            fh.write(f"snapshots_path = {snaps}\ndiagnostics_path = {diags}\n")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(["run", cfg])
        snap_rows = [[float(v) for v in line.split(",")]
                     for line in Path(snaps).read_text().splitlines()[1:]]
        diag_rows = [line.split(",") for line in Path(diags).read_text().splitlines()[1:]]
    status = stdout.getvalue().removeprefix("status: ").rstrip("\n")
    assert code == (0 if status == "completed" else 3), stderr.getvalue()
    assert (stderr.getvalue() == "") == (status == "completed")
    if status == "completed" or values["equation"] == "schwarzian":
        # a Schwarzian march keeps the rows of the nodes before its stop
        assert np.isfinite(snap_rows).all()
        assert {row[-1] for row in diag_rows} <= {"ok", "pole"}
        return
    # a stopped time loop: every row but the last is a step's, and the last
    # carries the stop status, a NaN residual and the state of the last snapshot
    *steps, stop = diag_rows
    assert {row[-1] for row in steps} <= {"ok"} and stop[-1] == status
    assert stop[4] == "nan"
    t_last = snap_rows[-1][0]
    x_last = np.array([row[1] for row in snap_rows if row[0] == t_last][-values["n_points"]:])
    assert float(stop[1]) == t_last
    assert float(stop[2]) == float((x_last[1:] - x_last[:-1]).min())


def _config_text(values):
    """``key = value`` lines of values as ``bench/workloads.config_text``
    writes them: a float by its repr, a None left out."""
    return "".join(f"{key} = {val!r}\n" if isinstance(val, float) else f"{key} = {val}\n"
                   for key, val in values.items() if val is not None)


@settings(max_examples=100)
@given(values=_runnable_configs())
def test_config_values_round_trip_through_validation_and_text(values):
    cfg = validate_config(values)
    assert validate_config(cfg.values) == cfg
    assert parse_config(_config_text(cfg.values)) == cfg


def test_cli_run_streams_the_joined_snapshot_chunks_to_stdout(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("equation = burgers\nscheme = burgers_fv\n"
                   "domain_a = -0.5\ndomain_b = 0.5\nn_points = 16\n"
                   "t_final = 0.01\nnu = 0.01\nalpha = 0.5\n")
    assert cli_main(["run", str(cfg)]) == 0
    snap, _diag = _csv_texts(run_experiment(parse_config(cfg.read_text())))
    assert capsys.readouterr().out == "status: completed\n" + snap


def test_writing_the_burgers_shock_outputs_holds_one_chunk_at_a_time(tmp_path):
    text = (ROOT / "configs" / "burgers_shock.cfg").read_text(encoding="utf-8")
    snaps, diags = tmp_path / "s.csv", tmp_path / "d.csv"
    out = run_experiment(validate_config(dict(
        parse_config(text).values, snapshots_path=str(snaps), diagnostics_path=str(diags))))
    tracemalloc.start()
    try:
        write_outputs(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = snaps.stat().st_size + diags.stat().st_size
    assert peak < written / 8, (peak, written)


def _subprocess_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_python_m_symfd_runs_without_an_entry_point():
    proc = subprocess.run([sys.executable, "-m", "symfd", "exact",
                           str(ROOT / "configs" / "burgers_shock.cfg")], capture_output=True,
                          text=True, env=_subprocess_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "t,x,u" and len(lines) == 129


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("\n## Library example\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "  verdict: PASS"


# Run in a fresh interpreter with an import hook that refuses scipy: what
# does not solve a linear system (the Burgers march and adaptive six-point
# KdV steps included) works without it, the two steps that solve one (the
# ten-point band, the projection spline) raise ImportError, and the first
# solve loads scipy's compiled LAPACK wrappers and no other scipy.linalg
# module.
_WITHOUT_SCIPY = r"""
import contextlib, io, sys

class RefuseScipy:
    refused = []

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            self.refused.append(name)
            raise ModuleNotFoundError(f"import of {name} refused")

blocker = RefuseScipy()
sys.meta_path.insert(0, blocker)

import numpy as np
from symfd import cli, invariants, runner, schemes
from symfd.mesh import MonitorParams

with contextlib.redirect_stdout(io.StringIO()):
    for config in sys.argv[1:]:
        assert cli.main(["exact", config]) == 0, config
for scheme in ("schwarzian_invariant", "kdv_6pt"):
    assert runner.invariance_audit(scheme, 4, 2).passed, scheme
cfg = runner.parse_config("equation = schwarzian\nscheme = schwarzian_invariant\n"
                          "domain_a = 0\ndomain_b = 2.5\nn_points = 51\nsource_f = 2\n")
assert runner.run_experiment(cfg).status == "completed"
x = np.array([[0.0, 0.4, 1.0, 1.3, 2.0], [0.1, 0.5, 1.1, 1.4, 2.1]])
assert len(invariants.kdv_invariants(invariants.KdVStencil(0.1, x, np.sin(x)))) == 18

x = np.linspace(-5.0, 5.0, 16)
state = schemes.GridState(0.0, x, np.exp(-x * x))
schemes.burgers_fv_step_detailed(state, 0.01, 0.1, 1.0)
schemes.kdv_step_detailed(state, 0.01, "adaptive", "6pt", monitor=MonitorParams(10.0))
cfg = runner.parse_config("equation = burgers\nscheme = burgers_fv\ndomain_a = -0.5\n"
                          "domain_b = 0.5\nn_points = 16\nt_final = 0.01\nnu = 0.01\n"
                          "alpha = 0.5\n")
assert runner.run_experiment(cfg).status == "completed"
assert blocker.refused == [], blocker.refused

solves = (lambda: schemes.kdv_step_detailed(state, 0.01, "lagrangian", "10pt"),
          lambda: schemes.kdv_step_detailed(state, 0.01, "projection", "6pt"))
for solve in solves:
    try:
        solve()
    except ImportError:
        continue
    raise AssertionError("a linear solve ran without scipy")
assert blocker.refused == ["scipy", "scipy"], blocker.refused

sys.meta_path.remove(blocker)
assert "scipy.linalg" not in sys.modules
for solve in solves:
    solve()
linalg = sorted(m for m in sys.modules if m.startswith("scipy.linalg"))
assert linalg == ["scipy.linalg._flapack"], linalg
"""


def test_only_a_linear_solve_loads_scipy():
    configs = [str(ROOT / "configs" / name)
               for name in ("kdv_projection.cfg", "burgers_shock.cfg", "schwarzian.cfg")]
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, *configs], capture_output=True,
                          text=True, env=_subprocess_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr


# Run in a fresh interpreter, with scipy.linalg imported before or after a
# projected ten-point step: the step loads the very LAPACK wrappers that
# scipy.linalg.lapack re-exports, whichever comes first; prints the step's u.
_LAPACK_ORDER = r"""
import sys
import numpy as np

if sys.argv[1] == "scipy-first":
    import scipy.linalg
from symfd import mesh, schemes

x = np.linspace(-5.0, 5.0, 16)
state = schemes.GridState(0.0, x, np.exp(-x * x))
u = schemes.kdv_step_detailed(state, 0.01, "projection", "10pt")[0].u
if sys.argv[1] == "step-first":
    assert "scipy.linalg" not in sys.modules
    import scipy.linalg
    assert scipy.linalg.lapack.dgbsv is mesh._lapack().dgbsv
    assert scipy.linalg.lapack.dgtsv is mesh._lapack().dgtsv
assert mesh._lapack() is scipy.linalg.lapack._flapack
ab = np.array([[0.0, 1.0, 1.0, 1.0], [4.0, 4.0, 4.0, 4.0], [1.0, 1.0, 1.0, 0.0]])
b = np.array([1.0, 2.0, 3.0, 4.0])
a = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
assert np.allclose(a @ scipy.linalg.solve_banded((1, 1), ab, b), b)
print(u.tobytes().hex())
"""


def test_a_ten_point_step_and_scipy_linalg_share_one_lapack_in_either_import_order():
    out = []
    for order in ("step-first", "scipy-first"):
        proc = subprocess.run([sys.executable, "-c", _LAPACK_ORDER, order], capture_output=True,
                              text=True, env=_subprocess_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1] and len(out[0]) == 2 * 8 * 16 + 1


@pytest.mark.parametrize("h", ["0", "-0.1", "nan", "inf"])
@pytest.mark.parametrize("scheme", ["schwarzian_invariant", "kdv_naive"])
def test_cli_converge_rejects_bad_spacing(capsys, scheme, h):
    assert cli_main(["converge", "--scheme", scheme, "--h", f"0.1,{h}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: mesh spacing must be positive and finite")


@pytest.mark.parametrize("scheme,h,message", [
    ("schwarzian_invariant", "2", "spacing 2.0 leaves fewer than 4 nodes on [0, 1]"),
    ("schwarzian_invariant", "0.5", "spacing 0.5 leaves fewer than 4 nodes on [0, 1]"),
    ("kdv_naive", "10", "n_points must be at least 8"),
])
def test_cli_converge_rejects_a_spacing_too_coarse_for_the_domain(capsys, scheme, h, message):
    assert cli_main(["converge", "--scheme", scheme, "--h", h]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


def _kdv_text(a="-1", b="1", n="16", t_final="0.1", dt="0.5"):
    return (f"equation = kdv\nscheme = kdv_6pt\ndomain_a = {a}\ndomain_b = {b}\n"
            f"n_points = {n}\nt_final = {t_final}\ndt_constant = {dt}\n")


# configurations whose grid, time step or initial state cannot be
# represented; n_points is rejected before numpy could try to allocate it,
# np.linspace repeats a node on a domain a few ulps wide, and a subnormal
# nu overflows the viscous shock's x / (2 nu)
_UNREPRESENTABLE = {
    "n_points": _kdv_text(n=str(10**30)),
    "k_underflows": _kdv_text(dt="5e-324"),
    "burgers_k_underflows": _BURGERS_TEXT.replace("domain_a = -0.5\ndomain_b = 0.5",
                                                  "domain_a = 0\ndomain_b = 1e-320"),
    "steps_overflow": _kdv_text(t_final="1e300", dt="1e-300"),
    "kdv_width": _kdv_text(a="-1e308", b="1e308"),
    "schwarzian_width": "equation = schwarzian\nscheme = schwarzian_invariant\n"
                        "domain_a = -1e308\ndomain_b = 1e308\nn_points = 16\n",
    "schwarzian_repeated_node": "equation = schwarzian\nscheme = schwarzian_invariant\n"
                                "domain_a = 1\ndomain_b = 1.0000000000000004\nn_points = 100\n",
    "kdv_repeated_node": _kdv_text(a="1", b="1.000000000000003", t_final="1"),
    "schwarzian_h2_overflows": "equation = schwarzian\nscheme = schwarzian_invariant\n"
                               "domain_a = -1e307\ndomain_b = 1e307\nn_points = 100\n",
    "burgers_subnormal_nu": _BURGERS_TEXT.replace("nu = 0.01", "nu = 1e-320"),
}


@pytest.mark.parametrize("argv", [
    *[pytest.param([command, text], id=f"{command}-{name}")
      for command in ("run", "exact") for name, text in _UNREPRESENTABLE.items()],
    *[pytest.param(["converge", "--scheme", scheme, "--h", h], id=f"converge-{scheme}-{h}")
      for scheme in CONVERGENCE_SCHEMES for h in ("1e-300", "5e-324")],
])
def test_cli_unrepresentable_grid_or_time_step_is_a_config_error(tmp_path, capsys, argv):
    if argv[0] != "converge":
        cfg = tmp_path / "unrepresentable.cfg"
        cfg.write_text(argv[1])
        argv = [argv[0], str(cfg)]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")


@pytest.mark.parametrize("h", [",", " ", ", ,"])
def test_cli_converge_without_spacings_is_a_config_error(capsys, h):
    assert cli_main(["converge", "--scheme", "burgers_fv", "--h", h]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: no mesh spacing given\n"


def test_cli_converge_numerical_failure_exits_3(monkeypatch, capsys):
    def fail(h):
        raise SchemeSingularity("cross-ratio vanished")
    monkeypatch.setitem(runner._CONVERGENCE, "schwarzian_invariant", fail)
    assert cli_main(["converge", "--scheme", "schwarzian_invariant", "--h", "0.1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: cross-ratio vanished\n"


def test_cli_converge_stopped_level_exits_3(capsys):
    # the naive scheme blows up at h = 0.0625 before t = 0.1; that level
    # is a numerical failure, not an infinite error
    with np.errstate(all="ignore"):
        assert cli_main(["converge", "--scheme", "kdv_naive", "--h", "0.125,0.0625"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: nonfinite: step ")


def _scheme_choices(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return tuple(next(a.choices for a in sub.choices[command]._actions if a.dest == "scheme"))


def test_cli_exact_schwarzian_through_a_pole_exits_3(tmp_path, capsys):
    # tan x: the middle node x = pi/2 of nine is the pole
    cfg = tmp_path / "pole.cfg"
    cfg.write_text("equation = schwarzian\nscheme = schwarzian_invariant\n"
                   "domain_a = 0\ndomain_b = 3.141592653589793\nn_points = 9\n")
    assert cli_main(["exact", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: denominator vanishes near x = 1.5707963267948966\n"


@pytest.mark.parametrize("bound", [("domain_a", "nan"), ("domain_b", "inf"), ("domain_a", "-inf")])
def test_cli_exact_rejects_a_nonfinite_interval(tmp_path, capsys, bound):
    key, value = bound
    cfg = tmp_path / "interval.cfg"
    cfg.write_text(_BURGERS_TEXT.replace(f"{key} = ", f"{key} = {value}\n# ", 1))
    assert cli_main(["exact", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {key} must be finite, got {value}\n"


@pytest.mark.parametrize("n", ["0", "-4"])
def test_cli_exact_needs_a_sample(tmp_path, capsys, n):
    cfg = tmp_path / "few.cfg"
    cfg.write_text(_BURGERS_TEXT.replace("n_points = 16", f"n_points = {n}"))
    assert cli_main(["exact", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: n_points must be at least 8\n"


def test_cli_scheme_choices_are_the_driver_tables():
    assert _scheme_choices("converge") == CONVERGENCE_SCHEMES
    assert _scheme_choices("audit") == AUDIT_SCHEMES


def test_cli_audit_and_exact_and_converge(capsys):
    assert cli_main(["audit", "--scheme", "uxx", "--trials", "6",
                     "--configs", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out

    kdv = str(ROOT / "configs" / "kdv_projection.cfg")
    assert cli_main(["exact", kdv, "--t", "0"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "t,x,u"
    assert len(out.splitlines()) == 129
    # the KdV oracle is Hirota's two-soliton, exact through the collision
    assert cli_main(["exact", kdv, "--t", "40"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    x, u = (np.array([float(r[j]) for r in rows]) for j in (1, 2))
    assert np.array_equal(u, exact_kdv_double_soliton(40.0, x))

    assert cli_main(["converge", "--scheme", "schwarzian_invariant",
                     "--h", "0.1,0.05"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "h,error,observed_order"


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "configs").glob("*.cfg")))
def test_cli_exact_prints_the_first_snapshot_of_the_run(capsys, name):
    path = ROOT / "configs" / name
    assert cli_main(["exact", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    # the first snapshot is taken before the first step, so a run cut short
    # after one step (or a few, for Burgers) holds the same first chunk
    cfg = parse_config(path.read_text(encoding="utf-8"))
    out = run_experiment(validate_config({**cfg.values, "t_final": 1e-4}))
    header, first = list(format_snapshots_csv(out))[:2]
    if cfg.equation == "schwarzian":
        # tan x is the solution on every node; the march keeps only its seeds
        lines = captured.out.splitlines(keepends=True)
        assert len(lines) == 1 + cfg.n_points
        assert "".join(lines[:4]) == header + "".join(first.splitlines(keepends=True)[:3])
    else:
        assert captured.out == header + first


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "configs").glob("*.cfg")))
def test_cli_run_and_exact_accept_the_same_configs(tmp_path, capsys, name):
    # both commands read the file and build the grid alike, so neither is a
    # config error (exit 2) alone; only the Lagrangian run stops (exit 3),
    # as its file says, at a mesh tangling that the exact solution never meets
    text = (ROOT / "configs" / name).read_text(encoding="utf-8")
    cfg = tmp_path / name
    cfg.write_text(re.sub(r"(?m)^(snapshots_path|diagnostics_path)\s*=.*$",
                          lambda m: f"{m[1]} = {tmp_path / m[1]}.csv", text))
    codes = [cli_main([command, str(cfg)]) for command in ("run", "exact")]
    assert codes == [3 if name == "kdv_lagrangian.cfg" else 0, 0], capsys.readouterr().err
    assert (tmp_path / "snapshots_path.csv").exists()


@pytest.mark.parametrize("scheme,mesh", [("kdv_naive", "lagrangian"), ("kdv_10pt", "projection")])
def test_cli_exact_at_t_final_is_on_the_final_nodes_of_a_fixed_node_run(tmp_path, capsys,
                                                                        scheme, mesh):
    cfg = tmp_path / "fixed.cfg"
    cfg.write_text(f"equation = kdv\nscheme = {scheme}\nmesh = {mesh}\n"
                   "domain_a = -30\ndomain_b = 30\nn_points = 64\nt_final = 0.5\n")
    _t, x, _u = run_experiment(parse_config(cfg.read_text())).snapshots[-1]
    assert cli_main(["exact", str(cfg), "--t", "0.5"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["0.5"] * x.size
    assert np.array_equal([float(r[1]) for r in rows], x)
    assert np.array_equal([float(r[2]) for r in rows], exact_kdv_double_soliton(0.5, x))


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_cli_exact_at_a_nonfinite_time_is_a_config_error(capsys, t):
    assert cli_main(["exact", str(ROOT / "configs" / "burgers_shock.cfg"), f"--t={t}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: t must be finite, got {t}\n"


def test_cli_exact_schwarzian_needs_the_source_of_tan(tmp_path, capsys):
    cfg = tmp_path / "source.cfg"
    cfg.write_text((ROOT / "configs" / "schwarzian.cfg").read_text().replace(
        "source_f  = 2", "source_f  = 3"))
    assert cli_main(["exact", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: tan x solves the schwarzian equation only "
                            "for source_f = 2, got 3.0\n")


@pytest.mark.parametrize("command", ["run", "exact"])
@pytest.mark.parametrize("key", ["ic_c1", "ic_c2"])
def test_cli_negative_soliton_speed_is_a_config_error(tmp_path, capsys, command, key):
    cfg = tmp_path / "speed.cfg"
    cfg.write_text("equation = kdv\nscheme = kdv_6pt\ndomain_a = -30\ndomain_b = 30\n"
                   f"n_points = 64\nt_final = 0.1\n{key} = -1\n")
    assert cli_main([command, str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: soliton speeds ic_c1 and ic_c2 must be nonnegative\n"


def test_cli_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(_BURGERS_TEXT.encode() + "# caf\u00e9\n".encode("latin-1"))
    for command in ("run", "exact"):
        assert cli_main([command, str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: 'utf-8' codec can't decode byte 0xe9")


def test_cli_converge_rejects_a_token_that_is_not_a_number(capsys):
    assert cli_main(["converge", "--scheme", "burgers_fv", "--h", "0.1,abc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: could not convert string to float: 'abc'\n"


def test_readme_status_list_is_exactly_the_status_vocabulary():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"take\s+these values:\n\n((?:- .*\n(?: .*\n)*)+)", readme)[1]
    listed = re.findall(r"^- `(\w+)`", block, re.MULTILINE)
    assert sorted(listed) == sorted(_STATUSES + ("completed",))


def test_readme_diagnostics_header_is_the_row_type_fields():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    header = re.search(r"diagnostics CSV has one row per step with header\s+`([^`]*)`", readme)[1]
    assert header == ",".join(DiagnosticsRow._fields)


def test_readme_cli_block_names_exactly_the_parser_commands_and_options():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n\n```sh\n", 1)[1].split("\n```", 1)[0]
    listed = {}
    for line in block.splitlines():
        command = line.split()[1]
        listed[command] = sorted(re.findall(r"(?<!\S)--[a-z][\w-]*", line.split("#", 1)[0]))
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {command: sorted(opt for action in p._actions for opt in action.option_strings
                               if opt.startswith("--") and opt != "--help")
               for command, p in sub.choices.items()}
    assert listed == options
