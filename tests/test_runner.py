"""Experiment driver: oracles, configs, runs, audits, CSV, CLI."""

import argparse
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from symfd import runner, schemes
from symfd.cli import build_parser
from symfd.cli import main as cli_main
from symfd.errors import (
    ConfigError,
    DegenerateDenominator,
    MeshTangling,
    PoleError,
    SchemeSingularity,
)
from symfd.runner import (
    _CONFIG_KEYS,
    _SCHEMES_BY_EQUATION,
    AUDIT_SCHEMES,
    CONVERGENCE_SCHEMES,
    DiagnosticsRow,
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


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------

def test_exact_schwarzian_values():
    assert exact_schwarzian(math.pi / 4.0) == pytest.approx(1.0, rel=1e-12)
    assert exact_schwarzian(0.0, 2.0, 3.0, 0.5, 1.5) == pytest.approx(2.0)
    with pytest.raises(PoleError):
        exact_schwarzian(math.pi / 2.0)  # tan pole
    with pytest.raises(PoleError):
        exact_schwarzian(3 * math.pi / 4.0, 1.0, 0.0, 1.0, 1.0)  # c tan x = -d


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


def test_total_variation_examples():
    assert total_variation([0.0, 1.0, 2.0, 3.0]) == pytest.approx(3.0)
    assert total_variation([5.0, 5.0, 5.0]) == 0.0
    assert total_variation([0.0, 1.0, 0.0, 1.0]) == pytest.approx(3.0)


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
    ("equation = kdv\nscheme = kdv_naive\nboundary = dirichlet\ndomain_a = 0\ndomain_b = 1\nn_points = 16\nt_final = 1", "unknown key"),
    ("equation = kdv\nscheme = kdv_6pt\nic = gaussian\ndomain_a = 0\ndomain_b = 1\nn_points = 16\nt_final = 1", "unknown key"),
    ("equation = kdv\nscheme = kdv_6pt\nseed = 5\ndomain_a = 0\ndomain_b = 1\nn_points = 16\nt_final = 1", "unknown key"),
])
def test_config_errors(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


_FLOAT_KEYS = sorted(k for k, (typ, _d) in _CONFIG_KEYS.items() if typ is float)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_config_rejects_nonfinite_floats(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config("equation = kdv\nscheme = kdv_10pt\nmesh = adaptive\nalpha = 1\n"
                     "domain_a = -1\ndomain_b = 1\nn_points = 16\nt_final = 1\n"
                     f"{key} = {value}\n")


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
    assert sorted(keys) == sorted(_CONFIG_KEYS)
    assert len(_CONFIG_KEYS) == 18
    # the equation and scheme rows list exactly what validation accepts
    meaning = {key.strip(" `"): text for key, text in rows}
    assert sorted(re.findall(r"`(\w+)`", meaning["equation"])) == sorted(_SCHEMES_BY_EQUATION)
    assert sorted(re.findall(r"`(\w+)`", meaning["scheme"])) == sorted(
        set().union(*_SCHEMES_BY_EQUATION.values()))


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


def test_run_deterministic_byte_identical():
    o1 = run_experiment(_small_burgers_cfg())
    o2 = run_experiment(_small_burgers_cfg())
    assert format_snapshots_csv(o1) == format_snapshots_csv(o2)
    assert format_diagnostics_csv(o1) == format_diagnostics_csv(o2)


def test_output_formats():
    out = run_experiment(_small_burgers_cfg())
    snap = format_snapshots_csv(out)
    assert snap.splitlines()[0] == "t,x,u"
    assert len(snap.splitlines()) == 1 + sum(len(x) for _t, x, _u in out.snapshots)
    diag = format_diagnostics_csv(out)
    assert diag.splitlines()[0] == "step,t,min_spacing,tv,residual_inf,newton_iters,status"
    assert len(diag.splitlines()) == 1 + len(out.diagnostics)


def test_csv_formats_special_values_like_per_field_format():
    vals = [0.0, -0.0, 1.0 / 3.0, -2.5e-300, 1e300, math.nan, math.inf, -math.inf]
    x = np.array(vals)
    u = np.array(vals[::-1])
    rows = [DiagnosticsRow(i, v, np.float64(w), w, abs(v), i % 2, "ok")
            for i, (v, w) in enumerate(zip(vals, vals[::-1]))]
    out = RunOutput([(0.25, x, u), (math.nan, x[:3], u[:3])], rows, "completed",
                    _small_burgers_cfg())
    snap = ["t,x,u"] + [f"{t:.17g},{a:.17g},{b:.17g}"
                        for t, xs, us in out.snapshots for a, b in zip(xs, us)]
    assert format_snapshots_csv(out) == "\n".join(snap) + "\n"
    diag = ["step,t,min_spacing,tv,residual_inf,newton_iters,status"] + [
        f"{r.step},{r.t:.17g},{r.min_spacing:.17g},{r.tv:.17g},"
        f"{r.residual_inf:.17g},{r.newton_iters},{r.status}" for r in rows]
    assert format_diagnostics_csv(out) == "\n".join(diag) + "\n"


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
        want = total_variation(u[: r.step + 3])
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


def test_schwarzian_singular_step_stops_with_its_message(monkeypatch):
    calls = []

    def fake_step(u_im1, u_i, u_ip1, h, f_i):
        calls.append(u_ip1)
        if len(calls) == 4:
            raise SchemeSingularity("vanishing slope")
        return u_ip1 + 0.1

    monkeypatch.setattr(schemes, "schwarzian_step", fake_step)
    out = run_experiment(validate_config({
        "equation": "schwarzian", "scheme": "schwarzian_invariant",
        "domain_a": 0.0, "domain_b": 1.0, "n_points": 16,
    }))
    assert out.status == "scheme_singularity"
    assert out.message == "step 4: SchemeSingularity: vanishing slope"


def _schwarzian_cfg(**over):
    return validate_config({"equation": "schwarzian", "scheme": "schwarzian_invariant",
                            "domain_a": 0.0, "domain_b": 1.0, "n_points": 16, **over})


def test_schwarzian_failing_diagnostics_stop_with_partial_output(monkeypatch):
    calls = []
    residual = schemes.schwarzian_invariant_residual

    def fake_residual(*args):
        calls.append(args)
        if len(calls) == 4:
            raise DegenerateDenominator("cross-ratio vanished")
        return residual(*args)

    monkeypatch.setattr(schemes, "schwarzian_invariant_residual", fake_residual)
    out = run_experiment(_schwarzian_cfg())
    assert out.status == "scheme_singularity"
    assert out.message == "step 4: DegenerateDenominator: cross-ratio vanished"
    # the nodes and rows before node 4 are kept
    _t, x, u = out.snapshots[-1]
    assert x.size == u.size == 6
    assert [r.step for r in out.diagnostics] == [1, 2, 3]
    whole = run_experiment(_schwarzian_cfg())
    assert np.array_equal(u, whole.snapshots[-1][2][:6])


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
    # h^2 F overflows the target cross-ratio to ~0, so the first residual
    # meets a vanishing cross-ratio
    snaps, diags = tmp_path / "s.csv", tmp_path / "d.csv"
    cfg = tmp_path / "schwarzian.cfg"
    cfg.write_text("equation = schwarzian\nscheme = schwarzian_invariant\n"
                   "domain_a = 0\ndomain_b = 2.5\nn_points = 251\nsource_f = 1e300\n"
                   f"snapshots_path = {snaps}\ndiagnostics_path = {diags}\n")
    assert cli_main(["run", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "status: scheme_singularity\n"
    assert captured.err.startswith("run stopped: step 1: DegenerateDenominator: ")
    assert snaps.read_text().splitlines()[0] == "t,x,u"
    assert len(snaps.read_text().splitlines()) == 1 + 3  # the seed nodes
    assert diags.read_text().splitlines() == [
        "step,t,min_spacing,tv,residual_inf,newton_iters,status"]


@pytest.mark.parametrize("scheme", ["kdv_10pt", "kdv_naive", "burgers_fv"])
@pytest.mark.parametrize("fault,status", [
    pytest.param(MeshTangling("tangled"), "mesh_tangling", id="mesh_tangling"),
    pytest.param(SchemeSingularity("singular band"), "scheme_singularity",
                 id="scheme_singularity"),
    pytest.param(DegenerateDenominator("vanishing spacing"), "numerical_failure",
                 id="numerical_failure"),
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
    with np.errstate(all="ignore"):
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


def _subprocess_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_python_m_symfd_runs_without_an_entry_point():
    proc = subprocess.run([sys.executable, "-m", "symfd", "exact", "--equation", "burgers",
                           "--n", "8"], capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "t,x,u" and len(lines) == 9


# Run in a fresh interpreter with an import hook that refuses scipy: what
# does not solve a linear system works without it, the two steps that solve
# one raise ImportError, and scipy.linalg is loaded at the first solve.
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

with contextlib.redirect_stdout(io.StringIO()):
    for equation in ("kdv", "burgers", "schwarzian"):
        assert cli.main(["exact", "--equation", equation, "--n", "8"]) == 0
for scheme in ("schwarzian_invariant", "kdv_6pt"):
    assert runner.invariance_audit(scheme, 4, 2).passed, scheme
cfg = runner.parse_config("equation = schwarzian\nscheme = schwarzian_invariant\n"
                          "domain_a = 0\ndomain_b = 2.5\nn_points = 51\nsource_f = 2\n")
assert runner.run_experiment(cfg).status == "completed"
x = np.array([[0.0, 0.4, 1.0, 1.3, 2.0], [0.1, 0.5, 1.1, 1.4, 2.1]])
assert len(invariants.kdv_invariants(invariants.KdVStencil(0.1, x, np.sin(x)))) == 18
assert blocker.refused == [], blocker.refused

x = np.linspace(-5.0, 5.0, 16)
state = schemes.GridState(0.0, x, np.exp(-x * x))
solves = (lambda: schemes.kdv_step_detailed(state, 0.01, "lagrangian", "10pt"),
          lambda: schemes.burgers_fv_step_detailed(state, 0.01, 0.1, 1.0))
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
assert "scipy.linalg" in sys.modules
"""


def test_only_a_linear_solve_loads_scipy():
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], capture_output=True,
                          text=True, env=_subprocess_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr


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


def test_cli_scheme_choices_are_the_driver_tables():
    assert _scheme_choices("converge") == CONVERGENCE_SCHEMES
    assert _scheme_choices("audit") == AUDIT_SCHEMES


def test_cli_audit_and_exact_and_converge(capsys):
    assert cli_main(["audit", "--scheme", "uxx", "--trials", "6",
                     "--configs", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out

    assert cli_main(["exact", "--equation", "kdv", "--t", "0", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "t,x,u"
    assert len(out.splitlines()) == 9
    # the KdV oracle is Hirota's two-soliton, exact through the collision
    assert cli_main(["exact", "--equation", "kdv", "--t", "40", "--n", "9"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    x, u = (np.array([float(r[j]) for r in rows]) for j in (1, 2))
    assert np.array_equal(u, exact_kdv_double_soliton(40.0, x))

    assert cli_main(["converge", "--scheme", "schwarzian_invariant",
                     "--h", "0.1,0.05"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "h,error,observed_order"
