"""Experiment driver: oracles, configs, runs, audits, CSV, CLI."""

import math

import numpy as np
import pytest

from symfd import schemes
from symfd.cli import main as cli_main
from symfd.errors import (
    ConfigError,
    DegenerateDenominator,
    MeshTangling,
    PoleError,
    SchemeSingularity,
)
from symfd.runner import (
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
    # peak of the first hump at x = -a1 equals three times its speed, plus
    # the exponentially small tail of the second hump
    u = float(exact_kdv_double_soliton(0.0, -20.0, 1.0, 0.5, 20.0, 5.0))
    tail = float(exact_kdv_double_soliton(0.0, -20.0, 0.0, 0.5, 20.0, 5.0))
    assert u == pytest.approx(3.0 + tail, abs=1e-12)
    # with c2 = 0 the second term vanishes identically
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
    ("equation = kdv\nscheme = kdv_naive\nboundary = dirichlet\ndomain_a = 0\ndomain_b = 1\nn_points = 16\nt_final = 1", "periodic"),
])
def test_config_errors(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


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
    o1 = run_experiment(_small_burgers_cfg(seed=3))
    o2 = run_experiment(_small_burgers_cfg(seed=3))
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


def test_uxx_run_affine_exact():
    cfg = validate_config({
        "equation": "uxx", "scheme": "uxx", "domain_a": 0.0, "domain_b": 1.0,
        "n_points": 11, "ic_p": 2.0, "ic_q": 1.0, "mesh_f": 1.3,
    })
    out = run_experiment(cfg)
    _t, x, u = out.snapshots[-1]
    assert np.max(np.abs(u - (2.0 * x + 1.0))) <= 1e-10
    ratios = np.diff(x)[1:] / np.diff(x)[:-1]
    assert np.max(np.abs(ratios - 1.3)) <= 1e-10


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


def test_cli_run_numerical_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "tangle.cfg"
    snaps = tmp_path / "s.csv"
    cfg.write_text(
        "equation = kdv\nscheme = kdv_6pt\nmesh = lagrangian\n"
        "domain_a = -30\ndomain_b = 30\nn_points = 128\nt_final = 2.0\n"
        f"snapshots_path = {snaps}\n")
    assert cli_main(["run", str(cfg)]) == 3
    assert snaps.exists()  # partial outputs still written


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
    assert capsys.readouterr().out.splitlines()[0] == "status: nonfinite"
    rows = diags.read_text().splitlines()[1:]
    assert rows[-1].endswith(",nonfinite")
    assert all(r.endswith(",ok") for r in rows[:-1])
    assert len(rows) < 194  # stopped before the final step
    assert snaps.read_text().count("\n") > 128  # partial snapshots kept


def test_cli_audit_and_exact_and_converge(capsys):
    assert cli_main(["audit", "--scheme", "uxx", "--trials", "6",
                     "--configs", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out

    assert cli_main(["exact", "--equation", "kdv", "--t", "0", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "t,x,u"
    assert len(out.splitlines()) == 9

    assert cli_main(["converge", "--scheme", "schwarzian_invariant",
                     "--h", "0.1,0.05"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "h,error,observed_order"
