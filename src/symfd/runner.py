"""Experiment driver: exact solutions, runs, audits, convergence studies.

This is the CLI surface.  Configurations are flat ``key = value`` text files
(UTF-8, ``#`` comments, unknown keys rejected); snapshot output is long-form
CSV ``t,x,u`` and diagnostics are one CSV row per step.  An identical
configuration produces byte-identical output.

The Schwarzian run marches in space.  All KdV and Burgers runs
(Lagrangian, adaptive and projected meshes, the naive baseline, the
Burgers shock) share one time loop around a step callable that returns
``(GridState, StepInfo)``; the loop owns the guards, the diagnostics rows,
the snapshot cadence and the stop statuses.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import schemes
from .errors import (
    DEGENERACY_TOL,
    ConfigError,
    MeshTangling,
    PoleError,
    SchemeSingularity,
    SymfdError,
)
from .groups import (
    BurgersGroupElement,
    KdVGroupElement,
    SL2Element,
    _batch_factors,
    _burgers_factors,
    _burgers_image,
    _kdv_factors,
    _kdv_image,
    apply_sl2,
)
from .mesh import MonitorParams
from .rng import DeterministicRng
from .schemes import GridState, StepInfo


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------

def exact_schwarzian(x: float, a: float = 1.0, b: float = 0.0,
                     c: float = 0.0, d: float = 1.0) -> float:
    """(a sin x + b cos x) / (c sin x + d cos x), the general Schwarzian
    solution for constant source 2; (1, 0, 0, 1) gives tan x."""
    if abs(a * d - b * c) < DEGENERACY_TOL:
        raise ValueError("parameters must satisfy ad - bc != 0")
    den = c * math.sin(x) + d * math.cos(x)
    if abs(den) < 1e-12 * math.hypot(c, d):
        raise PoleError(f"denominator vanishes near x = {x}")
    return (a * math.sin(x) + b * math.cos(x)) / den


def exact_kdv_double_soliton(t, x, c1: float = 1.0, c2: float = 0.5,
                             a1: float = 20.0, a2: float = 5.0):
    """Hirota's two-soliton u = 12 d^2/dx^2 log F of u_t + u u_x + u_xxx = 0.

    F = 1 + e^eta1 + e^eta2 + A e^(eta1 + eta2), A = ((k1 - k2)/(k1 + k2))^2,
    k = sqrt(c), eta_i = k_i (x + a_i - c_i t) (Hirota, PRL 27 (1971) 1192).
    This is exact at every t, through the collision; the hump that starts
    on the right (the smaller a) has -log A added to its phase, so that
    while the humps are apart at t = 0 each sits at x = -a_i.  The exponents
    of F are linear in x with slopes s = (0, k1, k2, k1 + k2), so u is 12
    times the variance of s under the softmax weights of the exponents,
    which log-sum-exp keeps finite for any t and x.  With c2 = 0 this is the
    single soliton.  Every KdV run starts from it.  It keeps the name of the
    sum of single solitons it replaced because ``bench/test_checks.py``
    imports that name; a change to the benchmark may rename it.
    """
    if c1 < 0.0 or c2 < 0.0:
        raise ValueError("soliton speeds must be nonnegative")
    x = np.asarray(x, dtype=float)
    k1, k2 = math.sqrt(c1), math.sqrt(c2)
    eta1 = k1 * (x + a1 - c1 * t)
    eta2 = k2 * (x + a2 - c2 * t)
    if k1 != k2:
        log_a = 2.0 * math.log(abs(k1 - k2) / (k1 + k2))
        if a2 < a1:
            eta2 = eta2 - log_a
        else:
            eta1 = eta1 - log_a
        cross = eta1 + eta2 + log_a
    else:  # A = 0: F = 1 + e^eta1 + e^eta2 is one soliton, or none if k1 = 0
        cross = np.full_like(x, -np.inf)
    e = np.stack([np.zeros_like(x), eta1, eta2, cross])
    w = np.exp(e - e.max(axis=0))
    w /= w.sum(axis=0)
    s = np.array([0.0, k1, k2, k1 + k2]).reshape((4,) + (1,) * x.ndim)
    mean = (w * s).sum(axis=0)
    return 12.0 * (w * (s - mean) ** 2).sum(axis=0)


def exact_burgers(t, x, nu: float, c: float = 0.25):
    """Viscous shock -sinh(x/2nu) / (cosh(x/2nu) + exp(-(c+t)/4nu)).

    Evaluated with a common rescaling of numerator and denominator so large
    exponents never overflow (the small-nu regime).
    """
    if not nu > 0.0:
        raise ValueError("viscosity must be positive")
    x = np.asarray(x, dtype=float)
    y = x / (2.0 * nu)
    e = -(c + t) / (4.0 * nu) + math.log(2.0)
    m = np.maximum(np.abs(y), e)
    with np.errstate(over="ignore"):
        num = np.exp(y - m) - np.exp(-y - m)
        den = np.exp(y - m) + np.exp(-y - m) + np.exp(e - m)
    return -num / den


def total_variation(u) -> float:
    """Sum of absolute increments; non-growth signals no spurious wiggles."""
    u = np.asarray(u, dtype=float)
    return float(np.abs(u[1:] - u[:-1]).sum())


def schwarzian_rhs(source: Callable[[float], float]):
    """First-order system for the Schwarzian ODE: y = (u, u', u'')."""

    def f(x, y):
        u, p, q = y.tolist()
        return np.array([p, q, (source(x) * p**2 + 1.5 * q**2) / p])

    return f


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_CONFIG_KEYS: dict[str, tuple[type, object]] = {
    # key: (type, default); None default means required when relevant
    "equation": (str, None),
    "scheme": (str, None),
    "domain_a": (float, None),
    "domain_b": (float, None),
    "n_points": (int, None),
    "t_final": (float, 0.0),
    "dt_constant": (float, None),
    "mesh": (str, "lagrangian"),
    "alpha": (float, -1.0),
    "nu": (float, 0.0),
    "ic_c1": (float, 1.0),
    "ic_c2": (float, 0.5),
    "ic_a1": (float, 20.0),
    "ic_a2": (float, 5.0),
    "ic_c": (float, 0.25),
    "source_f": (float, 2.0),
    "snapshots_path": (str, ""),
    "diagnostics_path": (str, ""),
}

_SCHEMES_BY_EQUATION = {
    "schwarzian": {"schwarzian_invariant"},
    "kdv": {"kdv_6pt", "kdv_10pt", "kdv_naive"},
    "burgers": {"burgers_fv"},
}

_DT_DEFAULT = {"kdv": 0.5, "burgers": 0.4}

# the tangling floor of a moving mesh, as a fraction of the initial spacing
_SPACING_FLOOR_REL = 1e-3
# a time loop snapshots every ceil(steps / _SNAPSHOTS) steps and at the end
_SNAPSHOTS = 200


@dataclass(frozen=True)
class ExperimentConfig:
    values: dict

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError as exc:
            raise AttributeError(key) from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat ``key = value`` text; unknown keys are errors."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        typ, _default = _CONFIG_KEYS[key]
        try:
            values[key] = typ(val) if typ is not str else val
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {val!r}") from exc
    return validate_config(values)


def validate_config(values: dict) -> ExperimentConfig:
    cfg = dict(values)
    unknown = cfg.keys() - _CONFIG_KEYS.keys()
    if unknown:
        raise ConfigError(f"unknown key {min(unknown)!r}")
    for key, (_typ, default) in _CONFIG_KEYS.items():
        cfg.setdefault(key, default)
    for key in ("equation", "scheme", "domain_a", "domain_b", "n_points"):
        if cfg[key] is None:
            raise ConfigError(f"missing required key {key!r}")
    for key, (typ, _default) in _CONFIG_KEYS.items():
        if typ is float and cfg[key] is not None and not math.isfinite(cfg[key]):
            raise ConfigError(f"{key} must be finite, got {cfg[key]!r}")
    eq = cfg["equation"]
    if eq not in _SCHEMES_BY_EQUATION:
        raise ConfigError(f"unknown equation {eq!r}")
    if cfg["scheme"] not in _SCHEMES_BY_EQUATION[eq]:
        raise ConfigError(f"scheme {cfg['scheme']!r} does not solve {eq!r}")
    if cfg["n_points"] < 8:
        raise ConfigError("n_points must be at least 8")
    if not cfg["domain_a"] < cfg["domain_b"]:
        raise ConfigError("domain_a must be below domain_b")
    if eq in ("kdv", "burgers"):
        if not cfg["t_final"] > 0.0:
            raise ConfigError(f"{eq} runs need t_final > 0")
        if cfg["dt_constant"] is None:
            cfg["dt_constant"] = _DT_DEFAULT[eq]
        if not cfg["dt_constant"] > 0.0:
            raise ConfigError("dt_constant must be positive")
    if eq == "kdv":
        if cfg["mesh"] not in ("lagrangian", "adaptive", "projection"):
            raise ConfigError(f"unknown mesh strategy {cfg['mesh']!r}")
        if cfg["mesh"] == "adaptive" and cfg["alpha"] < 0.0:
            raise ConfigError("adaptive strategy needs alpha >= 0")
    if eq == "burgers":
        if not cfg["nu"] > 0.0:
            raise ConfigError("burgers runs start from the viscous shock, which needs nu > 0")
        if cfg["alpha"] < 0.0:
            raise ConfigError("burgers_fv needs alpha >= 0")
    return ExperimentConfig(cfg)


# ---------------------------------------------------------------------------
# run output
# ---------------------------------------------------------------------------

@dataclass
class DiagnosticsRow:
    step: int
    t: float
    min_spacing: float
    tv: float
    residual_inf: float
    newton_iters: int
    status: str


@dataclass
class RunOutput:
    snapshots: list[tuple[float, np.ndarray, np.ndarray]]
    diagnostics: list[DiagnosticsRow]
    status: str
    config: ExperimentConfig
    message: str = ""  # why a run stopped; empty when it completed


def format_snapshots_csv(out: RunOutput) -> str:
    lines = ["t,x,u"]
    for t, x, u in out.snapshots:
        prefix = f"{t:.17g},"
        lines.extend([prefix + "%.17g,%.17g" % xu for xu in zip(x.tolist(), u.tolist())])
    return "\n".join(lines) + "\n"


def format_diagnostics_csv(out: RunOutput) -> str:
    lines = ["step,t,min_spacing,tv,residual_inf,newton_iters,status"]
    lines.extend([
        "%s,%.17g,%.17g,%.17g,%.17g,%s,%s"
        % (r.step, r.t, r.min_spacing, r.tv, r.residual_inf, r.newton_iters, r.status)
        for r in out.diagnostics
    ])
    return "\n".join(lines) + "\n"


def write_outputs(out: RunOutput) -> None:
    """Write the configured CSVs, each as a new file.

    An existing regular file at an output path is unlinked before it is
    opened: on ext4 (``auto_da_alloc``), truncating a file whose last
    contents are still being written back blocks until that writeback
    ends, while creating a new file does not.  The new file's mode comes
    from the umask; other hard links keep the old contents.  A symlink or
    a non-regular path (``/dev/stdout``, a FIFO) is written through, and
    so is a file whose directory forbids the unlink.
    """
    cfg = out.config
    for path, fmt in ((cfg.snapshots_path, format_snapshots_csv),
                      (cfg.diagnostics_path, format_diagnostics_csv)):
        if not path:
            continue
        try:
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.unlink(path)
        except (FileNotFoundError, PermissionError):
            pass  # nothing to replace, or write through; open reports a real fault
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(fmt(out))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig) -> RunOutput:
    """Time loop (or space march) with snapshot and diagnostics recording.

    Every KdV and Burgers run goes through one time loop, which stops on
    mesh tangling (``mesh_tangling``), a singular step
    (``scheme_singularity``), any other numerical failure of the step
    (``numerical_failure``) or once u holds NaN or inf (``nonfinite``); the
    Schwarzian march stops with ``numerical_failure`` at a seed node on a
    pole and with ``scheme_singularity`` at a node whose step or
    diagnostics raise.  The status of the run is recorded and the partial
    output preserved.
    """
    if cfg.equation == "schwarzian":
        return _run_schwarzian(cfg)
    if cfg.equation in ("kdv", "burgers"):
        return _run_pde(cfg)
    raise ConfigError(f"unknown equation {cfg.equation!r}")


def _run_schwarzian(cfg: ExperimentConfig) -> RunOutput:
    """The invariant recurrence from three samples of tan x.

    A seed node on a pole of tan x stops the run with status
    ``numerical_failure``, and a node whose step or diagnostics raise stops
    it with ``scheme_singularity``; the output keeps the nodes before it.
    """
    x = np.linspace(cfg.domain_a, cfg.domain_b, cfg.n_points)
    u = np.empty(cfg.n_points)
    for j, v in enumerate(x[:3]):
        try:
            u[j] = exact_schwarzian(v)
        except SymfdError as exc:
            return RunOutput([(0.0, x[:j], u[:j])], [], "numerical_failure", cfg,
                             f"seed node {j}: {type(exc).__name__}: {exc}")
    diags: list[DiagnosticsRow] = []
    status, message = "completed", ""
    stop = _schwarzian_march(x, u, lambda _x: cfg.source_f, diags)
    if stop is not None:
        i, exc = stop
        status, message = "scheme_singularity", _stop_message(i, exc)
        x, u = x[: i + 2], u[: i + 2]
    return RunOutput([(0.0, x, u)], diags, status, cfg, message)


def _schwarzian_march(x: np.ndarray, u: np.ndarray, source: Callable[[float], float],
                      diags: list[DiagnosticsRow] | None = None
                      ) -> tuple[int, SymfdError] | None:
    """Fill u[3:] by the invariant recurrence from the seed u[:3].

    Node i = 1 .. n-3 sets u[i+2] = schwarzian_step(u[i-1], u[i], u[i+1],
    h, F(x_i)) on the uniform mesh x; with ``diags`` it also appends the
    node's row (pole flag, total variation so far as a running sum,
    |invariant residual|).  Returns None once every node is filled, else
    (i, exc) for the first node whose step or row raised the SymfdError exc.
    """
    h = float(x[1] - x[0])
    tv = total_variation(u[:3])
    for i in range(1, x.size - 2):
        try:
            f_i = source(float(x[i]))
            u[i + 2] = schemes.schwarzian_step(u[i - 1], u[i], u[i + 1], h, f_i)
            if diags is not None:
                flag = schemes.schwarzian_step_through_pole(u[i + 1], u[i + 2])
                res = schemes.schwarzian_invariant_residual(
                    u[i - 1], u[i], u[i + 1], u[i + 2], h, f_i)
                tv += float(abs(u[i + 2] - u[i + 1]))
                diags.append(DiagnosticsRow(i, float(x[i]), h, tv,
                                            abs(res), 0, "pole" if flag else "ok"))
        except SymfdError as exc:
            return i, exc
    return None


def _exact_pde(cfg: ExperimentConfig, t: float, x):
    """The exact solution a KdV or Burgers run starts from, at time t."""
    if cfg.equation == "burgers":
        return exact_burgers(t, x, cfg.nu, cfg.ic_c)
    return exact_kdv_double_soliton(t, x, cfg.ic_c1, cfg.ic_c2, cfg.ic_a1, cfg.ic_a2)


def _run_pde(cfg: ExperimentConfig) -> RunOutput:
    """The KdV and Burgers time loop: step, check, record, snapshot.

    k = t_final / steps with k ~ dt_constant h^3 (KdV) or h^2 (Burgers).
    Snapshots are taken every ceil(steps / 200) steps, about 200 over the
    run, and at the final step.  A run that stops early ends with a
    row carrying its status, the minimum spacing of the state it stopped on
    and a NaN residual, plus a snapshot of that state.
    """
    n, a, b = cfg.n_points, cfg.domain_a, cfg.domain_b
    naive = cfg.scheme == "kdv_naive"
    if naive:
        x = np.linspace(a, b, n, endpoint=False)
        h = float((b - a) / n)
    else:
        x = np.linspace(a, b, n)
        h = float(x[1] - x[0])
    k_raw = cfg.dt_constant * h ** (3 if cfg.equation == "kdv" else 2)
    steps = max(1, round(cfg.t_final / k_raw))
    k = cfg.t_final / steps
    floor = _SPACING_FLOOR_REL * h

    if cfg.equation == "burgers":
        step = lambda s: schemes.burgers_fv_step_detailed(
            s, k, cfg.nu, cfg.alpha, spacing_floor=floor)
    elif naive:
        step = lambda s: (schemes.naive_kdv_step(s, k, h), StepInfo(0, 0.0, h))
    else:
        scheme = "6pt" if cfg.scheme == "kdv_6pt" else "10pt"
        monitor = MonitorParams(cfg.alpha) if cfg.mesh == "adaptive" else None
        step = lambda s: schemes.kdv_step_detailed(
            s, k, cfg.mesh, scheme, monitor=monitor, spacing_floor=floor)

    state = GridState(0.0, x, _exact_pde(cfg, 0.0, x))
    every = max(1, math.ceil(steps / _SNAPSHOTS))
    snaps = [(0.0, state.x.copy(), state.u.copy())]
    diags: list[DiagnosticsRow] = []
    status, message = "completed", ""
    for i in range(1, steps + 1):
        try:
            state, info = step(state)
        except MeshTangling as exc:
            status, message = "mesh_tangling", _stop_message(i, exc)
        except SchemeSingularity as exc:
            status, message = "scheme_singularity", _stop_message(i, exc)
        except SymfdError as exc:
            status, message = "numerical_failure", _stop_message(i, exc)
        else:
            tv = total_variation(state.u)
            # finite u can overflow to a non-finite tv, never the reverse
            if not math.isfinite(tv) and not np.isfinite(state.u).all():
                status = "nonfinite"
                bad = np.flatnonzero(~np.isfinite(state.u))
                message = (f"step {i}: u is not finite at node {bad[0]} "
                           f"({bad.size} of {state.u.size} nodes)")
        if status != "completed":
            min_spacing = float((state.x[1:] - state.x[:-1]).min())
            diags.append(DiagnosticsRow(i, state.t, min_spacing, total_variation(state.u),
                                        math.nan, 0, status))
            snaps.append((state.t, state.x.copy(), state.u.copy()))
            break
        diags.append(
            DiagnosticsRow(i, state.t, info.min_spacing, tv, info.residual_inf, info.newton_iters,
                           "ok" if info.equi_residual <= 1e-10 else "equi_loose")
        )
        if i % every == 0 or i == steps:
            snaps.append((state.t, state.x.copy(), state.u.copy()))
    return RunOutput(snaps, diags, status, cfg, message)


def _stop_message(step: int, exc: SymfdError) -> str:
    return f"step {step}: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# invariance audits
# ---------------------------------------------------------------------------

@dataclass
class AuditReport:
    """Strong (residual-level) and weak (step-level) invariance deviations."""

    scheme: str
    tol: float
    n_elements: int
    n_configs: int
    strong_max: float
    weak_max: float
    per_direction: dict[str, float]
    resampled: int
    passed: bool
    expected_to_fail: bool = False
    formula_match_error: float = math.nan

    def lines(self) -> list[str]:
        out = [f"audit {self.scheme}: tol {self.tol:g}, "
               f"{self.n_elements} elements x {self.n_configs} configs, "
               f"resampled {self.resampled}"]
        for name, dev in sorted(self.per_direction.items()):
            out.append(f"  direction {name:<10} max deviation {dev:.3e}")
        out.append(f"  strong {self.strong_max:.3e}  weak {self.weak_max:.3e}")
        if self.expected_to_fail:
            out.append(f"  boost-defect formula match error "
                       f"{self.formula_match_error:.3e}")
        out.append(f"  verdict: {'PASS' if self.passed else 'FAIL'}")
        return out


def _rel_dev(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max |a - b| / max(1, max |a|, max |b|) along the last axis.

    NaN propagates, so a non-finite comparison never reads as agreement.
    """
    scale = np.maximum(np.maximum(np.abs(a).max(axis=-1), np.abs(b).max(axis=-1)), 1.0)
    return np.abs(a - b).max(axis=-1) / scale


def _draw_sl2(rng: DeterministicRng, direction: str) -> SL2Element:
    if direction == "shift_u":
        return SL2Element(1.0, rng.uniform(-1.0, 1.0), 0.0, 1.0)
    if direction == "dilate_u":
        s = math.exp(rng.uniform(-0.6, 0.6))
        return SL2Element(s, 0.0, 0.0, 1.0 / s)
    if direction == "special_u":
        return SL2Element(1.0, 0.0, rng.uniform(-0.6, 0.6), 1.0)
    g = _draw_sl2(rng, "shift_u")
    g = g.compose(_draw_sl2(rng, "dilate_u"))
    return g.compose(_draw_sl2(rng, "special_u"))


def _draw_kdv(rng: DeterministicRng, direction: str) -> KdVGroupElement:
    if direction == "shift_x":
        return KdVGroupElement(1.0, 0.0, rng.uniform(-1.0, 1.0), 0.0)
    if direction == "shift_t":
        return KdVGroupElement(1.0, 0.0, 0.0, rng.uniform(-1.0, 1.0))
    if direction == "boost":
        return KdVGroupElement(1.0, rng.uniform(-1.0, 1.0), 0.0, 0.0)
    if direction == "scale":
        return KdVGroupElement(math.exp(rng.uniform(-0.6, 0.6)), 0.0, 0.0, 0.0)
    return KdVGroupElement(
        math.exp(rng.uniform(-0.6, 0.6)),
        rng.uniform(-1.0, 1.0),
        rng.uniform(-1.0, 1.0),
        rng.uniform(-1.0, 1.0),
    )


def _draw_burgers(rng: DeterministicRng, direction: str) -> BurgersGroupElement:
    if direction == "shift_x":
        return BurgersGroupElement(eps1=rng.uniform(-1.0, 1.0))
    if direction == "shift_t":
        return BurgersGroupElement(eps2=rng.uniform(-1.0, 1.0))
    if direction == "boost":
        return BurgersGroupElement(eps3=rng.uniform(-1.0, 1.0))
    if direction == "scale":
        return BurgersGroupElement(eps4=rng.uniform(-0.6, 0.6))
    return BurgersGroupElement(
        rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
        rng.uniform(-1.0, 1.0), rng.uniform(-0.6, 0.6),
    )


def _draw_affine5(rng: DeterministicRng, direction: str):
    """(lam, alpha, a, b, beta) for X = lam x + a, U = alpha u + beta x + b."""
    lam = alpha = 1.0
    a = b = beta = 0.0
    if direction in ("shift_x", "mixed"):
        a = rng.uniform(-1.0, 1.0)
    if direction in ("shift_u", "mixed"):
        b = rng.uniform(-1.0, 1.0)
    if direction in ("scale_x", "mixed"):
        lam = math.exp(rng.uniform(-0.7, 0.7))
    if direction in ("shear", "mixed"):
        beta = rng.uniform(-1.0, 1.0)
    if direction in ("scale_u", "mixed"):
        alpha = math.exp(rng.uniform(-0.7, 0.7))
    return (lam, alpha, a, b, beta)


def _random_mesh(rng: DeterministicRng, n: int, start_lo=-1.0) -> np.ndarray:
    x = [rng.uniform(start_lo, start_lo + 2.0)]
    for _ in range(n - 1):
        x.append(x[-1] + rng.uniform(0.1, 2.0))
    return np.array(x)


def _random_u(rng: DeterministicRng, n: int) -> np.ndarray:
    return np.array([rng.uniform(-2.0, 2.0) for _ in range(n)])


def _stack(states: list[GridState]) -> tuple[np.ndarray, np.ndarray]:
    return np.array([st.x for st in states]), np.array([st.u for st in states])


# Each audit draws its configurations (``draw_config``), computes their
# config-only terms once (``prepare``, raising ConfigError when a
# configuration's own step fails), draws the element of a trial on config c
# (``draw_element``, raising _Resample for a draw it rejects from the
# element and config alone; only these redraws count as resampled) and
# evaluates a row of trials, trial c on config c, as one batch
# (``deviations``, returning the strong and weak deviations).  In the KdV
# and Burgers audits a step of the transformed configurations that fails is
# an infinite weak deviation of every trial in the batch (``_weak_dev``),
# which fails the audit.


def _config_step(step):
    """The configurations' own step; ConfigError when it fails."""
    try:
        return step()
    except SymfdError as exc:
        # no element can repair a config whose own step fails
        raise ConfigError(f"an audit configuration's own step fails: {exc}") from None


def _weak_dev(step, ix, iu) -> np.ndarray:
    """Deviation of the stepped configurations' images (ix, iu) from
    ``step()``, the step of the transformed configurations; infinite for
    every trial when that step fails."""
    try:
        gstepped = step()
    except SymfdError:
        return np.full(len(ix), math.inf)
    return np.maximum(_rel_dev(ix, gstepped.x), _rel_dev(iu, gstepped.u))


class _SchwarzianAudit:
    directions = ("shift_u", "dilate_u", "special_u", "mixed")

    def __init__(self, invariantized: bool):
        self.residual = (schemes.schwarzian_invariantized_residual if invariantized
                         else schemes.schwarzian_invariant_residual)
        self.step = (schemes.schwarzian_invariantized_step if invariantized
                     else schemes.schwarzian_step)

    def draw_config(self, rng: DeterministicRng):
        while True:
            u = [rng.uniform(-2.0, 2.0)]
            for _ in range(3):
                u.append(u[-1] + rng.choice_sign() * rng.uniform(0.1, 2.0))
            if abs(u[2] - u[0]) < 0.05 or abs(u[3] - u[1]) < 0.05:
                continue
            h = rng.uniform(0.05, 1.0)
            f = rng.uniform(-1.0, 1.0)
            return (tuple(u), h, f)

    def prepare(self, configs):
        self.configs = configs
        self.base = np.array([self.residual(*u, h, f) for u, h, f in configs])[:, None]
        self.w = [self.step(*u[:3], h, f) for u, h, f in configs]

    def draw_element(self, rng, direction, c):
        g = _draw_sl2(rng, direction)
        u = self.configs[c][0]
        # resample elements with a pole near the stencil or the stepped
        # value, or that collapse the stencil
        if any(abs(g.c * v + g.d) < 0.2 for v in u):
            raise _Resample
        gu = [apply_sl2(g, v) for v in u]
        if (min(abs(gu[m + 1] - gu[m]) for m in range(3)) < 1e-3
                or abs(gu[2] - gu[0]) < 1e-3 or abs(gu[3] - gu[1]) < 1e-3
                or abs(g.c * self.w[c] + g.d) < 0.2):
            raise _Resample
        return g, gu

    def deviations(self, trials):
        img, iw, gw = [], [], []
        for (g, gu), (_u, h, f), w in zip(trials, self.configs, self.w):
            img.append(self.residual(*gu, h, f))
            iw.append(apply_sl2(g, w))
            gw.append(self.step(*gu[:3], h, f))
        return (_rel_dev(self.base, np.array(img)[:, None]),
                _rel_dev(np.array(iw)[:, None], np.array(gw)[:, None]))


class _KdVAudit:
    directions = ("shift_x", "shift_t", "boost", "scale", "mixed")

    def __init__(self, scheme: str):
        self.scheme = scheme
        self.residual = (schemes.kdv_residual_6pt if scheme == "6pt"
                         else schemes.kdv_residual_10pt)

    def draw_config(self, rng: DeterministicRng):
        n = 9
        prev = GridState(0.0, _random_mesh(rng, n), _random_u(rng, n))
        # keep the Lagrangian mesh of the weak audit untangled: the safe k
        # bound scales exactly like the group action, so it holds on both
        # sides of the commutation check
        slack = float(np.min(np.diff(prev.x) / np.maximum(np.abs(np.diff(prev.u)), 1e-9)))
        k = min(rng.uniform(0.1, 0.5), 0.4 * slack)
        nxt = GridState(k, _random_mesh(rng, n), _random_u(rng, n))
        return (prev, nxt, k)

    def prepare(self, configs):
        self.x0, self.u0 = _stack([c[0] for c in configs])
        self.x1, self.u1 = _stack([c[1] for c in configs])
        self.k = np.array([[c[2]] for c in configs])
        prev = GridState(0.0, self.x0, self.u0)
        self.base = (self.residual(prev, GridState(self.k, self.x1, self.u1), self.k)
                     * schemes.kdv_invariant_normalizer(prev, self.k))
        self.stepped = _config_step(
            lambda: schemes.kdv_step(prev, self.k, "lagrangian", self.scheme))

    def draw_element(self, rng, direction, c):
        return _draw_kdv(rng, direction)

    def deviations(self, gs):
        f = _batch_factors(_kdv_factors, gs)
        k, st = self.k, self.stepped
        gp = GridState(*_kdv_image(f, 0.0, self.x0, self.u0))
        gn = GridState(*_kdv_image(f, k, self.x1, self.u1))
        gk = gn.t - gp.t
        img = self.residual(gp, gn, gk) * schemes.kdv_invariant_normalizer(gp, gk)
        _t, ix, iu = _kdv_image(f, st.t, st.x, st.u)
        return _rel_dev(self.base, img), _weak_dev(
            lambda: schemes.kdv_step(gp, f[2] * k, "lagrangian", self.scheme), ix, iu)


class _BurgersAudit:
    directions = ("shift_x", "shift_t", "boost", "scale", "mixed")

    def draw_config(self, rng: DeterministicRng):
        n = 8
        while True:
            k = rng.uniform(0.1, 0.5)
            nu = rng.uniform(0.0, 0.5)
            prev = GridState(0.0, _random_mesh(rng, n), _random_u(rng, n))
            nxt = GridState(k, _random_mesh(rng, n), _random_u(rng, n))
            alpha = rng.uniform(0.0, 2.0)
            # keep the upwind branches away from the knife edge: the selector
            # sign is exactly preserved by the group action, so a margin on
            # the base configuration protects both sides of the comparison
            speed = prev.u[1:-1] - (nxt.x - prev.x)[1:-1] / k
            if np.min(np.abs(speed)) < 1e-3:
                continue
            if np.min(np.abs(np.diff(prev.u))) < 1e-6:
                continue
            return (prev, nxt, k, nu, alpha)

    def prepare(self, configs):
        self.x0, self.u0 = _stack([c[0] for c in configs])
        self.x1, self.u1 = _stack([c[1] for c in configs])
        self.k, self.nu, self.alpha = np.array([c[2:] for c in configs]).T[..., None]
        prev = GridState(0.0, self.x0, self.u0)
        self.base = schemes.burgers_fv_residual(
            prev, GridState(self.k, self.x1, self.u1), self.k, self.nu)
        self.stepped = _config_step(
            lambda: schemes.burgers_fv_step(prev, self.k, self.nu, self.alpha))

    def draw_element(self, rng, direction, c):
        return _draw_burgers(rng, direction)

    def deviations(self, gs):
        f = _batch_factors(_burgers_factors, gs)
        s, s2, _e1, _e2, e3 = f
        k, nu, st = self.k, self.nu, self.stepped
        gp = GridState(*_burgers_image(f, 0.0, self.x0, self.u0))
        gn = GridState(*_burgers_image(f, k, self.x1, self.u1))
        img = schemes.burgers_fv_residual(gp, gn, gn.t - gp.t, nu)
        _t, ix, iu = _burgers_image(f, st.t, st.x, st.u)
        return _rel_dev(self.base, img), _weak_dev(
            lambda: schemes.burgers_fv_step(gp, s2 * k, nu, self.alpha, drift=e3 / s), ix, iu)


class _UxxAudit:
    directions = ("shift_x", "shift_u", "scale_x", "shear", "scale_u", "mixed")

    def draw_config(self, rng: DeterministicRng):
        x = _random_mesh(rng, 3)
        u_im1 = rng.uniform(-2.0, 2.0)
        u_i = u_im1 + rng.choice_sign() * rng.uniform(0.1, 2.0)
        f = (x[2] - x[1]) / (x[1] - x[0])
        # put the third value on the straight-line locus W = 0
        u_ip1 = u_i + f * (u_i - u_im1)
        return (x, np.array([u_im1, u_i, u_ip1]), f)

    def prepare(self, configs):
        self.configs = configs
        self.stepped = [schemes.uxx_step(x[0], x[1], u[0], u[1], f) for x, u, f in configs]

    def draw_element(self, rng, direction, c):
        return _draw_affine5(rng, direction)

    @staticmethod
    def _apply(g, x, u):
        lam, alpha, a, b, beta = g
        return lam * x + a, alpha * u + beta * x + b

    def deviations(self, gs):
        strong, img, gstepped = [], [], []
        for g, (x, u, f), stepped in zip(gs, self.configs, self.stepped):
            gx, gu = self._apply(g, x, u)
            w = schemes.uxx_w_residual(gx[0], gx[1], gx[2], gu[0], gu[1], gu[2])
            scale = max(
                1.0,
                abs((gx[1] - gx[0]) * (gu[2] - gu[1])),
                abs((gx[2] - gx[1]) * (gu[1] - gu[0])),
            )
            strong.append(abs(w) / scale)
            img.append(self._apply(g, *stepped))
            gstepped.append(schemes.uxx_step(gx[0], gx[1], gu[0], gu[1], f))
        img, gstepped = np.array(img)[..., None], np.array(gstepped)[..., None]
        return np.array(strong), np.maximum(_rel_dev(img[:, 0], gstepped[:, 0]),
                                            _rel_dev(img[:, 1], gstepped[:, 1]))


class _Resample(Exception):
    pass


_RESAMPLE_LIMIT = 500


def _audit_row(audit, rng: DeterministicRng, direction: str,
               strong: np.ndarray, weak: np.ndarray) -> int:
    """Fill one element row (trial c on config c) and return its resample count.

    Elements are drawn trial by trial, a rejected draw replaced at once
    (ConfigError when ``_RESAMPLE_LIMIT`` redraws of one trial are all rejected),
    and the row is then evaluated as one batch.
    """
    resampled = 0
    trials = []
    for c in range(strong.size):
        for _ in range(_RESAMPLE_LIMIT + 1):
            try:
                trials.append(audit.draw_element(rng, direction, c))
                break
            except _Resample:
                resampled += 1
        else:
            raise ConfigError("audit sampling stuck on degenerate draws")
    strong[:], weak[:] = audit.deviations(trials)
    return resampled


def invariance_audit(scheme: str, n_elements: int = 100, n_configs: int = 20,
                     seed: int = 0, tol: float = 1e-9) -> AuditReport:
    """Randomized residual-level and step-level invariance audit.

    Draws ``n_configs`` admissible configurations and ``n_elements`` group
    elements cycling through the generator directions (plus mixed draws),
    and reports the maximum relative deviation per direction.  Each element
    index pairs one element with every configuration; that row of
    ``n_configs`` trials is evaluated as one batch, and the terms that
    depend on a configuration alone once per audit.  A non-finite
    deviation fails the audit; a failing KdV or Burgers step of the
    transformed configurations is an infinite weak deviation.  The naive
    KdV scheme is audited against the Galilean boost only and is expected
    to fail with the analytic defect v (u_{i+1} - u_{i-1}) / (2h); its
    report checks that formula to 1e-10 and passes when the defect is
    present.
    """
    if n_elements < 1 or n_configs < 1:
        raise ConfigError("an audit needs at least one element and one configuration")
    if scheme not in _AUDITS:
        raise ConfigError(f"unknown audit scheme {scheme!r}; "
                          f"known: {', '.join(AUDIT_SCHEMES)}")
    return _AUDITS[scheme](scheme, n_elements, n_configs, seed, tol)


def _sampled(make):
    """The audit of ``make()``: configurations first, then one batch per element row."""
    def run(scheme, n_elements, n_configs, seed, tol) -> AuditReport:
        audit = make()
        rng = DeterministicRng(seed)
        audit.prepare([audit.draw_config(rng) for _ in range(n_configs)])
        strong = np.empty((n_elements, n_configs))
        weak = np.empty((n_elements, n_configs))
        n_dir = len(audit.directions)
        resampled = sum(_audit_row(audit, rng, audit.directions[e % n_dir], strong[e], weak[e])
                        for e in range(n_elements))
        dev = np.maximum(strong, weak)
        per_direction = {d: float(dev[i::n_dir].max(initial=0.0))
                         for i, d in enumerate(audit.directions)}
        strong_max, weak_max = float(strong.max()), float(weak.max())
        return AuditReport(scheme, tol, n_elements, n_configs, strong_max, weak_max,
                           per_direction, resampled, strong_max <= tol and weak_max <= tol)
    return run


def _naive_galilean_audit(scheme, n_elements, n_configs, seed, tol) -> AuditReport:
    """Each config's ``n_elements`` boosts, drawn after the config, as one batch."""
    rng = DeterministicRng(seed)
    worst_dev = 0.0
    worst_formula = 0.0
    for _ in range(n_configs):
        n = 9
        h = rng.uniform(0.1, 2.0)
        k = rng.uniform(0.01, 0.5)
        u0 = _random_u(rng, n)
        u1 = _random_u(rng, n)
        base = schemes.naive_kdv_residual(u0, u1, k, h)
        v = np.array([[rng.uniform(-1.0, 1.0)] for _ in range(n_elements)])
        img = schemes.naive_kdv_residual(u0 + v, u1 + v, k, h)
        predicted = v * (np.roll(u0, -1) - np.roll(u0, 1)) / (2.0 * h)
        # np.maximum keeps a NaN, which then fails the verdict
        worst_dev = np.maximum(worst_dev, _rel_dev(base, img).max())
        worst_formula = np.maximum(worst_formula, np.abs((img - base) - predicted).max())
    worst_dev, worst_formula = float(worst_dev), float(worst_formula)
    return AuditReport(
        scheme, tol, n_elements, n_configs, worst_dev, 0.0,
        {"boost": worst_dev}, 0, worst_dev > tol and worst_formula <= 1e-10,
        expected_to_fail=True, formula_match_error=worst_formula,
    )


_AUDITS = {
    "schwarzian_invariant": _sampled(lambda: _SchwarzianAudit(False)),
    "schwarzian_invariantized": _sampled(lambda: _SchwarzianAudit(True)),
    "kdv_6pt": _sampled(lambda: _KdVAudit("6pt")),
    "kdv_10pt": _sampled(lambda: _KdVAudit("10pt")),
    "burgers_fv": _sampled(_BurgersAudit),
    "uxx": _sampled(_UxxAudit),
    "kdv_naive": _naive_galilean_audit,
}
AUDIT_SCHEMES = tuple(_AUDITS)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceRow:
    h: float
    error: float
    observed_order: float


def _schwarzian_manufactured(h: float) -> float:
    """Max-norm error on a manufactured variable-source problem over [0, 1].

    With a constant source the leading O(h) term of the invariant scheme
    cancels and tan-seeded runs superconverge at second order; the generic
    first-order behavior shows on u = x + x^3 with its analytic source
    (6 - 36 x^2) / (1 + 3 x^2)^2.
    """
    u_ex = lambda xx: xx + xx**3
    src = lambda xx: (6.0 - 36.0 * xx**2) / (1.0 + 3.0 * xx**2) ** 2
    x = np.arange(round(1.0 / h) + 1) * h
    if x.size < 4:  # three seed nodes and at least one step
        raise ConfigError(f"spacing {h!r} leaves fewer than 4 nodes on [0, 1]")
    u = np.empty(x.size)
    u[:3] = u_ex(x[:3])
    stop = _schwarzian_march(x, u, src)
    if stop is not None:
        raise stop[1]
    return float(np.max(np.abs(u - u_ex(x))))


def _final_error(fields: dict) -> float:
    """Max-norm error of a KdV or Burgers run's final snapshot against the
    exact solution it started from; a run that stops early is a SymfdError."""
    cfg = validate_config(fields)
    out = run_experiment(cfg)
    if out.status != "completed":
        raise SymfdError(f"{out.status}: {out.message}")
    t, x, u = out.snapshots[-1]
    return float(np.max(np.abs(u - _exact_pde(cfg, t, x))))


def _kdv_naive_soliton(h: float) -> float:
    """Max-norm error of the naive scheme on a single soliton on [-20, 20]
    at t = 0.1, with k = 0.05 h^3: the small constant keeps the amplified
    high-wavenumber noise of the explicit update far below truncation."""
    return _final_error({
        "equation": "kdv", "scheme": "kdv_naive",
        "domain_a": -20.0, "domain_b": 20.0, "n_points": round(40.0 / h),
        "t_final": 0.1, "dt_constant": 0.05,
        "ic_c1": 1.0, "ic_c2": 0.0, "ic_a1": 0.0, "ic_a2": 0.0,
    })


def _burgers_viscous_shock(h: float) -> float:
    """Max-norm error of the finite-volume scheme on the viscous shock at
    nu = 0.02 on [-0.5, 0.5] at t = 0.5 (k = 0.4 h^2, alpha = 0.5): the
    shock is wide enough to be resolved, so the smooth-region order shows."""
    return _final_error({
        "equation": "burgers", "scheme": "burgers_fv",
        "domain_a": -0.5, "domain_b": 0.5, "n_points": round(1.0 / h) + 1,
        "t_final": 0.5, "dt_constant": 0.4, "nu": 0.02, "alpha": 0.5,
    })


# scheme -> max-norm error at spacing h
_CONVERGENCE: dict[str, Callable[[float], float]] = {
    "schwarzian_invariant": _schwarzian_manufactured,
    "kdv_naive": _kdv_naive_soliton,
    "burgers_fv": _burgers_viscous_shock,
}
CONVERGENCE_SCHEMES = tuple(_CONVERGENCE)


def convergence_study(scheme: str, h_list: Iterable[float]) -> list[ConvergenceRow]:
    """Max-norm error against the exact solution under mesh refinement.

    ``_CONVERGENCE`` maps each scheme to its error at spacing h.  An
    unknown scheme or a spacing that is not positive and finite is a
    ConfigError, raised before any level runs.
    """
    if scheme not in _CONVERGENCE:
        raise ConfigError(f"no convergence driver for scheme {scheme!r}; "
                          f"known: {', '.join(CONVERGENCE_SCHEMES)}")
    hs = list(h_list)
    for h in hs:
        if not (h > 0.0 and math.isfinite(h)):
            raise ConfigError(f"mesh spacing must be positive and finite, got {h!r}")
    errors = [_CONVERGENCE[scheme](h) for h in hs]
    rows = []
    for m, (h, err) in enumerate(zip(hs, errors)):
        order = math.nan
        if m > 0 and err > 0 and errors[m - 1] > 0 and h != hs[m - 1]:
            order = math.log2(errors[m - 1] / err) / math.log2(hs[m - 1] / h)
        rows.append(ConvergenceRow(h, err, order))
    return rows


def format_convergence_csv(rows: list[ConvergenceRow]) -> str:
    lines = ["h,error,observed_order"]
    for r in rows:
        lines.append(f"{r.h:.17g},{r.error:.17g},{r.observed_order:.17g}")
    return "\n".join(lines) + "\n"
