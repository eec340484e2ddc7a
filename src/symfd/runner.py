"""Experiment driver: exact solutions, runs, audits, convergence studies.

This is the CLI surface.  Configurations are flat ``key = value`` text files
(UTF-8, ``#`` comments, unknown keys rejected); snapshot output is long-form
CSV ``t,x,u`` and diagnostics are one CSV row per step.  An identical
configuration produces byte-identical output.

The Schwarzian run marches in space.  Every KdV and Burgers run
(Lagrangian, adaptive and projected meshes, the naive baseline, the
Burgers shock) takes the step state -> (GridState, StepInfo) that
``_STEPS`` builds for it, a table keyed by the runnable (equation, scheme,
mesh) that validation accepts, in one time loop that owns the guards, the
diagnostics, the snapshot cadence and the stop statuses.  Both kinds of
run append their per-step diagnostics to one ``diagnostics.Diagnostics``
store, which holds them as columns and builds a row only when one is read.
"""

from __future__ import annotations

import math
import os
import stat
from collections.abc import Sequence
from dataclasses import MISSING, asdict, dataclass, fields
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Iterator, get_args, get_type_hints

import numpy as np

from . import schemes
from .diagnostics import _CSV_HEADER, _CSV_ROW, _ERROR_STATUSES, Diagnostics, DiagnosticsRow
from .errors import (
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

def exact_schwarzian(x: float) -> float:
    """tan x, the Schwarzian solution for constant source 2 that every
    Schwarzian run starts from; a PoleError within 1e-12 of its pole."""
    den = math.cos(x)
    if abs(den) < 1e-12:
        raise PoleError(f"denominator vanishes near x = {x}")
    return math.sin(x) / den


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
    exponents never overflow (the small-nu regime); an exponent
    -(c + t)/(4 nu) past the largest float, where u -> 0, is capped there.
    """
    if not nu > 0.0:
        raise ValueError("viscosity must be positive")
    x = np.asarray(x, dtype=float)
    y = x / (2.0 * nu)
    e = np.minimum(-(c + t) / (4.0 * nu), np.finfo(float).max) + math.log(2.0)
    m = np.maximum(np.abs(y), e)
    with np.errstate(over="ignore"):
        num = np.exp(y - m) - np.exp(-y - m)
        den = np.exp(y - m) + np.exp(-y - m) + np.exp(e - m)
    return -num / den


def total_variation(du) -> float:
    """Sum of the absolute increments du of a profile (u differenced, as
    ``GridState.du`` carries it); non-growth signals no spurious wiggles."""
    return float(np.abs(du).sum())


def schwarzian_rhs(source: Callable[[float], float]):
    """First-order system for the Schwarzian ODE: y = (u, u', u'')."""

    def f(x, y):
        u, p, q = y.tolist()
        return np.array([p, q, (source(x) * p**2 + 1.5 * q**2) / p])

    return f


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _kdv_step(scheme: str, mesh: str, cfg: ExperimentConfig, k: float, h: float, floor: float):
    step = schemes.kdv_step_detailed
    monitor = MonitorParams(cfg.alpha) if mesh == "adaptive" else None
    return lambda s: step(s, k, mesh, scheme, monitor=monitor, spacing_floor=floor)


def _naive_step(cfg: ExperimentConfig, k: float, h: float, floor: float):
    step, info = schemes.naive_kdv_step, StepInfo(0, 0.0, h)
    return lambda s: (step(s, k, h), info)


def _burgers_step(cfg: ExperimentConfig, k: float, h: float, floor: float):
    step, nu, alpha = schemes.burgers_fv_step_detailed, cfg.nu, cfg.alpha
    return lambda s: step(s, k, nu, alpha, spacing_floor=floor)


# Every runnable (equation, scheme, mesh), with the builder of its run's step
# state -> (GridState, StepInfo) from (cfg, k, h, spacing floor), which looks
# the scheme up in ``schemes`` as the run starts.  A mesh of None is a run
# whose step reads no mesh, though its config's mesh must still be one of
# the others; the Schwarzian run marches in space, with no step.
_STEPS = {
    ("schwarzian", "schwarzian_invariant", None): None,
    **{("kdv", f"kdv_{kind}", mesh): (_naive_step if kind == "naive"
                                       else partial(_kdv_step, kind, mesh))
       for kind in ("6pt", "10pt", "naive") for mesh in ("lagrangian", "adaptive", "projection")},
    ("burgers", "burgers_fv", None): _burgers_step,
}


def _step_key(cfg: ExperimentConfig) -> tuple[str, str, str | None]:
    """cfg's key in ``_STEPS``: with its mesh, or None for a run that reads none."""
    key = (cfg.equation, cfg.scheme, cfg.mesh)
    return key if key in _STEPS else key[:2] + (None,)


# the tangling floor of a moving mesh, as a fraction of the initial spacing
_SPACING_FLOOR_REL = 1e-3
# a time loop snapshots every ceil(steps / _SNAPSHOTS) steps and at the end
_SNAPSHOTS = 200
_MAX_NODES = np.iinfo(np.intp).max // 8  # the most float64 values a numpy array holds


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """A run's config, validated as it is built: one field per key, required
    when it has no default, read by the parser as its annotated type.  A KdV
    or Burgers run's ``dt_constant`` defaults by equation; ``alpha = -1`` and
    ``nu = t_final = 0`` stand for a key left out where a run needs it."""

    equation: str
    scheme: str
    domain_a: float
    domain_b: float
    n_points: int
    t_final: float = 0.0
    dt_constant: float | None = None
    mesh: str = "lagrangian"
    alpha: float = -1.0
    nu: float = 0.0
    ic_c1: float = 1.0
    ic_c2: float = 0.5
    ic_a1: float = 20.0
    ic_a2: float = 5.0
    ic_c: float = 0.25
    source_f: float = 2.0
    snapshots_path: str = ""
    diagnostics_path: str = ""

    def __post_init__(self):
        for key, typ in _TYPES.items():
            val = getattr(self, key)
            if typ is float and val is not None and not math.isfinite(val):
                raise ConfigError(f"{key} must be finite, got {val!r}")
        eq = self.equation
        if eq not in {key[0] for key in _STEPS}:
            raise ConfigError(f"unknown equation {eq!r}")
        if (eq, self.scheme) not in {key[:2] for key in _STEPS}:
            raise ConfigError(f"scheme {self.scheme!r} does not solve {eq!r}")
        if self.n_points < 8:
            raise ConfigError("n_points must be at least 8")
        if self.n_points > _MAX_NODES:
            raise ConfigError(f"n_points must be at most {_MAX_NODES}, got {self.n_points}")
        if not 0.0 < self.domain_b - self.domain_a < math.inf:
            raise ConfigError("domain_a must be below domain_b by a finite width")
        if eq in ("kdv", "burgers"):
            if not self.t_final > 0.0:
                raise ConfigError(f"{eq} runs need t_final > 0")
            if self.dt_constant is None:
                object.__setattr__(self, "dt_constant", 0.5 if eq == "kdv" else 0.4)
            if not self.dt_constant > 0.0:
                raise ConfigError("dt_constant must be positive")
        if eq == "kdv":
            if self.ic_c1 < 0.0 or self.ic_c2 < 0.0:
                raise ConfigError("soliton speeds ic_c1 and ic_c2 must be nonnegative")
            if self.mesh == "adaptive" and self.alpha < 0.0:
                raise ConfigError("adaptive strategy needs alpha >= 0")
        if eq == "burgers":
            if not self.nu > 0.0:
                raise ConfigError("burgers runs start from the viscous shock, which needs nu > 0")
            if math.isinf(max(abs(self.domain_a), abs(self.domain_b)) / (2.0 * self.nu)):
                raise ConfigError(f"nu = {self.nu!r} is too small: x / (2 nu) overflows")
            if self.alpha < 0.0:
                raise ConfigError("burgers_fv needs alpha >= 0")
        if self.mesh not in {key[2] for key in _STEPS} - {None}:  # on every equation
            raise ConfigError(f"unknown mesh strategy {self.mesh!r}")

    @property
    def values(self) -> dict:
        """The fields by key, as ``validate_config`` takes them."""
        return asdict(self)


# each key's type, as the parser reads its values: float for ``float | None``
_TYPES = {key: (get_args(t) or (t,))[0] for key, t in get_type_hints(ExperimentConfig).items()}


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat ``key = value`` text; unknown and repeated keys are errors."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = map(str.strip, line.partition("="))
        if key not in _TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _TYPES[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {val!r}") from exc
    return validate_config(values)


def validate_config(values: dict) -> ExperimentConfig:
    """The config of ``values`` by key; a left-out optional key takes its default."""
    unknown = values.keys() - _TYPES.keys()
    if unknown:
        raise ConfigError(f"unknown key {min(unknown)!r}")
    for field in fields(ExperimentConfig):
        if field.default is MISSING and values.get(field.name) is None:
            raise ConfigError(f"missing required key {field.name!r}")
    return ExperimentConfig(**values)


# ---------------------------------------------------------------------------
# run output
# ---------------------------------------------------------------------------

@dataclass
class RunOutput:
    """What a run produced.  ``diagnostics`` is read only by iteration,
    ``len`` and indexing: a run fills a ``Diagnostics`` store, which builds
    each row as it is read; a plain list of rows reads the same."""

    snapshots: list[tuple[float, np.ndarray, np.ndarray]]
    diagnostics: Sequence[DiagnosticsRow]
    status: str
    config: ExperimentConfig
    message: str = ""  # why a run stopped; empty when it completed


# The CSV formatters yield their text in chunks, which joined give the
# file, so that a writer holds one chunk at a time and not the whole text.
_DIAGNOSTICS_CHUNK = 1000  # rows


def format_snapshots_csv(out: RunOutput) -> Iterator[str]:
    """The snapshots CSV: its header, then one chunk per snapshot."""
    yield "t,x,u\n"
    for t, x, u in out.snapshots:
        prefix = f"{t:.17g},"
        yield "".join([prefix + "%.17g,%.17g\n" % xu for xu in zip(x.tolist(), u.tolist())])


def format_diagnostics_csv(out: RunOutput) -> Iterator[str]:
    """The diagnostics CSV: its header, then chunks of ``_DIAGNOSTICS_CHUNK`` rows."""
    yield _CSV_HEADER
    # rows are read one at a time (a run's store builds each as it is read),
    # and nothing of a chunk is held across its yield
    rows = iter(out.diagnostics)
    for _ in range(0, len(out.diagnostics), _DIAGNOSTICS_CHUNK):
        yield "".join([_CSV_ROW % r for r in islice(rows, _DIAGNOSTICS_CHUNK)])


def write_outputs(out: RunOutput) -> None:
    """Write the configured CSVs, each as a new file, chunk by chunk.

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
            fh.writelines(fmt(out))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig) -> RunOutput:
    """Time loop (or space march) with snapshot and diagnostics recording.

    Every KdV and Burgers run goes through one time loop, and the
    Schwarzian run marches in space.  Both stop at the first step (or
    Schwarzian seed node) that raises, with the status ``_STOPS`` gives its
    error; the time loop also stops once u holds NaN or inf (``nonfinite``).
    The status of the run is recorded and the partial output preserved.
    numpy's floating-point warnings are silenced for the whole run: the
    stop statuses and messages name the cause instead.
    """
    with np.errstate(all="ignore"):
        return (_run_schwarzian if cfg.equation == "schwarzian" else _run_pde)(cfg)


def _run_schwarzian(cfg: ExperimentConfig) -> RunOutput:
    """The invariant recurrence from three samples of tan x.

    A seed node on a pole of tan x (``numerical_failure``), or a node whose
    step raises, stops the run with the status ``_STOPS`` gives its error;
    the output keeps the nodes before it.
    """
    x = _grid(cfg)[0]
    u = np.empty(cfg.n_points)
    for j, v in enumerate(x[:3]):
        try:
            u[j] = exact_schwarzian(v)
        except SymfdError as exc:
            status, message = _stop(f"seed node {j}", exc)
            return RunOutput([(0.0, x[:j], u[:j])], [], status, cfg, message)
    diags = Diagnostics()
    status, message = "completed", ""
    stop = _schwarzian_march(x, u, lambda _x: cfg.source_f, diags)
    if stop is not None:
        i, exc = stop
        status, message = _stop(f"step {i}", exc)
        x, u = x[: i + 2], u[: i + 2]
    return RunOutput([(0.0, x, u)], diags, status, cfg, message)


def _schwarzian_march(x: np.ndarray, u: np.ndarray, source: Callable[[float], float],
                      diags: Diagnostics | None = None
                      ) -> tuple[int, SymfdError] | None:
    """Fill u[3:] by the invariant recurrence from the seed u[:3].

    Node i = 1 .. n-3 sets u[i+2] = schwarzian_step(u[i-1], u[i], u[i+1],
    h, F(x_i)) on the uniform mesh x; with ``diags`` it also appends the
    node's row (pole flag, total variation so far as a running sum, and 0
    for the residual of the closed-form step).  Returns None once every
    node is filled, else (i, exc) for the first node whose step raised exc.
    """
    h = float(x[1] - x[0])
    tv = total_variation(np.diff(u[:3]))
    for i in range(1, x.size - 2):
        try:
            u[i + 2] = schemes.schwarzian_step(u[i - 1], u[i], u[i + 1], h, source(float(x[i])))
        except SymfdError as exc:
            return i, exc
        if diags is not None:
            flag = schemes.schwarzian_step_through_pole(u[i + 1], u[i + 2])
            tv += float(abs(u[i + 2] - u[i + 1]))
            diags.append(i, float(x[i]), h, tv, 0.0, 0, "pole" if flag else "ok")
    return None


def _grid(cfg: ExperimentConfig) -> tuple[np.ndarray, float, int]:
    """A run's initial nodes x and spacing h (``kdv_naive``'s grid is periodic)
    and, for KdV or Burgers, its number of steps of k ~ dt_constant h^3 or h^2;
    a ConfigError when x does not increase strictly, or when a Schwarzian h^2,
    k or that number cannot be represented."""
    n, a, b, periodic = cfg.n_points, cfg.domain_a, cfg.domain_b, cfg.scheme == "kdv_naive"
    x = np.linspace(a, b, n, endpoint=not periodic)
    h = float((b - a) / n) if periodic else float(x[1] - x[0])
    if not (x[1:] > x[:-1]).all():
        raise ConfigError(f"{n} nodes on [{a!r}, {b!r}] do not increase strictly")
    if cfg.equation == "schwarzian":
        if math.isinf(h * h):
            raise ConfigError(f"spacing {h!r} overflows h^2 in the schwarzian step")
        return x, h, 0
    p = 3 if cfg.equation == "kdv" else 2
    try:  # k underflows to 0 or overflows, or t_final / k overflows
        return x, h, max(1, round(cfg.t_final / (cfg.dt_constant * h ** p)))
    except (ZeroDivisionError, OverflowError):
        raise ConfigError(f"dt_constant = {cfg.dt_constant!r} on spacing {h!r} gives no "
                          f"countable steps of k = dt_constant h^{p} in t_final = "
                          f"{cfg.t_final!r}") from None


def _exact(cfg: ExperimentConfig, t: float, x):
    """The exact solution the run of cfg starts from, at time t."""
    if cfg.equation == "schwarzian":
        return np.array([exact_schwarzian(v) for v in x])
    if cfg.equation == "burgers":
        return exact_burgers(t, x, cfg.nu, cfg.ic_c)
    return exact_kdv_double_soliton(t, x, cfg.ic_c1, cfg.ic_c2, cfg.ic_a1, cfg.ic_a2)


def exact_snapshot(cfg: ExperimentConfig, t: float = 0.0) -> RunOutput:
    """The exact solution the run of cfg starts from, at time t on the run's
    initial nodes: at t = 0 the run's first snapshot (the Schwarzian
    march's first three values).  A non-finite t and a Schwarzian source
    other than 2 (tan x solves no other) are ConfigErrors."""
    if not math.isfinite(t):
        raise ConfigError(f"t must be finite, got {t!r}")
    if cfg.equation == "schwarzian" and cfg.source_f != 2.0:
        raise ConfigError(f"tan x solves the schwarzian equation only for source_f = 2, "
                          f"got {cfg.source_f!r}")
    x = _grid(cfg)[0]
    return RunOutput([(t, x, _exact(cfg, t, x))], [], "completed", cfg)


def _run_pde(cfg: ExperimentConfig) -> RunOutput:
    """The KdV and Burgers time loop: step, check, record, snapshot.

    ``_grid`` gives the number of steps, each k = t_final / steps long.
    Snapshots are taken every ceil(steps / 200) steps, about 200 over the
    run, and at the final step.  A run that stops early ends with a
    row carrying its status, the minimum spacing of the state it stopped on
    and a NaN residual, plus a snapshot of that state.
    """
    x, h, steps = _grid(cfg)
    k = cfg.t_final / steps
    step = _STEPS[_step_key(cfg)](cfg, k, h, _SPACING_FLOOR_REL * h)
    state = GridState(0.0, x, _exact(cfg, 0.0, x))
    every = max(1, math.ceil(steps / _SNAPSHOTS))
    snaps = [(0.0, state.x.copy(), state.u.copy())]
    diags = Diagnostics()
    status, message = "completed", ""
    for i in range(1, steps + 1):
        try:
            state, info = step(state)
        except SymfdError as exc:
            status, message = _stop(f"step {i}", exc)
        else:
            tv = total_variation(state.du)
            # finite u can overflow to a non-finite tv, never the reverse
            if not math.isfinite(tv) and not np.isfinite(state.u).all():
                status = "nonfinite"
                bad = np.flatnonzero(~np.isfinite(state.u))
                message = (f"step {i}: u is not finite at node {bad[0]} "
                           f"({bad.size} of {state.u.size} nodes)")
        if status != "completed":
            diags.append(i, state.t, float(state.dx.min()), total_variation(state.du),
                         math.nan, 0, status)
            snaps.append((state.t, state.x.copy(), state.u.copy()))
            break
        diags.append(i, state.t, info.min_spacing, tv, info.residual_inf, info.newton_iters, "ok")
        if i % every == 0 or i == steps:
            snaps.append((state.t, state.x.copy(), state.u.copy()))
    return RunOutput(snaps, diags, status, cfg, message)


# A march stopped by an error takes the status of the first class here that
# the error is an instance of; the statuses are the rows' error statuses.
_STOPS = tuple(zip((MeshTangling, SchemeSingularity, SymfdError), _ERROR_STATUSES, strict=True))


def _stop(where: str, exc: SymfdError) -> tuple[str, str]:
    """The status and message of a march stopped by exc at ``where`` (``step 3``)."""
    status = next(status for cls, status in _STOPS if isinstance(exc, cls))
    return status, f"{where}: {type(exc).__name__}: {exc}"


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


def _uniform(lim: float):
    return lambda rng: rng.uniform(-lim, lim)


def _exp_uniform(lim: float):
    return lambda rng: math.exp(rng.uniform(-lim, lim))


def _draw(rng: DeterministicRng, direction: str, coords) -> list[float]:
    """An element's coordinates from its table ``coords`` of (direction,
    identity, draw) entries, in table order: a coordinate is drawn when
    ``direction`` names it or is ``"mixed"`` and is its identity otherwise."""
    mixed = direction == "mixed"
    return [draw(rng) if mixed or direction == name else identity
            for name, identity, draw in coords]


def _random_mesh(rng: DeterministicRng, n: int) -> np.ndarray:
    x = [rng.uniform(-1.0, 1.0)]
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
# (``deviations``, returning the strong and weak deviations).  The KdV and
# Burgers audits share these steps (``_PDEAudit``) and differ in their
# element type, its coordinate table for ``_draw``, its factors and image,
# the residual and the step; a configuration's own step is the step under
# the identity's factors, which is the plain step bit for bit.  A step of
# the transformed configurations that fails is an infinite weak deviation
# of every trial in the batch (``_weak_dev``), which fails the audit.


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


class _PDEAudit:
    """A KdV or Burgers audit of configurations (prev, nxt, k, *coefs)."""

    directions = ("shift_x", "shift_t", "boost", "scale", "mixed")

    def prepare(self, configs):
        self.x0, self.u0 = _stack([c[0] for c in configs])
        self.x1, self.u1 = _stack([c[1] for c in configs])
        self.k, *self.coefs = np.array([c[2:] for c in configs]).T[..., None]
        prev = GridState(0.0, self.x0, self.u0)
        self.base = self.residual(prev, GridState(self.k, self.x1, self.u1), self.k)
        identity = self.factors(self.element(*(e for _name, e, _f in self.coords)))
        self.stepped = _config_step(lambda: self.step(prev, self.k, identity))

    def draw_element(self, rng, direction, c):
        return self.element(*_draw(rng, direction, self.coords))

    def deviations(self, gs):
        f = _batch_factors(self.factors, gs)
        gp = GridState(*self.image(f, 0.0, self.x0, self.u0))
        gn = GridState(*self.image(f, self.k, self.x1, self.u1))
        img = self.residual(gp, gn, gn.t - gp.t)
        _t, ix, iu = self.image(f, self.stepped.t, self.stepped.x, self.stepped.u)
        return _rel_dev(self.base, img), _weak_dev(lambda: self.step(gp, self.k, f), ix, iu)


class _KdVAudit(_PDEAudit):
    coords = (("scale", 1.0, _exp_uniform(0.6)), ("boost", 0.0, _uniform(1.0)),
              ("shift_x", 0.0, _uniform(1.0)), ("shift_t", 0.0, _uniform(1.0)))
    element = KdVGroupElement
    factors = staticmethod(_kdv_factors)
    image = staticmethod(_kdv_image)

    def __init__(self, scheme: str):
        self.scheme = scheme
        self._residual = (schemes.kdv_residual_6pt if scheme == "6pt"
                          else schemes.kdv_residual_10pt)

    def draw_config(self, rng: DeterministicRng):
        n = 9
        prev = GridState(0.0, _random_mesh(rng, n), _random_u(rng, n))
        # keep the Lagrangian mesh of the weak audit untangled: the safe k
        # bound scales exactly like the group action, so it holds on both
        # sides of the commutation check
        slack = float(np.min(prev.dx / np.maximum(np.abs(prev.du), 1e-9)))
        k = min(rng.uniform(0.1, 0.5), 0.4 * slack)
        nxt = GridState(k, _random_mesh(rng, n), _random_u(rng, n))
        return (prev, nxt, k)

    def residual(self, prev, nxt, k):
        return self._residual(prev, nxt, k) * schemes.kdv_invariant_normalizer(prev, k)

    def step(self, prev, k, f):
        return schemes.kdv_step_detailed(prev, f[2] * k, "lagrangian", self.scheme)[0]


class _BurgersAudit(_PDEAudit):
    coords = (("shift_x", 0.0, _uniform(1.0)), ("shift_t", 0.0, _uniform(1.0)),
              ("boost", 0.0, _uniform(1.0)), ("scale", 0.0, _uniform(0.6)))
    element = BurgersGroupElement
    factors = staticmethod(_burgers_factors)
    image = staticmethod(_burgers_image)

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
            if np.min(np.abs(prev.du)) < 1e-6:
                continue
            return (prev, nxt, k, nu, alpha)

    def residual(self, prev, nxt, k):
        return schemes.burgers_fv_residual(prev, nxt, k, self.coefs[0])

    def step(self, prev, k, f):
        s, s2, _e1, _e2, e3 = f
        nu, alpha = self.coefs
        return schemes.burgers_fv_step_detailed(prev, s2 * k, nu, alpha, drift=e3 / s)[0]


class _UxxAudit:
    directions = ("shift_x", "shift_u", "scale_x", "shear", "scale_u", "mixed")
    # (a, b, lam, beta, alpha) for X = lam x + a, U = alpha u + beta x + b
    coords = (("shift_x", 0.0, _uniform(1.0)), ("shift_u", 0.0, _uniform(1.0)),
              ("scale_x", 1.0, _exp_uniform(0.7)), ("shear", 0.0, _uniform(1.0)),
              ("scale_u", 1.0, _exp_uniform(0.7)))

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
        return _draw(rng, direction, self.coords)

    @staticmethod
    def _apply(g, x, u):
        a, b, lam, beta, alpha = g
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
    present.  A tolerance that is not positive and finite is a
    :class:`ConfigError`, as it would pass or fail every audit.
    """
    if n_elements < 1 or n_configs < 1:
        raise ConfigError("an audit needs at least one element and one configuration")
    if not 0.0 < tol < math.inf:  # NaN fails this test too
        raise ConfigError(f"audit tolerance must be positive and finite, got {tol!r}")
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
        per_direction = {d: float(dev[i::n_dir].max())
                         for i, d in enumerate(audit.directions[:n_elements])}
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
    n = _intervals(1.0, h) + 1
    if n < 4:  # three seed nodes and at least one step
        raise ConfigError(f"spacing {h!r} leaves fewer than 4 nodes on [0, 1]")
    x = np.arange(n) * h
    u = np.empty(x.size)
    u[:3] = u_ex(x[:3])
    stop = _schwarzian_march(x, u, src)
    if stop is not None:
        raise stop[1]
    return float(np.max(np.abs(u - u_ex(x))))


def _intervals(width: float, h: float) -> int:
    """round(width / h) intervals; a ConfigError when no array could hold their nodes."""
    if not width / h < _MAX_NODES:
        raise ConfigError(f"spacing {h!r} needs more than {_MAX_NODES} nodes")
    return round(width / h)


def _final_error(values: dict) -> float:
    """Max-norm error of a KdV or Burgers run's final snapshot against the
    exact solution it started from; a run that stops early is a SymfdError."""
    cfg = validate_config(values)
    out = run_experiment(cfg)
    if out.status != "completed":
        raise SymfdError(f"{out.status}: {out.message}")
    t, x, u = out.snapshots[-1]
    return float(np.max(np.abs(u - _exact(cfg, t, x))))


def _kdv_naive_soliton(h: float) -> float:
    """Max-norm error of the naive scheme on a single soliton on [-20, 20]
    at t = 0.1, with k = 0.05 h^3: the small constant keeps the amplified
    high-wavenumber noise of the explicit update far below truncation."""
    return _final_error({
        "equation": "kdv", "scheme": "kdv_naive",
        "domain_a": -20.0, "domain_b": 20.0, "n_points": _intervals(40.0, h),
        "t_final": 0.1, "dt_constant": 0.05,
        "ic_c1": 1.0, "ic_c2": 0.0, "ic_a1": 0.0, "ic_a2": 0.0,
    })


def _burgers_viscous_shock(h: float) -> float:
    """Max-norm error of the finite-volume scheme on the viscous shock at
    nu = 0.02 on [-0.5, 0.5] at t = 0.5 (k = 0.4 h^2, alpha = 0.5): the
    shock is wide enough to be resolved, so the smooth-region order shows."""
    return _final_error({
        "equation": "burgers", "scheme": "burgers_fv",
        "domain_a": -0.5, "domain_b": 0.5, "n_points": _intervals(1.0, h) + 1,
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
    unknown scheme, an empty list of spacings or a spacing that is not
    positive and finite is a ConfigError, raised before any level runs.
    """
    if scheme not in _CONVERGENCE:
        raise ConfigError(f"no convergence driver for scheme {scheme!r}; "
                          f"known: {', '.join(CONVERGENCE_SCHEMES)}")
    hs = list(h_list)
    if not hs:
        raise ConfigError("no mesh spacing given")
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
