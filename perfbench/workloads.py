"""The benchmark's workloads: seeded inputs, set-up, timed part and output checks.

Every workload runs in one process through flowrom's public API.  The seed
shifts the initial field by a whole number of mesh periods (two cells, the
period of the alternating-diagonal mesh), so every seed poses the same
discrete problem up to a DOF permutation.  The bits change, and with them
SuperLU's pivots and LU fill by a few per cent; the cost class does not.
The library only ever sees the generated field, passed to
``build_initial_condition(callable, space)``.

The amount of work in a run is a fixed function of ``--seconds`` (steps or
pipeline passes = seconds / nominal cost), so operation counts repeat
exactly between runs with the same arguments.  Timed samples are kept as
spans on a ``speed.Stopwatch``, which runs its reference kernel between
them; ``Outcome.seconds`` turns them into seconds at the nominal host speed.
"""

import contextlib
import dataclasses
import sys
from pathlib import Path

import numpy as np

# Library calls go through the module objects so that a traced run sees them.
import flowrom.cli as fcli
import flowrom.fem as ffem
import flowrom.fom as ffom
import flowrom.mesh as fmesh
from flowrom.fem import h1_semi_error
from flowrom.fom import (
    FomConfig,
    NewtonConvergenceError,
    kelvin_helmholtz_boundary,
    kelvin_helmholtz_velocity,
    taylor_green_gradient,
    taylor_green_velocity,
)
from speed import Stopwatch

KH_NU = 1.0 / 2800.0  # Re = 100
ALL_FORMS = ("convective", "skew", "rotational", "emac")


@dataclasses.dataclass(frozen=True)
class FomWorkload:
    """One ``run_fom`` call on a seeded initial field."""

    name: str
    problem: str               # "kelvin-helmholtz" or "taylor-green"
    n: int                     # cells per side
    scheme: str
    nominal_step_s: float      # sizes the run: steps = seconds / nominal_step_s
    setup_repeats: int = 7
    energy_growth_tol: float = 1e-12   # KH: max energy increment per step
    h1_rel_tol: float = 1e-2           # TG: final relative H1-seminorm error


@dataclasses.dataclass(frozen=True)
class PipelineWorkload:
    """``flowrom fom`` as set-up, then pod -> rom (forms x r) -> compare passes."""

    name: str
    n: int
    dt: float
    fom_steps: int
    r_values: tuple
    nominal_pass_s: float      # sizes the run: passes = seconds / nominal_pass_s
    setup_repeats: int = 2
    consistency_ratio: float = 0.5     # skew linf_l2 <= ratio * emac linf_l2 at max r


WORKLOADS = {
    w.name: w for w in (
        FomWorkload("kh32_fom", "kelvin-helmholtz", 32, "backward_euler", nominal_step_s=1.0),
        FomWorkload("tg48_bdf2_fom", "taylor-green", 48, "bdf2", nominal_step_s=4.0),
        PipelineWorkload("kh16_rom_pipeline", 16, 0.02, 150, (10, 20, 30, 40), nominal_pass_s=5.0),
    )
}


@dataclasses.dataclass
class Outcome:
    """Timed spans and operation tallies of one run.

    Each timing list holds ``(start, end)`` spans on ``clock``; an entry of
    ``rom_offline_s`` or ``rom_online_s`` is the list of spans of one pass.
    """

    clock: Stopwatch
    setup_s: list = dataclasses.field(default_factory=list)
    wall_s: list = dataclasses.field(default_factory=list)
    fom_step_s: list = dataclasses.field(default_factory=list)
    rom_offline_s: list = dataclasses.field(default_factory=list)
    rom_online_s: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: list = dataclasses.field(default_factory=list)

    def seconds(self, name, scaled=True):
        """Samples of timing ``name`` in seconds, at the nominal host speed unless not ``scaled``."""
        convert = self.clock.scaled if scaled else self.clock.raw
        return [sum(map(convert, item)) if isinstance(item, list) else convert(item)
                for item in getattr(self, name)]

    def operation(self, ok):
        self.attempted += 1
        self.failed += not ok

    def check(self, name, ok, value, bound):
        self.operation(ok)
        self.checks.append({"name": name, "ok": bool(ok), "value": value, "bound": bound})


@contextlib.contextmanager
def rebind(module, name, replacement):
    """Temporarily replace ``module.name``."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


@contextlib.contextmanager
def timed_calls(clock, module, name, spans, tick=False):
    """Append the span of every call of ``module.name`` to ``spans``.

    With ``tick`` the reference kernel may run after each call.
    """

    def timed(original):
        def call(*args, **kwargs):
            with clock.timed(spans):
                result = original(*args, **kwargs)
            if tick:
                clock.tick()
            return result
        return call

    original = getattr(module, name)
    with rebind(module, name, timed(original)):
        yield


@contextlib.contextmanager
def ticks_before(clock, module, name):
    """Let the reference kernel run before each call of ``module.name``, if the module binds it."""
    if not hasattr(module, name):
        yield
        return
    original = getattr(module, name)

    def call(*args, **kwargs):
        clock.tick()
        return original(*args, **kwargs)

    with rebind(module, name, call):
        yield


def _shift(seed, n, extent, axes):
    """Whole-period shift of the initial field (two cells per period) per axis."""
    rng = np.random.default_rng(seed)
    period = 2.0 * extent / n
    return tuple(period * int(rng.integers(0, n // 2)) if axis else 0.0 for axis in axes)


def initial_field(problem, n, seed, nu=0.01):
    """Seeded initial velocity ``(x, y, t) -> (u1, u2)`` and its shift."""
    if problem == "kelvin-helmholtz":
        sx, sy = _shift(seed, n, 1.0, (True, False))
        return (lambda x, y, t=0.0: kelvin_helmholtz_velocity(x - sx, y, t)), (sx, sy)
    sx, sy = _shift(seed, n, 2.0, (True, True))
    return (lambda x, y, t=0.0: taylor_green_velocity(x - sx, y - sy, t, nu)), (sx, sy)


# ----------------------------------------------------------------------
# FOM workloads

def _fom_setup(w, seed):
    if w.problem == "kelvin-helmholtz":
        mesh = fmesh.identify_periodic(fmesh.uniform_rect_mesh(w.n, w.n), "x")
        nu, dt, boundary = KH_NU, 0.02, kelvin_helmholtz_boundary()
    else:
        mesh = fmesh.uniform_rect_mesh(w.n, w.n, 2.0, 2.0)
        mesh = fmesh.identify_periodic(fmesh.identify_periodic(mesh, "x"), "y")
        nu, dt, boundary = 0.01, 2.0 / w.n / 4.0, {}
    space = ffem.TaylorHoodSpace(mesh)
    ffem.assemble_linear_operators(mesh, space, nu)
    space.div_form()
    space.curl_form()
    space.pressure_volume()
    field, shift = initial_field(w.problem, w.n, seed, nu)
    u0 = ffom.build_initial_condition(field, space)
    return mesh, space, u0, nu, dt, boundary, shift


def run_fom_workload(w, seed, seconds, inner_ticks=True):
    out = Outcome(Stopwatch())
    clock = out.clock
    clock.reference()
    for _ in range(w.setup_repeats):
        with clock.timed(out.setup_s):
            mesh, space, u0, nu, dt, boundary, shift = _fom_setup(w, seed)
        clock.reference()

    steps = max(2, round(seconds / w.nominal_step_s))
    t_end = steps * dt
    cfg = FomConfig(nu=nu, dt=dt, t_end=t_end, form="skew", scheme=w.scheme, boundary=boundary,
                    snapshot_window=(t_end, t_end),
                    project_initial=w.problem == "kelvin-helmholtz")
    series = None
    # A step takes seconds, so the kernel also runs between its factorizations,
    # except in a traced run, where that time would count in the step's span.
    # It runs before a factorization, when no factors are held, so that it
    # does not add to the peak memory.
    inner = ticks_before(clock, ffom, "factorize") if inner_ticks else contextlib.nullcontext()
    with timed_calls(clock, ffom, "advance_step", out.fom_step_s, tick=True), inner, \
            clock.timed(out.wall_s):
        try:
            _, snaps, series = ffom.run_fom(cfg, mesh, space, u0)
        except NewtonConvergenceError as exc:
            print(f"FOM step failed: {exc}", file=sys.stderr)
    clock.reference()
    for _ in out.fom_step_s:
        out.operation(True)
    if series is None:
        out.operation(False)
        return out

    increments = np.diff(series["energy"].values)
    if w.problem == "kelvin-helmholtz":
        growth = float(increments.max())
        out.check("energy_growth_per_step", growth <= w.energy_growth_tol, growth, w.energy_growth_tol)
    else:
        out.check("energy_decreases_every_step", bool(np.all(increments < 0.0)),
                  float(increments.max()), 0.0)
        sx, sy = shift
        exact = lambda x, y, t: taylor_green_gradient(x - sx, y - sy, t, nu)
        err = h1_semi_error(space, snaps.matrix[:, -1], exact, time=t_end)
        norm = h1_semi_error(space, np.zeros(space.n_vel), exact, time=t_end)
        out.check("final_h1_relative_error", err / norm <= w.h1_rel_tol, err / norm, w.h1_rel_tol)
    return out


# ----------------------------------------------------------------------
# ROM pipeline workload

def _pipeline_config(w):
    t_end = repr(w.fom_steps * w.dt)
    return "\n".join([
        "[problem]", "name = kelvin-helmholtz", f"nx = {w.n}", f"ny = {w.n}", "",
        "[fom]", f"nu = {KH_NU!r}", f"dt = {w.dt!r}", f"t_end = {t_end}", "form = skew",
        "scheme = backward_euler", "snapshot_start = 0.0", f"snapshot_end = {t_end}",
        "snapshot_stride = 1", "",
        "[rom]", "centering = none", "",
        "[output]", "prefix = kh", "",
    ])


def _cli(out, argv):
    """One CLI call, counted as an operation that fails on a nonzero exit code."""
    with contextlib.redirect_stdout(sys.stderr):
        code = fcli.main(argv)
    out.operation(code == 0)
    out.clock.tick()
    return code


def _read_compare(path):
    lines = Path(path).read_text().splitlines()[1:]
    return {(row[0], int(row[1])): float(row[2]) for row in (line.split(",") for line in lines)}


def run_pipeline_workload(w, seed, seconds, workdir):
    out = Outcome(Stopwatch())
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "kh.ini"
    field, _ = initial_field("kelvin-helmholtz", w.n, seed)
    seeded = lambda problem, space: ffom.build_initial_condition(field, space)

    archives = []
    clock = out.clock
    clock.reference()
    with rebind(fcli, "build_initial_condition", seeded), \
            timed_calls(clock, ffom, "advance_step", out.fom_step_s, tick=True):
        for k in range(w.setup_repeats):
            with clock.timed(out.setup_s):
                config.write_text(_pipeline_config(w))
                _cli(out, ["fom", "--config", str(config), "--out", str(workdir / f"fom{k}")])
            archives.append(workdir / f"fom{k}" / "kh_snapshots.bin")
            clock.reference()
    identical = all(a.is_file() and a.read_bytes() == archives[0].read_bytes() for a in archives)
    out.check("snapshot_archives_identical", identical, len(archives), len(archives))

    pipe = workdir / "pipe"
    archive, basis = str(archives[-1]), str(pipe / "kh_basis.bin")
    common = ["--config", str(config), "--out", str(pipe)]
    r_max = max(w.r_values)
    passes = max(1, round(seconds / w.nominal_pass_s))
    for _ in range(passes):
        offline, online = [], []
        with clock.timed(out.wall_s), timed_calls(clock, fcli, "assemble_rom_operators", offline), \
                timed_calls(clock, fcli, "run_rom", online):
            _cli(out, ["pod", archive, *common])
            trajectories = []
            for form in ALL_FORMS:
                for r in w.r_values:
                    _cli(out, ["rom", basis, "--archive", archive, *common,
                               "--r", str(r), "--form", form])
                    trajectories.append(str(pipe / f"kh_rom_{form}_r{r}_traj.csv"))
            table = str(pipe / "compare.csv")
            _cli(out, ["compare", *trajectories, "--config", str(config), "--archive", archive,
                       "--basis", basis, "--out", table])
        clock.reference()
        out.rom_offline_s.append(offline)
        out.rom_online_s.append(online)

        rows = _read_compare(table) if Path(table).is_file() else {}
        expected = len(ALL_FORMS) * len(w.r_values)
        out.check("compare_rows", len(rows) == expected, len(rows), expected)
        skew, emac = rows.get(("skew", r_max), np.inf), rows.get(("emac", r_max), np.nan)
        ok = skew <= w.consistency_ratio * emac
        out.check(f"skew_r{r_max}_vs_emac_r{r_max}", ok, skew / emac, w.consistency_ratio)
    return out


def run_workload(w, seed, seconds, workdir, inner_ticks=True):
    if isinstance(w, FomWorkload):
        return run_fom_workload(w, seed, seconds, inner_ticks)
    return run_pipeline_workload(w, seed, seconds, workdir)
