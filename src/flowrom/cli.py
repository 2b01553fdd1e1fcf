"""Command-line front end: fom / pod / rom / compare.

``README.md`` describes the command-line contract: the subcommands, the
config keys with their defaults, the exit codes and the outputs.  Its
sources here are :data:`CONFIG_KEYS`, every section and key with the parser
of its value, and the ``EXIT_*`` codes that :func:`main` maps each error
type to; ``demos/configs`` holds complete configs.

Every subcommand starts from :func:`_build_problem`: the parsed config, the
space, the ``[fom]`` keys as a :class:`FomConfig`, the POD centering and the
initial velocity.  So a value that any stage would reject fails every
subcommand, before anything is written.

``pod`` is the only subcommand that reads a snapshot archive's payload.  It
stores in the basis archive the projection of the momentum operators, with
the drag lifting on the cylinder, and the snapshots' coordinates on the
basis (``pod.SnapshotCoordinates``), so that ``rom`` and ``compare`` need no
snapshot and form no field: ``rom`` starts from the first
snapshot's coordinates and steps ``[fom] dt``, which must divide the
snapshot spacing (``numerics.uniform_step``) into whole steps, and
``compare`` evaluates the errors from the coordinates, the only blocks of
the basis it reads.  Both read only the header and times of their
``--archive``, which must equal the basis's times, so every call names the
basis's source.
"""

import argparse
import configparser
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import io as fio
from .diagnostics import reduced_trajectory_error, rom_energy_enstrophy
from .fem import NonlinearForm, TaylorHoodSpace
from .fom import (
    FomConfig,
    at_rest,
    build_initial_condition,
    cylinder_boundary,
    drag_lifting,
    kelvin_helmholtz_boundary,
    kelvin_helmholtz_velocity,
    run_fom,
)
from .mesh import MeshFormatError, identify_periodic, load_bundled_mesh, uniform_rect_mesh
from .numerics import NewtonConvergenceError, SingularSystemError, grid_step, uniform_step
from .pod import build_pod_basis, pod_projection_error
from .rom import RomTrajectory, assemble_rom_operators, project_fields, run_rom

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_FORMAT = 4


def _centering(text):
    """The ``[rom] centering`` value, ``none`` or ``mean``."""
    if text not in ("none", "mean"):
        raise ValueError(f"must be 'none' or 'mean', got {text!r}")
    return text


# Every section and key a subcommand reads, with the parser of its value; a
# config with any other section or key, or a value its parser rejects, is rejected.
CONFIG_KEYS = {
    "problem": {"name": str, "nx": int, "ny": int},
    "fom": {"nu": float, "dt": float, "t_end": float, "form": NonlinearForm.parse, "scheme": str,
            "snapshot_start": float, "snapshot_end": float, "snapshot_stride": int},
    "rom": {"r": int, "centering": _centering},
    "output": {"prefix": str},
}


class ConfigError(ValueError):
    pass


def _load_config(path):
    """``{section: {key: value}}`` with every section of :data:`CONFIG_KEYS` and every value parsed."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as f:
            cp.read_file(f)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    config = {section: {} for section in CONFIG_KEYS}
    for section in cp.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, text in cp[section].items():
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(f"{path}: [{section}] {key}: unknown key")
            try:
                config[section][key] = CONFIG_KEYS[section][key](text)
            except ValueError as exc:
                raise ConfigError(f"{path}: [{section}] {key}: {exc}") from exc
    if "name" not in config["problem"]:
        raise ConfigError(f"{path}: missing [problem] section with a 'name' key")
    return config


class _Problem(NamedTuple):
    """The parsed config, the problem it names and the values that problem fixes."""

    config: dict  # as _load_config returns it
    space: TaylorHoodSpace
    fom: FomConfig
    centering: str  # POD centering when [rom] centering is not set
    velocity: object  # initial velocity (x, y, t) -> (u1, u2)


def _build_problem(path):
    """The config at ``path`` with its problem's space, FomConfig, POD centering and initial velocity.

    This is the only code that knows a problem name, one of the paper's two
    cases: ``kelvin-helmholtz``, the shear layer on the ``[problem] nx`` x
    ``ny`` unit square (default 32 x 32), periodic in x, and
    ``cylinder-channel``, the bundled cylinder mesh, for which ``nx`` or
    ``ny`` is a config error.  The ``[fom]`` keys are :class:`FomConfig`
    fields, the snapshot window from its two ends; the name fixes the
    boundary, the drag label and the projection of u0.  A config error names
    ``path``.
    """
    config = _load_config(path)
    prob = config["problem"]
    name = prob["name"]
    if name == "kelvin-helmholtz":
        nx = prob.get("nx", 32)
        try:
            space = TaylorHoodSpace(identify_periodic(uniform_rect_mesh(nx, prob.get("ny", nx)), "x"))
        except ValueError as exc:
            raise ConfigError(f"{path}: [problem] nx, ny: {exc}") from exc
        fixed = {"boundary": kelvin_helmholtz_boundary(), "project_initial": True}
        centering, velocity = "none", kelvin_helmholtz_velocity
    elif name == "cylinder-channel":
        for key in ("nx", "ny"):
            if key in prob:
                raise ConfigError(f"{path}: [problem] {key}: {name} runs on the bundled mesh, which has no {key}")
        space = TaylorHoodSpace(load_bundled_mesh())
        fixed = {"boundary": cylinder_boundary(), "drag_label": "cylinder", "project_initial": True}
        centering, velocity = "mean", at_rest
    else:
        raise ConfigError(f"{path}: [problem] name: unknown problem {name!r}")

    fom = dict(config["fom"])
    if not {"nu", "dt", "t_end"} <= fom.keys():
        raise ConfigError(f"{path}: [fom] section requires nu, dt, t_end")
    window = (fom.pop("snapshot_start", 0.0), fom.pop("snapshot_end", fom["t_end"]))
    try:
        fom_cfg = FomConfig(**fom, **fixed, snapshot_window=window)
    except ValueError as exc:
        raise ConfigError(f"{path}: [fom] {exc}") from exc
    return _Problem(config, space, fom_cfg, centering, velocity)


def _out_prefix(config, outdir):
    out = Path(outdir or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out / config["output"].get("prefix", "run")


def cmd_fom(args):
    problem = _build_problem(args.config)
    space = problem.space
    u0 = build_initial_condition(problem.velocity, space)
    _, snaps, series = run_fom(problem.fom, space.mesh, space, u0)
    prefix = _out_prefix(problem.config, args.out)
    fio.write_snapshots(f"{prefix}_snapshots.bin", snaps)
    fio.write_csv(f"{prefix}_scalars.csv", ["t", *series],
                  [series["energy"].times, *(s.values for s in series.values())])
    print(f"wrote {prefix}_snapshots.bin ({snaps.count} snapshots) and {prefix}_scalars.csv")
    return EXIT_OK


def _mode_count(path, config, limit, override=None, clamp=False):
    """r in 1..limit: ``override`` (``--r``), else ``[rom] r`` at ``path``, else limit; ``clamp``
    caps it at limit (``pod``: limit is the rank; ``rom``: the stored projection's modes, unclamped)."""
    r = override if override is not None else config["rom"].get("r", limit)
    r = min(r, limit) if clamp else r
    if not 1 <= r <= limit:
        source = "--r" if override is not None else f"{path}: [rom] r"
        bound = "the basis rank" if clamp else "the modes of the stored projection; pod projects [rom] r modes"
        raise ConfigError(f"{source}: requested r={r} is outside 1..{limit} ({bound})")
    return r


def cmd_pod(args):
    """Build the basis and store with it the projection of its leading fields
    and the snapshots' coordinates.

    The projection covers ``[rom] r`` modes, capped at the rank, and is the
    only source of ROM operators: ``rom`` runs any r up to those modes and
    refuses more.  On a problem with a drag label the drag lifting
    (``fom.drag_lifting``) is projected after the modes, so that ``rom``
    reads its drag off the projection too (``rom.RomProjection.drag``).  The
    coordinates also give the projection-error report.
    """
    problem = _build_problem(args.config)
    config, space = problem.config, problem.space
    snaps = fio.read_snapshots(args.archive, space=space)
    try:
        basis = build_pod_basis(snaps, space, centering=config["rom"].get("centering", problem.centering))
    except ValueError as exc:  # no snapshot, or only vanishing ones
        raise ConfigError(f"{args.archive}: {exc}") from exc
    r = _mode_count(args.config, config, basis.rank, clamp=True)
    prefix = _out_prefix(config, args.out)
    fields = basis.fields(r)
    if problem.fom.drag_label is None:
        basis.projection = project_fields(space, fields)
    else:  # the lifting comes last, so every leading slice is as without it
        basis.projection = project_fields(space, np.column_stack([fields, drag_lifting(space, problem.fom)]),
                                          liftings=1)
    fio.write_basis(f"{prefix}_basis.bin", basis)
    fio.write_csv(f"{prefix}_spectrum.csv", ["k", "lambda"],
                  [np.arange(1, basis.rank + 1), basis.eigenvalues])
    # automatic projection-error equality report
    lhs, rhs = pod_projection_error(basis)
    worst = np.abs(lhs - rhs)[: basis.rank].max() / max(rhs[0], 1e-300)
    print(f"rank {basis.rank} basis; projection-error equality max relative "
          f"mismatch {worst:.3e} (vs total gradient energy)")
    print(f"wrote {prefix}_basis.bin and {prefix}_spectrum.csv")
    return EXIT_OK


def _pod_coordinates(coordinates, basis_path, archive_path, space):
    """The snapshot coordinates stored by ``pod`` in the basis and the step of their time grid."""
    if coordinates is None:
        raise fio.ArchiveFormatError(f"{basis_path}: the basis holds no snapshot coordinates")
    if not np.array_equal(fio.read_snapshot_times(archive_path, space=space), coordinates.times):
        raise fio.ArchiveFormatError(
            f"{archive_path}: snapshot times differ from those of the basis {basis_path}")
    if coordinates.count < 2:
        raise ConfigError(f"{basis_path}: a reduced model needs at least two snapshots, "
                          f"found {coordinates.count}")
    try:
        return coordinates, uniform_step(coordinates.times)
    except ValueError as exc:
        raise fio.ArchiveFormatError(f"{basis_path}: snapshot times: {exc}") from exc


def cmd_rom(args):
    """Run one ROM, of the ``--form`` or else the ``[fom] form``, at the
    ``[fom] dt`` with the ``[fom] scheme``, over the basis's snapshot window.

    It starts from the first snapshot's coordinates on the leading r modes.
    The snapshot spacing must be a whole number k of steps
    (``numerics.grid_step``), or the config is rejected.  The trajectory
    file keeps every k-th step, the snapshot grid that ``compare`` reads;
    the scalars file has every step.  The projection that ``pod`` stored,
    whose modes r must not outgrow, gives the operators, the energy and
    enstrophy series and, with a drag label, the drag of each step with the
    ``[fom] form`` (``rom.RomProjection.drag``); no field is formed.
    """
    problem = _build_problem(args.config)
    config, space, fom_cfg = problem.config, problem.space, problem.fom
    form = NonlinearForm.parse(args.form or fom_cfg.form)
    basis = fio.read_basis(args.basis, space=space)
    coords, spacing = _pod_coordinates(basis.coordinates, args.basis, args.archive, space)
    dt = fom_cfg.dt
    stride = grid_step(spacing, dt)
    if not stride:
        raise ConfigError(f"{args.config}: [fom] dt = {dt:g} does not divide the snapshot spacing "
                          f"{spacing:g} of the basis {args.basis} into whole steps")
    projection = basis.projection
    if projection is None:
        raise fio.ArchiveFormatError(f"{args.basis}: the basis holds no projection")
    if fom_cfg.drag_label is not None and not projection.liftings:
        raise fio.ArchiveFormatError(f"{args.basis}: the basis holds no drag lifting, "
                                     f"which pod projects for the drag label {fom_cfg.drag_label!r}")
    o = int(basis.centered)
    r = _mode_count(args.config, config, projection.m - o - projection.liftings, args.r)

    ops = assemble_rom_operators(basis, r, form, fom_cfg.nu)
    t0 = coords.times[0]
    traj = run_rom(ops, coords.coeffs[0, :r], dt, (coords.count - 1) * stride * dt, scheme=fom_cfg.scheme)

    prefix = _out_prefix(config, args.out)
    tag = f"{form.value}_r{r}"
    times = traj.times + t0
    fio.write_csv(f"{prefix}_rom_{tag}_traj.csv",
                  ["t"] + [f"a_{k + 1}" for k in range(r)],
                  [times[::stride]] + [traj.coeffs[::stride, k] for k in range(r)])

    energy, enstrophy = rom_energy_enstrophy(projection, basis, traj.coeffs)
    cols = [times, energy, enstrophy]
    headers = ["t", "energy", "enstrophy"]
    if fom_cfg.drag_label is not None:
        cols.append(projection.drag(fom_cfg, o, traj.coeffs))
        headers.append("drag")
    cols.append(traj.newton_iters)
    headers.append("newton_iters")
    fio.write_csv(f"{prefix}_rom_{tag}_scalars.csv", headers, cols)
    print(f"wrote {prefix}_rom_{tag}_traj.csv and {prefix}_rom_{tag}_scalars.csv")
    return EXIT_OK


def _parse_traj_csv(path):
    """Form (from a ``<prefix>_rom_<form>_r<r>_traj.csv`` name), r and trajectory.

    r is the number of coefficient columns, so it always matches the data.
    A name without a form, a text column, a header other than ``t, a_1,
    ..., a_r`` and a non-finite time or coefficient are format errors.
    """
    parts = Path(path).stem.split("_")
    try:
        form = NonlinearForm.parse(parts[-3] if len(parts) >= 3 else "")
    except ValueError as exc:
        raise fio.ArchiveFormatError(f"{path}: not a <prefix>_rom_<form>_r<r>_traj.csv name; {exc}") from exc
    header, cols = fio.read_csv(path)
    if len(header) < 2:
        raise fio.ArchiveFormatError(f"{path}: a trajectory needs at least one coefficient column")
    if any(col.dtype.kind != "f" for col in cols):
        raise fio.ArchiveFormatError(f"{path}: a trajectory holds numbers only, found a text column")
    if header != ["t"] + [f"a_{k}" for k in range(1, len(header))]:
        raise fio.ArchiveFormatError(f"{path}: a trajectory's header is t, a_1, ..., a_r, found {header}")
    if not all(np.isfinite(col).all() for col in cols):
        raise fio.ArchiveFormatError(f"{path}: non-finite value in the trajectory")
    return form.value, len(header) - 1, RomTrajectory(coeffs=np.column_stack(cols[1:]), times=cols[0])


def cmd_compare(args):
    """Tabulate the error functionals of each trajectory against the snapshots.

    They come from the snapshot coordinates stored in the basis
    (``diagnostics.reduced_trajectory_error``); no field is formed.
    """
    problem = _build_problem(args.config)
    space = problem.space
    coords, dt = _pod_coordinates(fio.read_basis_coordinates(args.basis, space=space),
                                  args.basis, args.archive, space)

    # theorem norms of the FOM divergence series, the same in every row
    div = coords.div_norms[1:]
    div_norms = (float(dt * np.sum(div ** 2)), float(dt * np.sum(div)))
    rows = []
    for traj_path in args.trajectories:
        form, r, traj = _parse_traj_csv(traj_path)
        try:
            err = reduced_trajectory_error(coords, traj, problem.fom.nu)
        except ValueError as exc:
            raise ConfigError(f"{traj_path}: {exc}") from exc
        rows.append((form, r, err.linf_l2, err.l2_h1, err.c_u, *div_norms))

    out = Path(args.out or "compare.csv")
    fio.write_csv(out, ["form", "r", "linf_l2", "l2_h1", "c_u", "fom_div_l20_sq", "fom_div_l10"],
                  list(zip(*rows)))
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(prog="flowrom",
                                     description="Taylor-Hood Navier-Stokes FOM/ROM laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fom = sub.add_parser("fom", help="run the full-order solver")
    p_fom.add_argument("--config", required=True)
    p_fom.add_argument("--out", default=None, help="output directory")

    p_pod = sub.add_parser("pod", help="build the POD basis from a snapshot archive")
    p_pod.add_argument("archive")
    p_pod.add_argument("--config", required=True)
    p_pod.add_argument("--out", default=None)

    p_rom = sub.add_parser("rom", help="run a reduced model from a basis archive")
    p_rom.add_argument("basis")
    p_rom.add_argument("--archive", required=True,
                       help="snapshot archive of the basis (its times are checked)")
    p_rom.add_argument("--config", required=True)
    p_rom.add_argument("--r", type=int, default=None)
    p_rom.add_argument("--form", choices=[f.value for f in NonlinearForm], default=None)
    p_rom.add_argument("--out", default=None)

    p_cmp = sub.add_parser("compare", help="tabulate ROM-vs-FOM trajectory errors")
    p_cmp.add_argument("trajectories", nargs="+", help="ROM trajectory CSVs")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--archive", required=True,
                       help="snapshot archive of the basis (its times are checked)")
    p_cmp.add_argument("--basis", required=True)
    p_cmp.add_argument("--out", default=None)
    return parser


# built once: every call of main parses with it
_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    # looked up per call, so that a wrapped cmd_* is the one called
    handlers = {"fom": cmd_fom, "pod": cmd_pod, "rom": cmd_rom, "compare": cmd_compare}
    try:
        return handlers[args.command](args)
    except (ConfigError, OSError) as exc:  # an unreadable or unwritable path is a config error
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (fio.ArchiveFormatError, MeshFormatError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (NewtonConvergenceError, SingularSystemError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
