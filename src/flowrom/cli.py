"""Command-line front end: fom / pod / rom / compare.

Configuration files use INI syntax (flat key-value pairs in sections); see
``demos/configs`` for complete examples.  A minimal config::

    [problem]
    name = kelvin-helmholtz
    nx = 32
    ny = 32

    [fom]
    nu = 3.5714285714285714e-04
    dt = 0.02
    t_end = 3.0
    form = skew
    scheme = backward_euler
    snapshot_start = 0.0
    snapshot_end = 3.0
    snapshot_stride = 1

    [rom]
    r = 40
    centering = none

    [output]
    prefix = kh

The keys above, plus ``[problem] mesh/node/ele/edge`` for the cylinder and
``[fom] newton_max_iter``, are all that is read (:data:`CONFIG_KEYS`); any
other section or key is a config error, and so is a malformed value in any
key, in every subcommand: every value is parsed on load by its key's parser.
Every subcommand starts from :func:`_build_problem`: the parsed config, the
space, the ``[fom]`` keys as a :class:`FomConfig` (``nu``, ``dt`` and
``t_end`` required, unset keys its defaults), the POD centering and the
initial velocity.  The ROM form is ``--form``, else ``[fom] form``.
Outputs go to ``--out`` or the working directory, named from ``[output] prefix``.

``pod`` is the only subcommand that reads a snapshot archive's payload.  It
stores in the basis archive the projection of the momentum operators and the
snapshots' coordinates on the basis (``pod.SnapshotCoordinates``).  ``rom``
starts from the first snapshot's coordinates and runs on the snapshot grid:
from the first snapshot to the last, at the snapshot spacing
(``dt * snapshot_stride``, ``numerics.uniform_step``), with the ``[fom]
scheme``.  ``compare`` expects each trajectory on that same grid, takes ``r``
from its coefficient columns and evaluates the errors from the coordinates,
the only blocks of the basis it reads.  Both read only the header and times
of their ``--archive``, which must equal the basis's times.

Exit codes: 0 success, 2 config error (e.g. ``nu = 0``, ``r = x``, a
snapshot window that holds no step, no snapshot or only vanishing ones for
``pod`` and one for ``rom``, a path that cannot be read or written), 3 solver
failure, 4 format error (e.g. a non-uniform snapshot grid, a trajectory whose
header is not ``t, a_1, ..., a_r``, a mesh without a label the problem needs).
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
    kelvin_helmholtz_boundary,
    kelvin_helmholtz_velocity,
    run_fom,
    step_drag,
    taylor_green_velocity,
)
from .mesh import (CYLINDER_LABELS, MeshFormatError, identify_periodic, load_bundled_mesh, read_triangle_mesh,
                   uniform_rect_mesh)
from .numerics import NewtonConvergenceError, SingularSystemError, uniform_step
from .pod import build_pod_basis, pod_projection_error
from .rom import (
    RomTrajectory,
    assemble_rom_operators,
    covering_projection,
    project_fields,
    reconstruct_field,
    run_rom,
)

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
    "problem": {"name": str, "nx": int, "ny": int, "mesh": str, "node": Path, "ele": Path, "edge": Path},
    "fom": {"nu": float, "dt": float, "t_end": float, "form": NonlinearForm.parse, "scheme": str,
            "snapshot_start": float, "snapshot_end": float, "snapshot_stride": int, "newton_max_iter": int},
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


def _rect_mesh(path, prob, n, extent):
    """The ``[problem] nx`` x ``ny`` square mesh (default ``n`` x ``n``) of side ``extent``."""
    nx = prob.get("nx", n)
    try:
        return uniform_rect_mesh(nx, prob.get("ny", nx), extent, extent)
    except ValueError as exc:
        raise ConfigError(f"{path}: [problem] nx, ny: {exc}") from exc


def _build_problem(path):
    """The config at ``path`` with its problem's space, FomConfig, POD centering and initial velocity.

    This is the only code that knows a problem name.  The ``[fom]`` keys are
    :class:`FomConfig` fields, the snapshot window from its two ends; the name
    fixes the boundary, the drag label and the projection of u0.  A config
    error names ``path``, a missing boundary label (format error) the mesh,
    and a mesh file that is not UTF-8 text (format error) that file.
    """
    config = _load_config(path)
    prob = config["problem"]
    name = prob["name"]
    edge = f"the {name} mesh"
    if name == "kelvin-helmholtz":
        mesh = identify_periodic(_rect_mesh(path, prob, 32, 1.0), "x")
        fixed = {"boundary": kelvin_helmholtz_boundary(), "project_initial": True}
        centering, velocity = "none", kelvin_helmholtz_velocity
    elif name == "taylor-green":
        mesh = identify_periodic(identify_periodic(_rect_mesh(path, prob, 16, 2.0), "x"), "y")
        fixed, centering, velocity = {}, "none", taylor_green_velocity
    elif name == "cylinder-channel":
        if prob.get("mesh", "bundled") == "bundled":
            mesh = load_bundled_mesh("cylinder")
        else:
            paths = {key: prob.get(key, Path()) for key in ("node", "ele", "edge")}
            texts = []
            for key, p in paths.items():
                if not p.is_file():
                    raise ConfigError(f"{path}: [problem] {key}: mesh file not found: {p}")
                try:
                    texts.append(p.read_text(encoding="utf-8"))
                except UnicodeDecodeError as exc:
                    raise MeshFormatError(f"{p}: {exc}") from exc
            mesh = read_triangle_mesh(*texts, marker_labels=CYLINDER_LABELS, names=tuple(paths.values()))
            edge = paths["edge"]
        fixed = {"boundary": cylinder_boundary(), "drag_label": "cylinder", "project_initial": True}
        centering, velocity = "mean", at_rest
    else:
        raise ConfigError(f"{path}: [problem] name: unknown problem {name!r}")

    fom = dict(config["fom"])
    if not {"nu", "dt", "t_end"} <= fom.keys():
        raise ConfigError(f"{path}: [fom] section requires nu, dt, t_end")
    window = None
    if "snapshot_start" in fom or "snapshot_end" in fom:
        window = (fom.pop("snapshot_start", 0.0), fom.pop("snapshot_end", fom["t_end"]))
    try:
        fom_cfg = FomConfig(**fom, **fixed, snapshot_window=window)
    except ValueError as exc:
        raise ConfigError(f"{path}: [fom] {exc}") from exc
    missing = sorted({*fom_cfg.boundary, fom_cfg.drag_label} - {None} - set(mesh.boundary_labels))
    if missing:
        raise MeshFormatError(f"{edge}: no boundary edge labeled {missing[0]!r}, which {name} needs")
    return _Problem(config, TaylorHoodSpace(mesh), fom_cfg, centering, velocity)


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


def _mode_count(config, rank, override=None):
    """r from ``override``, else ``[rom] r``, else ``rank``; at least 1."""
    r = override if override is not None else config["rom"].get("r", rank)
    if r < 1:
        raise ConfigError(f"requested r={r} is outside 1..{rank} (the basis rank)")
    return r


def cmd_pod(args):
    """Build the basis and store with it the projection of its leading fields
    and the snapshots' coordinates.

    The projection covers the r that ``rom`` defaults to, ``[rom] r`` or
    the rank, so a ``rom`` run at that r or below only slices it.  The
    coordinates also give the projection-error report.
    """
    problem = _build_problem(args.config)
    config = problem.config
    space = problem.space
    snaps = fio.read_snapshots(args.archive, space=space)
    try:
        basis = build_pod_basis(snaps, space, centering=config["rom"].get("centering", problem.centering))
    except ValueError as exc:  # no snapshot, or only vanishing ones
        raise ConfigError(f"{args.archive}: {exc}") from exc
    r = min(_mode_count(config, basis.rank), basis.rank)
    prefix = _out_prefix(config, args.out)
    basis.projection = project_fields(space, basis.fields(r))
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
    """Run one ROM, of the ``--form`` or else the ``[fom] form``, on the basis's
    snapshot grid with the ``[fom] scheme``.

    It starts from the first snapshot's coordinates on the leading r modes
    and assembles no FE matrix.  One projection, the archive's or a fresh
    one when r exceeds it, gives both the operators and the energy and
    enstrophy series.
    """
    problem = _build_problem(args.config)
    config = problem.config
    space, fom_cfg = problem.space, problem.fom
    form = NonlinearForm.parse(args.form or fom_cfg.form)
    basis = fio.read_basis(args.basis, space=space)
    coords, dt = _pod_coordinates(basis.coordinates, args.basis, args.archive, space)
    r = _mode_count(config, basis.rank, args.r)
    if r > basis.rank:
        raise ConfigError(f"requested r={r} is outside 1..{basis.rank} (the basis rank)")

    basis.projection = covering_projection(space, basis, r)
    ops = assemble_rom_operators(space, basis, r, form, fom_cfg.nu)
    t0 = coords.times[0]
    traj = run_rom(ops, coords.coeffs[0, :r], dt, float(coords.times[-1] - t0),
                   scheme=fom_cfg.scheme, newton_tol=fom_cfg.newton_tol,
                   newton_max_iter=fom_cfg.newton_max_iter)

    prefix = _out_prefix(config, args.out)
    tag = f"{form.value}_r{r}"
    fio.write_csv(f"{prefix}_rom_{tag}_traj.csv",
                  ["t"] + [f"a_{k + 1}" for k in range(r)],
                  [traj.times + t0] + [traj.coeffs[:, k] for k in range(r)])

    energy, enstrophy = rom_energy_enstrophy(basis.projection, basis, traj.coeffs)
    cols = [traj.times + t0, energy, enstrophy]
    headers = ["t", "energy", "enstrophy"]
    if fom_cfg.drag_label is not None:
        # fom.step_drag, with the FOM's form, of each reconstructed step; none ends at row 0.
        # Only the three states a step reads are held.
        drag, u_prev, u_old = [np.nan], None, reconstruct_field(basis, traj.coeffs[0])
        for c in traj.coeffs[1:]:
            u = reconstruct_field(basis, c)
            drag.append(step_drag(space, fom_cfg, dt, u, u_old, u_prev))
            u_prev, u_old = u_old, u
        cols.append(drag)
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (fio.ArchiveFormatError, MeshFormatError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NewtonConvergenceError, SingularSystemError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
