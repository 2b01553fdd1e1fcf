"""Command-line front end: fom / pod / rom / compare / verify.

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
    form = skew
    centering = none

    [output]
    prefix = kh

``rom`` runs on the snapshot grid of its archive: from the first snapshot to
the last, at the snapshot spacing (``dt * snapshot_stride``), with the
``[fom] scheme``.  ``compare`` expects each trajectory on that same grid.

Exit codes: 0 success, 2 config error, 3 solver failure, 4 format error.
"""

import argparse
import configparser
import sys
from pathlib import Path

import numpy as np

from . import io as fio
from .diagnostics import energy_enstrophy, trajectory_error
from .fem import NonlinearForm, TaylorHoodSpace, trilinear_value, field_norms
from .fom import (
    FomConfig,
    NewtonConvergenceError,
    build_initial_condition,
    cylinder_boundary,
    kelvin_helmholtz_boundary,
    rom_drag_series,
    run_fom,
)
from .mesh import MeshFormatError, identify_periodic, load_bundled_mesh, read_triangle_mesh, uniform_rect_mesh
from .numerics import SingularSystemError, sym_eig, triangle_quadrature
from .pod import build_pod_basis, pod_projection_error, project_field
from .rom import RomNewtonError, RomTrajectory, assemble_rom_operators, reconstruct_field, run_rom

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_FORMAT = 4


class ConfigError(ValueError):
    pass


def _load_config(path):
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(p)
    if "problem" not in cp or "name" not in cp["problem"]:
        raise ConfigError(f"{path}: missing [problem] section with a 'name' key")
    return cp


def _build_problem(cp):
    """Mesh, space, boundary spec, and defaults for the configured problem."""
    prob = cp["problem"]
    name = prob.get("name")
    if name == "kelvin-helmholtz":
        nx = prob.getint("nx", 32)
        ny = prob.getint("ny", nx)
        mesh = identify_periodic(uniform_rect_mesh(nx, ny), "x")
        boundary = kelvin_helmholtz_boundary()
        defaults = {"drag_label": None, "project_initial": True, "centering": "none"}
    elif name == "taylor-green":
        nx = prob.getint("nx", 16)
        ny = prob.getint("ny", nx)
        mesh = uniform_rect_mesh(nx, ny, 2.0, 2.0)
        mesh = identify_periodic(identify_periodic(mesh, "x"), "y")
        boundary = {}
        defaults = {"drag_label": None, "project_initial": False, "centering": "none"}
    elif name == "cylinder-channel":
        if prob.get("mesh", "bundled") == "bundled":
            mesh = load_bundled_mesh("cylinder")
        else:
            paths = {key: Path(prob.get(key, "")) for key in ("node", "ele", "edge")}
            for key, p in paths.items():
                if not p.is_file():
                    raise ConfigError(f"mesh file not found: {p} (problem.{key})")
            labels = {1: "inflow", 2: "outflow", 3: "wall", 4: "cylinder"}
            mesh = read_triangle_mesh(paths["node"].read_text(), paths["ele"].read_text(),
                                      paths["edge"].read_text(), marker_labels=labels)
        boundary = cylinder_boundary()
        defaults = {"drag_label": "cylinder", "project_initial": True, "centering": "mean"}
    else:
        raise ConfigError(f"unknown problem name {name!r}")
    return name, mesh, TaylorHoodSpace(mesh), boundary, defaults


def _fom_config(cp, boundary, defaults):
    fom = cp["fom"] if "fom" in cp else {}
    getf = lambda key, dv: float(fom.get(key, dv)) if hasattr(fom, "get") else dv
    try:
        nu = float(fom["nu"])
        dt = float(fom["dt"])
        t_end = float(fom["t_end"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"[fom] section requires nu, dt, t_end ({exc})") from exc
    window = None
    if "snapshot_start" in fom or "snapshot_end" in fom:
        window = (getf("snapshot_start", 0.0), getf("snapshot_end", t_end))
    project = fom.get("project_initial") if hasattr(fom, "get") else None
    try:
        return FomConfig(
            nu=nu, dt=dt, t_end=t_end,
            form=NonlinearForm.parse(fom.get("form", "skew")),
            scheme=fom.get("scheme", "bdf2"),
            boundary=boundary,
            snapshot_window=window,
            snapshot_stride=int(fom.get("snapshot_stride", 1)),
            newton_tol=getf("newton_tol", 1e-10),
            newton_max_iter=int(fom.get("newton_max_iter", 20)),
            drag_label=defaults["drag_label"],
            project_initial=(project.lower() in ("1", "true", "yes"))
            if project is not None else defaults["project_initial"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _out_prefix(cp, outdir):
    prefix = cp["output"].get("prefix", "run") if "output" in cp else "run"
    out = Path(outdir) if outdir else Path(cp["output"].get("dir", ".") if "output" in cp else ".")
    out.mkdir(parents=True, exist_ok=True)
    return out / prefix


def _write_scalars_csv(path, series):
    names = ["energy", "enstrophy", "div_error", "drag", "newton_iters", "factorizations"]
    t = series["energy"].times
    cols = [t]
    for name in names:
        cols.append(series[name].values if name in series
                    else np.full(t.size, np.nan))
    fio.write_csv(path, ["t"] + names, cols)


def cmd_fom(args):
    cp = _load_config(args.config)
    name, mesh, space, boundary, defaults = _build_problem(cp)
    cfg = _fom_config(cp, boundary, defaults)
    if args.form:
        cfg.form = NonlinearForm.parse(args.form)
    if args.scheme:
        cfg.scheme = args.scheme
    prefix = _out_prefix(cp, args.out)
    u0 = build_initial_condition(name, space)
    try:
        _, snaps, series = run_fom(cfg, mesh, space, u0)
    except NewtonConvergenceError as exc:
        print(f"error: solver failed at step {exc.step}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    fio.write_snapshots(f"{prefix}_snapshots.bin", snaps)
    _write_scalars_csv(f"{prefix}_scalars.csv", series)
    if cp.has_option("fom", "write_vtk") and cp["fom"].getboolean("write_vtk"):
        last = snaps.matrix[:, -1] if snaps.count else u0
        fio.write_vtk(f"{prefix}_final.vtk", space, last)
    print(f"wrote {prefix}_snapshots.bin ({snaps.count} snapshots) and {prefix}_scalars.csv")
    return EXIT_OK


def cmd_pod(args):
    cp = _load_config(args.config)
    _, _, space, _, defaults = _build_problem(cp)
    centering = args.centering or (cp["rom"].get("centering", defaults["centering"])
                                   if "rom" in cp else defaults["centering"])
    snaps = fio.read_snapshots(args.archive, space=space)
    if snaps.matrix.shape[0] != space.n_vel:
        raise fio.ArchiveFormatError(
            f"archive DOF count {snaps.matrix.shape[0]} does not match the "
            f"configured mesh ({space.n_vel})")
    prefix = _out_prefix(cp, args.out)
    basis = build_pod_basis(snaps, space.mass(), space.stiffness(), centering=centering)
    fio.write_basis(f"{prefix}_basis.bin", basis)
    fio.write_csv(f"{prefix}_spectrum.csv", ["k", "lambda"],
                  [np.arange(1, basis.rank + 1), basis.eigenvalues])
    # automatic projection-error equality report
    worst = 0.0
    scale = pod_projection_error(basis, snaps, 0, space.mass(), space.stiffness())[1]
    for r in range(basis.rank):
        lhs, rhs = pod_projection_error(basis, snaps, r, space.mass(), space.stiffness())
        worst = max(worst, abs(lhs - rhs) / max(scale, 1e-300))
    print(f"rank {basis.rank} basis; projection-error equality max relative "
          f"mismatch {worst:.3e} (vs total gradient energy)")
    print(f"wrote {prefix}_basis.bin and {prefix}_spectrum.csv")
    return EXIT_OK


def cmd_rom(args):
    """Run one ROM on the archive's snapshot grid with the ``[fom] scheme``."""
    cp = _load_config(args.config)
    _, _, space, boundary, defaults = _build_problem(cp)
    fom_cfg = _fom_config(cp, boundary, defaults)
    rom_sec = cp["rom"] if "rom" in cp else {}
    form = NonlinearForm.parse(args.form or rom_sec.get("form", fom_cfg.form))
    basis = fio.read_basis(args.basis)
    try:
        r = args.r or int(rom_sec.get("r", basis.rank))
    except ValueError as exc:
        raise ConfigError(f"[rom] r must be one integer, got {rom_sec.get('r')!r}") from exc
    if r > basis.rank:
        raise ConfigError(f"requested r={r} exceeds basis rank {basis.rank}")

    snaps = fio.read_snapshots(args.archive, space=space)
    if snaps.count < 2:
        raise ConfigError(f"{args.archive}: a reduced run needs at least two snapshots, "
                          f"found {snaps.count}")
    t0 = snaps.times[0]
    dt = float(snaps.times[1] - t0)
    t_end = float(snaps.times[-1] - t0)
    a0 = project_field(basis, r, snaps.matrix[:, 0], space.mass())

    ops = assemble_rom_operators(space, basis, r, form, fom_cfg.nu)
    try:
        traj = run_rom(ops, a0, dt, t_end, scheme=fom_cfg.scheme,
                       newton_tol=fom_cfg.newton_tol, newton_max_iter=fom_cfg.newton_max_iter)
    except RomNewtonError as exc:
        print(f"error: reduced solver diverged at step {exc.step}: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    prefix = _out_prefix(cp, args.out)
    tag = f"{form.value}_r{r}"
    fio.write_csv(f"{prefix}_rom_{tag}_traj.csv",
                  ["t"] + [f"a_{k + 1}" for k in range(r)],
                  [traj.times + t0] + [traj.coeffs[:, k] for k in range(r)])

    energy = np.empty(traj.times.size)
    enstrophy = np.empty(traj.times.size)
    for n in range(traj.times.size):
        energy[n], enstrophy[n] = energy_enstrophy(space, reconstruct_field(basis, traj.coeffs[n]))
    cols = [traj.times + t0, energy, enstrophy]
    headers = ["t", "energy", "enstrophy"]
    if fom_cfg.drag_label is not None:
        stride = int(rom_sec.get("drag_stride", 10))
        drag_t, drag = rom_drag_series(space, fom_cfg, basis, traj, stride)
        dragcol = np.full(traj.times.size, np.nan)
        dragcol[np.searchsorted(traj.times, drag_t)] = drag
        cols.append(dragcol)
        headers.append("drag")
    fio.write_csv(f"{prefix}_rom_{tag}_scalars.csv", headers, cols)
    print(f"wrote {prefix}_rom_{tag}_traj.csv and {prefix}_rom_{tag}_scalars.csv")
    return EXIT_OK


def _parse_traj_csv(path):
    header, cols = fio.read_csv(path)
    stem = Path(path).stem
    parts = stem.split("_")
    try:
        r = int(parts[-2][1:]) if parts[-2].startswith("r") else len(header) - 1
        form = parts[-3]
    except (IndexError, ValueError):
        r = len(header) - 1
        form = "unknown"
    coeffs = np.column_stack(cols[1:])
    return form, r, RomTrajectory(coeffs=coeffs, times=cols[0])


def cmd_compare(args):
    cp = _load_config(args.config)
    _, _, space, boundary, defaults = _build_problem(cp)
    fom_cfg = _fom_config(cp, boundary, defaults)
    basis = fio.read_basis(args.basis)
    snaps = fio.read_snapshots(args.archive, space=space)

    rows = []
    for traj_path in args.trajectories:
        form, r, traj = _parse_traj_csv(traj_path)
        try:
            err = trajectory_error(space, snaps, traj, basis, fom_cfg.nu)
        except ValueError as exc:
            raise ConfigError(f"{traj_path}: {exc}") from exc
        dt = float(np.diff(snaps.times)[0])
        # theorem norms of the FOM divergence series
        div_vals = err.div_series.values
        div_l20_sq = float(dt * np.sum(div_vals[1:] ** 2))
        div_l10 = float(dt * np.sum(div_vals[1:]))
        rows.append((form, r, err.linf_l2, err.l2_h1, err.c_u, div_l20_sq, div_l10))

    out = Path(args.out or "compare.csv")
    with open(out, "w") as fh:
        fh.write("form,r,linf_l2,l2_h1,c_u,fom_div_l20_sq,fom_div_l10\n")
        for form, r, a, b, c, d, e in rows:
            fh.write("%s,%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (form, r, a, b, c, d, e))
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_verify(args):
    """Run the built-in invariant suites on a small mesh and report."""
    rng = np.random.default_rng(args.seed or 0)
    failures = []

    def check(label, ok):
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        if not ok:
            failures.append(label)

    rule = triangle_quadrature()
    import math

    exact = lambda p, q: math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)
    worst = max(
        abs(float(np.dot(rule.weights, rule.points[:, 1] ** p * rule.points[:, 2] ** q)) - exact(p, q))
        for p in range(6) for q in range(6 - p)
    )
    check(f"quadrature exactness degree 5 (max defect {worst:.1e})", worst < 1e-14)

    mesh = uniform_rect_mesh(8, 8)
    space = TaylorHoodSpace(mesh)
    mask, _ = space.dirichlet_data({lab: ("noslip",) for lab in ("left", "right", "top", "bottom")})
    worst_id = 0.0
    for _ in range(5):
        u = rng.standard_normal(space.n_vel)
        v = rng.standard_normal(space.n_vel)
        u[mask] = 0.0
        v[mask] = 0.0
        hu = field_norms(space, u)
        hv = field_norms(space, v)
        nu_ = np.hypot(hu.l2, hu.h1_semi)
        nv_ = np.hypot(hv.l2, hv.h1_semi)
        worst_id = max(worst_id, abs(trilinear_value(space, "skew", u, v, v)) / (nu_ * nv_ * nv_))
        worst_id = max(worst_id, abs(trilinear_value(space, "emac", u, u, u)) / nu_**3)
        worst_id = max(worst_id, abs(trilinear_value(space, "rotational", u, v, v)) / (nu_ * nv_ * nv_))
    check(f"nonlinear-form energy identities (max {worst_id:.1e})", worst_id <= 1e-11)

    m = rng.standard_normal((6, 6))
    m = m @ m.T
    vals, vecs = sym_eig(m)
    resid = max(np.linalg.norm(m @ vecs[:, k] - vals[k] * vecs[:, k]) for k in range(6))
    check(f"symmetric eigensolver residual ({resid:.1e})", resid < 1e-10 * np.linalg.norm(m, 2))

    return EXIT_OK if not failures else EXIT_SOLVER


def main(argv=None):
    parser = argparse.ArgumentParser(prog="flowrom",
                                     description="Taylor-Hood Navier-Stokes FOM/ROM laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fom = sub.add_parser("fom", help="run the full-order solver")
    p_fom.add_argument("--config", required=True)
    p_fom.add_argument("--out", default=None, help="output directory")
    p_fom.add_argument("--form", choices=[f.value for f in NonlinearForm], default=None)
    p_fom.add_argument("--scheme", choices=["backward_euler", "bdf2"], default=None)

    p_pod = sub.add_parser("pod", help="build the POD basis from a snapshot archive")
    p_pod.add_argument("archive")
    p_pod.add_argument("--config", required=True)
    p_pod.add_argument("--centering", choices=["none", "mean"], default=None)
    p_pod.add_argument("--out", default=None)

    p_rom = sub.add_parser("rom", help="run a reduced model from a basis archive")
    p_rom.add_argument("basis")
    p_rom.add_argument("--archive", required=True, help="snapshot archive (start state + times)")
    p_rom.add_argument("--config", required=True)
    p_rom.add_argument("--r", type=int, default=None)
    p_rom.add_argument("--form", choices=[f.value for f in NonlinearForm], default=None)
    p_rom.add_argument("--out", default=None)

    p_cmp = sub.add_parser("compare", help="tabulate ROM-vs-FOM trajectory errors")
    p_cmp.add_argument("trajectories", nargs="+", help="ROM trajectory CSVs")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--archive", required=True)
    p_cmp.add_argument("--basis", required=True)
    p_cmp.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run the built-in invariant checks")
    p_ver.add_argument("--seed", type=int, default=None)

    args = parser.parse_args(argv)
    handlers = {"fom": cmd_fom, "pod": cmd_pod, "rom": cmd_rom,
                "compare": cmd_compare, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (fio.ArchiveFormatError, MeshFormatError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NewtonConvergenceError, RomNewtonError, SingularSystemError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
