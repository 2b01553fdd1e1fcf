import dataclasses
import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import flowrom.cli
import flowrom.fem
import flowrom.fom
import flowrom.rom
from flowrom.cli import _build_problem, _load_config, main
from flowrom.diagnostics import reduced_trajectory_error
from flowrom.fem import TaylorHoodSpace
from flowrom.fom import FomConfig, run_fom
from flowrom.io import (read_basis, read_basis_coordinates, read_csv, read_snapshots, write_basis,
                        write_snapshots)
from flowrom.numerics import NEWTON_TOL, uniform_step
from flowrom.pod import SnapshotSet
from flowrom.rom import RomOperators, RomTrajectory, assemble_rom_operators

from conftest import with_projection


MICRO_KH = """
[problem]
name = kelvin-helmholtz
nx = 8
ny = 8

[fom]
nu = 3.5714285714285714e-04
dt = 0.05
t_end = 0.25
form = skew
scheme = backward_euler
snapshot_start = 0.0
snapshot_end = 0.25
snapshot_stride = 1

[rom]
r = 3
centering = none

[output]
prefix = micro
"""

MICRO_CYLINDER = """
[problem]
name = cylinder-channel

[fom]
nu = 5e-4
dt = 0.0025
t_end = 0.0125
form = emac
scheme = bdf2
snapshot_start = 0.0
snapshot_end = 0.0125

[rom]
r = 3

[output]
prefix = micro
"""

CONFIG_DIR = Path(__file__).resolve().parents[1] / "demos" / "configs"
MICRO_CONFIG = CONFIG_DIR / "kh_micro.ini"


def _run_micro(root, text):
    """fom and pod on a micro config; returns (config, archive, basis, common flags)."""
    cfg = root / "micro.ini"
    cfg.write_text(text)
    common = ["--config", str(cfg), "--out", str(root)]
    assert main(["fom", *common]) == 0
    archive, basis = str(root / "micro_snapshots.bin"), str(root / "micro_basis.bin")
    assert main(["pod", archive, *common]) == 0
    return cfg, archive, basis, common


def _subcommand(command, root, cfg, out):
    """argv of ``command`` on the files of ``micro_pipeline``'s ``root``, writing into ``out``."""
    archive, basis = str(root / "micro_snapshots.bin"), str(root / "micro_basis.bin")
    inputs = {"fom": [], "pod": [archive], "rom": [basis, "--archive", archive],
              "compare": [str(root / "micro_rom_skew_r3_traj.csv"), "--archive", archive, "--basis", basis]}
    target = out / "compare.csv" if command == "compare" else out
    return [command, *inputs[command], "--config", str(cfg), "--out", str(target)]


def _spaces_made(monkeypatch, argv):
    """Every space that a successful ``main(argv)`` makes, in order."""
    spaces, init = [], TaylorHoodSpace.__init__

    def collect(space, mesh):
        init(space, mesh)
        spaces.append(space)

    with monkeypatch.context() as patch:
        patch.setattr(TaylorHoodSpace, "__init__", collect)
        assert main(argv) == 0
    return spaces


# the space's memos that assemble an operator
OPERATORS = {"mass", "stiffness", "divergence", "div_form", "curl_form", "pressure_volume", "saddle_order"}


def _formed(space):
    """The :data:`OPERATORS` that ``space`` has formed."""
    return {key[0].rpartition(".")[2] for key in space._cache} & OPERATORS


def _digest(matrix):
    return hashlib.sha256(matrix.data.tobytes()).hexdigest()


def _kept_data(space):
    """The :func:`_digest` of every sparse matrix in ``space``'s memo, tuples opened."""
    values = [v for value in space._cache.values() for v in (value if isinstance(value, tuple) else (value,))]
    return {_digest(v) for v in values if sp.issparse(v)}


# an edit of MICRO_KH that the loader rejects, by the section and key it breaks
MALFORMED = {
    "[rom] centering": ("centering = none", "centering = bogus"),
    "[rom] r": ("r = 3", "r = x"),
    "[rom] form": ("r = 3", "r = 3\nform = skew"),  # retired: the ROM form is --form or [fom] form
    "[fom] form": ("form = skew", "form = upwind"),
    "[fom] dt": ("dt = 0.05", "dt = abc"),
    "[problem] nx": ("nx = 8", "nx = abc"),
    "[problem] ny": ("name = kelvin-helmholtz\nnx = 8", "name = cylinder-channel"),  # the cylinder has no ny
}


@pytest.fixture(scope="module")
def micro_cylinder(tmp_path_factory):
    """fom and pod on MICRO_CYLINDER: (root, config, archive, basis)."""
    root = tmp_path_factory.mktemp("cylinder")
    cfg, archive, basis, _ = _run_micro(root, MICRO_CYLINDER)
    return root, cfg, archive, basis


@pytest.fixture(scope="module")
def micro_pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "micro.ini"
    cfg.write_text(MICRO_KH)
    out = str(root)
    assert main(["fom", "--config", str(cfg), "--out", out]) == 0
    assert main(["pod", f"{out}/micro_snapshots.bin", "--config", str(cfg), "--out", out]) == 0
    assert main(["rom", f"{out}/micro_basis.bin", "--archive", f"{out}/micro_snapshots.bin",
                 "--config", str(cfg), "--out", out]) == 0
    return root, cfg


class TestPipeline:
    def test_fom_outputs(self, micro_pipeline):
        root, _ = micro_pipeline
        assert (root / "micro_snapshots.bin").is_file()
        header, cols = read_csv(root / "micro_scalars.csv")
        assert header == ["t", "energy", "enstrophy", "div_error", "drag",
                          "newton_iters", "factorizations", "newton_residual"]
        assert cols[0].size == 6  # t_end/dt + 1 rows
        assert np.all(np.isnan(cols[4]))  # no cylinder boundary
        assert cols[5][0] == 0 and np.all(cols[5][1:] >= 1)  # linear solves per step
        assert cols[6][0] == 0 and cols[6][1] >= 1  # the first step factorizes
        assert cols[7][0] == 0 and np.all(cols[7][1:] <= NEWTON_TOL)  # converged steps

    def test_pod_outputs(self, micro_pipeline):
        root, _ = micro_pipeline
        header, cols = read_csv(root / "micro_spectrum.csv")
        assert header == ["k", "lambda"]
        assert np.all(np.diff(cols[1]) <= 0)  # descending spectrum

    def test_rom_outputs(self, micro_pipeline):
        root, _ = micro_pipeline
        header, cols = read_csv(root / "micro_rom_skew_r3_traj.csv")
        assert header == ["t", "a_1", "a_2", "a_3"]
        assert cols[0].size == 6
        sheader, scols = read_csv(root / "micro_rom_skew_r3_scalars.csv")
        assert sheader == ["t", "energy", "enstrophy", "newton_iters"]
        assert np.all(scols[1] > 0)
        assert scols[-1][0] == 0 and np.all(scols[-1][1:] >= 1)  # Newton updates per step

    def test_compare(self, micro_pipeline):
        # the header and one row as text: the form verbatim, r and the errors
        # and divergence norms with 17 significant digits
        root, cfg = micro_pipeline
        out = root / "compare.csv"
        traj_path = root / "micro_rom_skew_r3_traj.csv"
        assert main(["compare", str(traj_path),
                     "--config", str(cfg), "--archive", str(root / "micro_snapshots.bin"),
                     "--basis", str(root / "micro_basis.bin"), "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert header == "form,r,linf_l2,l2_h1,c_u,fom_div_l20_sq,fom_div_l10"
        coords = read_basis_coordinates(root / "micro_basis.bin")
        _, cols = read_csv(traj_path)
        err = reduced_trajectory_error(coords, RomTrajectory(coeffs=np.column_stack(cols[1:]), times=cols[0]),
                                       float(_load_config(cfg)["fom"]["nu"]))
        dt, div = uniform_step(coords.times), coords.div_norms[1:]
        values = (err.linf_l2, err.l2_h1, err.c_u, dt * np.sum(div ** 2), dt * np.sum(div))
        assert row == "skew,3," + ",".join("%.17g" % v for v in values)
        assert err.linf_l2 > 0.0

    def test_compare_takes_r_from_columns(self, micro_pipeline, tmp_path):
        # a renamed file cannot report an r its coefficients do not have
        root, cfg = micro_pipeline
        renamed = tmp_path / "micro_rom_emac_r7_traj.csv"
        renamed.write_bytes((root / "micro_rom_skew_r3_traj.csv").read_bytes())
        out = tmp_path / "compare.csv"
        assert main(["compare", str(renamed), "--config", str(cfg),
                     "--archive", str(root / "micro_snapshots.bin"),
                     "--basis", str(root / "micro_basis.bin"), "--out", str(out)]) == 0
        table = dict(zip(*read_csv(out)))
        assert table["form"].tolist() == ["emac"] and table["r"].tolist() == [3]

    @pytest.mark.parametrize("name", ["foo_traj.csv", "a_b_c.csv"])
    def test_compare_rejects_a_name_without_a_form(self, micro_pipeline, tmp_path, capsys, name):
        # compare.csv rows are keyed by (form, r), so compare invents no form
        root, cfg = micro_pipeline
        renamed = tmp_path / name
        renamed.write_bytes((root / "micro_rom_skew_r3_traj.csv").read_bytes())
        out = tmp_path / "compare.csv"
        assert main(["compare", str(renamed), "--config", str(cfg),
                     "--archive", str(root / "micro_snapshots.bin"),
                     "--basis", str(root / "micro_basis.bin"), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"format error: {renamed}: " in err and "unknown nonlinear form" in err
        assert not out.exists()

    def test_compare_reads_only_the_coordinates(self, micro_pipeline, tmp_path, capsys):
        # NaN in the modes and the projection cubes: compare never reads them, rom does
        root, cfg = micro_pipeline
        basis = read_basis(root / "micro_basis.bin")
        basis.modes[0, 0] = np.nan
        basis.projection.conv[0, 1, 2] = np.nan
        bad = tmp_path / "nan_basis.bin"
        write_basis(bad, basis)
        archive = str(root / "micro_snapshots.bin")
        for source, out in ((root / "micro_basis.bin", "clean.csv"), (bad, "nan.csv")):
            assert main(["compare", str(root / "micro_rom_skew_r3_traj.csv"), "--config", str(cfg),
                         "--archive", archive, "--basis", str(source),
                         "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "nan.csv").read_bytes() == (tmp_path / "clean.csv").read_bytes()
        assert main(["rom", str(bad), "--archive", archive, "--config", str(cfg),
                     "--out", str(tmp_path)]) == 4
        assert "non-finite value in modes" in capsys.readouterr().err

    @pytest.mark.parametrize("text,drag_label", [(MICRO_KH, False), (MICRO_CYLINDER, True)],
                             ids=["kh", "cylinder"])
    def test_fom_series_are_the_scalars_columns(self, tmp_path, monkeypatch, text, drag_label):
        # run_fom's series are the scalars file's columns, in order; the drag
        # is NaN at t = 0 and, without a drag boundary, at every step
        runs = []

        def recording(*args):
            runs.append(run_fom(*args))
            return runs[-1]

        monkeypatch.setattr(flowrom.cli, "run_fom", recording)
        cfg = tmp_path / "micro.ini"
        cfg.write_text(text)
        assert main(["fom", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        [(_, _, series)] = runs
        header, cols = read_csv(tmp_path / "micro_scalars.csv")
        assert header == ["t", *series]
        assert np.array_equal(cols[0], series["energy"].times)
        for col, s in zip(cols[1:], series.values(), strict=True):
            assert np.array_equal(s.times, cols[0]) and np.array_equal(col, s.values, equal_nan=True)
        drag = series["drag"].values
        assert drag.size == 6 and np.isnan(drag[0])
        assert np.all(np.isfinite(drag[1:]) if drag_label else np.isnan(drag[1:]))

    def test_fom_rerun_byte_identical(self, micro_pipeline, tmp_path):
        root, cfg = micro_pipeline
        assert main(["fom", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        h1 = hashlib.sha256((root / "micro_snapshots.bin").read_bytes()).hexdigest()
        h2 = hashlib.sha256((tmp_path / "micro_snapshots.bin").read_bytes()).hexdigest()
        assert h1 == h2
        assert (root / "micro_scalars.csv").read_text() == (tmp_path / "micro_scalars.csv").read_text()

    def test_strided_snapshots(self, tmp_path):
        # the ROM steps [fom] dt = 0.05: its trajectory keeps the snapshot
        # grid, its scalars every step
        text = MICRO_CONFIG.read_text().replace(
            "snapshot_end = 0.25", "snapshot_end = 0.25\nsnapshot_stride = 2")
        cfg, archive, basis, common = _run_micro(tmp_path, text)
        assert main(["rom", basis, "--archive", archive, *common]) == 0
        traj = tmp_path / "micro_rom_skew_r3_traj.csv"
        _, cols = read_csv(traj)
        np.testing.assert_allclose(cols[0], [0.0, 0.1, 0.2], rtol=0.0, atol=1e-12)
        _, scalars = read_csv(tmp_path / "micro_rom_skew_r3_scalars.csv")
        np.testing.assert_allclose(scalars[0], [0.0, 0.05, 0.1, 0.15, 0.2], rtol=0.0, atol=1e-12)
        out = tmp_path / "compare.csv"
        assert main(["compare", str(traj), "--config", str(cfg), "--archive", archive,
                     "--basis", basis, "--out", str(out)]) == 0
        assert dict(zip(*read_csv(out)))["form"].tolist() == ["skew"]  # one row

    def test_rom_energies_come_from_the_projection(self, micro_pipeline, tmp_path, monkeypatch, capsys):
        # rom forms no operator at the stored r = 3: it starts from the stored
        # coordinates, and the energy and enstrophy series read the
        # projection's Grams.  At r = rank > 3 it refuses to run and writes
        # nothing: it never projects.  compare forms none.
        from flowrom.diagnostics import energy_enstrophy
        from flowrom.rom import reconstruct_field

        root, cfg = micro_pipeline
        basis = read_basis(root / "micro_basis.bin")
        assert basis.projection.m == 3 < basis.rank
        argv = ["rom", str(root / "micro_basis.bin"), "--archive", str(root / "micro_snapshots.bin"),
                "--config", str(cfg), "--out", str(tmp_path)]
        [stored] = _spaces_made(monkeypatch, [*argv, "--r", "3"])
        [compared] = _spaces_made(monkeypatch, _subcommand("compare", root, cfg, tmp_path))
        assert _formed(stored) == _formed(compared) == set()
        space = _build_problem(cfg).space
        _, traj = read_csv(tmp_path / "micro_rom_skew_r3_traj.csv")
        header, scalars = read_csv(tmp_path / "micro_rom_skew_r3_scalars.csv")
        assert header[1:3] == ["energy", "enstrophy"]
        for n, a in enumerate(np.column_stack(traj[1:])):
            e, z = energy_enstrophy(space, reconstruct_field(basis, a))
            assert scalars[1][n] == pytest.approx(e, rel=1e-12)
            assert scalars[2][n] == pytest.approx(z, rel=1e-12)
        capsys.readouterr()
        assert main([*argv, "--r", str(basis.rank)]) == 2
        assert f"--r: requested r={basis.rank} is outside 1..3" in capsys.readouterr().err
        assert not list(tmp_path.glob(f"*_r{basis.rank}_*"))

    def test_only_fom_forms_the_curl_form(self, micro_pipeline, tmp_path, monkeypatch):
        # pod reads the div form, for the snapshots' divergence norms, and
        # keeps no curl matrix; fom keeps both, for div_error and the enstrophy
        root, cfg = micro_pipeline
        [pod] = _spaces_made(monkeypatch, _subcommand("pod", root, cfg, tmp_path / "pod"))
        [fom] = _spaces_made(monkeypatch, _subcommand("fom", root, cfg, tmp_path / "fom"))
        reference = TaylorHoodSpace(pod.mesh)
        div, curl = _digest(reference.div_form()), _digest(reference.curl_form())
        assert div in _kept_data(pod) and curl not in _kept_data(pod)
        assert {div, curl} <= _kept_data(fom)

    def test_centered_pipeline(self, tmp_path):
        # [rom] centering = mean through pod, a ROM per form and compare, run twice
        text = MICRO_CONFIG.read_text().replace("centering = none", "centering = mean")
        forms = ("convective", "skew", "rotational", "emac")
        outputs = []
        for run in ("first", "second"):
            root = tmp_path / run
            root.mkdir()
            cfg, archive, basis, common = _run_micro(root, text)
            trajs = []
            for form in forms:
                assert main(["rom", basis, "--archive", archive, "--form", form, *common]) == 0
                trajs.append(str(root / f"micro_rom_{form}_r3_traj.csv"))
            out = root / "compare.csv"
            assert main(["compare", *trajs, "--config", str(cfg), "--archive", archive,
                         "--basis", basis, "--out", str(out)]) == 0
            table = dict(zip(*read_csv(out)))
            assert table["form"].tolist() == list(forms) and table["r"].tolist() == [3] * len(forms)
            assert all(np.isfinite(col).all() for name, col in table.items() if name != "form")
            outputs.append({p.name: p.read_bytes() for p in root.iterdir() if p.name != "micro.ini"})
            stored = read_basis(basis)
            assert stored.centered and stored.projection.m == 1 + min(3, stored.rank)  # mean, [rom] r
        assert len(outputs[0]) == 13  # archive, scalars, basis, spectrum, 4 x 2 ROM files, compare
        assert outputs[0] == outputs[1]

    def test_cylinder_drag_at_every_step(self, micro_cylinder, tmp_path):
        # the FOM's drag is fom.step_drag of each step, and the ROM's, read off
        # the projection, is step_drag, with the FOM's form, of each
        # reconstructed step to roundoff; no step ends at the first row
        from flowrom.fom import step_drag
        from flowrom.rom import reconstruct_field

        root, cfg, archive, basis_path = micro_cylinder
        assert main(["rom", basis_path, "--archive", archive, "--config", str(cfg), "--out", str(tmp_path),
                     "--form", "skew"]) == 0
        _, fom = read_csv(root / "micro_scalars.csv")
        header, rom = read_csv(tmp_path / "micro_rom_skew_r3_scalars.csv")
        assert header == ["t", "energy", "enstrophy", "drag", "newton_iters"]
        for drag in (fom[4], rom[3]):
            assert drag.size == 6 and np.isnan(drag[0]) and np.all(np.isfinite(drag[1:]))

        problem = _build_problem(cfg)
        basis = read_basis(basis_path, space=problem.space)
        _, traj = read_csv(tmp_path / "micro_rom_skew_r3_traj.csv")
        u = [reconstruct_field(basis, a) for a in np.column_stack(traj[1:])]
        want = np.array([step_drag(problem.space, problem.fom, u[n], u[n - 1], u[n - 2] if n > 1 else None)
                         for n in range(1, len(u))])
        assert np.abs(rom[3][1:] - want).max() <= 1e-12 * np.abs(want).max()

    def test_cylinder_rom_forms_no_field(self, micro_cylinder, tmp_path, monkeypatch):
        # the drag comes from the stored projection: no full-order residual is
        # evaluated and no reduced state is rebuilt as a field
        root, cfg, archive, basis = micro_cylinder
        calls = []
        for module in (flowrom.fem, flowrom.fom, flowrom.rom, flowrom.cli):
            for name in ("nonlinear_residual", "reconstruct_field"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, lambda *args, _name=name: calls.append(_name))
        assert main(["rom", basis, "--archive", archive, "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert calls == []
        assert np.isfinite(dict(zip(*read_csv(tmp_path / "micro_rom_emac_r3_scalars.csv")))["drag"][1:]).all()


class TestErrorPaths:
    def test_missing_config(self, tmp_path):
        assert main(["fom", "--config", str(tmp_path / "nope.ini")]) == 2

    @pytest.mark.parametrize("edit", [
        ("[rom]", "newton_tol = 1e-12\n\n[rom]"),  # deleted: the tolerance is fixed
        ("snapshot_stride = 1", "snapshot_strde = 1"),  # misspelled
        ("[output]", "[solver]\nnewton_tol = 1e-12\n\n[output]"),  # unknown section
        ("nx = 8\nny = 8", "nx = 8\nnx = 9\nny = 8"),  # duplicate key
        ("ny = 8", "ny = 8\nmesh = bundled"),  # deleted: the bundled mesh is the only cylinder mesh
        ("[rom]", "newton_max_iter = 5\n\n[rom]"),  # deleted: the budget is fixed
    ])
    def test_unknown_config_key_is_config_error(self, tmp_path, capsys, edit):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(MICRO_KH.replace(*edit))
        assert main(["fom", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "micro_snapshots.bin").exists()

    @pytest.mark.parametrize("command, edit", [
        ("fom", ("nx = 8", "nx = abc")),
        ("fom", ("nx = 8", "nx = 0")),
        ("fom", ("snapshot_stride = 1", "snapshot_stride = 0")),
        ("fom", ("snapshot_stride = 1", "snapshot_stride = -1")),
        ("fom", ("dt = 0.05", "dt = 0.07")),  # t_end = 0.25 is no multiple of it
        ("fom", ("dt = 0.05", "dt = inf")),
        ("fom", ("t_end = 0.25", "t_end = inf")),
        ("pod", ("centering = none", "centering = bogus")),
        ("fom", ("nu = 3.5714285714285714e-04", "nu = nan")),
        ("fom", ("nu = 3.5714285714285714e-04", "nu = inf")),
        ("fom", ("nu = 3.5714285714285714e-04", "nu = 0")),
        ("fom", ("nu = 3.5714285714285714e-04", "nu = -1")),
        # a snapshot window that holds no step
        ("fom", ("snapshot_start = 0.0\nsnapshot_end = 0.25", "snapshot_start = 0.01\nsnapshot_end = 0.02")),
        ("rom", ("form = skew", "form = upwind")),
        ("fom", ("t_end = 0.25", "t_end = 1e-10")),  # step 0 of dt = 0.05, to roundoff: a run of no step
    ])
    def test_malformed_config_value_is_config_error(self, micro_pipeline, tmp_path, capsys, command, edit):
        root, _ = micro_pipeline
        cfg = tmp_path / "bad.ini"
        cfg.write_text(MICRO_KH.replace(*edit))
        assert main(_subcommand(command, root, cfg, tmp_path)) == 2
        assert "config error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.ini"]

    @pytest.mark.parametrize("command", ["fom", "pod", "rom", "compare"])
    @pytest.mark.parametrize("key", list(MALFORMED))
    def test_malformed_value_fails_every_subcommand(self, micro_pipeline, tmp_path, capsys, key, command):
        # every value is parsed on load, also those of keys the subcommand does not read
        root, _ = micro_pipeline
        cfg = tmp_path / "bad.ini"
        cfg.write_text(MICRO_KH.replace(*MALFORMED[key]))
        assert main(_subcommand(command, root, cfg, tmp_path)) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.ini"]

    @pytest.mark.parametrize("flag, key", [(["--r", "3"], "[rom] r"), (["--form", "skew"], "[rom] form"),
                                           (["--form", "skew"], "[fom] form")])
    def test_flag_does_not_pass_a_malformed_key(self, micro_pipeline, tmp_path, capsys, flag, key):
        root, _ = micro_pipeline
        cfg = tmp_path / "bad.ini"
        cfg.write_text(MICRO_KH.replace(*MALFORMED[key]))
        assert main([*_subcommand("rom", root, cfg, tmp_path), *flag]) == 2
        assert key in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.ini"]

    @pytest.mark.parametrize("command", ["pod", "fom"])
    def test_unusable_path_is_config_error(self, micro_pipeline, tmp_path, command):
        # a directory as the snapshot archive, an existing file as --out
        _, cfg = micro_pipeline
        if command == "pod":
            path = tmp_path / "snapshots.bin"
            path.mkdir()
            argv = ["pod", str(path), "--config", str(cfg), "--out", str(tmp_path)]
        else:
            path = tmp_path / "out"
            path.write_text("")
            argv = ["fom", "--config", str(cfg), "--out", str(path)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(flowrom.cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-m", "flowrom", *argv], capture_output=True, text=True, env=env)
        assert run.returncode == 2
        assert "config error" in run.stderr and str(path) in run.stderr and "Traceback" not in run.stderr
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_unset_fom_keys_take_the_fomconfig_defaults(self, tmp_path):
        from flowrom.fom import kelvin_helmholtz_boundary

        cfg = tmp_path / "min.ini"
        cfg.write_text("[problem]\nname = kelvin-helmholtz\nnx = 4\nny = 4\n"
                       "[fom]\nnu = 1e-3\ndt = 0.05\nt_end = 0.25\n")
        got = _build_problem(cfg).fom
        want = FomConfig(1e-3, 0.05, 0.25, boundary=kelvin_helmholtz_boundary(), project_initial=True)
        for field in dataclasses.fields(FomConfig):
            assert getattr(got, field.name) == getattr(want, field.name), field.name

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.ini")), ids=lambda p: p.name)
    def test_demo_configs_are_accepted(self, path):
        # the whole set-up of every subcommand: the space and the validated FomConfig
        problem = _build_problem(path)
        assert problem.config["problem"]["name"] in ("kelvin-helmholtz", "cylinder-channel")
        assert isinstance(problem.fom, FomConfig) and problem.space.n_vel > 0

    @pytest.mark.parametrize("command", ["fom", "pod", "rom", "compare"])
    @pytest.mark.parametrize("edit", [
        ("nu = 3.5714285714285714e-04", "nu = 0"),
        ("scheme = backward_euler", "scheme = bogus"),
        ("nu = 3.5714285714285714e-04\n", ""),
    ], ids=["nu_zero", "unknown_scheme", "no_nu"])
    def test_invalid_fom_settings_fail_every_subcommand(self, micro_pipeline, tmp_path, capsys, edit, command):
        # every subcommand builds the FomConfig, so each rejects what it rejects
        root, _ = micro_pipeline
        cfg = tmp_path / "bad.ini"
        cfg.write_text(MICRO_KH.replace(*edit))
        assert main(_subcommand(command, root, cfg, tmp_path)) == 2
        assert f"config error: {cfg}: [fom] " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.ini"]

    @pytest.mark.parametrize("kind", ["directory", "not_text"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, kind):
        # the loader opens the file itself, so an unreadable path is named, not skipped
        path = tmp_path
        if kind == "not_text":
            path = tmp_path / "binary.ini"
            path.write_bytes(b"\xff\xfe\x00[problem]")
        assert main(["fom", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(path) in err and "[problem]" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("removed", [["verify"], ["verify", "--seed", "0"],
                                         ["pod", "--centering", "mean"]])
    def test_removed_cli_surface(self, micro_pipeline, tmp_path, removed):
        # the checks verify made are tier-1 tests; [rom] centering sets the centering
        root, cfg = micro_pipeline
        argv = removed
        if removed[0] == "pod":
            argv = ["pod", str(root / "micro_snapshots.bin"), "--config", str(cfg),
                    "--out", str(tmp_path), *removed[1:]]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", [["--scheme", "bdf2"], ["--form", "emac"]])
    def test_fom_has_no_form_or_scheme_flag(self, micro_pipeline, tmp_path, flag):
        # the archive does not record them, so rom could not follow them
        _, cfg = micro_pipeline
        with pytest.raises(SystemExit) as exc:
            main(["fom", "--config", str(cfg), "--out", str(tmp_path), *flag])
        assert exc.value.code == 2
        assert not (tmp_path / "micro_snapshots.bin").exists()

    def test_archive_dof_mismatch_is_format_error(self, micro_pipeline, tmp_path, capsys):
        root, _ = micro_pipeline
        cfg = tmp_path / "six.ini"
        cfg.write_text(MICRO_KH.replace("nx = 8\nny = 8", "nx = 6\nny = 6"))
        common = ["--config", str(cfg), "--out", str(tmp_path)]
        archive, basis = str(root / "micro_snapshots.bin"), str(root / "micro_basis.bin")
        traj = str(root / "micro_rom_skew_r3_traj.csv")
        assert main(["pod", archive, *common]) == 4
        assert main(["rom", basis, "--archive", archive, *common]) == 4
        assert main(["compare", traj, "--config", str(cfg), "--archive", archive,
                     "--basis", basis, "--out", str(tmp_path / "c.csv")]) == 4
        assert capsys.readouterr().err.count("does not match the configured mesh") == 3

    def test_non_finite_archive_is_format_error(self, micro_pipeline, tmp_path, capsys):
        # pod reads the payload; rom and compare read only the times
        root, cfg = micro_pipeline
        bad, bad_time = tmp_path / "nan_snapshots.bin", tmp_path / "nan_time_snapshots.bin"
        snaps = read_snapshots(root / "micro_snapshots.bin")
        snaps.matrix[5, -1] = np.nan
        write_snapshots(bad, snaps)
        snaps = read_snapshots(root / "micro_snapshots.bin")
        snaps.times[-1] = np.nan
        write_snapshots(bad_time, snaps)
        assert main(["pod", str(bad), "--config", str(cfg), "--out", str(tmp_path)]) == 4
        assert main(["rom", str(root / "micro_basis.bin"), "--archive", str(bad_time),
                     "--config", str(cfg), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "non-finite value in snapshot payload" in err
        assert "non-finite value in times" in err

    @pytest.mark.parametrize("edit", ["shifted", "one_fewer", "truncated"])
    def test_archive_of_another_basis_is_format_error(self, micro_pipeline, tmp_path, capsys, edit):
        # rom and compare check the archive's times against the basis's
        root, cfg = micro_pipeline
        bad = tmp_path / "other_snapshots.bin"
        source = root / "micro_snapshots.bin"
        if edit == "truncated":  # times intact, payload cut short
            bad.write_bytes(source.read_bytes()[:-8])
        else:
            snaps = read_snapshots(source)
            if edit == "shifted":
                snaps.times += 0.5
            else:
                snaps = SnapshotSet(matrix=snaps.matrix[:, :-1], times=snaps.times[:-1])
            write_snapshots(bad, snaps)
        basis, traj = str(root / "micro_basis.bin"), str(root / "micro_rom_skew_r3_traj.csv")
        assert main(["rom", basis, "--archive", str(bad), "--config", str(cfg),
                     "--out", str(tmp_path)]) == 4
        assert main(["compare", traj, "--config", str(cfg), "--archive", str(bad),
                     "--basis", basis, "--out", str(tmp_path / "c.csv")]) == 4
        message = ("snapshot payload size does not match" if edit == "truncated"
                   else "snapshot times differ from those of the basis")
        assert capsys.readouterr().err.count(message) == 2
        assert not list(tmp_path.glob("*_rom_*")) and not (tmp_path / "c.csv").exists()

    def test_non_uniform_snapshot_grid_is_format_error(self, micro_pipeline, tmp_path, capsys):
        # pod accepts any times; rom and compare run on the grid, which must be uniform
        root, cfg = micro_pipeline
        snaps = read_snapshots(root / "micro_snapshots.bin")
        snaps.times[:] = [0.0, 0.05, 0.15, 0.2, 0.25, 0.3]
        archive, out = tmp_path / "gap_snapshots.bin", tmp_path / "out"
        write_snapshots(archive, snaps)
        common = ["--config", str(cfg), "--out", str(out)]
        assert main(["pod", str(archive), *common]) == 0
        basis = str(out / "micro_basis.bin")
        assert main(["rom", basis, "--archive", str(archive), *common]) == 4
        assert main(["compare", str(root / "micro_rom_skew_r3_traj.csv"), "--config", str(cfg),
                     "--archive", str(archive), "--basis", basis, "--out", str(out / "c.csv")]) == 4
        assert capsys.readouterr().err.count("time grid is not uniform") == 2
        assert not list(out.glob("*_rom_*")) and not (out / "c.csv").exists()

    def test_trajectory_without_coefficients_is_format_error(self, micro_pipeline, tmp_path, capsys):
        root, cfg = micro_pipeline
        lines = (root / "micro_rom_skew_r3_traj.csv").read_text().splitlines()
        bare = tmp_path / "micro_rom_skew_r0_traj.csv"
        bare.write_text("".join(line.split(",")[0] + "\n" for line in lines))  # the t column only
        code = main(["compare", str(bare), "--config", str(cfg),
                     "--archive", str(root / "micro_snapshots.bin"),
                     "--basis", str(root / "micro_basis.bin"), "--out", str(tmp_path / "c.csv")])
        assert code == 4
        assert str(bare) in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_scalars_file_is_no_trajectory(self, micro_pipeline, tmp_path, capsys):
        # its name has a form token, but its columns are no coefficients
        root, cfg = micro_pipeline
        scalars = root / "micro_rom_skew_r3_scalars.csv"
        code = main(["compare", str(scalars), "--config", str(cfg),
                     "--archive", str(root / "micro_snapshots.bin"),
                     "--basis", str(root / "micro_basis.bin"), "--out", str(tmp_path / "c.csv")])
        assert code == 4
        assert f"{scalars}: a trajectory's header is t, a_1, ..., a_r" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_trajectory_with_text_column_is_format_error(self, micro_pipeline, tmp_path, capsys):
        # read_csv returns a form column as text, which no trajectory holds
        root, cfg = micro_pipeline
        bad = tmp_path / "micro_rom_skew_r3_traj.csv"
        bad.write_text((root / "micro_rom_skew_r3_traj.csv").read_text().replace("t,a_1,", "t,form,", 1))
        code = main(["compare", str(bad), "--config", str(cfg),
                     "--archive", str(root / "micro_snapshots.bin"),
                     "--basis", str(root / "micro_basis.bin"), "--out", str(tmp_path / "c.csv")])
        assert code == 4
        assert f"{bad}: a trajectory holds numbers only" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("column, value", [(2, "nan"), (0, "inf"), (3, "-inf")],
                             ids=["nan_coefficient", "inf_time", "negative_inf_coefficient"])
    def test_non_finite_trajectory_is_format_error(self, micro_pipeline, tmp_path, capsys, column, value):
        # read_csv accepts NaN (the scalars' drag column); a trajectory may not hold one
        root, cfg = micro_pipeline
        lines = (root / "micro_rom_skew_r3_traj.csv").read_text().splitlines()
        row = lines[3].split(",")
        row[column] = value
        lines[3] = ",".join(row)
        bad = tmp_path / "micro_rom_skew_r3_traj.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["compare", str(bad), "--config", str(cfg),
                     "--archive", str(root / "micro_snapshots.bin"),
                     "--basis", str(root / "micro_basis.bin"), "--out", str(tmp_path / "c.csv")])
        assert code == 4
        assert f"{bad}: non-finite value in the trajectory" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("defect", ["version_1", "version_2", "version_3", "version_4", "truncated",
                                        "non_finite", "non_finite_gram", "too_many_fields", "too_many_liftings",
                                        "no_coordinates", "no_projection", "no_lifting"])
    def test_bad_projection_is_format_error(self, micro_pipeline, tmp_path, capsys, request, defect):
        # every defect but no_lifting is of the shear layer's basis; no_lifting
        # is a cylinder basis whose projection lacks the drag lifting
        root, cfg = micro_pipeline
        archive, basis_path = str(root / "micro_snapshots.bin"), str(root / "micro_basis.bin")
        if defect == "no_lifting":
            _, cfg, archive, basis_path = request.getfixturevalue("micro_cylinder")
        raw = bytearray(Path(basis_path).read_bytes())
        bad = tmp_path / "bad_basis.bin"
        rank, nproj = struct.unpack_from("<Q", raw, 24)[0], struct.unpack_from("<Q", raw, 40)[0]
        if defect.startswith("version"):
            raw[8:12] = struct.pack("<I", int(defect[-1]))
        elif defect == "truncated":  # the last value of the curl Gram
            raw = raw[:-8]
        elif defect == "too_many_fields":
            raw[40:48] = struct.pack("<Q", rank + 1)  # uncentered: o + rank = rank fields
        elif defect == "too_many_liftings":
            raw[56:64] = struct.pack("<Q", nproj + 1)
        bad.write_bytes(bytes(raw))
        if defect.startswith("non_finite") or defect.startswith("no_"):
            basis = read_basis(basis_path)
            if defect == "non_finite":
                basis.projection.div[1, 0, 2] = np.inf
            elif defect == "non_finite_gram":
                basis.projection.mass_gram[1, 0] = np.inf
            elif defect == "no_coordinates":  # a basis written from memory, not by pod
                basis.coordinates = None
            elif defect == "no_lifting":  # the projection of the mean and the 3 modes only
                basis = with_projection(_build_problem(cfg).space, basis, 3)
            else:
                basis.projection = None
            write_basis(bad, basis)
        code = main(["rom", str(bad), "--archive", archive, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert {"version_1": "unsupported basis archive version 1",
                "version_2": "unsupported basis archive version 2",
                "version_3": "unsupported basis archive version 3",
                "version_4": "unsupported basis archive version 4",
                "truncated": "truncated archive while reading projection Grams",
                "non_finite": "non-finite value in projection",
                "non_finite_gram": "non-finite value in projection Grams",
                "too_many_fields": f"projected field count {rank + 1} exceeds",
                "too_many_liftings": f"{bad}: lifting count {nproj + 1} exceeds the {nproj} projected fields",
                "no_coordinates": "the basis holds no snapshot coordinates",
                "no_projection": "the basis holds no projection",
                "no_lifting": f"{bad}: the basis holds no drag lifting"}[defect] in err
        assert not list(tmp_path.glob("*_rom_*"))

    @pytest.mark.parametrize("archive,offsets,block", [
        ("snapshots", [24], "times"),              # nsnap
        ("basis", [24, 32], "eigenvalues"),        # rank and nspectrum
        ("basis", [48], "snapshot times"),         # nsnap
    ])
    def test_huge_header_count_is_format_error(self, micro_pipeline, tmp_path, capsys,
                                               archive, offsets, block):
        # counts of 2**61 values: the file size is checked before any block is allocated
        root, cfg = micro_pipeline
        paths = {"snapshots": root / "micro_snapshots.bin", "basis": root / "micro_basis.bin"}
        raw = bytearray(paths[archive].read_bytes())
        for offset in offsets:
            raw[offset:offset + 8] = struct.pack("<Q", 2**61)
        paths[archive] = tmp_path / paths[archive].name
        paths[archive].write_bytes(bytes(raw))
        snaps, basis = str(paths["snapshots"]), str(paths["basis"])
        calls = [["rom", basis, "--archive", snaps, "--config", str(cfg), "--out", str(tmp_path)],
                 ["compare", str(root / "micro_rom_skew_r3_traj.csv"), "--config", str(cfg),
                  "--archive", snaps, "--basis", basis, "--out", str(tmp_path / "c.csv")]]
        if archive == "snapshots":
            calls.append(["pod", snaps, "--config", str(cfg), "--out", str(tmp_path)])
        assert [main(call) for call in calls] == [4] * len(calls)
        assert capsys.readouterr().err.count(f"truncated archive while reading {block})") == len(calls)

    @pytest.mark.parametrize("nx", [1, 2])
    def test_mesh_too_coarse_to_fold_is_config_error(self, tmp_path, capsys, nx):
        # one or two cells across the periodic seam leave no P2 space
        cfg = tmp_path / "coarse.ini"
        cfg.write_text(MICRO_KH.replace("nx = 8\nny = 8", f"nx = {nx}\nny = 4"))
        assert main(["fom", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {cfg}: [problem] nx, ny: the periodic fold" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_mesh_three_cells_across_the_seam_runs(self, tmp_path):
        cfg = tmp_path / "coarse.ini"
        cfg.write_text(MICRO_KH.replace("nx = 8\nny = 8", "nx = 3\nny = 4"))
        assert main(["fom", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert read_snapshots(tmp_path / "micro_snapshots.bin").count == 6

    def test_unknown_problem(self, tmp_path, capsys):
        # the command line poses the paper's two cases only; Taylor-Green is the library's
        for name in ("channel-of-mystery", "taylor-green"):
            cfg = tmp_path / f"{name}.ini"
            cfg.write_text(f"[problem]\nname = {name}\n[fom]\nnu=1\ndt=1\nt_end=1\n")
            assert main(["fom", "--config", str(cfg)]) == 2
            assert f"{cfg}: [problem] name: unknown problem {name!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, edit, code, message", [
        ("fom", None, 3, "solver error: Newton stalled at step 1"),  # a Newton budget of 0
        ("pod", ("r = 3", "r = 0"), 2,
         "config error: {cfg}: [rom] r: requested r=0 is outside 1..6 (the basis rank)"),
    ], ids=["fom_newton_stall", "pod_r_zero"])
    def test_failure_makes_no_out_directory(self, micro_pipeline, tmp_path, capsys, monkeypatch, command, edit,
                                            code, message):
        # --out is made only after the last check that can fail
        root, _ = micro_pipeline
        cfg = tmp_path / "bad.ini"
        if edit is None:
            monkeypatch.setattr("flowrom.fom.NEWTON_MAX_ITER", 0)
        cfg.write_text(MICRO_KH.replace(*edit) if edit else MICRO_KH)
        assert main(_subcommand(command, root, cfg, tmp_path / "out")) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(message.format(cfg=cfg))
        assert not (tmp_path / "out").exists()

    def test_corrupt_archive(self, tmp_path, micro_pipeline):
        _, cfg = micro_pipeline
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"GARBAGE!" + b"\0" * 100)
        assert main(["pod", str(bad), "--config", str(cfg), "--out", str(tmp_path)]) == 4

    def test_form_flag_rejects_unknown(self, micro_pipeline, capsys):
        root, cfg = micro_pipeline
        with pytest.raises(SystemExit) as exc:
            main(["rom", str(root / "micro_basis.bin"), "--archive",
                  str(root / "micro_snapshots.bin"), "--config", str(cfg),
                  "--form", "upwind"])
        assert exc.value.code == 2

    def test_form_flag_accepts_all_four(self, micro_pipeline, tmp_path):
        root, cfg = micro_pipeline
        for form in ("convective", "skew", "rotational", "emac"):
            code = main(["rom", str(root / "micro_basis.bin"), "--archive",
                         str(root / "micro_snapshots.bin"), "--config", str(cfg),
                         "--form", form, "--out", str(tmp_path)])
            assert code == 0

    def test_fom_newton_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("flowrom.fom.NEWTON_MAX_ITER", 0)
        cfg = tmp_path / "stall.ini"
        cfg.write_text(MICRO_KH)
        assert main(["fom", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "Newton stalled at step 1" in capsys.readouterr().err
        assert not (tmp_path / "micro_snapshots.bin").exists()

    def test_rom_newton_failure(self, micro_pipeline, tmp_path, capsys, monkeypatch):
        root, _ = micro_pipeline
        monkeypatch.setattr("flowrom.rom.NEWTON_MAX_ITER", 0)
        cfg = tmp_path / "stall.ini"
        cfg.write_text(MICRO_KH)
        code = main(["rom", str(root / "micro_basis.bin"), "--archive",
                     str(root / "micro_snapshots.bin"), "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 3
        assert "diverged at step 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_rom_*_traj.csv"))

    @pytest.mark.parametrize("failure", ["non-finite residual", "exactly singular Newton matrix"])
    def test_rom_newton_breakdown(self, micro_pipeline, tmp_path, capsys, monkeypatch, failure):
        # an overflowing quadratic term, and a viscous matrix that cancels the
        # time derivative (with no quadratic term the Newton matrix is exactly 0)
        root, cfg = micro_pipeline
        basis = root / "micro_basis.bin"
        dt = _load_config(cfg)["fom"]["dt"]

        def broken(basis, r, form, nu):
            ops = assemble_rom_operators(basis, r, form, nu)
            if failure == "non-finite residual":
                return RomOperators(visc=ops.visc, tensor=1e300 * ops.tensor)
            return RomOperators(visc=-(1.0 / dt) * np.eye(*ops.visc.shape), tensor=np.zeros_like(ops.tensor))

        monkeypatch.setattr(flowrom.cli, "assemble_rom_operators", broken)
        code = main(["rom", str(basis), "--archive", str(root / "micro_snapshots.bin"),
                     "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 3
        assert f"diverged at step 1 (t=0.05): {failure}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_rom_*"))

    def test_rom_r_exceeds_rank(self, micro_pipeline, tmp_path, capsys):
        # r is bounded by the 3 modes that pod projected, not by the rank 6; the
        # message names the flag, or the config file and key, that set r
        root, cfg = micro_pipeline
        big = tmp_path / "big.ini"
        big.write_text(MICRO_KH.replace("r = 3", "r = 7"))
        for flags, source in ((["--config", str(cfg), "--r", "5000"], "--r"),
                              (["--config", str(cfg), "--r", "4"], "--r"),
                              (["--config", str(big)], f"{big}: [rom] r")):
            code = main(["rom", str(root / "micro_basis.bin"), "--archive",
                         str(root / "micro_snapshots.bin"), *flags, "--out", str(tmp_path / "out")])
            assert code == 2
            r = flags[-1] if source == "--r" else "7"
            assert capsys.readouterr().err == (
                f"config error: {source}: requested r={r} is outside 1..3 "
                "(the modes of the stored projection; pod projects [rom] r modes)\n")
        assert not (tmp_path / "out").exists()

    def test_rom_r_bound_excludes_the_lifting(self, micro_cylinder, tmp_path, capsys):
        # the cylinder's projection holds the mean, 3 modes and the drag lifting:
        # r = 4 would make the lifting a mode
        _, cfg, archive, basis = micro_cylinder
        assert read_basis(basis).projection.m == 5
        code = main(["rom", basis, "--archive", archive, "--config", str(cfg), "--r", "4",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == ("config error: --r: requested r=4 is outside 1..3 "
                                           "(the modes of the stored projection; pod projects [rom] r modes)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_rom_r_below_one_is_config_error(self, micro_pipeline, tmp_path, capsys, r):
        root, cfg = micro_pipeline
        code = main(["rom", str(root / "micro_basis.bin"), "--archive",
                     str(root / "micro_snapshots.bin"), "--config", str(cfg),
                     f"--r={r}", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (f"config error: --r: requested r={r} is outside 1..3 "
                                           "(the modes of the stored projection; pod projects [rom] r modes)\n")
        assert not list(tmp_path.iterdir())

    def test_rom_single_snapshot_is_config_error(self, tmp_path, capsys):
        text = MICRO_KH.replace("snapshot_start = 0.0", "snapshot_start = 0.25")
        _, archive, basis, common = _run_micro(tmp_path, text)
        assert main(["rom", basis, "--archive", archive, *common, "--r", "1"]) == 2
        assert "at least two snapshots" in capsys.readouterr().err

    def test_rom_dt_off_the_snapshot_grid_is_config_error(self, tmp_path, capsys):
        # the ROM steps [fom] dt, so the snapshot spacing must be a whole number of them
        text = MICRO_KH.replace("snapshot_stride = 1", "snapshot_stride = 2")
        _, archive, basis, _ = _run_micro(tmp_path, text)
        cfg = tmp_path / "off.ini"
        cfg.write_text(text.replace("dt = 0.05", "dt = 0.0625"))
        assert main(["rom", basis, "--archive", archive, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg}: [fom] dt = 0.0625 does not divide the snapshot spacing 0.1 "
            f"of the basis {basis} into whole steps\n")
        assert not (tmp_path / "out").exists()

    def test_pod_without_snapshots_is_config_error(self, micro_pipeline, tmp_path, capsys):
        root, cfg = micro_pipeline
        snaps = read_snapshots(root / "micro_snapshots.bin")
        empty = tmp_path / "empty.bin"
        write_snapshots(empty, SnapshotSet(matrix=snaps.matrix[:, :0], times=snaps.times[:0]))
        assert main(["pod", str(empty), "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "at least one snapshot" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["empty.bin"]

    @pytest.mark.parametrize("case", ["all_zero", "one_centered"])
    def test_pod_of_vanishing_snapshots_is_config_error(self, micro_pipeline, tmp_path, capsys, case):
        # zero snapshots, or one snapshot less its mean, span nothing
        root, _ = micro_pipeline
        snaps = read_snapshots(root / "micro_snapshots.bin")
        cfg = tmp_path / "micro.ini"
        if case == "all_zero":
            cfg.write_text(MICRO_KH)
            vanishing = SnapshotSet(matrix=np.zeros_like(snaps.matrix), times=snaps.times)
        else:
            cfg.write_text(MICRO_KH.replace("centering = none", "centering = mean"))
            vanishing = SnapshotSet(matrix=snaps.matrix[:, :1], times=snaps.times[:1])
        archive = tmp_path / "vanishing.bin"
        write_snapshots(archive, vanishing)
        assert main(["pod", str(archive), "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {archive}: snapshot set has rank 0 (all snapshots vanish)\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["micro.ini", "vanishing.bin"]

    def test_compare_grid_mismatch(self, micro_pipeline, tmp_path, capsys):
        root, cfg = micro_pipeline
        lines = (root / "micro_rom_skew_r3_traj.csv").read_text().splitlines()
        short = tmp_path / "micro_rom_skew_r3_traj.csv"
        short.write_text("\n".join(lines[:-1]) + "\n")  # last time level dropped
        code = main(["compare", str(short), "--config", str(cfg),
                     "--archive", str(root / "micro_snapshots.bin"),
                     "--basis", str(root / "micro_basis.bin"), "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert str(short) in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_rom_r_list_is_config_error(self, micro_pipeline, tmp_path):
        root, _ = micro_pipeline
        cfg = tmp_path / "list.ini"
        cfg.write_text(MICRO_KH.replace("r = 3", "r = 10,20"))
        code = main(["rom", str(root / "micro_basis.bin"), "--archive",
                     str(root / "micro_snapshots.bin"), "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 2
