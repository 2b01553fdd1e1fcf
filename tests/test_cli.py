import dataclasses
import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowrom.cli
from flowrom.cli import _load_config, main
from flowrom.diagnostics import reduced_trajectory_error
from flowrom.fom import FomConfig, run_fom
from flowrom.io import (read_basis, read_basis_coordinates, read_csv, read_snapshots, write_basis,
                        write_snapshots)
from flowrom.numerics import uniform_step
from flowrom.pod import SnapshotSet
from flowrom.rom import RomOperators, RomTrajectory, assemble_rom_operators


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


# an edit of MICRO_KH that the loader rejects, by the section and key it breaks
MALFORMED = {
    "[rom] centering": ("centering = none", "centering = bogus"),
    "[rom] r": ("r = 3", "r = x"),
    "[rom] form": ("r = 3", "r = 3\nform = skew"),  # retired: the ROM form is --form or [fom] form
    "[fom] form": ("form = skew", "form = upwind"),
    "[fom] dt": ("dt = 0.05", "dt = abc"),
    "[problem] nx": ("nx = 8", "nx = abc"),
}


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
        assert cols[7][0] == 0 and np.all(cols[7][1:] <= FomConfig.newton_tol)  # converged steps

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
        text = MICRO_CONFIG.read_text().replace(
            "snapshot_end = 0.25", "snapshot_end = 0.25\nsnapshot_stride = 2")
        cfg, archive, basis, common = _run_micro(tmp_path, text)
        assert main(["rom", basis, "--archive", archive, *common]) == 0
        traj = tmp_path / "micro_rom_skew_r3_traj.csv"
        _, cols = read_csv(traj)
        np.testing.assert_allclose(cols[0], [0.0, 0.1, 0.2], rtol=0.0, atol=1e-12)
        out = tmp_path / "compare.csv"
        assert main(["compare", str(traj), "--config", str(cfg), "--archive", archive,
                     "--basis", basis, "--out", str(out)]) == 0
        assert dict(zip(*read_csv(out)))["form"].tolist() == ["skew"]  # one row

    def test_rom_energies_come_from_the_projection(self, micro_pipeline, tmp_path, monkeypatch):
        # rom assembles no mass matrix or curl form: it starts from the stored
        # coordinates, and the energy and enstrophy series read the
        # projection's Grams, stored (r = 3) or projected afresh (r = rank > 3)
        from flowrom.cli import _build_problem
        from flowrom.diagnostics import energy_enstrophy
        from flowrom.fem import TaylorHoodSpace
        from flowrom.rom import reconstruct_field

        root, cfg = micro_pipeline
        basis = read_basis(root / "micro_basis.bin")
        assert basis.projection.m == 3 < basis.rank
        argv = ["rom", str(root / "micro_basis.bin"), "--archive", str(root / "micro_snapshots.bin"),
                "--config", str(cfg), "--out", str(tmp_path)]

        def forbidden(space):
            raise AssertionError("rom assembled the mass matrix or the curl form")

        with monkeypatch.context() as patch:
            for name in ("mass", "curl_form", "_gradient_forms"):
                patch.setattr(TaylorHoodSpace, name, forbidden)
            for r in (3, basis.rank):
                assert main([*argv, "--r", str(r)]) == 0
        space = _build_problem(cfg).space
        for r in (3, basis.rank):
            _, traj = read_csv(tmp_path / f"micro_rom_skew_r{r}_traj.csv")
            header, scalars = read_csv(tmp_path / f"micro_rom_skew_r{r}_scalars.csv")
            assert header[1:3] == ["energy", "enstrophy"]
            for n, a in enumerate(np.column_stack(traj[1:])):
                e, z = energy_enstrophy(space, reconstruct_field(basis, a))
                assert scalars[1][n] == pytest.approx(e, rel=1e-12)
                assert scalars[2][n] == pytest.approx(z, rel=1e-12)

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

    def test_cylinder_drag_at_every_step(self, tmp_path):
        # the FOM and the ROM drag are fom.step_drag, with the FOM's form, of
        # each step; no step ends at the first row
        from flowrom.cli import _build_problem
        from flowrom.fom import step_drag
        from flowrom.rom import reconstruct_field

        cfg, archive, basis_path, common = _run_micro(tmp_path, MICRO_CYLINDER)
        assert main(["rom", basis_path, "--archive", archive, *common, "--form", "skew"]) == 0
        _, fom = read_csv(tmp_path / "micro_scalars.csv")
        header, rom = read_csv(tmp_path / "micro_rom_skew_r3_scalars.csv")
        assert header == ["t", "energy", "enstrophy", "drag", "newton_iters"]
        for drag in (fom[4], rom[3]):
            assert drag.size == 6 and np.isnan(drag[0]) and np.all(np.isfinite(drag[1:]))

        problem = _build_problem(cfg)
        basis = read_basis(basis_path, space=problem.space)
        dt = uniform_step(basis.coordinates.times)
        _, traj = read_csv(tmp_path / "micro_rom_skew_r3_traj.csv")
        u = [reconstruct_field(basis, a) for a in np.column_stack(traj[1:])]
        want = [step_drag(problem.space, problem.fom, dt, u[n], u[n - 1], u[n - 2] if n > 1 else None)
                for n in range(1, len(u))]
        assert np.array_equal(rom[3][1:], want)


class TestErrorPaths:
    def test_missing_config(self, tmp_path):
        assert main(["fom", "--config", str(tmp_path / "nope.ini")]) == 2

    @pytest.mark.parametrize("edit", [
        ("[rom]", "newton_tol = 1e-12\n\n[rom]"),  # deleted: the tolerance is fixed
        ("snapshot_stride = 1", "snapshot_strde = 1"),  # misspelled
        ("[output]", "[solver]\nnewton_tol = 1e-12\n\n[output]"),  # unknown section
        ("nx = 8\nny = 8", "nx = 8\nnx = 9\nny = 8"),  # duplicate key
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
        from flowrom.cli import _build_problem
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
        from flowrom.cli import _build_problem

        problem = _build_problem(path)
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

    @pytest.mark.parametrize("defect", ["version_1", "version_2", "version_3", "truncated", "non_finite",
                                        "non_finite_gram", "too_many_fields", "no_coordinates"])
    def test_bad_projection_is_format_error(self, micro_pipeline, tmp_path, capsys, defect):
        root, cfg = micro_pipeline
        raw = bytearray((root / "micro_basis.bin").read_bytes())
        bad = tmp_path / "bad_basis.bin"
        rank = struct.unpack("<Q", raw[24:32])[0]
        if defect.startswith("version"):
            raw[8:12] = struct.pack("<I", int(defect[-1]))
        elif defect == "truncated":  # the last value of the curl Gram
            raw = raw[:-8]
        elif defect == "too_many_fields":
            raw[40:48] = struct.pack("<Q", rank + 1)  # uncentered: o + rank = rank fields
        bad.write_bytes(bytes(raw))
        if defect.startswith("non_finite") or defect == "no_coordinates":
            basis = read_basis(root / "micro_basis.bin")
            if defect == "non_finite":
                basis.projection.div[1, 0, 2] = np.inf
            elif defect == "non_finite_gram":
                basis.projection.mass_gram[1, 0] = np.inf
            else:  # a basis written from memory, not by pod
                basis.coordinates = None
            write_basis(bad, basis)
        code = main(["rom", str(bad), "--archive", str(root / "micro_snapshots.bin"),
                     "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert {"version_1": "unsupported basis archive version 1",
                "version_2": "unsupported basis archive version 2",
                "version_3": "unsupported basis archive version 3",
                "truncated": "truncated archive while reading projection Grams",
                "non_finite": "non-finite value in projection",
                "non_finite_gram": "non-finite value in projection Grams",
                "too_many_fields": f"projected field count {rank + 1} exceeds",
                "no_coordinates": "the basis holds no snapshot coordinates"}[defect] in err
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

    def test_missing_mesh_file(self, tmp_path, capsys):
        cfg = tmp_path / "cyl.ini"
        cfg.write_text(
            "[problem]\nname = cylinder-channel\nmesh = files\n"
            "node = missing.node\nele = missing.ele\nedge = missing.edge\n"
            "[fom]\nnu = 5e-4\ndt = 0.002\nt_end = 0.002\n"
        )
        assert main(["fom", "--config", str(cfg)]) == 2
        assert f"{cfg}: [problem] node: mesh file not found: missing.node" in capsys.readouterr().err

    def test_unknown_problem(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[problem]\nname = channel-of-mystery\n[fom]\nnu=1\ndt=1\nt_end=1\n")
        assert main(["fom", "--config", str(cfg)]) == 2
        assert f"{cfg}: [problem] name: unknown problem 'channel-of-mystery'" in capsys.readouterr().err

    @staticmethod
    def cylinder_files(tmp_path, ext, edit):
        """A cylinder config on copies of the bundled mesh files, ``edit`` applied to the lines of ``ext``."""
        from importlib import resources

        data = resources.files("flowrom").joinpath("data")
        mesh_dir = tmp_path / "mesh"
        mesh_dir.mkdir()
        for name in ("node", "ele", "edge"):
            lines = data.joinpath(f"cylinder_coarse.{name}").read_text().splitlines()
            (mesh_dir / f"c.{name}").write_text("\n".join(edit(lines) if name == ext else lines) + "\n")
        cfg = tmp_path / "cyl.ini"
        cfg.write_text(MICRO_CYLINDER.replace(
            "name = cylinder-channel",
            f"name = cylinder-channel\nmesh = files\nnode = {mesh_dir / 'c.node'}\n"
            f"ele = {mesh_dir / 'c.ele'}\nedge = {mesh_dir / 'c.edge'}"))
        return cfg, mesh_dir

    @pytest.mark.parametrize("command", ["fom", "pod", "rom", "compare"])
    def test_mesh_without_a_needed_label_is_format_error(self, micro_pipeline, tmp_path, capsys, command):
        # the bundled cylinder mesh with its cylinder edges (marker 4) relabeled as walls (marker 3)
        root, _ = micro_pipeline
        cfg, mesh_dir = self.cylinder_files(tmp_path, "edge", lambda lines: [
            lines[0], *(row[:-1] + "3" if row.split()[3] == "4" else row for row in lines[1:])])
        assert main(_subcommand(command, root, cfg, tmp_path / "out")) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "format error" in err
        assert f"{mesh_dir / 'c.edge'}: no boundary edge labeled 'cylinder'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ext, edit, detail", [
        ("node", lambda lines: lines[:3], ": expected 1391 vertices, file ended after 2"),
        ("ele", lambda lines: [lines[0], "1 897 830 9999", *lines[2:]],
         " at line 2: vertex index out of range (have 1391 vertices)"),
        # the vertices of a record are as the 1-based files write them
        ("ele", lambda lines: [lines[0], "1 897 830 830", *lines[2:]], " at line 2: triangle 1 has zero area"),
        ("edge", lambda lines: [lines[0], "1 897 830 1", *lines[2:]],
         " at line 2: boundary edge (897, 830) is shared by more than one triangle"),
        ("edge", lambda lines: [lines[0], "1 897 375 1", *lines[2:]],
         " at line 2: boundary edge (897, 375) does not belong to any triangle"),
    ], ids=["truncated_node", "bad_ele", "zero_area", "interior_edge", "edge_of_no_triangle"])
    def test_mesh_format_error_names_the_file(self, tmp_path, capsys, ext, edit, detail):
        cfg, mesh_dir = self.cylinder_files(tmp_path, ext, edit)
        assert main(["fom", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == f"format error: {mesh_dir / f'c.{ext}'}{detail}\n"
        assert not (tmp_path / "out").exists()

    def test_mesh_file_not_utf8_is_format_error(self, tmp_path, capsys):
        cfg, mesh_dir = self.cylinder_files(tmp_path, "node", lambda lines: lines)
        node = mesh_dir / "c.node"
        node.write_bytes(b"\xff\xfe" + node.read_bytes())
        assert main(["fom", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == (
            f"format error: {node}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, edit, code", [
        ("fom", ("[rom]", "newton_max_iter = 0\n\n[rom]"), 3),
        ("pod", ("r = 3", "r = 0"), 2),
    ], ids=["fom_newton_stall", "pod_r_zero"])
    def test_failure_makes_no_out_directory(self, micro_pipeline, tmp_path, capsys, command, edit, code):
        # --out is made only after the last check that can fail
        root, _ = micro_pipeline
        cfg = tmp_path / "bad.ini"
        cfg.write_text(MICRO_KH.replace(*edit))
        assert main(_subcommand(command, root, cfg, tmp_path / "out")) == code
        assert capsys.readouterr().err.count("\n") == 1
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

    def test_fom_newton_failure(self, tmp_path, capsys):
        cfg = tmp_path / "stall.ini"
        cfg.write_text(MICRO_KH.replace("[rom]", "newton_max_iter = 0\n\n[rom]"))
        assert main(["fom", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "Newton stalled at step 1" in capsys.readouterr().err
        assert not (tmp_path / "micro_snapshots.bin").exists()

    def test_rom_newton_failure(self, micro_pipeline, tmp_path, capsys):
        root, _ = micro_pipeline
        cfg = tmp_path / "stall.ini"
        cfg.write_text(MICRO_KH.replace("[rom]", "newton_max_iter = 0\n\n[rom]"))
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
        dt = uniform_step(read_basis(basis).coordinates.times)

        def broken(space, basis, r, form, nu):
            ops = assemble_rom_operators(space, basis, r, form, nu)
            if failure == "non-finite residual":
                return RomOperators(visc=ops.visc, tensor=1e300 * ops.tensor)
            return RomOperators(visc=-(1.0 / dt) * np.eye(*ops.visc.shape), tensor=np.zeros_like(ops.tensor))

        monkeypatch.setattr(flowrom.cli, "assemble_rom_operators", broken)
        code = main(["rom", str(basis), "--archive", str(root / "micro_snapshots.bin"),
                     "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 3
        assert f"diverged at step 1 (t=0.05): {failure}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_rom_*"))

    def test_rom_r_exceeds_rank(self, micro_pipeline, tmp_path):
        root, cfg = micro_pipeline
        code = main(["rom", str(root / "micro_basis.bin"), "--archive",
                     str(root / "micro_snapshots.bin"), "--config", str(cfg),
                     "--r", "5000", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_rom_r_below_one_is_config_error(self, micro_pipeline, tmp_path, r):
        root, cfg = micro_pipeline
        code = main(["rom", str(root / "micro_basis.bin"), "--archive",
                     str(root / "micro_snapshots.bin"), "--config", str(cfg),
                     f"--r={r}", "--out", str(tmp_path)])
        assert code == 2
        assert not list(tmp_path.iterdir())

    def test_rom_single_snapshot_is_config_error(self, tmp_path, capsys):
        text = MICRO_KH.replace("snapshot_start = 0.0", "snapshot_start = 0.25")
        _, archive, basis, common = _run_micro(tmp_path, text)
        assert main(["rom", basis, "--archive", archive, *common, "--r", "1"]) == 2
        assert "at least two snapshots" in capsys.readouterr().err

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
