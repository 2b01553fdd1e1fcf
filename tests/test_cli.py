import hashlib
from pathlib import Path

import numpy as np
import pytest

from flowrom.cli import _load_config, main
from flowrom.fom import FomConfig
from flowrom.io import read_csv


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
form = skew
centering = none

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
        root, cfg = micro_pipeline
        out = root / "compare.csv"
        assert main(["compare", str(root / "micro_rom_skew_r3_traj.csv"),
                     "--config", str(cfg), "--archive", str(root / "micro_snapshots.bin"),
                     "--basis", str(root / "micro_basis.bin"), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("form,r,linf_l2")
        fields = lines[1].split(",")
        assert fields[0] == "skew"
        assert int(fields[1]) == 3
        assert float(fields[2]) >= 0.0

    def test_compare_takes_r_from_columns(self, micro_pipeline, tmp_path):
        # a renamed file cannot report an r its coefficients do not have
        root, cfg = micro_pipeline
        renamed = tmp_path / "micro_rom_emac_r7_traj.csv"
        renamed.write_bytes((root / "micro_rom_skew_r3_traj.csv").read_bytes())
        out = tmp_path / "compare.csv"
        assert main(["compare", str(renamed), "--config", str(cfg),
                     "--archive", str(root / "micro_snapshots.bin"),
                     "--basis", str(root / "micro_basis.bin"), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].split(",")[:2] == ["emac", "3"]

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
        assert len(out.read_text().splitlines()) == 2  # header and one row

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
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            assert [row[:2] for row in rows] == [[form, "3"] for form in forms]
            assert np.all(np.isfinite(np.array([row[2:] for row in rows], dtype=float)))
            outputs.append({p.name: p.read_bytes() for p in root.iterdir() if p.name != "micro.ini"})
        assert len(outputs[0]) == 13  # archive, scalars, basis, spectrum, 4 x 2 ROM files, compare
        assert outputs[0] == outputs[1]


def _write_nan_snapshots(source, path):
    """Copy of the snapshot archive ``source`` with one NaN in its payload."""
    from flowrom.io import read_snapshots, write_snapshots

    snaps = read_snapshots(source)
    snaps.matrix[5, -1] = np.nan
    write_snapshots(path, snaps)


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

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.ini")), ids=lambda p: p.name)
    def test_demo_configs_are_accepted(self, path):
        assert _load_config(path).sections()

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
        root, cfg = micro_pipeline
        bad = tmp_path / "nan_snapshots.bin"
        _write_nan_snapshots(root / "micro_snapshots.bin", bad)
        assert main(["pod", str(bad), "--config", str(cfg), "--out", str(tmp_path)]) == 4
        assert main(["rom", str(root / "micro_basis.bin"), "--archive", str(bad),
                     "--config", str(cfg), "--out", str(tmp_path)]) == 4
        assert "non-finite value in snapshot payload" in capsys.readouterr().err

    def test_missing_mesh_file(self, tmp_path):
        cfg = tmp_path / "cyl.ini"
        cfg.write_text(
            "[problem]\nname = cylinder-channel\nmesh = files\n"
            "node = missing.node\nele = missing.ele\nedge = missing.edge\n"
            "[fom]\nnu = 5e-4\ndt = 0.002\nt_end = 0.002\n"
        )
        assert main(["fom", "--config", str(cfg)]) == 2

    def test_unknown_problem(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[problem]\nname = channel-of-mystery\n[fom]\nnu=1\ndt=1\nt_end=1\n")
        assert main(["fom", "--config", str(cfg)]) == 2

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
        assert "solver failed at step 1" in capsys.readouterr().err
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
