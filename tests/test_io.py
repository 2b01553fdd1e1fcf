import dataclasses

import numpy as np
import pytest

from flowrom.io import (
    ArchiveFormatError,
    read_basis,
    read_csv,
    read_snapshots,
    write_basis,
    write_csv,
    write_snapshots,
    write_vtk,
)
from flowrom.pod import SnapshotSet


class TestSnapshotArchive:
    def test_round_trip(self, tmp_path, kh_run):
        _, _, snaps, _, _ = kh_run
        path = tmp_path / "snaps.bin"
        write_snapshots(path, snaps)
        back = read_snapshots(path)
        assert np.array_equal(back.matrix, snaps.matrix)
        assert np.array_equal(back.times, snaps.times)

    def test_write_is_deterministic(self, tmp_path, kh_run):
        _, _, snaps, _, _ = kh_run
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_snapshots(p1, snaps)
        write_snapshots(p2, snaps)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        with pytest.raises(ArchiveFormatError, match="magic"):
            read_snapshots(path)

    def test_truncated_payload_names_field(self, tmp_path, kh_run):
        _, _, snaps, _, _ = kh_run
        path = tmp_path / "snaps.bin"
        write_snapshots(path, snaps)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(ArchiveFormatError, match="snapshot payload"):
            read_snapshots(path)

    def test_dof_count_checked_against_space(self, tmp_path, kh_run, square8):
        _, space, snaps, _, _ = kh_run
        path = tmp_path / "snaps.bin"
        write_snapshots(path, snaps)
        assert read_snapshots(path, space=space).matrix.shape[0] == space.n_vel
        with pytest.raises(ArchiveFormatError, match="does not match the configured mesh"):
            read_snapshots(path, space=square8[1])

    def test_non_finite_payload(self, tmp_path, kh_run):
        _, _, snaps, _, _ = kh_run
        bad = SnapshotSet(matrix=snaps.matrix.copy(), times=snaps.times)
        bad.matrix[3, 1] = np.inf
        path = tmp_path / "snaps.bin"
        write_snapshots(path, bad)
        with pytest.raises(ArchiveFormatError, match="non-finite value in snapshot payload"):
            read_snapshots(path)


class TestBasisArchive:
    def test_round_trip(self, tmp_path, kh_basis_session):
        basis = kh_basis_session
        path = tmp_path / "basis.bin"
        write_basis(path, basis)
        back = read_basis(path)
        assert np.array_equal(back.modes, basis.modes)
        assert np.array_equal(back.eigenvalues, basis.eigenvalues)
        assert np.array_equal(back.spectrum, basis.spectrum)
        assert np.array_equal(back.grad_norms, basis.grad_norms)
        assert back.mean is None

    def test_round_trip_centered(self, tmp_path, kh_run):
        from flowrom.pod import build_pod_basis

        _, space, snaps, _, _ = kh_run
        basis = build_pod_basis(snaps, space.mass(), space.stiffness(), centering="mean")
        path = tmp_path / "basis.bin"
        write_basis(path, basis)
        back = read_basis(path)
        assert back.centered
        assert np.array_equal(back.mean, basis.mean)

    def test_inconsistent_header_names_field(self, tmp_path, kh_basis_session):
        import struct

        path = tmp_path / "basis.bin"
        write_basis(path, kh_basis_session)
        raw = bytearray(path.read_bytes())
        # corrupt the rank field (offset 8 magic + 4 + 4 + 8 ndof)
        raw[24:32] = struct.pack("<Q", 10**6)
        path.write_bytes(bytes(raw))
        with pytest.raises(ArchiveFormatError, match="rank"):
            read_basis(path)

    def test_dof_count_checked_against_space(self, tmp_path, kh_run, kh_basis_session, square8):
        path = tmp_path / "basis.bin"
        write_basis(path, kh_basis_session)
        assert read_basis(path, space=kh_run[1]).modes.shape == kh_basis_session.modes.shape
        with pytest.raises(ArchiveFormatError, match="does not match the configured mesh"):
            read_basis(path, space=square8[1])

    def test_non_finite_payload(self, tmp_path, kh_basis_session):
        bad = dataclasses.replace(kh_basis_session, modes=kh_basis_session.modes.copy())
        bad.modes[0, 2] = np.nan
        path = tmp_path / "basis.bin"
        write_basis(path, bad)
        with pytest.raises(ArchiveFormatError, match="non-finite value in modes"):
            read_basis(path)


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        t = np.sort(rng.standard_normal(20))
        v = rng.standard_normal(20) * 1e-7
        path = tmp_path / "series.csv"
        write_csv(path, ["t", "value"], [t, v])
        header, cols = read_csv(path)
        assert header == ["t", "value"]
        assert np.array_equal(cols[0], t)  # 17 significant digits round-trip float64
        assert np.array_equal(cols[1], v)

    def test_header_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "bad.csv", ["a"], [np.zeros(2), np.zeros(2)])


class TestVtk:
    def test_writes_readable_grid(self, tmp_path, square8):
        _, space = square8
        u = space.interpolate_velocity(lambda x, y, t: (y, -x))
        p = np.linspace(0, 1, space.n_press)
        path = tmp_path / "fields.vtk"
        write_vtk(path, space, u, p)
        text = path.read_text().splitlines()
        assert text[0].startswith("# vtk DataFile")
        npoints = space.mesh.num_vertices
        assert f"POINTS {npoints} double" in text
        assert "VECTORS velocity double" in text
        assert "SCALARS pressure double 1" in text
        ncells = space.mesh.num_triangles
        assert f"CELLS {ncells} {4 * ncells}" in text
