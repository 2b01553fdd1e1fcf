import dataclasses
import struct

import numpy as np
import pytest

from flowrom.io import (
    ArchiveFormatError,
    read_basis,
    read_basis_coordinates,
    read_csv,
    read_snapshot_times,
    read_snapshots,
    write_basis,
    write_csv,
    write_snapshots,
)
from flowrom.pod import PodBasis, SnapshotCoordinates, SnapshotSet, build_pod_basis
from flowrom.rom import RomProjection, project_fields

from conftest import traced_peak, with_projection


def _set_counts(path, offsets, value):
    """Overwrite the u64 header fields at ``offsets`` of the archive at ``path``."""
    raw = bytearray(path.read_bytes())
    for offset in offsets:
        raw[offset:offset + 8] = struct.pack("<Q", value)
    path.write_bytes(bytes(raw))


def _nbytes(value):
    """The bytes of every array that ``value`` holds, through nested dataclasses."""
    if dataclasses.is_dataclass(value):
        return sum(_nbytes(getattr(value, field.name)) for field in dataclasses.fields(value))
    return value.nbytes if isinstance(value, np.ndarray) else 0


@pytest.fixture
def coordinates_basis(kh_run, kh_basis_session):
    """The session basis, with its snapshot coordinates, and a three-field projection."""
    return with_projection(kh_run[1], kh_basis_session, 3)


class _ColumnBlockTests:
    """Memory tests of an archive whose column block, an (ndof, count) matrix, is
    written and read a few columns at a time.

    A subclass names its ``write`` and ``read`` functions, the field that holds
    the matrix and the peaks' bounds, and gives two fixtures: ``archived``,
    which the read test writes and reads back, and ``wide``, which the write
    test writes.
    """

    def test_traced_peak_is_the_matrix(self, tmp_path, archived):
        path = tmp_path / "archive.bin"
        self.write(path, archived)
        peak, back = traced_peak(lambda: self.read(path))
        assert np.array_equal(getattr(back, self.matrix), getattr(archived, self.matrix))
        assert peak <= self.read_peak * _nbytes(back)

    def test_write_holds_no_copy_of_the_matrix(self, tmp_path, wide):
        peak, _ = traced_peak(lambda: self.write(tmp_path / "wide.bin", wide))
        assert peak <= self.write_peak * getattr(wide, self.matrix).nbytes


class TestSnapshotArchive(_ColumnBlockTests):
    write, read, matrix = staticmethod(write_snapshots), staticmethod(read_snapshots), "matrix"
    # the matrix is filled a few snapshots at a time: 1.2x the bytes read back;
    # reading the payload whole and copying its transpose peaked at 2.0x
    read_peak = 1.3
    # the payload is written a few snapshots at a time, as it is read: 4 of the
    # 156 of ``wide``; writing the matrix's transpose whole copied the matrix (1.0x)
    write_peak = 0.1

    @pytest.fixture
    def archived(self, kh_run):
        return kh_run[2]

    @pytest.fixture
    def wide(self, kh_run):
        snaps = kh_run[2]
        return SnapshotSet(matrix=np.tile(snaps.matrix, 6), times=np.arange(6.0 * snaps.count))

    def test_round_trip(self, tmp_path, kh_run):
        _, _, snaps, _, _ = kh_run
        path = tmp_path / "snaps.bin"
        write_snapshots(path, snaps)
        back = read_snapshots(path)
        assert np.array_equal(back.matrix, snaps.matrix)
        assert np.array_equal(back.times, snaps.times)
        # run_fom's matrix and read_snapshots' have one layout and one payload
        write_snapshots(tmp_path / "again.bin", back)
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

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

    def test_huge_count_is_format_error(self, tmp_path, kh_run):
        # 2**61 snapshots: the file size is checked before a block is allocated
        path = tmp_path / "snaps.bin"
        write_snapshots(path, kh_run[2])
        _set_counts(path, [24], 2**61)
        for reader in (read_snapshots, read_snapshot_times):
            with pytest.raises(ArchiveFormatError, match=r"truncated archive while reading times\)"):
                reader(path)

    def test_trailing_byte_is_format_error(self, tmp_path, kh_run):
        path = tmp_path / "snaps.bin"
        write_snapshots(path, kh_run[2])
        path.write_bytes(path.read_bytes() + b"\0")
        for reader in (read_snapshots, read_snapshot_times):
            with pytest.raises(ArchiveFormatError, match="trailing bytes"):
                reader(path)

    def test_dof_count_checked_against_space(self, tmp_path, kh_run, square8):
        _, space, snaps, _, _ = kh_run
        path = tmp_path / "snaps.bin"
        write_snapshots(path, snaps)
        assert read_snapshots(path, ndof=space.n_vel).matrix.shape[0] == space.n_vel
        for reader in (read_snapshots, read_snapshot_times):
            with pytest.raises(ArchiveFormatError, match="does not match the configured mesh"):
                reader(path, ndof=square8[1].n_vel)

    def test_non_finite_payload(self, tmp_path, kh_run):
        _, _, snaps, _, _ = kh_run
        bad = SnapshotSet(matrix=snaps.matrix.copy(), times=snaps.times)
        bad.matrix[3, 1] = np.inf
        path = tmp_path / "snaps.bin"
        write_snapshots(path, bad)
        with pytest.raises(ArchiveFormatError, match="non-finite value in snapshot payload"):
            read_snapshots(path)


class TestBasisArchive(_ColumnBlockTests):
    write, read, matrix = staticmethod(write_basis), staticmethod(read_basis), "modes"
    # the modes are filled a few at a time, as the snapshot payload is: 1.03x the
    # bytes read back; reading them whole and copying their transpose peaked at 1.43x
    read_peak = 1.1
    # 0.12x: 4 of the 46 modes and the uncentered basis's zero mean; writing the
    # modes' transpose whole copied them (1.03x)
    write_peak = 0.2

    @pytest.fixture(scope="class")
    def wide(self):
        """Seeded random arrays of the 16x16 shear-layer pipeline's basis sizes:
        46 modes of 2112 DOFs, 51 snapshots and a 40-field projection."""
        rng = np.random.default_rng(54)
        ndof, rank, nsnap, m = 2112, 46, 51, 40
        coordinates = SnapshotCoordinates(np.arange(nsnap, dtype=float), *(
            rng.standard_normal(shape) for shape in [(nsnap, rank)] * 2 + [(nsnap,)] * 4 + [(rank, rank)]))
        projection = RomProjection(*(rng.standard_normal(shape) for shape in [(m,) * 3] * 2 + [(m, m)] * 3))
        return PodBasis(modes=rng.standard_normal((ndof, rank)), eigenvalues=rng.random(rank),
                        spectrum=rng.random(nsnap), grad_norms=rng.random(rank),
                        projection=projection, coordinates=coordinates)

    @pytest.fixture
    def archived(self, wide):
        return wide

    def test_round_trip(self, tmp_path, coordinates_basis):
        basis = coordinates_basis
        path = tmp_path / "basis.bin"
        write_basis(path, basis)
        back = read_basis(path)
        assert np.array_equal(back.modes, basis.modes)
        assert np.array_equal(back.eigenvalues, basis.eigenvalues)
        assert np.array_equal(back.spectrum, basis.spectrum)
        assert np.array_equal(back.grad_norms, basis.grad_norms)
        assert back.mean is None

    def test_round_trip_centered(self, tmp_path, kh_run):
        _, space, snaps, _, _ = kh_run
        basis = with_projection(space, build_pod_basis(snaps, space, centering="mean"), 3)
        path = tmp_path / "basis.bin"
        write_basis(path, basis)
        back = read_basis(path)
        assert back.centered
        assert np.array_equal(back.mean, basis.mean)

    def test_round_trip_projection(self, tmp_path, kh_run, kh_basis_session):
        space = kh_run[1]
        basis = dataclasses.replace(kh_basis_session,
                                    projection=project_fields(space, kh_basis_session.fields(5)))
        path = tmp_path / "basis.bin"
        write_basis(path, basis)
        back = read_basis(path).projection
        for name in ("conv", "div", "gram", "mass_gram", "curl_gram"):
            assert np.array_equal(getattr(back, name), getattr(basis.projection, name))
        write_basis(tmp_path / "again.bin", read_basis(path))
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("centering", ["none", "mean"])
    def test_round_trip_coordinates(self, tmp_path, kh_run, centering):
        # version 5: the snapshot coordinates between the modes and the projection,
        # and the projection's lifting count (none here) last in the header
        _, space, snaps, _, _ = kh_run
        basis = build_pod_basis(snaps, space, centering=centering)
        basis.projection = project_fields(space, basis.fields(3))
        path = tmp_path / "basis.bin"
        write_basis(path, basis)
        raw = path.read_bytes()
        assert struct.unpack("<IIQQQQQQ", raw[8:64]) == (
            5, centering == "mean", space.n_vel, basis.rank, snaps.count, basis.projection.m, snaps.count, 0)
        back = read_basis(path)
        for field in dataclasses.fields(SnapshotCoordinates):
            assert np.array_equal(getattr(back.coordinates, field.name),
                                  getattr(basis.coordinates, field.name)), field.name
        assert np.array_equal(back.coordinates.times, snaps.times)
        assert np.array_equal(back.projection.curl_gram, basis.projection.curl_gram)
        write_basis(tmp_path / "again.bin", back)
        assert (tmp_path / "again.bin").read_bytes() == raw

    def test_round_trip_lifting(self, tmp_path, kh_run, coordinates_basis):
        # a field after the modes: the header counts it, the projection's arrays hold it
        space = kh_run[1]
        lifted = np.column_stack([coordinates_basis.fields(3), np.linspace(0.0, 1.0, space.n_vel)])
        basis = dataclasses.replace(coordinates_basis, projection=project_fields(space, lifted, liftings=1))
        path = tmp_path / "basis.bin"
        write_basis(path, basis)
        raw = path.read_bytes()
        # nprojected and nlifting
        assert [struct.unpack_from("<Q", raw, offset)[0] for offset in (40, 56)] == [4, 1]
        back = read_basis(path).projection
        assert back.m == 4 and back.liftings == 1
        for name in ("conv", "div", "gram", "mass_gram", "curl_gram"):
            assert np.array_equal(getattr(back, name), getattr(basis.projection, name))

    @pytest.mark.parametrize("version", [2, 3, 4])
    def test_older_version_is_format_error(self, tmp_path, coordinates_basis, version):
        # version 4 had no lifting count; every older layout is refused by its version alone
        path = tmp_path / "basis.bin"
        write_basis(path, coordinates_basis)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", version)
        path.write_bytes(bytes(raw))
        for reader in (read_basis, read_basis_coordinates):
            with pytest.raises(ArchiveFormatError, match=f"unsupported basis archive version {version}"):
                reader(path)

    def test_lifting_count_above_projected_fields(self, tmp_path, coordinates_basis):
        path = tmp_path / "basis.bin"
        write_basis(path, coordinates_basis)
        _set_counts(path, [56], 4)
        for reader in (read_basis, read_basis_coordinates):
            with pytest.raises(ArchiveFormatError) as exc:
                reader(path)
            # the path is named once, at the start
            assert str(exc.value).startswith(f"{path}: lifting count 4 exceeds the 3")
            assert str(exc.value).count(str(path)) == 1

    def test_coordinates_only(self, tmp_path, coordinates_basis):
        path = tmp_path / "basis.bin"
        write_basis(path, coordinates_basis)
        coords = read_basis_coordinates(path)
        for field in dataclasses.fields(SnapshotCoordinates):
            assert np.array_equal(getattr(coords, field.name),
                                  getattr(coordinates_basis.coordinates, field.name)), field.name

    @pytest.mark.parametrize("offset", [48, 40], ids=["nsnap", "nprojected"])
    def test_zero_count_is_format_error(self, tmp_path, coordinates_basis, offset):
        # every basis archive holds its snapshot coordinates and its projection
        path = tmp_path / "basis.bin"
        write_basis(path, coordinates_basis)
        _set_counts(path, [offset], 0)
        nsnap, nproj = (0, 3) if offset == 48 else (coordinates_basis.coordinates.count, 0)
        for reader in (read_basis, read_basis_coordinates):
            with pytest.raises(ArchiveFormatError) as exc:
                reader(path)
            assert str(exc.value).startswith(
                f"{path}: the header counts {nsnap} snapshots and {nproj} projected fields")
            assert str(exc.value).count(str(path)) == 1

    @pytest.mark.parametrize("missing", ["coordinates", "projection"])
    def test_write_refuses_a_partial_basis(self, tmp_path, coordinates_basis, missing):
        path = tmp_path / "basis.bin"
        with pytest.raises(ValueError, match="holds the snapshot coordinates and the projection"):
            write_basis(path, dataclasses.replace(coordinates_basis, **{missing: None}))
        assert not path.exists()

    def test_write_checks_every_field_before_the_file(self, tmp_path, wide):
        # coordinates on 5 of the 46 modes: refused before the file is created,
        # not half way through writing it
        coords = wide.coordinates
        short = dataclasses.replace(coords, coeffs=coords.coeffs[:, :5], outside_stiff=coords.outside_stiff[:, :5],
                                    stiff_gram=coords.stiff_gram[:5, :5])
        path = tmp_path / "basis.bin"
        with pytest.raises(ValueError, match=r"snapshot coordinates: a field of shape \(51, 5\)"):
            write_basis(path, dataclasses.replace(wide, coordinates=short))
        assert not path.exists()

    @pytest.mark.parametrize("offsets,block", [([24, 32], "eigenvalues"), ([48], "snapshot times")])
    def test_huge_count_is_format_error(self, tmp_path, coordinates_basis, offsets, block):
        # rank = nspectrum = 2**61 or nsnap = 2**61: no block is allocated
        path = tmp_path / "basis.bin"
        write_basis(path, coordinates_basis)
        _set_counts(path, offsets, 2**61)
        for reader in (read_basis, read_basis_coordinates):
            with pytest.raises(ArchiveFormatError, match=rf"truncated archive while reading {block}\)"):
                reader(path)

    def test_trailing_byte_is_format_error(self, tmp_path, coordinates_basis):
        path = tmp_path / "basis.bin"
        write_basis(path, coordinates_basis)
        path.write_bytes(path.read_bytes() + b"\0")
        for reader in (read_basis, read_basis_coordinates):
            with pytest.raises(ArchiveFormatError, match="trailing bytes"):
                reader(path)

    def test_inconsistent_header_names_field(self, tmp_path, coordinates_basis):
        path = tmp_path / "basis.bin"
        write_basis(path, coordinates_basis)
        raw = bytearray(path.read_bytes())
        # corrupt the rank field (offset 8 magic + 4 + 4 + 8 ndof)
        raw[24:32] = struct.pack("<Q", 10**6)
        path.write_bytes(bytes(raw))
        with pytest.raises(ArchiveFormatError, match="rank"):
            read_basis(path)

    def test_dof_count_checked_against_space(self, tmp_path, kh_run, coordinates_basis, square8):
        path = tmp_path / "basis.bin"
        write_basis(path, coordinates_basis)
        assert read_basis(path, ndof=kh_run[1].n_vel).modes.shape == coordinates_basis.modes.shape
        for reader in (read_basis, read_basis_coordinates):
            with pytest.raises(ArchiveFormatError, match="does not match the configured mesh"):
                reader(path, ndof=square8[1].n_vel)

    def test_non_finite_payload(self, tmp_path, coordinates_basis):
        bad = dataclasses.replace(coordinates_basis, modes=coordinates_basis.modes.copy())
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

    def test_rows_match_per_value_format(self, tmp_path):
        # one row format for the whole row writes the bytes of one %.17g per value
        floats = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 5e-324, -1.0 / 3.0, 2.0**60])
        counts = np.arange(floats.size) * 7
        path = tmp_path / "special.csv"
        write_csv(path, ["x", "n"], [floats, counts])
        expected = "x,n\n" + "".join("%.17g,%.17g\n" % (x, n) for x, n in zip(floats, counts))
        assert path.read_text() == expected
        assert "nan,0\n" in expected and "-0,21\n" in expected and "1e-300,35\n" in expected
        _, cols = read_csv(path)
        assert np.array_equal(cols[0], floats, equal_nan=True)
        assert np.signbit(cols[0][3])
        assert np.array_equal(cols[1], counts)

    def test_string_column_verbatim(self, tmp_path):
        # a str column is written as is; an int and a float column with %.17g
        path = tmp_path / "table.csv"
        write_csv(path, ["form", "r", "value"], [["skew", "emac"], [3, 40], [0.1, -2.5e-300]])
        assert path.read_text() == "form,r,value\nskew,3,0.10000000000000001\nemac,40,-2.5e-300\n"

    def test_text_column_round_trip(self, tmp_path):
        # a compare.csv-shaped table: form comes back as str, every number bit for bit
        header = ["form", "r", "linf_l2", "l2_h1", "c_u", "fom_div_l20_sq", "fom_div_l10"]
        floats = [np.array([np.nan, 0.1, 2.0**-1074]), np.array([np.inf, -np.inf, -0.0]),
                  np.array([1.0 / 3.0, -0.0, 1e308]), np.array([0.0, np.nan, -2.5e-300]),
                  np.array([np.pi, -np.inf, 7.0])]
        columns = [np.array(["skew", "emac", "convective"]), np.array([10, 20, 40]), *floats]
        path = tmp_path / "compare.csv"
        write_csv(path, header, columns)
        back_header, back = read_csv(path)
        assert back_header == header
        assert back[0].dtype.kind == "U" and back[0].tolist() == ["skew", "emac", "convective"]
        assert back[1].dtype == np.float64 and back[1].tolist() == [10, 20, 40]
        for got, want in zip(back[2:], floats, strict=True):
            assert got.dtype == np.float64 and np.array_equal(got.view(np.int64), want.view(np.int64))
        write_csv(tmp_path / "again.csv", back_header, back)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ["t", "value"], [np.zeros(0), np.zeros(0)])
        header, cols = read_csv(path)
        assert header == ["t", "value"] and [c.shape for c in cols] == [(0,), (0,)]

    @pytest.mark.parametrize("text,message", [
        ("", "empty CSV"),
        ("t,a\n1,2\n3\n", "bad.csv"),  # ragged row
        ("t,a\n1,2,3\n4,5,6\n", "row width does not match header"),
        ("t,a\n1,x\n", "bad.csv"),
        ("form,r\nskew,x\n", "bad.csv"),  # a non-number beside a text column
        ("form,r\nskew,3,4\n", "row width does not match header"),
    ])
    def test_malformed_is_format_error(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ArchiveFormatError, match=message):
            read_csv(path)

    def test_header_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "bad.csv", ["a"], [np.zeros(2), np.zeros(2)])

