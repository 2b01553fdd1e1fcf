"""Archive files, CSV emission, and legacy-VTK field output.

All binary archives share the same conventions: an 8-byte ASCII magic
string, little-endian fixed-width integer header fields, then little-endian
IEEE-754 float64 payloads.  Layouts:

Snapshot archive (magic ``FLOWSNP1``)::

    magic[8] | u32 version=1 | u32 reserved | u64 ndof | u64 nsnap
    f64 times[nsnap]
    f64 data[nsnap][ndof]          # snapshot-major

Basis archive (magic ``FLOWPOD1``)::

    magic[8] | u32 version=1 | u32 centered | u64 ndof | u64 rank | u64 nspectrum
    f64 eigenvalues[rank]
    f64 spectrum[nspectrum]
    f64 grad_norms[rank]
    f64 mean[ndof]                 # zeros when centered == 0
    f64 modes[rank][ndof]          # mode-major

CSV files all carry a header row and print floats with 17 significant
digits, so rereading reproduces the values bit-exactly.
"""

import struct

import numpy as np

from .pod import PodBasis, SnapshotSet

SNAPSHOT_MAGIC = b"FLOWSNP1"
BASIS_MAGIC = b"FLOWPOD1"


class ArchiveFormatError(ValueError):
    """Raised when an archive header or payload fails validation."""


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise ArchiveFormatError(f"truncated archive while reading {what}")
    return buf


def _read_floats(fh, count, what):
    data = np.frombuffer(_read_exact(fh, 8 * count, what), dtype="<f8")
    if not np.all(np.isfinite(data)):
        raise ArchiveFormatError(f"non-finite value in {what}")
    return data.astype(float, copy=True)


def _check_dofs(ndof, space):
    if space is not None and ndof != space.n_vel:
        raise ArchiveFormatError(
            f"archive DOF count {ndof} does not match the configured mesh ({space.n_vel})")


def write_snapshots(path, snapshots):
    """Write a :class:`SnapshotSet` to a snapshot archive."""
    mat = np.ascontiguousarray(snapshots.matrix.T, dtype="<f8")  # snapshot-major
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<IIQQ", 1, 0, snapshots.matrix.shape[0], snapshots.count))
        fh.write(np.asarray(snapshots.times, dtype="<f8").tobytes())
        fh.write(mat.tobytes())


def read_snapshots(path, space=None):
    """Read a snapshot archive back into a :class:`SnapshotSet`.

    Raises :class:`ArchiveFormatError` on a malformed or non-finite payload
    and, when ``space`` is given, on a DOF count that does not match it.
    """
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 8, "magic")
        if magic != SNAPSHOT_MAGIC:
            raise ArchiveFormatError(f"bad magic {magic!r}: not a snapshot archive")
        version, _, ndof, nsnap = struct.unpack("<IIQQ", _read_exact(fh, 24, "header"))
        if version != 1:
            raise ArchiveFormatError(f"unsupported snapshot archive version {version}")
        _check_dofs(ndof, space)
        times = _read_floats(fh, nsnap, "times")
        data = _read_floats(fh, nsnap * ndof, "snapshot payload").reshape(nsnap, ndof)
        if fh.read(1):
            raise ArchiveFormatError("trailing bytes after snapshot payload")
    return SnapshotSet(matrix=data.T.copy(), times=times, space=space)


def write_basis(path, basis):
    """Write a :class:`PodBasis` to a basis archive."""
    ndof, rank = basis.modes.shape
    with open(path, "wb") as fh:
        fh.write(BASIS_MAGIC)
        fh.write(struct.pack("<IIQQQ", 1, int(basis.centered), ndof, rank, basis.spectrum.size))
        fh.write(np.asarray(basis.eigenvalues, dtype="<f8").tobytes())
        fh.write(np.asarray(basis.spectrum, dtype="<f8").tobytes())
        fh.write(np.asarray(basis.grad_norms, dtype="<f8").tobytes())
        mean = basis.mean if basis.centered else np.zeros(ndof)
        fh.write(np.asarray(mean, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(basis.modes.T, dtype="<f8").tobytes())


def read_basis(path, space=None):
    """Read a basis archive back into a :class:`PodBasis`.

    Validated like :func:`read_snapshots`.
    """
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 8, "magic")
        if magic != BASIS_MAGIC:
            raise ArchiveFormatError(f"bad magic {magic!r}: not a basis archive")
        version, centered, ndof, rank, nspec = struct.unpack("<IIQQQ", _read_exact(fh, 32, "header"))
        if version != 1:
            raise ArchiveFormatError(f"unsupported basis archive version {version}")
        if rank > nspec:
            raise ArchiveFormatError(f"rank field {rank} exceeds spectrum length {nspec}")
        _check_dofs(ndof, space)
        eigenvalues = _read_floats(fh, rank, "eigenvalues")
        spectrum = _read_floats(fh, nspec, "spectrum")
        grad_norms = _read_floats(fh, rank, "grad_norms")
        mean = _read_floats(fh, ndof, "mean")
        modes = _read_floats(fh, rank * ndof, "modes").reshape(rank, ndof).T.copy()
        if fh.read(1):
            raise ArchiveFormatError("trailing bytes after basis payload")
    return PodBasis(
        modes=modes,
        eigenvalues=eigenvalues,
        spectrum=spectrum,
        grad_norms=grad_norms,
        mean=mean if centered else None,
    )


def write_csv(path, header, columns):
    """Write columns to CSV with a header row and 17-significant-digit floats."""
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header):
        raise ValueError("header and column counts differ")
    n = columns[0].size
    if any(c.size != n for c in columns):
        raise ValueError("columns must have equal length")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            fh.write(",".join("%.17g" % c[i] for c in columns) + "\n")


def read_csv(path):
    """Read a CSV written by :func:`write_csv`: returns (header, columns)."""
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ArchiveFormatError(f"{path}: empty CSV")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    data = np.array(rows) if rows else np.zeros((0, len(header)))
    if rows and data.shape[1] != len(header):
        raise ArchiveFormatError(f"{path}: row width does not match header")
    return header, [data[:, j] for j in range(len(header))]


def write_vtk(path, space, velocity, pressure=None, title="flowrom fields"):
    """Write velocity (and optional pressure) as a legacy-VTK unstructured grid.

    Fields are sampled at the mesh vertices; P2 midpoint values are not
    emitted (viewers interpolate linearly anyway).
    """
    mesh = space.mesh
    nv = mesh.num_vertices
    vids = space.scalar_index[:nv]
    u = np.asarray(velocity, dtype=float).reshape(space.n_scalar, 2)[vids]
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"{title}\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {nv} double\n")
        for x, y in mesh.vertices:
            fh.write("%.17g %.17g 0\n" % (x, y))
        nt = mesh.num_triangles
        fh.write(f"CELLS {nt} {4 * nt}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {nt}\n")
        fh.write("5\n" * nt)
        fh.write(f"POINT_DATA {nv}\n")
        fh.write("VECTORS velocity double\n")
        for u1, u2 in u:
            fh.write("%.17g %.17g 0\n" % (u1, u2))
        if pressure is not None:
            p = np.asarray(pressure, dtype=float)[space.pressure_index[np.arange(nv)]]
            fh.write("SCALARS pressure double 1\nLOOKUP_TABLE default\n")
            for v in p:
                fh.write("%.17g\n" % v)
