"""Archive files and CSV emission.

All binary archives share the same conventions: an 8-byte ASCII magic
string, little-endian fixed-width integer header fields, then little-endian
IEEE-754 float64 payloads.  Layouts:

Snapshot archive (magic ``FLOWSNP1``)::

    magic[8] | u32 version=1 | u32 reserved | u64 ndof | u64 nsnap
    f64 times[nsnap]
    f64 data[nsnap][ndof]          # snapshot-major

Basis archive (magic ``FLOWPOD1``)::

    magic[8] | u32 version=4 | u32 centered | u64 ndof | u64 rank | u64 nspectrum
             | u64 nprojected | u64 nsnap
    f64 eigenvalues[rank]
    f64 spectrum[nspectrum]
    f64 grad_norms[rank]
    f64 mean[ndof]                 # zeros when centered == 0
    f64 modes[rank][ndof]          # mode-major
    f64 times[nsnap]               # the basis's SnapshotCoordinates, on all
    f64 coeffs[nsnap][rank]        # rank modes; all eight absent when nsnap == 0:
    f64 outside_stiff[nsnap][rank] # a_hat, Psi^T K w,
    f64 outside_mass_sq[nsnap]     # ||w||_M^2, ||w||_K^2 (w: the part outside the basis),
    f64 outside_stiff_sq[nsnap]
    f64 h1_norms[nsnap]            # ||grad u||, ||div u|| of the snapshots,
    f64 div_norms[nsnap]
    f64 stiff_gram[rank][rank]     # Psi^T K Psi
    f64 conv[m][m][m]              # the basis's RomProjection on its leading
    f64 div[m][m][m]               # m = nprojected fields (at most centered + rank):
    f64 gram[m][m]                 # its cubes, then its stiffness, mass and curl
    f64 mass_gram[m][m]            # Grams; all five absent when nprojected == 0
    f64 curl_gram[m][m]

Version 3 lacked the snapshot coordinates and version 2 also the mass and
curl Grams; both are rejected like any other unknown version.

CSV files all carry a header row and print floats with 17 significant
digits, so rereading reproduces the values bit-exactly.
"""

import os
import struct
import warnings

import numpy as np

from .pod import PodBasis, SnapshotCoordinates, SnapshotSet
from .rom import RomProjection

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
    """``count`` float64 values read into one buffer, viewed (writable) without a copy."""
    buf = bytearray(8 * count)
    if fh.readinto(buf) != len(buf):
        raise ArchiveFormatError(f"truncated archive while reading {what}")
    data = np.frombuffer(buf, dtype="<f8")
    if not np.all(np.isfinite(data)):
        raise ArchiveFormatError(f"non-finite value in {what}")
    return data


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


def _read_snapshot_header(fh, space):
    """(ndof, nsnap, times) of the snapshot archive open in ``fh``, left at its payload."""
    magic = _read_exact(fh, 8, "magic")
    if magic != SNAPSHOT_MAGIC:
        raise ArchiveFormatError(f"bad magic {magic!r}: not a snapshot archive")
    version, _, ndof, nsnap = struct.unpack("<IIQQ", _read_exact(fh, 24, "header"))
    if version != 1:
        raise ArchiveFormatError(f"unsupported snapshot archive version {version}")
    _check_dofs(ndof, space)
    return ndof, nsnap, _read_floats(fh, nsnap, "times")


def read_snapshots(path, space=None):
    """Read a snapshot archive back into a :class:`SnapshotSet`.

    Raises :class:`ArchiveFormatError` on a malformed or non-finite payload
    and, when ``space`` is given, on a DOF count that does not match it.
    """
    with open(path, "rb") as fh:
        ndof, nsnap, times = _read_snapshot_header(fh, space)
        data = _read_floats(fh, nsnap * ndof, "snapshot payload").reshape(nsnap, ndof)
        if fh.read(1):
            raise ArchiveFormatError("trailing bytes after snapshot payload")
    return SnapshotSet(matrix=data.T.copy(), times=times)


def read_snapshot_times(path, space=None):
    """The times of a snapshot archive, without reading its payload.

    Validated like :func:`read_snapshots`, except that the payload is only
    checked to have the size its header gives.
    """
    with open(path, "rb") as fh:
        ndof, nsnap, times = _read_snapshot_header(fh, space)
        if os.fstat(fh.fileno()).st_size != fh.tell() + 8 * nsnap * ndof:
            raise ArchiveFormatError("snapshot payload size does not match the archive header")
    return times


def write_basis(path, basis):
    """Write a :class:`PodBasis` to a basis archive."""
    ndof, rank = basis.modes.shape
    proj, coords = basis.projection, basis.coordinates
    nproj = 0 if proj is None else proj.m
    nsnap = 0 if coords is None else coords.count
    with open(path, "wb") as fh:
        fh.write(BASIS_MAGIC)
        fh.write(struct.pack("<IIQQQQQ", 4, int(basis.centered), ndof, rank, basis.spectrum.size,
                             nproj, nsnap))
        fh.write(np.asarray(basis.eigenvalues, dtype="<f8").tobytes())
        fh.write(np.asarray(basis.spectrum, dtype="<f8").tobytes())
        fh.write(np.asarray(basis.grad_norms, dtype="<f8").tobytes())
        mean = basis.mean if basis.centered else np.zeros(ndof)
        fh.write(np.asarray(mean, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(basis.modes.T, dtype="<f8").tobytes())
        if coords is not None:
            for block in (coords.times, coords.coeffs, coords.outside_stiff, coords.outside_mass_sq,
                          coords.outside_stiff_sq, coords.h1_norms, coords.div_norms,
                          coords.stiff_gram):
                fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())
        if proj is not None:
            for block in (proj.conv, proj.div, proj.gram, proj.mass_gram, proj.curl_gram):
                fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def read_basis(path, space=None):
    """Read a basis archive back into a :class:`PodBasis`.

    Validated like :func:`read_snapshots`.
    """
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 8, "magic")
        if magic != BASIS_MAGIC:
            raise ArchiveFormatError(f"bad magic {magic!r}: not a basis archive")
        version, centered, ndof, rank, nspec, nproj, nsnap = struct.unpack(
            "<IIQQQQQ", _read_exact(fh, 48, "header"))
        if version != 4:
            raise ArchiveFormatError(f"unsupported basis archive version {version}")
        if rank > nspec:
            raise ArchiveFormatError(f"rank field {rank} exceeds spectrum length {nspec}")
        n_fields = rank + bool(centered)
        if nproj > n_fields:
            raise ArchiveFormatError(f"projected field count {nproj} exceeds the basis's {n_fields} fields")
        _check_dofs(ndof, space)
        eigenvalues = _read_floats(fh, rank, "eigenvalues")
        spectrum = _read_floats(fh, nspec, "spectrum")
        grad_norms = _read_floats(fh, rank, "grad_norms")
        mean = _read_floats(fh, ndof, "mean")
        modes = _read_floats(fh, rank * ndof, "modes").reshape(rank, ndof).T.copy()
        coordinates = None
        if nsnap:
            times = _read_floats(fh, nsnap, "snapshot times")
            coeffs = _read_floats(fh, 2 * nsnap * rank, "snapshot coordinates").reshape(2, nsnap, rank)
            norms = _read_floats(fh, 4 * nsnap, "snapshot norms").reshape(4, nsnap)
            coordinates = SnapshotCoordinates(
                times=times, coeffs=coeffs[0], outside_stiff=coeffs[1], outside_mass_sq=norms[0],
                outside_stiff_sq=norms[1], h1_norms=norms[2], div_norms=norms[3],
                stiff_gram=_read_floats(fh, rank * rank, "stiffness Gram").reshape(rank, rank))
        projection = None
        if nproj:
            cubes = _read_floats(fh, 2 * nproj**3, "projection cubes").reshape(2, nproj, nproj, nproj)
            grams = _read_floats(fh, 3 * nproj**2, "projection Grams").reshape(3, nproj, nproj)
            projection = RomProjection(conv=cubes[0], div=cubes[1], gram=grams[0],
                                       mass_gram=grams[1], curl_gram=grams[2])
        if fh.read(1):
            raise ArchiveFormatError("trailing bytes after basis payload")
    return PodBasis(
        modes=modes,
        eigenvalues=eigenvalues,
        spectrum=spectrum,
        grad_norms=grad_norms,
        mean=mean if centered else None,
        projection=projection,
        coordinates=coordinates,
    )


def write_csv(path, header, columns):
    """Write columns to CSV with a header row and 17-significant-digit floats."""
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header):
        raise ValueError("header and column counts differ")
    n = columns[0].size
    if any(c.size != n for c in columns):
        raise ValueError("columns must have equal length")
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in zip(*(c.tolist() for c in columns)))


def read_csv(path):
    """Read a CSV written by :func:`write_csv`: returns (header, columns).

    An empty file, a value that is not a number and a row whose width
    differs from the header's raise :class:`ArchiveFormatError`.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header == [""]:
            raise ArchiveFormatError(f"{path}: empty CSV")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a header without rows
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ArchiveFormatError(f"{path}: {exc}") from exc
    if data.size == 0:
        data = data.reshape(0, len(header))
    if data.shape[1] != len(header):
        raise ArchiveFormatError(f"{path}: row width does not match header")
    return header, [data[:, j] for j in range(len(header))]
