"""Archive files and CSV emission.

All binary archives share the same conventions: an 8-byte ASCII magic
string, little-endian fixed-width integer header fields, then a payload of
little-endian IEEE-754 float64 blocks.  Each archive's byte layout is its
header and its block table (:func:`_snapshot_blocks`, :func:`_basis_blocks`),
whose counts come from the header.  The writers emit the table's fields in
order.  The readers check the file size against the whole table before they
allocate or read any block, so a header count that disagrees with the file
is a format error naming the block it runs into, and read only the blocks
they need.

Basis archive version 4 lacked the lifting count, version 3 also the
snapshot coordinates and version 2 also the mass and curl Grams; all are
rejected like any other unknown version.

Every table of the CLI and the demos is written by :func:`write_csv` and
read back by :func:`read_csv`: a header row, then one row per record.  The
columns named in :data:`TEXT_COLUMNS` hold text, written verbatim; every
other column holds numbers, written with 17 significant digits, so
rereading reproduces the values bit-exactly.  Readers look a column up by
its header name.
"""

import dataclasses
import math
import os
import struct
import warnings

import numpy as np

from .pod import PodBasis, SnapshotCoordinates, SnapshotSet
from .rom import RomProjection

SNAPSHOT_MAGIC = b"FLOWSNP1"
BASIS_MAGIC = b"FLOWPOD1"
BASIS_VERSION = 5

# The only table columns that hold text; :func:`write_csv` and :func:`read_csv`
# treat every other column as numbers.
TEXT_COLUMNS = ("form",)


class ArchiveFormatError(ValueError):
    """Raised when an archive header or payload fails validation."""


def _snapshot_blocks(ndof, nsnap):
    """The snapshot archive's blocks, (name, field shapes) in file order, after its header::

        magic[8]="FLOWSNP1" | u32 version=1 | u32 reserved | u64 ndof | u64 nsnap
    """
    return [("times", [(nsnap,)]), ("snapshot payload", [(nsnap, ndof)])]  # snapshot-major


def _basis_blocks(ndof, rank, nspec, nproj, nsnap):
    """The basis archive's blocks, as :func:`_snapshot_blocks`, after its header::

        magic[8]="FLOWPOD1" | u32 version=5 | u32 centered | u64 ndof | u64 rank
                            | u64 nspectrum | u64 nprojected | u64 nsnap | u64 nlifting

    The mean is zeros when uncentered.  The fields of the basis's
    :class:`SnapshotCoordinates` on all rank modes follow the modes (none
    when nsnap == 0), then the arrays of its :class:`RomProjection` (none
    when nprojected == 0), in field order.  The projection's
    m = nprojected fields are the leading m - nlifting <= centered + rank
    fields of the basis, then ``RomProjection.liftings`` = nlifting
    liftings, which the header alone records.
    """
    blocks = [("eigenvalues", [(rank,)]), ("spectrum", [(nspec,)]), ("grad_norms", [(rank,)]),
              ("mean", [(ndof,)]), ("modes", [(rank, ndof)])]  # mode-major
    if nsnap:  # times; a_hat, Psi^T K w; ||w||_M^2, ||w||_K^2, ||grad u||, ||div u||; Psi^T K Psi
        blocks += [("snapshot times", [(nsnap,)]), ("snapshot coordinates", [(nsnap, rank)] * 2),
                   ("snapshot norms", [(nsnap,)] * 4), ("stiffness Gram", [(rank, rank)])]
    if nproj:  # conv, div; gram, mass_gram, curl_gram
        blocks += [("projection cubes", [(nproj,) * 3] * 2), ("projection Grams", [(nproj, nproj)] * 3)]
    return blocks


def _write_archive(path, magic, version, flag, counts, blocks, fields):
    """Write the header ``magic | u32 version | u32 flag | u64 counts``, then
    ``fields`` as float64 with the shapes of the block table, in order."""
    shapes = [shape for _, block_shapes in blocks for shape in block_shapes]
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<II" + "Q" * len(counts), version, flag, *counts))
        for shape, field in zip(shapes, fields, strict=True):
            fh.write(np.ascontiguousarray(field, dtype="<f8").reshape(shape))


def _read_header(fh, kind, magic, version, n_counts, space):
    """(flag, *counts) of a header written by :func:`_write_archive`, whose
    first count, the DOF count, is checked against the space; leaves ``fh``
    at the payload."""
    fmt = "<II" + "Q" * n_counts
    raw = fh.read(8 + struct.calcsize(fmt))
    if raw[:8] != magic:
        raise ArchiveFormatError(f"bad magic {raw[:8]!r}: not a {kind} archive")
    if len(raw) != 8 + struct.calcsize(fmt):
        raise ArchiveFormatError(f"truncated archive while reading the {kind} header")
    found, flag, *counts = struct.unpack_from(fmt, raw, 8)
    if found != version:
        raise ArchiveFormatError(f"unsupported {kind} archive version {found}")
    if space is not None and counts[0] != space.n_vel:
        raise ArchiveFormatError(
            f"archive DOF count {counts[0]} does not match the configured mesh ({space.n_vel})")
    return flag, *counts


def _read_blocks(fh, kind, blocks, wanted=None):
    """The field arrays of the ``wanted`` blocks (all when None), in file order.

    The file's size is checked against the whole block table before any
    block is allocated or read; blocks not wanted are skipped.  The arrays
    are writable views of one buffer per block.
    """
    sizes = [8 * sum(math.prod(shape) for shape in shapes) for _, shapes in blocks]
    end, file_size = fh.tell(), os.fstat(fh.fileno()).st_size
    for (name, _), size in zip(blocks, sizes):
        end += size
        if end > file_size:
            raise ArchiveFormatError(f"{kind} payload size does not match the archive header "
                                     f"(truncated archive while reading {name})")
    if end < file_size:
        raise ArchiveFormatError(f"{kind} payload size does not match the archive header "
                                 "(trailing bytes after the last block)")
    fields = []
    for (name, shapes), size in zip(blocks, sizes):
        if wanted is not None and name not in wanted:
            fh.seek(size, os.SEEK_CUR)
            continue
        buf = bytearray(size)
        fh.readinto(buf)
        data = np.frombuffer(buf, dtype="<f8")
        if not np.all(np.isfinite(data)):
            raise ArchiveFormatError(f"non-finite value in {name}")
        offsets = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
        fields += [part.reshape(shape) for part, shape in zip(np.split(data, offsets), shapes)]
    return fields


def write_snapshots(path, snapshots):
    """Write a :class:`SnapshotSet` to a snapshot archive."""
    counts = (snapshots.matrix.shape[0], snapshots.count)
    _write_archive(path, SNAPSHOT_MAGIC, 1, 0, counts, _snapshot_blocks(*counts),
                   [snapshots.times, snapshots.matrix.T])


def _read_snapshot_blocks(path, space, wanted=None):
    """The field arrays of a snapshot archive, as :func:`_read_blocks`."""
    with open(path, "rb") as fh:
        _, ndof, nsnap = _read_header(fh, "snapshot", SNAPSHOT_MAGIC, 1, 2, space)
        return _read_blocks(fh, "snapshot", _snapshot_blocks(ndof, nsnap), wanted)


def read_snapshots(path, space=None):
    """Read a snapshot archive back into a :class:`SnapshotSet`.

    Raises :class:`ArchiveFormatError` on a malformed or non-finite payload
    and, when ``space`` is given, on a DOF count that does not match it.
    """
    times, data = _read_snapshot_blocks(path, space)
    return SnapshotSet(matrix=data.T.copy(), times=times)


def read_snapshot_times(path, space=None):
    """The times of a snapshot archive, validated like :func:`read_snapshots`
    except that its payload is skipped."""
    return _read_snapshot_blocks(path, space, {"times"})[0]


def write_basis(path, basis):
    """Write a :class:`PodBasis` to a basis archive."""
    ndof, rank = basis.modes.shape
    projection, coordinates = basis.projection, basis.coordinates
    counts = (ndof, rank, basis.spectrum.size, 0 if projection is None else projection.m,
              0 if coordinates is None else coordinates.count)
    mean = basis.mean if basis.centered else np.zeros(ndof)
    # the projection's lifting count is a header field, not a block
    arrays = [getattr(p, f.name) for p in (coordinates, projection) if p is not None
              for f in dataclasses.fields(p) if f.name != "liftings"]
    _write_archive(path, BASIS_MAGIC, BASIS_VERSION, int(basis.centered),
                   (*counts, 0 if projection is None else projection.liftings), _basis_blocks(*counts),
                   [basis.eigenvalues, basis.spectrum, basis.grad_norms, mean, basis.modes.T, *arrays])


def _read_basis_blocks(path, space, wanted=None):
    """(centered, nsnap, nproj, nlifting, field arrays) of a basis archive, as :func:`_read_blocks`."""
    with open(path, "rb") as fh:
        centered, ndof, rank, nspec, nproj, nsnap, nlifting = _read_header(
            fh, "basis", BASIS_MAGIC, BASIS_VERSION, 6, space)
        if rank > nspec:
            raise ArchiveFormatError(f"rank field {rank} exceeds spectrum length {nspec}")
        if nlifting > nproj:
            raise ArchiveFormatError(f"{path}: lifting count {nlifting} exceeds the {nproj} projected fields")
        n_fields = rank + bool(centered)
        if nproj - nlifting > n_fields:
            raise ArchiveFormatError(f"projected field count {nproj} exceeds the basis's {n_fields} fields "
                                     f"and {nlifting} liftings")
        blocks = _basis_blocks(ndof, rank, nspec, nproj, nsnap)
        return centered, nsnap, nproj, nlifting, _read_blocks(fh, "basis", blocks, wanted)


def read_basis(path, space=None):
    """Read a basis archive back into a :class:`PodBasis`.

    Validated like :func:`read_snapshots`.
    """
    centered, nsnap, nproj, nlifting, fields = _read_basis_blocks(path, space)
    eigenvalues, spectrum, grad_norms, mean, modes, *rest = fields
    n_coords = len(dataclasses.fields(SnapshotCoordinates)) if nsnap else 0
    return PodBasis(
        modes=modes.T.copy(),
        eigenvalues=eigenvalues,
        spectrum=spectrum,
        grad_norms=grad_norms,
        mean=mean if centered else None,
        projection=RomProjection(*rest[n_coords:], liftings=nlifting) if nproj else None,
        coordinates=SnapshotCoordinates(*rest[:n_coords]) if nsnap else None,
    )


def read_basis_coordinates(path, space=None):
    """The :class:`SnapshotCoordinates` of a basis archive (None when it
    holds none), validated like :func:`read_basis` but reading no other block."""
    _, nsnap, _, _, fields = _read_basis_blocks(path, space, {
        "snapshot times", "snapshot coordinates", "snapshot norms", "stiffness Gram"})
    return SnapshotCoordinates(*fields) if nsnap else None


def write_csv(path, header, columns):
    """Write columns to CSV with a header row: a column named in
    :data:`TEXT_COLUMNS` verbatim and every other column as
    17-significant-digit numbers."""
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header):
        raise ValueError("header and column counts differ")
    n = columns[0].size
    if any(c.size != n for c in columns):
        raise ValueError("columns must have equal length")
    row = ",".join("%s" if name in TEXT_COLUMNS else "%.17g" for name in header) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in zip(*(c.tolist() for c in columns)))


def read_csv(path):
    """Read a CSV written by :func:`write_csv`: returns (header, columns).

    A column named in :data:`TEXT_COLUMNS` comes back as a ``str`` array and
    every other column as float64; the numeric columns are parsed together.
    An empty file, a row whose width differs from the header's and a value
    that is not a number in a numeric column raise
    :class:`ArchiveFormatError`.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header == [""]:
            raise ArchiveFormatError(f"{path}: empty CSV")
        rows = fh.read().splitlines()
    for line, row in enumerate(rows, 2):
        if row.count(",") != len(header) - 1:
            raise ArchiveFormatError(f"{path}: row width does not match header (line {line})")
    numeric = [j for j, name in enumerate(header) if name not in TEXT_COLUMNS]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header without rows
            data = np.loadtxt(rows, delimiter=",", usecols=numeric, ndmin=2)
    except ValueError as exc:
        raise ArchiveFormatError(f"{path}: {exc}") from exc
    values = iter(data.T)
    return header, [np.array([row.split(",")[j] for row in rows], dtype=str) if name in TEXT_COLUMNS
                    else next(values) for j, name in enumerate(header)]
