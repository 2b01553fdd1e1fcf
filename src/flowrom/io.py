"""Archive files and CSV emission.

All binary archives share the same conventions: an 8-byte ASCII magic
string, little-endian fixed-width integer header fields, then a payload of
little-endian IEEE-754 float64 blocks.  Each archive's byte layout is its
header and its block table (:func:`_snapshot_blocks`, :func:`_basis_blocks`),
whose counts come from the header; no block is optional.  A column block,
the snapshot payload or the modes, holds an (ndof, count) matrix one column
after another.  :func:`_write_blocks` writes every archive and
:func:`_read_blocks` reads every payload, a column block
:data:`_COLUMN_BLOCK` columns at a time.  The reader checks the file size
against the whole table before it allocates or reads any block, so a header
count that disagrees with the file is a format error naming the block it
runs into, and reads only the blocks wanted.  Every format error raised
while an archive is read starts with the archive's path (:func:`_archive`).

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

import contextlib
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

# columns per read and per write of a column block: it bounds the buffer of
# the block's transposed rows and does not change a bit
_COLUMN_BLOCK = 4


class ArchiveFormatError(ValueError):
    """Raised when an archive header or payload fails validation."""


class _Columns(tuple):
    """The shape (ndof, count) of a block table's matrix field, stored one column after another."""


def _snapshot_blocks(ndof, nsnap):
    """The snapshot archive's blocks, (name, field shapes) in file order, after its header::

        magic[8]="FLOWSNP1" | u32 version=1 | u32 reserved | u64 ndof | u64 nsnap
    """
    return [("times", [(nsnap,)]), ("snapshot payload", [_Columns((ndof, nsnap))])]


def _basis_blocks(ndof, rank, nspec, nproj, nsnap):
    """The basis archive's blocks, as :func:`_snapshot_blocks`, after its header::

        magic[8]="FLOWPOD1" | u32 version=5 | u32 centered | u64 ndof | u64 rank
                            | u64 nspectrum | u64 nprojected | u64 nsnap | u64 nlifting

    The mean is zeros when uncentered.  The fields of the basis's
    :class:`SnapshotCoordinates` on all rank modes (nsnap >= 1) follow the
    modes, then the arrays of its :class:`RomProjection` (nprojected >= 1),
    in field order; no block is optional.  The projection's
    m = nprojected fields are the leading m - nlifting <= centered + rank
    fields of the basis, then ``RomProjection.liftings`` = nlifting
    liftings, which the header alone records.
    """
    return [("eigenvalues", [(rank,)]), ("spectrum", [(nspec,)]), ("grad_norms", [(rank,)]),
            ("mean", [(ndof,)]), ("modes", [_Columns((ndof, rank))]),
            # times; a_hat, Psi^T K w; ||w||_M^2, ||w||_K^2, ||grad u||, ||div u||; Psi^T K Psi
            ("snapshot times", [(nsnap,)]), ("snapshot coordinates", [(nsnap, rank)] * 2),
            ("snapshot norms", [(nsnap,)] * 4), ("stiffness Gram", [(rank, rank)]),
            # conv, div; gram, mass_gram, curl_gram
            ("projection cubes", [(nproj,) * 3] * 2), ("projection Grams", [(nproj, nproj)] * 3)]


def _write_blocks(path, header, blocks, fields):
    """Write ``header`` = (magic, u32 version, u32 flag, *u64 counts), then ``fields``
    laid out by the block table ``blocks``, a column block :data:`_COLUMN_BLOCK`
    columns at a time; every field's shape is checked before the file is created."""
    shapes = [(name, shape) for name, block_shapes in blocks for shape in block_shapes]
    for (name, shape), field in zip(shapes, fields, strict=True):
        if np.shape(field) != shape:
            raise ValueError(f"{name}: a field of shape {np.shape(field)} where the archive holds {shape}")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<8sII" + "Q" * (len(header) - 3), *header))
        for (_, shape), field in zip(shapes, fields):
            parts = ([field[:, a:a + _COLUMN_BLOCK].T for a in range(0, shape[1], _COLUMN_BLOCK)]
                     if isinstance(shape, _Columns) else [field])
            for part in parts:
                fh.write(np.ascontiguousarray(part, dtype="<f8"))


@contextlib.contextmanager
def _archive(path):
    """The archive at ``path``, open for reading; every :class:`ArchiveFormatError`
    raised while it is open gains the path as its first word."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except ArchiveFormatError as exc:
        raise ArchiveFormatError(f"{path}: {exc}") from None


def _read_header(fh, kind, magic, version, n_counts, ndof):
    """(flag, *counts) of a header written by :func:`_write_blocks`, whose
    first count, the DOF count, is checked against ``ndof`` unless it is
    None; leaves ``fh`` at the payload."""
    fmt = "<II" + "Q" * n_counts
    raw = fh.read(8 + struct.calcsize(fmt))
    if raw[:8] != magic:
        raise ArchiveFormatError(f"bad magic {raw[:8]!r}: not a {kind} archive")
    if len(raw) != 8 + struct.calcsize(fmt):
        raise ArchiveFormatError(f"truncated archive while reading the {kind} header")
    found, flag, *counts = struct.unpack_from(fmt, raw, 8)
    if found != version:
        raise ArchiveFormatError(f"unsupported {kind} archive version {found}")
    if ndof is not None and counts[0] != ndof:
        raise ArchiveFormatError(f"archive DOF count {counts[0]} does not match the configured mesh ({ndof})")
    return flag, *counts


def _read_blocks(fh, kind, blocks, wanted=None):
    """The field arrays of the ``wanted`` blocks (all when None), in file order.

    The file's size is checked against the whole block table before any
    block is allocated or read; blocks not wanted are skipped.  Each field
    is its own writable array, a column block's a C-ordered matrix.
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
        for shape in shapes:
            if not isinstance(shape, _Columns):
                fields.append(_read_finite(fh, name, math.prod(shape)).reshape(shape))
                continue
            fields.append(np.empty(shape))
            for a in range(0, shape[1], _COLUMN_BLOCK):  # the transposed rows of a few columns
                part = fields[-1][:, a:a + _COLUMN_BLOCK].T
                part[...] = _read_finite(fh, name, part.size).reshape(part.shape)
    return fields


def _read_finite(fh, name, count):
    """The next ``count`` float64 values of ``fh``, a writable array; a non-finite one is a format error."""
    buf = bytearray(8 * count)
    fh.readinto(buf)
    data = np.frombuffer(buf, dtype="<f8")
    if not np.all(np.isfinite(data)):
        raise ArchiveFormatError(f"non-finite value in {name}")
    return data


def write_snapshots(path, snapshots):
    """Write a :class:`SnapshotSet` to a snapshot archive."""
    counts = snapshots.matrix.shape
    _write_blocks(path, (SNAPSHOT_MAGIC, 1, 0, *counts), _snapshot_blocks(*counts), [snapshots.times, snapshots.matrix])


def _read_snapshot_blocks(path, ndof, wanted=None):
    """The field arrays of a snapshot archive, as :func:`_read_blocks`."""
    with _archive(path) as fh:
        _, *counts = _read_header(fh, "snapshot", SNAPSHOT_MAGIC, 1, 2, ndof)
        return _read_blocks(fh, "snapshot", _snapshot_blocks(*counts), wanted)


def read_snapshots(path, ndof=None):
    """Read a snapshot archive back into a :class:`SnapshotSet`.

    Raises :class:`ArchiveFormatError`, naming the file, on a malformed or
    non-finite payload and, when the velocity DOF count ``ndof`` is given,
    on a DOF count that does not match it.
    """
    times, matrix = _read_snapshot_blocks(path, ndof)
    return SnapshotSet(matrix=matrix, times=times)


def read_snapshot_times(path, ndof=None):
    """The times of a snapshot archive, validated like :func:`read_snapshots`
    except that its payload is skipped."""
    times, = _read_snapshot_blocks(path, ndof, {"times"})
    return times


def write_basis(path, basis):
    """Write a :class:`PodBasis` to a basis archive, which holds its coordinates and its projection."""
    projection, coordinates = basis.projection, basis.coordinates
    if projection is None or coordinates is None:
        raise ValueError("a basis archive holds the snapshot coordinates and the projection; the basis lacks one")
    ndof, rank = basis.modes.shape
    counts = (ndof, rank, basis.spectrum.size, projection.m, coordinates.count)
    mean = basis.mean if basis.centered else np.zeros(ndof)
    # the projection's lifting count is a header field, not a block
    fields = [basis.eigenvalues, basis.spectrum, basis.grad_norms, mean, basis.modes,
              *(getattr(p, f.name) for p in (coordinates, projection)
                for f in dataclasses.fields(p) if f.name != "liftings")]
    header = (BASIS_MAGIC, BASIS_VERSION, int(basis.centered), *counts, projection.liftings)
    _write_blocks(path, header, _basis_blocks(*counts), fields)


def _read_basis_blocks(path, ndof, wanted=None):
    """(centered, nlifting, field arrays) of a basis archive, as :func:`_read_blocks`."""
    with _archive(path) as fh:
        centered, *counts, nlifting = _read_header(fh, "basis", BASIS_MAGIC, BASIS_VERSION, 6, ndof)
        _, rank, nspec, nproj, nsnap = counts
        if rank > nspec:
            raise ArchiveFormatError(f"rank field {rank} exceeds spectrum length {nspec}")
        if not nsnap or not nproj:
            raise ArchiveFormatError(f"the header counts {nsnap} snapshots and {nproj} projected fields; "
                                     "a basis holds at least one of each")
        if nlifting > nproj:
            raise ArchiveFormatError(f"lifting count {nlifting} exceeds the {nproj} projected fields")
        n_fields = rank + bool(centered)
        if nproj - nlifting > n_fields:
            raise ArchiveFormatError(f"projected field count {nproj} exceeds the basis's {n_fields} fields "
                                     f"and {nlifting} liftings")
        return centered, nlifting, _read_blocks(fh, "basis", _basis_blocks(*counts), wanted)


def read_basis(path, ndof=None):
    """Read a basis archive back into a :class:`PodBasis`.

    Validated like :func:`read_snapshots`, against the DOF count ``ndof``
    when it is given.
    """
    centered, nlifting, fields = _read_basis_blocks(path, ndof)
    eigenvalues, spectrum, grad_norms, mean, modes, *rest = fields
    n_coords = len(dataclasses.fields(SnapshotCoordinates))
    return PodBasis(
        modes=modes,
        eigenvalues=eigenvalues,
        spectrum=spectrum,
        grad_norms=grad_norms,
        mean=mean if centered else None,
        projection=RomProjection(*rest[n_coords:], liftings=nlifting),
        coordinates=SnapshotCoordinates(*rest[:n_coords]),
    )


def read_basis_coordinates(path, ndof=None):
    """The :class:`SnapshotCoordinates` of a basis archive, validated like
    :func:`read_basis`, ``ndof`` included, but reading no other block."""
    *_, fields = _read_basis_blocks(path, ndof, {
        "snapshot times", "snapshot coordinates", "snapshot norms", "stiffness Gram"})
    return SnapshotCoordinates(*fields)


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
