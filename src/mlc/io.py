"""Bit-exact file formats: binary PPM images, CSV matrices, TSV manifests.

Images are (H, W, 3) uint8 arrays, the PPM's own bytes; `quantize` turns
computed [0, 1] values into such bytes. Text readers take an open binary
stream, split into lines by the one line reader `ascii_blocks`. CSV
matrices go in blocks of `CSV_BLOCK_ROWS` rows, so no whole file's text is
held: `read_csv_matrix` parses block by block, and `csv_blocks` yields the
encoded blocks for `write_atomic` (`write_csv_matrix` is their join).
Three functions touch the filesystem: `write_atomic`, the one way the
toolkit puts bytes on disk (str, bytes, or an iterable of buffers written
in order unjoined, as `model.save_params` gives a checkpoint that
`model.load_params` reads back from a stream), `read_image`, the one image
reader, and `write_dataset`, the one writer of a dataset directory
(manifest.tsv plus one PPM per entry, at paths under the manifest's own).
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path, PurePath
from typing import BinaryIO

import numpy as np

from .errors import (
    DataLoadError, IndexOutOfRange, IoError, MlcError, ParseError, PixelOutOfRange, ShapeMismatch,
)
from .types import LabelMatrix, ScoreMatrix


def write_atomic(path: str | Path, data: str | bytes | Iterable[bytes | memoryview]) -> None:
    """Write `data` to `path` through a temp file: str (encoded as ASCII),
    bytes, or an iterable of buffers written in order as it yields them.

    The bytes go to a fresh temp file in the target's directory, which then
    replaces the target with `os.replace`. On any exception, interrupts
    included, the temp file is removed, so a reader sees either the old file
    or the complete new one. An OSError becomes an IoError naming `path`.
    There is no fsync: this protects against a killed process, not against
    power loss.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("ascii")
    chunks = (data,) if isinstance(data, bytes) else data
    tail = f".{os.getpid()}-{os.urandom(4).hex()}.tmp"
    # the name is cut to NAME_MAX, 255 bytes, so every target that fits has a temp file
    tmp = path.with_name(os.fsdecode(b"." + os.fsencode(path.name)[: 254 - len(tail)]) + tail)
    try:
        # opened before the inner try: if the name clashes, "x" fails and
        # the other writer's file is left alone
        handle = open(tmp, "xb")
        try:
            with handle:
                handle.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc.strerror or exc}") from exc


def read_ppm(blob: bytes) -> np.ndarray:
    """Decode a binary (P6) PPM with maxval 255 into a read-only (H, W, 3)
    uint8 array, a view of `blob` without a copy.

    The grammar is strict: "P6", then ASCII width, height and maxval, each
    after at least one whitespace byte, one whitespace byte, then
    width*height*3 raw bytes.
    """
    if blob[:2] != b"P6":
        raise ParseError(f"expected P6 magic, got {blob[:2]!r}")
    pos = 2
    fields = []
    while len(fields) < 3:
        start = pos
        while pos < len(blob) and blob[pos : pos + 1] in (b" ", b"\t", b"\n", b"\r"):
            pos += 1
        if pos == start:
            raise ParseError("header fields are not separated by whitespace")
        start = pos
        while pos < len(blob) and blob[pos : pos + 1].isdigit():
            pos += 1
        try:
            fields.append(int(blob[start:pos]))
        except ValueError:  # no digit, or past int's 4300-digit limit
            raise ParseError("header field is not an ASCII integer") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ParseError(f"non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise ParseError(f"maxval {maxval} unsupported, need 255")
    if pos >= len(blob) or blob[pos : pos + 1] not in (b" ", b"\t", b"\n", b"\r"):
        raise ParseError("missing whitespace after maxval")
    pos += 1
    need = width * height * 3
    if len(blob) - pos < need:
        raise ParseError(f"expected {need} pixel bytes, got {len(blob) - pos}")
    return np.frombuffer(blob, dtype=np.uint8, count=need, offset=pos).reshape(height, width, 3)


def write_ppm(pixels: np.ndarray) -> bytes:
    """Encode an (H, W, 3) uint8 array as binary PPM."""
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3 or 0 in pixels.shape:
        raise ShapeMismatch(f"expected (H, W, 3) uint8 pixels, got {pixels.dtype} {pixels.shape}")
    height, width, _ = pixels.shape
    return f"P6\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes()


def quantize(data: np.ndarray) -> np.ndarray:
    """Pixel bytes of values in [0, 1]: floor(x * 255 + 0.5), so half rounds up.

    Any value outside [0, 1], NaN included, is PixelOutOfRange.
    """
    if not ((data >= 0.0) & (data <= 1.0)).all():
        raise PixelOutOfRange("pixel values must lie in [0, 1]")
    return np.floor(data * 255.0 + 0.5).astype(np.uint8)


# rows per block of the CSV reader and writer: neither holds a whole file's text
CSV_BLOCK_ROWS = 1024
DATASET_CHUNK_BYTES = 64 * 64 * 64 * 3  # write_dataset's chunk: 64 images of 64x64 pixels

# every byte a plain decimal CSV can hold; `bytes.translate` deletes them,
# so a block made of nothing else translates to b""
_PLAIN = b"0123456789.eE+-,\n"


def read_csv_matrix(stream: BinaryIO, kind: str = "scores") -> ScoreMatrix | LabelMatrix:
    """Parse a headerless CSV of decimal numbers from a binary stream into a matrix.

    The stream is read `CSV_BLOCK_ROWS` lines at a time. Lines end at b"\n"
    only, less one "\r" before it. A cell is anything Python's `float()`
    accepts. A ParseError names the first line with a cell count other than
    the first row's or a cell `float()` rejects; a non-ASCII byte anywhere is
    one naming the stream's `name` and the byte's offset, and comes first.
    kind="labels" returns a LabelMatrix, which rejects entries other than 0
    and 1; kind="scores" returns a ScoreMatrix, which rejects NaN and
    infinities. Matrix and errors are those of parsing the whole text at once.
    """
    if kind not in ("scores", "labels"):
        raise ValueError(f"kind must be 'scores' or 'labels', got {kind!r}")
    arrays = []
    width = None
    blocks = ascii_blocks(stream)
    for lineno, chunk in blocks:
        try:
            data, width = _parse_block(chunk, width, lineno)
        except MlcError:
            for _ in blocks:  # a non-ASCII byte further on is reported instead
                pass
            raise
        if data is not None:
            arrays.append(data)
    if not arrays:
        raise ParseError("matrix text contains no rows")
    data = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
    del arrays  # the blocks, copied into `data`, go before the matrix checks
    return LabelMatrix(data) if kind == "labels" else ScoreMatrix(data)


def ascii_blocks(stream: BinaryIO) -> Iterator[tuple[int, bytes]]:
    """(lines before it, ASCII bytes with b"\r\n" read as b"\n") of each block
    of `CSV_BLOCK_ROWS` lines of `stream`: the one line reader. A non-ASCII
    byte is a ParseError naming the stream and the byte's offset."""
    lineno = offset = 0
    while raw := list(itertools.islice(stream, CSV_BLOCK_ROWS)):
        chunk = b"".join(raw)
        if not chunk.isascii():
            try:
                chunk.decode("ascii")
            except UnicodeDecodeError as exc:
                name = getattr(stream, "name", "stream")
                raise ParseError(f"{name}: non-ASCII byte at offset {offset + exc.start}") from None
        first, lineno, offset = lineno, lineno + len(raw), offset + len(chunk)
        del raw  # only the block's bytes are held while it is parsed
        # looking for b"\r" costs a small part of what replace's own search does
        yield first, chunk.replace(b"\r\n", b"\n") if b"\r" in chunk else chunk


def _parse_block(chunk: bytes, width: int | None, lineno: int) -> tuple[np.ndarray | None, int | None]:
    """The rows of one block, whose first line is line `lineno` + 1, and the
    row width; no rows (None) for a block of empty lines."""
    lines = chunk.decode("ascii").split("\n")
    if any(lines) and not chunk.translate(None, _PLAIN):
        # On this alphabet numpy and `float()` convert a cell with the same
        # CPython routine, so the array is `_parse_lines`'s bit for bit.
        try:
            data = np.loadtxt(lines, delimiter=",", dtype=np.float64, ndmin=2, comments=None)
        except ValueError:
            pass  # `_parse_lines` raises the error, with its line number
        else:
            if width in (None, data.shape[1]):
                return data, data.shape[1]
            # else `_parse_lines` raises the row-width ParseError at this block's first row
    return _parse_lines(lines, width, lineno)


def _parse_lines(lines: list[str], width: int | None, first: int) -> tuple[np.ndarray | None, int | None]:
    """The general parser: `float()` on each cell of each non-empty line."""
    rows = []
    for lineno, line in enumerate(lines, start=first + 1):
        if line == "":
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(f"line {lineno} has {len(cells)} cells, expected {width}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return (np.asarray(rows, dtype=np.float64) if rows else None), width


def csv_blocks(matrix: ScoreMatrix | LabelMatrix) -> Iterator[bytes]:
    """The CSV bytes of a matrix, `CSV_BLOCK_ROWS` rows at a time, for
    `write_atomic`. Scores keep full float64 precision (`repr`)."""
    cell = str if isinstance(matrix, LabelMatrix) else repr
    for lo in range(0, matrix.data.shape[0], CSV_BLOCK_ROWS):
        rows = matrix.data[lo : lo + CSV_BLOCK_ROWS].tolist()
        yield "".join(",".join(map(cell, row)) + "\n" for row in rows).encode("ascii")


def write_csv_matrix(matrix: ScoreMatrix | LabelMatrix) -> str:
    """The whole CSV text of a matrix: the `csv_blocks` joined."""
    return b"".join(csv_blocks(matrix)).decode("ascii")


# the file that `write_dataset` writes a dataset's manifest to
MANIFEST_NAME = "manifest.tsv"


@dataclass(frozen=True)
class DatasetManifest:
    """Ordered image paths with their label index sets; order defines row order.
    A path that is absolute or has a `..` component leaves the root: DataLoadError."""

    entries: tuple[tuple[str, tuple[int, ...]], ...]
    num_classes: int

    def __post_init__(self):
        if self.num_classes < 1:
            raise ShapeMismatch("num_classes must be positive")
        for path, indices in self.entries:
            if not path:
                raise ParseError("manifest entry with empty path")
            pure = PurePath(path)
            if pure.is_absolute() or ".." in pure.parts:
                raise DataLoadError(f"manifest entry {path!r} leaves the dataset root")
            for idx in indices:
                if not 0 <= idx < self.num_classes:
                    raise IndexOutOfRange(f"label index {idx} outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.entries)

    def label_matrix(self) -> LabelMatrix:
        try:
            out = np.zeros((len(self.entries), self.num_classes), dtype=np.int8)
        except (MemoryError, ValueError):
            raise ShapeMismatch(f"#classes={self.num_classes} is too large to allocate") from None
        for row, (_, indices) in enumerate(self.entries):
            out[row, list(indices)] = 1
        return LabelMatrix(out)


def read_manifest(stream: BinaryIO) -> DatasetManifest:
    """Parse 'path<TAB>i1 i2 ...' lines under a '#classes=C' header from a
    binary stream; C and each index are ASCII digits only. An error echoes
    at most 40 characters of a bad line."""
    # `ascii_blocks` admits only ASCII, so `_digits` accepts only 0-9
    lines = b"".join(chunk for _, chunk in ascii_blocks(stream)).decode("ascii").split("\n")
    if not lines[0].startswith("#classes="):
        raise ParseError("manifest must start with '#classes=C'")
    try:
        num_classes = _digits(lines[0][len("#classes="):])
    except ValueError:
        num_classes = 0
    if num_classes < 1:
        raise ParseError(f"bad class count in {lines[0][:40]!r}")
    entries = []
    for line in lines[1:]:
        if line == "":
            continue
        path, _, index_part = line.partition("\t")
        try:
            indices = tuple(sorted(map(_digits, index_part.split())))
        except ValueError:
            raise ParseError(f"bad label index list {index_part[:40]!r}") from None
        entries.append((path, indices))
    return DatasetManifest(tuple(entries), num_classes)


def _digits(text: str) -> int:
    """`int(text)` of ASCII `text` made of digits alone, else (or past 4300 digits) ValueError."""
    if not text.isdigit():
        raise ValueError(text)
    return int(text)


def write_manifest(manifest: DatasetManifest) -> str:
    lines = [f"#classes={manifest.num_classes}"]
    for path, indices in manifest.entries:
        lines.append(path + "\t" + " ".join(str(i) for i in sorted(indices)))
    return "\n".join(lines) + "\n"


def read_image(root: str | Path, rel_path: str) -> np.ndarray:
    """`read_ppm` of the image at `root / rel_path`; any failure is a DataLoadError naming it."""
    path = Path(root) / rel_path
    try:
        blob = path.read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise DataLoadError(f"cannot read {path}: {exc}") from exc
    try:
        return read_ppm(blob)
    except MlcError as exc:
        raise DataLoadError(f"{path}: {exc}") from exc


def _sample_chunks(samples) -> Iterator[list]:
    """`samples` in lists, each closed once it holds DATASET_CHUNK_BYTES of pixels."""
    chunk, size = [], 0
    for sample in samples:
        chunk.append(sample)
        if (size := size + sample[0].nbytes) >= DATASET_CHUNK_BYTES:
            yield chunk
            chunk, size = [], 0
    yield chunk


def write_dataset(out_dir: str | Path, prefix: str, samples, num_classes: int) -> DatasetManifest:
    """Write (uint8 pixels, label indices) `samples` as `<prefix>_<i:05d>.ppm`,
    then manifest.tsv, into `out_dir`, which is made if missing.

    Samples are drawn in chunks of about DATASET_CHUNK_BYTES of pixels, each
    written back to back, the first before the directory is touched: a failed
    sample there leaves the target as it was. The old manifest.tsv is removed
    before the first image is written and the new one last, so a later failure
    or interrupt leaves no manifest. PPMs beyond the new count are left, unlisted.
    """
    out_dir = Path(out_dir)
    head = next(chunks := _sample_chunks(samples))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / MANIFEST_NAME).unlink(missing_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc
    entries = []
    for pixels, labels in itertools.chain(head, itertools.chain.from_iterable(chunks)):
        name = f"{prefix}_{len(entries):05d}.ppm"
        write_atomic(out_dir / name, write_ppm(pixels))
        entries.append((name, labels))
    manifest = DatasetManifest(tuple(entries), num_classes)
    write_atomic(out_dir / MANIFEST_NAME, write_manifest(manifest))
    return manifest
