import ast
import hashlib
import io
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlc
from mlc.errors import (
    IndexOutOfRange,
    IoError,
    MlcError,
    NonBinaryLabel,
    ParseError,
    PixelOutOfRange,
    ShapeMismatch,
)
from mlc.io import (
    CSV_BLOCK_ROWS,
    DATASET_CHUNK_BYTES,
    DatasetManifest,
    csv_blocks,
    quantize,
    read_csv_matrix,
    read_image,
    read_ppm,
    write_atomic,
    write_csv_matrix,
    write_dataset,
    write_manifest,
    write_ppm,
)
from mlc.types import LabelMatrix, ScoreMatrix

from conftest import manifest_of, traced_peak


class TestPpm:
    def test_single_red_pixel(self):
        img = read_ppm(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        assert img.shape == (1, 1, 3) and img.dtype == np.uint8
        np.testing.assert_array_equal(img[0, 0], [255, 0, 0])

    def test_quantized_image_decodes_to_its_shape(self):
        img = read_ppm(write_ppm(quantize(np.full((2, 3, 3), 0.5))))
        assert img.shape == (2, 3, 3) and img.dtype == np.uint8

    def test_decoded_array_is_read_only(self):
        img = read_ppm(b"P6\n2 2\n255\n" + bytes(12))
        assert not img.flags.writeable
        with pytest.raises(ValueError):
            img[0, 0, 0] = 1

    def test_bad_magic(self):
        with pytest.raises(ParseError, match="^expected P6 magic, got b'P5'$"):
            read_ppm(b"P5\n1 1\n255\n\x00")

    def test_truncated_pixels(self):
        with pytest.raises(ParseError, match="^expected 12 pixel bytes, got 9$"):
            read_ppm(b"P6\n2 2\n255\n" + bytes(9))  # 3 pixels for a 2x2 image

    def test_unsupported_maxval(self):
        with pytest.raises(ParseError, match="^maxval 65535 unsupported, need 255$"):
            read_ppm(b"P6\n1 1\n65535\n" + bytes(6))

    def test_bad_header(self):
        # the second has no whitespace between the magic and the width; the
        # third's width is past the 4300 digits that `int` converts
        for blob, message in (
            (b"P6\nx y\n255\n", "header field is not an ASCII integer"),
            (b"P62 1 255\n" + bytes(6), "header fields are not separated by whitespace"),
            (b"P6 " + b"1" * 5000 + b" 1 255\n", "header field is not an ASCII integer"),
        ):
            with pytest.raises(ParseError, match=f"^{message}$"):
                read_ppm(blob)

    @pytest.mark.parametrize("header", [b"P6\n0 2\n255\n", b"P6\n2 0\n255\n"])
    def test_zero_dimension_rejected(self, header):
        with pytest.raises(ParseError, match="^non-positive dimensions [02]x[02]$"):
            read_ppm(header + bytes(12))

    @pytest.mark.parametrize(
        "blob", [b"P6 1 1 255", b"P6 1 1 255x" + bytes(3)],
        ids=["ends-at-maxval", "byte-after-maxval"],
    )
    def test_missing_whitespace_after_maxval(self, blob):
        with pytest.raises(ParseError, match="missing whitespace after maxval"):
            read_ppm(blob)

    def test_write_red_pixel_exact_bytes(self):
        img = np.array([[[255, 0, 0]]], dtype=np.uint8)
        assert write_ppm(img) == b"P6\n1 1\n255\n" + bytes([255, 0, 0])

    @pytest.mark.parametrize(
        "shape, dtype",
        [((2, 2, 4), np.uint8), ((2, 2), np.uint8), ((2, 2, 3, 1), np.uint8),
         ((0, 2, 3), np.uint8), ((2, 2, 3), np.float64)],
        ids=["channels", "rank2", "rank4", "empty", "float"],
    )
    def test_write_rejects_other_than_hw3_bytes(self, shape, dtype):
        with pytest.raises(ShapeMismatch):
            write_ppm(np.zeros(shape, dtype=dtype))

    def test_half_rounds_up(self):
        # round-half-away-from-zero: 0.5 * 255 = 127.5 -> 128
        assert write_ppm(quantize(np.full((1, 1, 3), 0.5)))[-3:] == bytes([128, 128, 128])

    def test_round_trip_error_bound(self, rng):
        for _ in range(100):
            h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            img = rng.random((h, w, 3))
            back = read_ppm(write_ppm(quantize(img)))
            assert np.abs(back / 255.0 - img).max() <= 1.0 / 510.0 + 1e-15

    def test_decoded_image_round_trips_bit_exactly(self, rng):
        # bytes re-encode losslessly, and so do their byte / 255 values
        img = read_ppm(b"P6\n2 2\n255\n" + bytes(rng.integers(0, 256, 12, dtype=np.uint8)))
        np.testing.assert_array_equal(read_ppm(write_ppm(img)), img)
        np.testing.assert_array_equal(quantize(img.astype(np.float64) / 255.0), img)

    def test_trailing_bytes_tolerated(self):
        img = read_ppm(b"P6\n1 1\n255\n" + bytes([10, 20, 30]) + b"\n")
        np.testing.assert_array_equal(img[0, 0], [10, 20, 30])


class TestQuantize:
    def test_byte_boundaries(self):
        # (k + 1/2) / 255 splits byte k from byte k + 1; a value 1e-9 to
        # either side lands on its own side, and k / 255 itself on k
        k = np.arange(255.0)
        np.testing.assert_array_equal(quantize((k + 0.5) / 255.0 - 1e-9), k)
        np.testing.assert_array_equal(quantize((k + 0.5) / 255.0 + 1e-9), k + 1)
        np.testing.assert_array_equal(quantize(np.arange(256.0) / 255.0), np.arange(256))
        assert quantize(np.arange(256.0)[None] / 255.0).dtype == np.uint8

    def test_nan_rejected(self):
        data = np.zeros((2, 2, 3))
        data[0, 0, 0] = np.nan
        with pytest.raises(PixelOutOfRange):
            quantize(data)

    def test_out_of_range_rejected(self):
        with pytest.raises(PixelOutOfRange):
            quantize(np.full((2, 2, 3), 1.5))
        with pytest.raises(PixelOutOfRange):
            quantize(np.full((2, 2, 3), -0.1))

    @pytest.mark.parametrize(
        "values",
        [[np.nan], [np.inf], [-np.inf], [-0.1], [1.5], [-1e-300], [np.nan, -0.1], [1.5, np.inf]],
    )
    def test_values_outside_the_unit_interval_rejected(self, values):
        data = np.full((2, 3, 3), 0.5)
        data.flat[-len(values):] = values
        with pytest.raises(PixelOutOfRange):
            quantize(data)


def test_read_image_keeps_one_byte_per_channel(tmp_path, rng):
    n, side = 50, 64
    samples = [(rng.integers(0, 256, (side, side, 3), dtype=np.uint8), (0,)) for _ in range(n)]
    manifest = write_dataset(tmp_path, "img", samples, 1)
    images, peak = traced_peak(lambda: [read_image(tmp_path, p) for p, _ in manifest.entries])
    assert [img.tobytes() for img in images] == [pixels.tobytes() for pixels, _ in samples]
    assert peak < 1.5 * n * side * side * 3


def test_read_image_is_the_one_caller_of_read_ppm():
    # (file, top-level definition) of every call of read_ppm in mlc
    callers = []
    for path in sorted(Path(mlc.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                    if name == "read_ppm":
                        callers.append((path.name, getattr(top, "name", None)))
    assert callers == [("io.py", "read_image")]


def _read(text: str | bytes, kind: str = "scores") -> ScoreMatrix | LabelMatrix:
    """`read_csv_matrix` of `text` (UTF-8 encoded) from a stream named x.csv."""
    stream = io.BytesIO(text.encode("utf-8") if isinstance(text, str) else text)
    stream.name = "x.csv"
    return read_csv_matrix(stream, kind)


class TestCsvMatrix:
    def test_scores_parse(self):
        mat = _read("0.9,0.1\n0.2,0.8\n", kind="scores")
        assert isinstance(mat, ScoreMatrix)
        np.testing.assert_allclose(mat.data, [[0.9, 0.1], [0.2, 0.8]])

    def test_crlf_accepted(self):
        mat = _read("1,0\r\n0,1\r\n", kind="labels")
        assert isinstance(mat, LabelMatrix)

    def test_labels_reject_non_binary(self):
        with pytest.raises(NonBinaryLabel):
            _read("1,0\n0,2\n", kind="labels")

    def test_ragged_rows(self):
        with pytest.raises(ParseError, match="^line 2 has 1 cells, expected 2$"):
            _read("1,0\n1\n", kind="labels")

    def test_parse_error(self):
        with pytest.raises(ParseError):
            _read("1,zzz\n", kind="scores")

    def test_scores_round_trip_exact(self, rng):
        mat = ScoreMatrix(rng.standard_normal((5, 4)) * 100)
        back = _read(write_csv_matrix(mat), kind="scores")
        np.testing.assert_array_equal(back.data, mat.data)

    def test_labels_round_trip_bit_exact(self, rng):
        mat = LabelMatrix((rng.random((6, 5)) < 0.5).astype(int))
        back = _read(write_csv_matrix(mat), kind="labels")
        np.testing.assert_array_equal(back.data, mat.data)


def _reference_parse(text: str, kind: str) -> ScoreMatrix | LabelMatrix:
    """The per-line `float()` parser `read_csv_matrix` must agree with."""
    rows = []
    width = None
    for lineno, line in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
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
    if not rows:
        raise ParseError("matrix text contains no rows")
    data = np.asarray(rows, dtype=np.float64)
    return LabelMatrix(data) if kind == "labels" else ScoreMatrix(data)


def _outcome(parse, text, kind):
    try:
        mat = parse(text, kind)
    except MlcError as exc:
        return type(exc), str(exc)
    return type(mat), mat.data.shape, mat.data.dtype, mat.data.tobytes()


_PLAIN = "0123456789.eE+-,\n"
_CELL = st.text(alphabet="0123456789.eE+-", min_size=1, max_size=8) | st.sampled_from(
    ["0", "1", "-0.0", "5e-324", "1e308", "1e999", "2.5", "-1.5e-3"]
)


@st.composite
def _grids(draw):
    """Rows of cells over the plain alphabet, mostly rectangular."""
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.lists(_CELL, min_size=width, max_size=width + draw(st.integers(0, 1))),
        min_size=1, max_size=5,
    ))
    return "\n".join(",".join(row) for row in rows) + draw(st.sampled_from(["", "\n", "\n\n"]))


class TestCsvMatrixMatchesReference:
    """`read_csv_matrix` gives the reference parser's matrix or error, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from(["scores", "labels"]),
        text=st.text(alphabet=_PLAIN, max_size=60)
        | st.text(alphabet=_PLAIN + " \t\r_infa", max_size=60)
        | _grids(),
    )
    def test_random_text(self, kind, text):
        assert _outcome(_read, text, kind) == _outcome(_reference_parse, text, kind)

    @pytest.mark.parametrize("kind", ["scores", "labels"])
    @pytest.mark.parametrize("text", [
        "1_0,1\n", " 1,2\n", "1,2\r", "1,2,\n", "x,1\n1\n", "\n\n", "",
        "1,0\r\n0,1\r\n", "-0.0,0\n", "1e999,0\n", "inf,0\n", "nan,1\n", "1,1\n\n0,1",
    ])
    def test_example(self, kind, text):
        assert _outcome(_read, text, kind) == _outcome(_reference_parse, text, kind)


def _reference_read(blob: bytes, kind: str) -> ScoreMatrix | LabelMatrix:
    """The whole-text reading `read_csv_matrix` must agree with: the file
    decoded as ASCII at once (naming it, as the stream is named, at the first
    other byte), then `_reference_parse`."""
    try:
        text = blob.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"x.csv: non-ASCII byte at offset {exc.start}") from None
    return _reference_parse(text, kind)


def _block_rows(rows: int, kind: str, seed: int = 5) -> list[str]:
    """`rows` CSV lines, without their b"\n", of 6 scores or labels each."""
    rng = np.random.default_rng(seed)
    if kind == "labels":
        data = LabelMatrix((rng.random((rows, 6)) < 0.4).astype(np.int8))
    else:
        data = ScoreMatrix(rng.standard_normal((rows, 6)) * 10.0 ** rng.integers(-5, 5, (rows, 6)))
    return write_csv_matrix(data).split("\n")[:-1]


class TestCsvBlocks:
    """Matrices and errors across the reader's `CSV_BLOCK_ROWS` block boundaries."""

    @pytest.mark.parametrize("kind", ["scores", "labels"])
    @pytest.mark.parametrize(
        "rows", [CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1]
    )
    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_matrix_equals_whole_text_parse(self, kind, rows, ending):
        blob = "".join(line + ending for line in _block_rows(rows, kind)).encode("ascii")
        got, want = _read(blob, kind), _reference_read(blob, kind)
        assert type(got) is type(want) and got.data.shape == (rows, 6)
        assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("kind", ["scores", "labels"])
    @pytest.mark.parametrize("fault, error", [
        ("ragged", ParseError),
        ("second block wider", ParseError),
        ("bad cell", ParseError),
        ("lone CR", ParseError),  # a "\r" alone ends no line
        ("CRLF split", ParseError),
        ("non-ASCII", ParseError),
        ("ragged, then non-ASCII", ParseError),
        ("non-binary, then ragged", ParseError),
        ("blank first block, then ragged", ParseError),
    ])
    def test_error_in_second_block_equals_whole_text_error(self, kind, fault, error):
        lines = _block_rows(2 * CSV_BLOCK_ROWS + 1, kind)
        at = CSV_BLOCK_ROWS + 37  # a line of the second block
        first = CSV_BLOCK_ROWS  # the second block's first line
        if fault == "ragged":
            lines[at] += ",1"
        elif fault == "second block wider":
            lines[first:] = [line + ",1" for line in lines[first:]]
        elif fault == "bad cell":
            lines[at] = "1,zzz," + lines[at].split(",", 2)[2]
        elif fault == "lone CR":
            lines[at] = lines[at] + "\r" + lines[at + 1]
        elif fault == "CRLF split":
            # the first block ends "\r\n" and the second starts with a "\r" cell
            lines[first - 1] += "\r"
            lines[first] = "\r" + lines[first][lines[first].index(","):]
        elif fault == "non-ASCII":
            lines[at] = lines[at][:5] + "\u00e9" + lines[at][5:]
        elif fault == "ragged, then non-ASCII":
            lines[3] += ",1"
            lines[at] = "\u00e9" + lines[at]
        elif fault == "non-binary, then ragged":
            lines[3] = "2,nan,2,nan,2,nan"  # NonBinaryLabel or NonFinite, raised last
            lines[at] += ",1"
        else:
            lines[:first] = [""] * first
            lines[at] = lines[at].rsplit(",", 1)[0]
        blob = "".join(line + "\n" for line in lines).encode("utf-8")
        with pytest.raises(error) as want:
            _reference_read(blob, kind)
        with pytest.raises(error) as got:
            _read(blob, kind)
        assert str(got.value) == str(want.value)

    def test_blank_lines_keep_line_numbers(self):
        blob = b"1,2\n" + b"\n" * (3 * CSV_BLOCK_ROWS) + b"3\n"
        with pytest.raises(ParseError, match=f"^line {3 * CSV_BLOCK_ROWS + 2} has 1 cells"):
            _read(blob)


class TestCsvWriterBytes:
    """sha256 of the CSV text, recorded from the per-cell `repr`/`str(int)` writer."""

    def test_scores(self):
        rng = np.random.default_rng(90210)
        data = rng.standard_normal((12, 7)) * 10.0 ** rng.integers(-30, 30, size=(12, 7))
        data[0, :6] = [-0.0, 5e-324, 1e308, 3.0, -17.0, 0.0]
        data[1, :3] = [1e16, 2.0**53, -1e-7]
        blob = b"".join(csv_blocks(ScoreMatrix(data)))
        assert blob.startswith(b"-0.0,5e-324,1e+308,3.0,-17.0,0.0,")
        assert hashlib.sha256(blob).hexdigest() == (
            "c48d476405689116760c69e645bae56b641aebe554849aea4334c0f53a29d478"
        )
        assert write_csv_matrix(ScoreMatrix(data)) == blob.decode("ascii")

    def test_labels(self):
        rng = np.random.default_rng(7)
        labels = LabelMatrix((rng.random((9, 6)) < 0.4).astype(np.int8))
        blob = b"".join(csv_blocks(labels))
        assert blob.startswith(b"0,0,0,1,1,0\n1,0,0,0,1,1\n")
        assert hashlib.sha256(blob).hexdigest() == (
            "c02f18da6b78f226e5d6665eb0b4c9bb722e5a83ec4eae8d594cd7f29fda2efe"
        )
        assert write_csv_matrix(labels) == blob.decode("ascii")

    @pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS + 1])
    def test_blocks_are_whole_rows_of_the_per_row_writer(self, rows):
        data = np.random.default_rng(rows).standard_normal((rows, 3))
        chunks = list(csv_blocks(ScoreMatrix(data)))
        assert [chunk.count(b"\n") for chunk in chunks] == [
            min(CSV_BLOCK_ROWS, rows - lo) for lo in range(0, rows, CSV_BLOCK_ROWS)
        ]
        per_row = "".join(",".join(map(repr, row)) + "\n" for row in data.tolist())
        assert b"".join(chunks) == per_row.encode("ascii")


class TestManifest:
    def test_basic_entry(self):
        man = manifest_of("#classes=3\nimg0.ppm\t0 2\n")
        assert man.num_classes == 3
        assert man.entries == (("img0.ppm", (0, 2)),)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            manifest_of("#classes=3\nimg0.ppm\t0 3\n")

    def test_empty_label_list(self):
        man = manifest_of("#classes=3\nimg1.ppm\t\n")
        assert man.entries == (("img1.ppm", ()),)

    def test_missing_header(self):
        with pytest.raises(ParseError, match="^manifest must start with '#classes=C'$"):
            manifest_of("img0.ppm\t0\n")

    def test_entries_under_the_root_accepted(self):
        man = manifest_of("#classes=3\nsub/a.ppm\t0\n./b.ppm\t1\na..b.ppm\t2\n")
        assert [path for path, _ in man.entries] == ["sub/a.ppm", "./b.ppm", "a..b.ppm"]

    def test_round_trip_identity(self):
        man = DatasetManifest((("a.ppm", (0, 2)), ("b.ppm", ()), ("c.ppm", (1, 10))), 12)
        assert manifest_of(write_manifest(man)) == man

    @pytest.mark.parametrize(
        "text, message",
        [
            ("#classes=1_2\na.ppm\t0\n", "bad class count in"),
            ("#classes=+3\na.ppm\t0\n", "bad class count in"),
            ("#classes= 6\na.ppm\t0\n", "bad class count in"),
            ("#classes=-1\na.ppm\t0\n", "bad class count in"),
            ("#classes=12\na.ppm\t1_0\n", "bad label index list"),
            ("#classes=12\na.ppm\t0 +3\n", "bad label index list"),
            ("#classes=12\na.ppm\t-1\n", "bad label index list"),
            ("#classes=" + "1" * 5000 + "\na.ppm\t0\n", "bad class count in"),
            ("#classes=12\na.ppm\t" + "1" * 5000 + "\n", "bad label index list"),
        ],
        ids=["count-underscore", "count-sign", "count-space", "count-negative",
             "index-underscore", "index-sign", "index-negative", "count-5000-digits", "index-5000-digits"],
    )
    def test_integers_are_ascii_digits_only(self, text, message):
        # `int()` reads the first seven as 12, 3, 6, -1, 10, 3 and -1, and
        # raises a bare ValueError on the last two, past its 4300-digit limit
        with pytest.raises(ParseError, match=message):
            manifest_of(text)

    @pytest.mark.parametrize("count", ["0", "00"])
    def test_zero_class_count_is_parse_error(self, count):
        # DatasetManifest's own check would name neither the header nor its text
        with pytest.raises(ParseError, match=f"^bad class count in '#classes={count}'$"):
            manifest_of(f"#classes={count}\na.ppm\t\n")

    def test_text_round_trip_on_canonical_input(self):
        text = "#classes=4\na.ppm\t1 3\nb.ppm\t\n"
        assert write_manifest(manifest_of(text)) == text

    def test_crlf_lines_read_as_lf_lines(self):
        text = "#classes=4\na.ppm\t1 3\nb.ppm\t\n\nc.ppm\t0\n"
        assert manifest_of(text.replace("\n", "\r\n")) == manifest_of(text)

    def test_non_ascii_digit_is_parse_error_at_its_offset(self):
        # int() reads U+0661, an Arabic-Indic one, as 1
        with pytest.raises(ParseError, match="non-ASCII byte at offset 19$"):
            manifest_of("#classes=3\nimg.ppm\t\u0661\n")

    def test_label_matrix_preserves_row_order(self):
        man = manifest_of("#classes=3\nx.ppm\t2\ny.ppm\t0 1\n")
        np.testing.assert_array_equal(man.label_matrix().data, [[0, 0, 1], [1, 1, 0]])

    def test_row_order_permutation(self, rng):
        entries = [(f"i{k}.ppm", (int(k % 3),)) for k in range(6)]
        man = DatasetManifest(tuple(entries), 3)
        perm = rng.permutation(6)
        shuffled = DatasetManifest(tuple(entries[i] for i in perm), 3)
        np.testing.assert_array_equal(
            shuffled.label_matrix().data, man.label_matrix().data[perm]
        )


class TestWriteAtomic:
    def test_writes_bytes_and_ascii_text(self, tmp_path):
        write_atomic(tmp_path / "a.bin", b"\x00\xff")
        write_atomic(tmp_path / "b.txt", "1,2\n")
        assert (tmp_path / "a.bin").read_bytes() == b"\x00\xff"
        assert (tmp_path / "b.txt").read_bytes() == b"1,2\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "b.txt"]

    def test_writes_a_sequence_of_buffers_in_order(self, tmp_path):
        weights = np.arange(6.0).reshape(2, 3)
        write_atomic(tmp_path / "c.bin", [b"head\n", memoryview(weights).cast("B"), bytearray(b"!")])
        assert (tmp_path / "c.bin").read_bytes() == b"head\n" + weights.tobytes() + b"!"
        write_atomic(tmp_path / "empty.bin", [])
        assert (tmp_path / "empty.bin").read_bytes() == b""

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_bytes(b"old")
        write_atomic(target, b"new")
        assert target.read_bytes() == b"new"

    @pytest.mark.parametrize("exc", [OSError("disk full"), KeyboardInterrupt()])
    def test_failure_leaves_old_bytes_and_no_temp_file(self, tmp_path, monkeypatch, exc):
        target = tmp_path / "out.csv"
        target.write_bytes(b"old")

        def fail(src, dst):
            assert os.path.dirname(src) == str(tmp_path)
            raise exc

        monkeypatch.setattr(os, "replace", fail)
        # an OSError is re-raised as an IoError naming the target
        with pytest.raises(IoError if isinstance(exc, OSError) else type(exc)):
            write_atomic(target, b"new" * 1000)
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize("name", ["a" * 255, "\u00e9" * 127 + "a"], ids=["ascii", "two-byte"])
    def test_target_name_of_255_bytes(self, tmp_path, monkeypatch, name):
        # NAME_MAX is 255 bytes: the temp file's name is cut to fit it, in
        # bytes, and keeps its leading "." and its pid-hex part
        temps = []
        replace = os.replace

        def recording_replace(src, dst):
            temps.append(os.fsencode(os.path.basename(src)))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        write_atomic(tmp_path / name, b"data")
        assert (tmp_path / name).read_bytes() == b"data"
        assert [p.name for p in tmp_path.iterdir()] == [name]
        (temp,) = temps
        assert len(temp) == 255 and temp.startswith(b"." + os.fsencode(name)[:200])
        assert re.fullmatch(rb"\.[^/]+\.\d+-[0-9a-f]{8}\.tmp", temp)

    def test_non_ascii_text_writes_nothing(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            write_atomic(tmp_path / "x.txt", "\u00e9")
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory_is_io_error(self, tmp_path):
        target = tmp_path / "no" / "x.txt"
        with pytest.raises(IoError, match=f"^cannot write {re.escape(str(target))}: "):
            write_atomic(target, "1\n")

    def test_directory_target_is_io_error_naming_it(self, tmp_path):
        target = tmp_path / "d"
        target.mkdir()
        with pytest.raises(IoError, match=f"^cannot write {re.escape(str(target))}: Is a directory$"):
            write_atomic(target, "1\n")
        assert [p.name for p in tmp_path.iterdir()] == ["d"] and not any(target.iterdir())


# Runs `mlc <argv[2:]>` with os.replace patched to SIGKILL the process just
# before or just after the replace (argv[1]: before, after or never), so
# no cleanup of any kind runs.
_KILLED_AT_REPLACE = """
import os, signal, sys

when = sys.argv.pop(1)
replace = os.replace

def killing_replace(src, dst):
    if when == "before":
        os.kill(os.getpid(), signal.SIGKILL)
    replace(src, dst)
    if when == "after":
        os.kill(os.getpid(), signal.SIGKILL)

os.replace = killing_replace
from mlc.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestWriteAtomicKilled:
    """A real `mlc fuse` process SIGKILLed around its one os.replace."""

    def _fuse(self, work, when):
        work.mkdir()
        (work / "a.csv").write_text("0.25,1.5\n-3.0,0.5\n")
        (work / "b.csv").write_text("0.75,0.5\n1.0,-0.5\n")
        (work / "fused.csv").write_bytes(b"old bytes\n")
        src = Path(mlc.__file__).parents[1]
        return subprocess.run(
            [sys.executable, "-c", _KILLED_AT_REPLACE, when,
             "fuse", "a.csv", "b.csv", "--out", "fused.csv"],
            cwd=work, env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, timeout=120,
        )

    def test_kill_before_or_after_the_replace(self, tmp_path):
        assert self._fuse(tmp_path / "whole", "never").returncode == 0
        whole = (tmp_path / "whole" / "fused.csv").read_bytes()
        assert whole != b"old bytes\n"

        assert self._fuse(tmp_path / "before", "before").returncode == -signal.SIGKILL
        before = tmp_path / "before"
        assert (before / "fused.csv").read_bytes() == b"old bytes\n"
        # no cleanup runs after SIGKILL: the complete temp file is left beside
        # the target (see the README)
        (leftover,) = [p for p in before.iterdir() if p.name.startswith(".")]
        assert re.fullmatch(r"\.fused\.csv\.\d+-[0-9a-f]{8}\.tmp", leftover.name)
        assert leftover.read_bytes() == whole

        assert self._fuse(tmp_path / "after", "after").returncode == -signal.SIGKILL
        after = tmp_path / "after"
        assert (after / "fused.csv").read_bytes() == whole
        assert sorted(p.name for p in after.iterdir()) == ["a.csv", "b.csv", "fused.csv"]


class TestReadersFuzz:
    """Each reader fails on arbitrary input only with an MlcError."""

    @settings(max_examples=300, deadline=None)
    @given(
        header=st.sampled_from([b"", b"P6", b"P6\n", b"P6\n2 1\n255\n", b"P6 1 1 255 "]),
        body=st.binary(max_size=64),
    )
    def test_read_ppm(self, header, body):
        try:
            read_ppm(header + body)
        except MlcError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["scores", "labels"]),
        text=st.text(max_size=120)
        | st.text(alphabet="0123456789.,-+einfa_ \r\n", max_size=120),
    )
    def test_read_csv_matrix(self, kind, text):
        try:
            _read(text, kind)
        except MlcError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(
        header=st.sampled_from(
            ["", "#classes=", "#classes=3\n", "#classes=0\n", "#classes=-2\n", "#classes=+3\n",
             "#classes=1_2\n"]
        ),
        body=st.text(max_size=120) | st.text(alphabet="ab./\t0123456789-+_ \r\n", max_size=120),
    )
    def test_read_manifest(self, header, body):
        try:
            manifest_of(header + body)
        except MlcError:
            pass


class TestWriteDataset:
    """Samples are drawn a chunk of about DATASET_CHUNK_BYTES of pixels at a
    time, and each chunk is written back to back; the first chunk is drawn
    before the directory is touched."""

    @staticmethod
    def _samples(n, side=64, fail_at=None, events=None):
        rng = np.random.default_rng(n)
        for i in range(n):
            if i == fail_at:
                raise ValueError(f"sample {i} cannot be made")
            if events is not None:
                events.append("draw")
            yield rng.integers(0, 256, (side, side, 3), dtype=np.uint8), (i % 3,)

    @staticmethod
    def _files(root):
        return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

    @pytest.mark.parametrize("n, side, chunks", [(130, 64, [64, 64, 2]), (3, 600, [1, 1, 1])])
    def test_draws_and_writes_a_chunk_at_a_time(self, tmp_path, monkeypatch, n, side, chunks):
        # a 64x64 image is 12288 bytes, so a chunk is 64 of them; one 600x600
        # image passes the bound alone
        assert DATASET_CHUNK_BYTES == 64 * 64 * 64 * 3
        events, write_atomic_ = [], mlc.io.write_atomic
        monkeypatch.setattr(mlc.io, "write_atomic", lambda *a: events.append("write") or write_atomic_(*a))
        manifest = write_dataset(tmp_path, "img", self._samples(n, side, events=events), 3)
        expected = [e for k in chunks for e in ["draw"] * k + ["write"] * k] + ["write"]
        assert events == expected
        assert len(manifest) == n

    def test_failure_in_the_first_chunk_leaves_the_directory_as_it_was(self, tmp_path):
        write_dataset(tmp_path, "img", self._samples(3), 3)
        before = self._files(tmp_path)
        with pytest.raises(ValueError, match="sample 10"):
            write_dataset(tmp_path, "img", self._samples(20, fail_at=10), 3)
        assert self._files(tmp_path) == before

    def test_failure_in_a_later_chunk_leaves_no_manifest_and_no_temp_file(self, tmp_path):
        write_dataset(tmp_path, "img", self._samples(3), 3)
        with pytest.raises(ValueError, match="sample 70"):
            write_dataset(tmp_path, "img", self._samples(100, fail_at=70), 3)
        # the first chunk's 64 images were written before the failing draw
        assert sorted(self._files(tmp_path)) == [f"img_{i:05d}.ppm" for i in range(64)]
