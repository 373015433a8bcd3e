"""Fuzz `mlc.cli.main` end to end: random argv over tiny fixture files, with
random bytes in place of the files a command reads.

Every run exits 0, 1 or 2 and never raises. Exit 1 and mlc's own exit 2
print exactly one stderr line, starting `error: `; argparse's exit 2 ends
with its `error:` line; a success prints nothing to stderr; no run warns;
and a failed command leaves every file and directory of the work
directory as it was.

Every size is bounded, so no draw can ask for a large allocation: image
sides <= 24, --num <= 4, --hidden <= 8, --epochs <= 2, and at most 8
classes in any file the test writes.
"""

import contextlib
import functools
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from mlc.cli import main
from mlc.io import write_csv_matrix
from mlc.model import init_params, save_params
from mlc.synthgen import SynthConfig, generate
from mlc.types import ScoreMatrix

# Every pool is (valid, invalid). A run has at most one fault: one invalid
# flag value, one token added or dropped, or one file the command reads
# replaced, so each fault meets the code that has to catch it.
MANIFESTS = (["ds/manifest.tsv"], ["missing.tsv", "ds", "s.csv"])
PARAMS = (["m.params"], ["s.csv", "missing.params", "ds"])
SCORES = (["s.csv"], ["l.csv", "m.params", "missing.csv", "ds", "ds/manifest.tsv"])
LABELS = (["l.csv"], ["s.csv", "m.params", "missing.csv", "ds"])
OUTS = (["out.x", "s.csv", "ds/new.x"], ["ds", "missing/out.x"])
OUT_DIRS = (["new", "ds", "ds/sub", "missing/new"], ["s.csv", "ds/manifest.tsv"])
SIDES = (["16", "24"], ["8", "2", "1", "0", "-2"])
GRID = (["1", "2", "4"], ["16", "0", "-1"])
RATES = (["0.1", "0.01", "1"], ["1e6", "0", "-0.5", "nan", "inf", "x"])
SEEDS = (["0", "1", "7"], ["-1", "x"])
MODES = (["M1", "M2", "M3"], ["M4"])

# per command: (flag, value pools, always given); every flag whose default
# is large (--num, --size, --epochs, --hidden) is always given
SPECS = {
    "gen": [
        ("--out", [OUT_DIRS], True),
        ("--num", [(["1", "2", "4"], ["0", "-1", "x"])], True),
        ("--size", [SIDES, SIDES], True),
        ("--classes", [(["1", "3", "8"], ["0", "13"])], False),
        ("--min-concepts", [(["1", "2"], ["0", "4"])], False),
        ("--max-concepts", [(["1", "2", "3"], ["0", "9"])], False),
        ("--seed", [SEEDS], False),
    ],
    "train": [
        ("--manifest", [MANIFESTS], True),
        ("--mode", [MODES], True),
        ("--size", [SIDES, SIDES], True),
        ("--seed", [SEEDS], False),
        ("--out", [OUTS], True),
        ("--epochs", [(["2"], ["1", "0", "-1"])], True),
        ("--batch-size", [(["1", "2", "16"], ["0"])], False),
        ("--lr-head", [RATES], False),
        ("--lr-body", [RATES], False),
        ("--decay-factor", [RATES], False),
        ("--decay-epoch", [(["0", "1"], ["2", "-1"])], True),
        ("--pool-grid", [GRID, GRID], False),
        ("--hidden", [(["1", "4", "8"], ["0"])], True),
        ("--log", [OUTS], False),
    ],
    "predict": [
        ("--params", [PARAMS], True),
        ("--manifest", [MANIFESTS], True),
        ("--size", [SIDES, SIDES], True),
        ("--out", [OUTS], True),
    ],
    "evaluate": [
        ("--scores", [SCORES], True),
        ("--labels", [LABELS], True),
        ("--k", [(["1", "3"], ["4", "0", "-1"])], False),
    ],
    "fuse": [
        ("", [SCORES], True),
        ("", [SCORES], False),
        ("--out", [OUTS], True),
        ("--sigmoid-first", [], False),
    ],
    "augment": [
        ("--manifest", [MANIFESTS], True),
        ("--mode", [MODES], True),
        ("--seed", [SEEDS], False),
        ("--out-dir", [OUT_DIRS], True),
        ("--size", [SIDES, SIDES], True),
    ],
}
JUNK = ["--bogus", "x", "-1", "--size", "--help", "--out"]

# file body pieces
CLASS_HEADERS = ([f"#classes={c}" for c in range(1, 9)],
                 ["#classes=0", "#classes=-1", "#classes=", "#classes=x", "classes=3", ""])
ENTRY_PATHS = (["img_00000.ppm", "img_00001.ppm", "img_00002.ppm", "img_00003.ppm"],
               ["../x.ppm", "/abs.ppm", "missing.ppm", "", ".", "a\x00b", "sub/../img_00001.ppm"])
ENTRY_INDICES = (["0", "1", "2"], ["7", "-1", "x", "1.5"])
CELLS = (["0", "1", "0.5", "-2", "1e3"], ["nan", "inf", "x", "", "1,0"])


@functools.cache
def _fixture_files() -> dict[str, bytes | None]:
    """Relative path -> bytes of the valid work directory every run starts from."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg = SynthConfig(num_images=4, image_size=(16, 16), num_classes=3)
        manifest = generate(cfg, root / "ds")
        scores = np.random.default_rng(0).normal(size=(4, 3))
        (root / "m.params").write_bytes(b"".join(save_params(init_params(3, (2, 2), 4, seed=0))))
        (root / "s.csv").write_text(write_csv_matrix(ScoreMatrix(scores)))
        (root / "l.csv").write_text(write_csv_matrix(manifest.label_matrix()))
        return _tree(root)


def _tree(root: Path) -> dict[str, bytes | None]:
    """Every file (its bytes) and directory (None) under `root`."""
    return {
        str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
        for p in sorted(root.rglob("*"))
    }


def _fill(draw, slots: list, fault: bool) -> list[str]:
    """A value for each slot, a str or a (valid, invalid) pool. With `fault`,
    one pool, drawn at random, gives an invalid value; every other, a valid one."""
    pools = [i for i, slot in enumerate(slots) if isinstance(slot, tuple)]
    bad = draw(st.sampled_from(pools)) if fault and pools else None
    return [
        slot if isinstance(slot, str) else draw(st.sampled_from(slot[i == bad]))
        for i, slot in enumerate(slots)
    ]


@st.composite
def _manifest_body(draw, fault: bool) -> bytes:
    slots = [CLASS_HEADERS]
    for _ in range(draw(st.integers(0, 4))):
        slots += ["\n", ENTRY_PATHS, "\t"]
        slots += [ENTRY_INDICES, " "] * draw(st.integers(0, 3))
    slots.append(draw(st.sampled_from(["", "\n", "\r\n"])))
    return "".join(_fill(draw, slots, fault)).encode()


@st.composite
def _csv_body(draw, fault: bool) -> bytes:
    width = draw(st.integers(1, 8))
    slots = []
    for _ in range(draw(st.integers(0, 5))):
        cells = width + (fault and draw(st.integers(1, 8)) == 1)  # now and then a ragged row
        slots += [CELLS, ","] * (cells - 1) + [CELLS, "\n"]
    return "".join(_fill(draw, slots, fault)).encode()


@st.composite
def _ppm_body(draw, fault: bool) -> bytes:
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    maxval = 7 if fault and draw(st.booleans()) else 255
    need = width * height * 3  # or one byte short
    pixels = draw(st.binary(min_size=need - fault, max_size=need))
    return f"P6\n{width} {height}\n{maxval}\n".encode() + pixels


@st.composite
def _checkpoint_body(draw, fault: bool) -> bytes:
    gh, gw, hidden, classes = (draw(st.integers(1, n)) for n in (3, 3, 4, 8))
    count = hidden + classes + gh * gw * 3 * hidden + hidden * classes
    value = st.floats(-4, 4) | st.just(float("nan")) if fault else st.floats(-4, 4)
    values = draw(st.lists(value, min_size=count, max_size=count))
    payload = np.asarray(values, dtype="<f8").tobytes()
    if fault and draw(st.booleans()):
        payload = payload[:-1]
    return f"mlc-params v2\n{gh} {gw} {hidden} {classes}\n".encode() + payload


def _mutations(valid: bytes) -> st.SearchStrategy[bytes]:
    """`valid` cut short, with one byte changed, or with bytes appended."""
    return st.one_of(
        st.integers(0, len(valid)).map(lambda n: valid[:n]),
        st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)).map(
            lambda p: valid[: p[0]] + bytes([p[1]]) + valid[p[0] + 1 :]
        ),
        st.binary(min_size=1, max_size=8).map(lambda tail: valid + tail),
    )


def _body(path: str, valid: bytes) -> st.SearchStrategy[bytes]:
    """A new body for the file at `path`: its format with or without one bad
    piece, a mutation of its valid bytes, or a few random bytes."""
    fresh = {".ppm": _ppm_body, ".tsv": _manifest_body, ".csv": _csv_body,
             ".params": _checkpoint_body}[Path(path).suffix]
    return fresh(fault=True) | fresh(fault=False) | _mutations(valid) | st.binary(max_size=7)


@st.composite
def _argv(draw, fault: str) -> list[str]:
    """Argv of a random command: all valid, with one invalid flag value
    (`fault` "value"), or with one token added or dropped ("token")."""
    command = draw(st.sampled_from(sorted(SPECS)))
    slots = [command]
    for flag, pools, always in SPECS[command]:
        if always or draw(st.booleans()):
            slots += ([flag] if flag else []) + pools
    argv = _fill(draw, slots, fault == "value")
    if fault == "token":
        at = draw(st.integers(1, len(argv)))
        if at == len(argv) or draw(st.booleans()):
            argv.insert(at, draw(st.sampled_from(JUNK)))
        else:
            del argv[at]
    return argv


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exits_cleanly_and_a_failure_changes_no_file(data):
    fault = data.draw(st.sampled_from(["none", "value", "token", "file"]), label="fault")
    argv = data.draw(_argv(fault), label="argv")
    files = dict(_fixture_files())
    read = {arg for arg in argv if files.get(arg) is not None}  # files, not directories
    if "ds/manifest.tsv" in read:
        read.add("ds/img_00000.ppm")
    if fault == "file" and read:
        path = data.draw(st.sampled_from(sorted(read)), label="corrupted")
        files[path] = data.draw(_body(path, files[path]), label=path)

    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        work = Path(tmp)
        for path, blob in files.items():
            if blob is None:
                (work / path).mkdir(parents=True, exist_ok=True)
            else:
                (work / path).parent.mkdir(parents=True, exist_ok=True)
                (work / path).write_bytes(blob)
        before = _tree(work)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code, from_argparse = main(argv), False
            except SystemExit as exc:
                code, from_argparse = exc.code, True
        after = _tree(work)

    event(f"{argv[0]} exit {code}")
    assert [str(w.message) for w in caught] == []
    text = err.getvalue()
    assert code in (0, 1, 2)
    if code == 0:
        assert text == ""
        return
    if from_argparse:
        assert code == 2
        assert re.match(r"mlc( \w+)?: error: ", text.splitlines()[-1]), text
    else:
        assert text.startswith("error: ") and text.count("\n") == 1, text
    changed = sorted(k for k in before.keys() | after.keys() if before.get(k, 0) != after.get(k, 0))
    assert changed == []
