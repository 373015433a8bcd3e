import ast
import hashlib
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mlc.io
from mlc import cli, trainer
from mlc.cli import main
from mlc.io import DatasetManifest, read_csv_matrix, write_csv_matrix, write_manifest
from mlc.model import ModelParams, save_params
from mlc.trainer import _augmented_batch
from mlc.types import LabelMatrix, ScoreMatrix

from conftest import CHECKPOINT, manifest_of, traced_peak


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    code = main([
        "gen", "--out", str(root), "--num", "12", "--size", "24", "24", "--seed", "3",
    ])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def dataset_c3(dataset, tmp_path_factory):
    """The fixture dataset's images under a 3-class manifest, as the 3-class
    CHECKPOINT scores them: each label set keeps its indices below 3. Scores
    depend on the images alone, so they are those of the 6-class manifest."""
    root = tmp_path_factory.mktemp("cli_data_c3")
    manifest = manifest_of(dataset / "manifest.tsv")
    for path, _ in manifest.entries:
        (root / path).write_bytes((dataset / path).read_bytes())
    entries = tuple((path, tuple(i for i in labels if i < 3)) for path, labels in manifest.entries)
    (root / "manifest.tsv").write_text(write_manifest(DatasetManifest(entries, 3)))
    return root


def _read_scores(path: Path):
    with open(path, "rb") as stream:
        return read_csv_matrix(stream)


def _train(dataset, tmp_path, mode="M1", **extra):
    out = tmp_path / f"{mode}.params"
    args = [
        "train", "--manifest", str(dataset / "manifest.tsv"), "--mode", mode,
        "--size", "24", "24", "--seed", "5", "--out", str(out),
        "--epochs", "2", "--decay-epoch", "1", "--pool-grid", "4", "4", "--hidden", "16",
    ]
    for key, value in extra.items():
        args += [key, str(value)]
    assert main(args) == 0
    return out


def _tree_digest(root: Path) -> str:
    """sha256 over "name sha256(file)" lines of every file in `root`, by name."""
    lines = "".join(
        f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n" for p in sorted(root.iterdir())
    )
    return hashlib.sha256(lines.encode()).hexdigest()


class TestGen:
    def test_writes_dataset(self, dataset):
        manifest = manifest_of(dataset / "manifest.tsv")
        assert len(manifest) == 12
        assert (dataset / manifest.entries[0][0]).exists()

    def test_output_bytes_golden(self, tmp_path):
        assert main([
            "gen", "--out", str(tmp_path), "--num", "20", "--size", "24", "24", "--seed", "7",
        ]) == 0
        assert len(list(tmp_path.iterdir())) == 21
        assert _tree_digest(tmp_path) == (
            "9f2a74a468aedd436bb97987cb2a39708e7d211114ca641d584deeda1675bec7"
        )

    def test_default_size_output_bytes_golden(self, tmp_path):
        # 70 64x64 images cross write_dataset's 64-image chunk; recorded
        # before images were drawn and written a chunk at a time
        assert main(["gen", "--out", str(tmp_path), "--num", "70", "--seed", "2"]) == 0
        assert len(list(tmp_path.iterdir())) == 71
        assert _tree_digest(tmp_path) == (
            "be9e7f9d2871f6ed25a3225e388a416eaf4f0c474166bd2540c921b94c581a82"
        )

    def test_unmakeable_first_image_leaves_the_target_as_it_was(self, tmp_path, capsys):
        # 2**31 x 2**31 pixels of 3 float64s exceed 2**63 bytes, so numpy
        # rejects the canvas before it allocates anything
        huge = ["--size", str(2**31), str(2**31)]
        fresh = tmp_path / "fresh"
        assert main(["gen", "--out", str(fresh), "--num", "1", *huge]) == 1
        assert not fresh.exists()
        existing = tmp_path / "existing"
        assert main(["gen", "--out", str(existing), "--num", "2", "--size", "16", "16"]) == 0
        before = {p.name: p.read_bytes() for p in existing.iterdir()}
        capsys.readouterr()
        assert main(["gen", "--out", str(existing), "--num", "1", *huge]) == 1
        assert "too large to allocate" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in existing.iterdir()} == before


class TestTrainPredictEvaluate:
    def test_full_workflow(self, dataset, tmp_path, capsys):
        params = _train(dataset, tmp_path)
        scores_csv = tmp_path / "scores.csv"
        assert main([
            "predict", "--params", str(params), "--manifest", str(dataset / "manifest.tsv"),
            "--size", "24", "24", "--out", str(scores_csv),
        ]) == 0
        labels_csv = tmp_path / "labels.csv"
        manifest = manifest_of(dataset / "manifest.tsv")
        labels_csv.write_text(write_csv_matrix(manifest.label_matrix()))
        assert main([
            "evaluate", "--scores", str(scores_csv), "--labels", str(labels_csv), "--k", "3",
        ]) == 0
        out = capsys.readouterr().out
        final = out.strip().splitlines()[-1]
        parts = final.split(",")
        assert len(parts) == 7
        assert all(0.0 <= float(p) <= 1.0 for p in parts)
        assert "mAP" in out

    def test_train_writes_log(self, dataset, tmp_path):
        log = tmp_path / "t.log"
        _train(dataset, tmp_path, **{"--log": log})
        assert len(log.read_text().splitlines()) == 2

    def test_checkpoint_reusable(self, dataset, tmp_path):
        params = _train(dataset, tmp_path)
        from mlc.model import load_params

        with open(params, "rb") as stream:
            loaded = load_params(stream)
        assert loaded.num_classes == 6

    def test_predict_scores_golden(self, dataset_c3, tmp_path):
        out = tmp_path / "scores.csv"
        assert main([
            "predict", "--params", str(CHECKPOINT), "--manifest", str(dataset_c3 / "manifest.tsv"),
            "--size", "24", "24", "--out", str(out),
        ]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "848c7e3323cbf2dbe0b293277abe9d12acd38355241878bebffdb85a645643cd"
        )

    def test_predict_uneven_bins_in_partial_blocks_golden(self, tmp_path):
        # 70 images: a 64-row block and a 6-row one, whose build batch is short
        # of 16 images; at 23x23 the checkpoint's 2x2 grid has 11.5-pixel bins
        rng = np.random.default_rng(23)
        samples = [
            (rng.integers(0, 256, (24, 24, 3), dtype=np.uint8), (k % 3,)) for k in range(70)
        ]
        mlc.io.write_dataset(tmp_path, "img", samples, 3)
        out = tmp_path / "scores.csv"
        assert main([
            "predict", "--params", str(CHECKPOINT), "--manifest", str(tmp_path / "manifest.tsv"),
            "--size", "23", "23", "--out", str(out),
        ]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "b75c8b74fcb59baa5aa3efea77f107ad6ce568bc82861f9d4cc226f51f74a589"
        )

    def test_failed_write_keeps_old_scores(self, dataset_c3, tmp_path, capsys, monkeypatch):
        out = tmp_path / "scores.csv"
        out.write_bytes(b"old\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        assert main([
            "predict", "--params", str(CHECKPOINT), "--manifest", str(dataset_c3 / "manifest.tsv"),
            "--size", "24", "24", "--out", str(out),
        ]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: disk full\n"
        assert out.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scores.csv"]


class TestFuse:
    def test_single_member_is_identity(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("0.5,1.5\n-2.0,0.25\n")
        out = tmp_path / "fused.csv"
        assert main(["fuse", str(a), "--out", str(out)]) == 0
        np.testing.assert_array_equal(
            _read_scores(out).data, [[0.5, 1.5], [-2.0, 0.25]]
        )

    def test_two_members_mean(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("0.0,4.0\n")
        b.write_text("2.0,0.0\n")
        out = tmp_path / "fused.csv"
        assert main(["fuse", str(a), str(b), "--out", str(out)]) == 0
        np.testing.assert_array_equal(_read_scores(out).data, [[1.0, 2.0]])

    def test_out_name_of_255_bytes(self, tmp_path):
        # the longest name a target may have; its temp file's name must fit too
        a = tmp_path / "a.csv"
        a.write_text("0.5,1.5\n")
        out = tmp_path / ("f" * 251 + ".csv")
        assert main(["fuse", str(a), "--out", str(out)]) == 0
        np.testing.assert_array_equal(_read_scores(out).data, [[0.5, 1.5]])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", out.name]

    def test_shape_mismatch_is_runtime_error(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("0.0,4.0\n")
        b.write_text("2.0\n")
        assert main(["fuse", str(a), str(b), "--out", str(tmp_path / "f.csv")]) == 1
        assert "error:" in capsys.readouterr().err


class TestMemory:
    """tracemalloc peaks of `mlc fuse` and `mlc evaluate`, in multiples of
    one member's float64 bytes; reading whole texts and stacking copies of
    the members took 17x and 7.5x."""

    ROWS, CLASSES, MEMBERS = 4096, 80, 3

    @pytest.fixture(scope="class")
    def csvs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("memory")
        rng = np.random.default_rng(11)
        shape = (self.ROWS, self.CLASSES)
        members = []
        for m in range(self.MEMBERS):
            members.append(root / f"member_{m}.csv")
            members[-1].write_text(write_csv_matrix(ScoreMatrix(rng.standard_normal(shape))))
        labels = LabelMatrix((rng.random(shape) < 0.05).astype(np.int8))
        (root / "labels.csv").write_text(write_csv_matrix(labels))
        return root, members

    def test_fuse_holds_one_stack(self, csvs, capsys):
        root, members = csvs
        argv = ["fuse", *map(str, members), "--out", str(root / "fused.csv")]
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0
        assert peak < (self.MEMBERS + 5) * self.ROWS * self.CLASSES * 8

    def test_evaluate_holds_no_text(self, csvs, capsys):
        root, members = csvs
        argv = ["evaluate", "--scores", str(members[0]), "--labels", str(root / "labels.csv")]
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0
        assert peak < 4 * self.ROWS * self.CLASSES * 8


class TestAugment:
    def test_materializes_samples(self, dataset, tmp_path):
        out_dir = tmp_path / "aug"
        assert main([
            "augment", "--manifest", str(dataset / "manifest.tsv"), "--mode", "M2",
            "--seed", "1", "--out-dir", str(out_dir), "--size", "24", "24",
        ]) == 0
        manifest = manifest_of(out_dir / "manifest.tsv")
        assert len(manifest) == 12
        names = [name for name, _ in manifest.entries] + ["manifest.tsv"]
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(names)

    def test_m3_mixes_pairs(self, dataset, tmp_path):
        out_dir = tmp_path / "aug3"
        assert main([
            "augment", "--manifest", str(dataset / "manifest.tsv"), "--mode", "M3",
            "--seed", "1", "--out-dir", str(out_dir), "--size", "24", "24",
        ]) == 0
        manifest = manifest_of(out_dir / "manifest.tsv")
        assert len(manifest) == 6  # disjoint pairs of 12 inputs

    def test_empty_manifest_writes_empty_manifest(self, tmp_path):
        src = tmp_path / "manifest.tsv"
        src.write_text("#classes=3\n")
        out_dir = tmp_path / "aug"
        assert main([
            "augment", "--manifest", str(src), "--mode", "M3", "--out-dir", str(out_dir),
        ]) == 0
        assert [p.name for p in out_dir.iterdir()] == ["manifest.tsv"]
        assert (out_dir / "manifest.tsv").read_text() == "#classes=3\n"

    @pytest.mark.parametrize(
        "mode, files, digest",
        [
            ("M1", 12, "e5552e2e538167c83ddef201137e538e85109140c3d243028d304d2920d7d996"),
            ("M2", 12, "59ea38290311a278d5eabf92906c619d7d5a6c8757df959eb3a437e80f2deaec"),
            # 5 mixed pairs plus the unmixed 11th image, and the manifest
            ("M3", 7, "4bc6e615da180d60a465c8068cdc00677b17834a8d162811a31b4267d800c76e"),
        ],
    )
    def test_output_bytes_golden(self, dataset, tmp_path, mode, files, digest):
        # from the first 11 fixture images, so M3 has an odd leftover
        manifest = manifest_of(dataset / "manifest.tsv")
        entries = manifest.entries[:11]
        src = tmp_path / "odd"
        src.mkdir()
        for name, _ in entries:
            (src / name).write_bytes((dataset / name).read_bytes())
        (src / "manifest.tsv").write_text(
            write_manifest(DatasetManifest(entries, manifest.num_classes))
        )
        out_dir = tmp_path / "aug"
        assert main([
            "augment", "--manifest", str(src / "manifest.tsv"), "--mode", mode,
            "--seed", "1", "--out-dir", str(out_dir), "--size", "20", "18",
        ]) == 0
        assert len(list(out_dir.iterdir())) == files
        assert _tree_digest(out_dir) == digest

    @pytest.mark.parametrize("mode", ["M2", "M3"])
    def test_chunked_output_equals_one_whole_batch(self, tmp_path, mode):
        # 130 images: eight build batches of 16 and one of 2, and for M3 65 pairs
        rng = np.random.default_rng(4)
        samples = [
            (rng.integers(0, 256, (24, 24, 3), dtype=np.uint8), (int(k % 3), 3))
            for k in range(130)
        ]
        src = tmp_path / "src"
        manifest = mlc.io.write_dataset(src, "img", samples, 4)
        out_dir = tmp_path / "aug"
        assert main([
            "augment", "--manifest", str(src / "manifest.tsv"), "--mode", mode,
            "--seed", "1", "--out-dir", str(out_dir), "--size", "20", "18",
        ]) == 0
        everything = np.arange(130)
        pixels, targets = _augmented_batch(
            [p for p, _ in samples], manifest.label_matrix(), everything, mode, (20, 18), 1, 0,
            everything if mode == "M3" else None,
        )
        expected = [mlc.io.write_ppm(image) for image in mlc.io.quantize(pixels)]
        written = manifest_of(out_dir / "manifest.tsv")
        assert len(written) == len(expected) == (65 if mode == "M3" else 130)
        assert [(out_dir / name).read_bytes() for name, _ in written.entries] == expected
        assert [indices for _, indices in written.entries] == [
            tuple(np.flatnonzero(row)) for row in targets
        ]


def _tree(root: Path) -> dict[str, bytes | None]:
    """Every path under `root` with its bytes; a directory's are None."""
    return {
        str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
        for p in sorted(root.rglob("*"))
    }


def _interrupt_at_image(monkeypatch, nth: int) -> None:
    """Make the `nth` PPM encoding raise KeyboardInterrupt, as a Ctrl-C there would."""
    write_ppm = mlc.io.write_ppm
    calls = []

    def interrupted(image):
        calls.append(image)
        if len(calls) == nth:
            raise KeyboardInterrupt
        return write_ppm(image)

    monkeypatch.setattr(mlc.io, "write_ppm", interrupted)


class TestInterruptedDatasetWrite:
    """Rewriting a dataset directory removes its manifest first and writes
    the new one last, so a rewrite cut short leaves no manifest, never the
    old one labelling new images, and a rerun gives the fresh directory."""

    def test_gen_over_an_existing_dataset(self, tmp_path, monkeypatch):
        def gen(out, seed):
            return main([
                "gen", "--out", str(out), "--num", "6", "--size", "16", "16",
                "--seed", str(seed),
            ])

        ds = tmp_path / "ds"
        assert gen(ds, 7) == 0
        with monkeypatch.context() as patch:
            _interrupt_at_image(patch, 4)
            assert gen(ds, 8) == 130
        assert not (ds / "manifest.tsv").exists()
        assert gen(ds, 8) == 0
        assert gen(tmp_path / "fresh", 8) == 0
        assert _tree(ds) == _tree(tmp_path / "fresh")

    def test_augment_into_an_existing_out_dir(self, dataset, tmp_path, monkeypatch):
        def augment(out, seed):
            return main([
                "augment", "--manifest", str(dataset / "manifest.tsv"), "--mode", "M2",
                "--seed", str(seed), "--out-dir", str(out), "--size", "16", "16",
            ])

        out = tmp_path / "aug"
        assert augment(out, 1) == 0
        with monkeypatch.context() as patch:
            _interrupt_at_image(patch, 4)
            assert augment(out, 2) == 130
        assert not (out / "manifest.tsv").exists()
        assert augment(out, 2) == 0
        assert augment(tmp_path / "fresh", 2) == 0
        assert _tree(out) == _tree(tmp_path / "fresh")


def test_sigint_ends_a_command_with_one_line_and_exit_130(dataset, tmp_path):
    # a train far longer than the 2 s it is given, then Ctrl-C's signal
    out = tmp_path / "out"
    out.mkdir()
    proc = subprocess.Popen(
        [sys.executable, "-m", "mlc.cli", "train", "--manifest", str(dataset / "manifest.tsv"),
         "--mode", "M3", "--size", "24", "24", "--epochs", "1000000", "--decay-epoch", "0",
         "--out", str(out / "m.params"), "--log", str(out / "train.log")],
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        time.sleep(2)
        assert proc.poll() is None
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 130
    assert stderr == "error: interrupted\n" and stdout == ""
    assert list(out.iterdir()) == []


# The README's exit-code table, one row per subcommand and code: 0 success,
# 2 a usage error found before any file is read (argparse's own errors
# included), 1 any other failure. {data} is the fixture dataset, {data3} its
# 3-class copy for the 3-class {params}, and {tmp} a directory holding s.csv
# (2x2 scores) and y.csv (2x2 labels).
_TRAIN = "--mode M1 --size 24 24 --decay-epoch 0 --pool-grid 2 2 --hidden 4 --out {tmp}/m.params"
_PREDICT = "--params {params} --manifest {data3}/manifest.tsv --out {tmp}/p.csv"
_EVALUATE = "--scores {tmp}/s.csv --labels {tmp}/y.csv"
EXIT_CODE_TABLE = [
    ("gen", 0, "--out {tmp}/g --num 2 --size 16 16"),
    ("gen", 2, "--out {tmp}/g --num 2 --size 8 8"),
    ("gen", 1, "--out {tmp}/s.csv/g --num 2 --size 16 16"),
    ("train", 0, "--manifest {data}/manifest.tsv --epochs 1 " + _TRAIN),
    ("train", 2, "--manifest {data}/manifest.tsv --epochs 0 " + _TRAIN),
    ("train", 1, "--manifest {tmp}/none.tsv --epochs 1 " + _TRAIN),
    ("predict", 0, _PREDICT + " --size 24 24"),
    ("predict", 2, _PREDICT + " --size 0 24"),
    ("predict", 1, _PREDICT.replace("{params}", "{tmp}/none.params") + " --size 24 24"),
    ("evaluate", 0, _EVALUATE + " --k 1"),
    ("evaluate", 2, _EVALUATE + " --k 0"),
    ("evaluate", 1, _EVALUATE + " --k 3"),
    ("fuse", 0, "{tmp}/s.csv {tmp}/s.csv --out {tmp}/f.csv"),
    ("fuse", 2, "{tmp}/s.csv"),
    ("fuse", 1, "{tmp}/s.csv {tmp}/none.csv --out {tmp}/f.csv"),
    ("augment", 0, "--manifest {data}/manifest.tsv --mode M3 --size 24 24 --out-dir {tmp}/a"),
    ("augment", 2, "--manifest {data}/manifest.tsv --mode M3 --size 0 24 --out-dir {tmp}/a"),
    ("augment", 1, "--manifest {tmp}/none.tsv --mode M3 --size 24 24 --out-dir {tmp}/a"),
]


@pytest.mark.parametrize(
    "command, code, args", EXIT_CODE_TABLE, ids=[f"{c}-{k}" for c, k, _ in EXIT_CODE_TABLE]
)
def test_readme_exit_code_table(dataset, dataset_c3, tmp_path, capsys, command, code, args):
    (tmp_path / "s.csv").write_text("0.5,0.1\n0.2,0.9\n")
    (tmp_path / "y.csv").write_text("1,0\n0,1\n")
    paths = dict(data=dataset, data3=dataset_c3, tmp=tmp_path, params=CHECKPOINT)
    argv = [command, *args.format(**paths).split()]
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        got = exc.code
    assert got == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert "error: " in err
    if code == 1:
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestExitCodes:
    def test_unknown_mode_is_usage_error(self, dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "train", "--manifest", str(dataset / "manifest.tsv"), "--mode", "M4",
                "--out", str(tmp_path / "x.params"),
            ])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--scores", "s.csv", "--labels", "y.csv", "--bogus", "1"])
        assert exc.value.code == 2

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        assert main([
            "evaluate", "--scores", str(tmp_path / "no.csv"),
            "--labels", str(tmp_path / "no2.csv"),
        ]) == 1
        assert "error:" in capsys.readouterr().err

    def test_gen_config_error_is_usage_error(self, tmp_path, capsys):
        assert main(["gen", "--out", str(tmp_path / "g"), "--num", "3", "--size", "8", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "16" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "g").exists()

    def test_train_zero_epochs_is_usage_error(self, dataset, tmp_path, capsys):
        out = tmp_path / "x.params"
        assert main([
            "train", "--manifest", str(dataset / "manifest.tsv"), "--mode", "M1",
            "--out", str(out), "--epochs", "0",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "epochs" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_train_empty_manifest_is_runtime_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("#classes=3\n")
        out = tmp_path / "x.params"
        assert main([
            "train", "--manifest", str(manifest), "--mode", "M1", "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_predict_empty_manifest_is_runtime_error(self, tmp_path, capsys):
        # no reader accepts the 0-byte CSV such a run would write
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("#classes=3\n")
        out = tmp_path / "scores.csv"
        assert main([
            "predict", "--params", str(CHECKPOINT), "--manifest", str(manifest),
            "--size", "24", "24", "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_gen_without_a_visible_arrangement_is_runtime_error(self, tmp_path, capsys):
        # no draw of twelve shapes on 32x32 leaves all visible; image 0 fails before --out is made
        out = tmp_path / "g"
        assert main([
            "gen", "--out", str(out), "--num", "20", "--size", "32", "32",
            "--classes", "12", "--min-concepts", "12", "--max-concepts", "12",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "no visible arrangement" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("entry", ["../outside.ppm", "ABSOLUTE"])
    def test_train_entry_outside_root_is_runtime_error(self, dataset, tmp_path, capsys, entry):
        manifest = manifest_of(dataset / "manifest.tsv")
        outside = tmp_path / "outside.ppm"
        outside.write_bytes((dataset / manifest.entries[0][0]).read_bytes())
        (tmp_path / "ds").mkdir()
        entry = str(outside) if entry == "ABSOLUTE" else entry
        (tmp_path / "ds" / "manifest.tsv").write_text(f"#classes=6\n{entry}\t0 1\n")
        out = tmp_path / "x.params"
        assert main([
            "train", "--manifest", str(tmp_path / "ds" / "manifest.tsv"), "--mode", "M1",
            "--size", "24", "24", "--epochs", "1", "--decay-epoch", "0",
            "--pool-grid", "4", "4", "--hidden", "16", "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "leaves the dataset root" in err
        assert not out.exists()

    def test_train_divergence_is_runtime_error(self, dataset, tmp_path, capsys):
        out = tmp_path / "x.params"
        assert main([
            "train", "--manifest", str(dataset / "manifest.tsv"), "--mode", "M1",
            "--size", "24", "24", "--epochs", "3", "--decay-epoch", "2",
            "--pool-grid", "4", "4", "--hidden", "16",
            "--lr-head", "1e6", "--lr-body", "1e6", "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "diverged" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "fuse", "train", "predict", "augment"])
    def test_non_ascii_input_is_runtime_error(self, dataset, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"#classes=6\n0.5,caf\xe9\n")
        good = tmp_path / "good.csv"
        good.write_text("0.5,1.0\n")
        manifest = ["--manifest", str(bad)]
        argv = {
            "evaluate": ["evaluate", "--scores", str(bad), "--labels", str(good)],
            "fuse": ["fuse", str(good), str(bad), "--out", str(tmp_path / "f.csv")],
            "train": ["train", *manifest, "--mode", "M1", "--out", str(tmp_path / "x.params")],
            "predict": ["predict", "--params", str(CHECKPOINT), *manifest,
                        "--out", str(tmp_path / "s.csv")],
            "augment": ["augment", *manifest, "--mode", "M3", "--out-dir", str(tmp_path / "a")],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert str(bad) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "good.csv"]

    @pytest.mark.parametrize("flag, value", [("--lr-head", "nan"), ("--lr-body", "inf")])
    def test_train_nonfinite_rate_is_usage_error(
        self, dataset, tmp_path, capsys, monkeypatch, flag, value
    ):
        def no_read(blob):
            raise AssertionError("an image was read before the config check")

        monkeypatch.setattr("mlc.io.read_ppm", no_read)
        out = tmp_path / "x.params"
        assert main([
            "train", "--manifest", str(dataset / "manifest.tsv"), "--mode", "M1",
            "--out", str(out), flag, value,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--out", "--log"])
    def test_train_missing_out_dir_fails_before_training(
        self, dataset, tmp_path, capsys, monkeypatch, flag
    ):
        def no_train(*args, **kwargs):
            raise AssertionError("train ran before the output directory was checked")

        monkeypatch.setattr(cli, "train", no_train)
        paths = {"--out": tmp_path / "x.params", "--log": tmp_path / "train.log"}
        paths[flag] = tmp_path / "missing" / paths[flag].name
        assert main([
            "train", "--manifest", str(dataset / "manifest.tsv"), "--mode", "M1",
            "--out", str(paths["--out"]), "--log", str(paths["--log"]),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert str(paths[flag]) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--log"])
    def test_train_directory_target_fails_before_training(
        self, dataset, tmp_path, capsys, monkeypatch, flag
    ):
        def no_train(*args, **kwargs):
            raise AssertionError("train ran before the output target was checked")

        monkeypatch.setattr(cli, "train", no_train)
        paths = {"--out": tmp_path / "x.params", "--log": tmp_path / "train.log"}
        paths[flag].mkdir()
        assert main([
            "train", "--manifest", str(dataset / "manifest.tsv"), "--mode", "M1",
            "--out", str(paths["--out"]), "--log", str(paths["--log"]),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert str(paths[flag]) in err and ".tmp" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [paths[flag].name]
        assert list(paths[flag].iterdir()) == []

    @pytest.mark.parametrize("command", ["fuse", "train"])
    def test_output_name_over_255_bytes_is_io_error(self, dataset, tmp_path, capsys, command):
        # Path.exists() raises for a name the file system cannot hold
        member = tmp_path / "a.csv"
        member.write_text("0.5,0.1\n")
        out = tmp_path / ("b" * 256)
        argv = {
            "fuse": ["fuse", str(member), "--out", str(out)],
            "train": [
                "train", "--manifest", str(dataset / "manifest.tsv"), "--mode", "M1",
                "--out", str(out),
            ],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: File name too long\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

    def test_predict_directory_target_is_runtime_error(
        self, dataset, tmp_path, capsys, monkeypatch
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("an input was read before the output target was checked")

        monkeypatch.setattr(cli, "load_params", no_read)
        monkeypatch.setattr(cli, "predict", no_read)
        out = tmp_path / "scores"
        out.mkdir()
        assert main([
            "predict", "--params", str(CHECKPOINT), "--manifest", str(dataset / "manifest.tsv"),
            "--size", "24", "24", "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: Is a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["scores"] and list(out.iterdir()) == []

    @pytest.mark.parametrize("target", ["directory", "missing parent", "writable"])
    def test_fuse_output_target_fails_before_reading(
        self, tmp_path, capsys, monkeypatch, target
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("an input was read before the output target was checked")

        # `mlc fuse` opens and reads each member through `open` and
        # `read_csv_matrix`; the writable target shows that the patch is
        # reached, so the bad targets cannot pass without reaching it
        monkeypatch.setattr(cli, "open", no_read, raising=False)
        monkeypatch.setattr(cli, "read_csv_matrix", no_read)
        member = tmp_path / "a.csv"
        member.write_text("0.5,0.1\n")
        out = tmp_path / "fused.csv"
        if target == "writable":
            with pytest.raises(AssertionError, match="an input was read"):
                main(["fuse", str(member), "--out", str(out)])
            return
        if target == "directory":
            out.mkdir()
        else:
            out = tmp_path / "missing" / "fused.csv"
        assert main(["fuse", str(member), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and len(err.splitlines()) == 1

    def test_train_grid_larger_than_size_is_usage_error(
        self, dataset, tmp_path, capsys, monkeypatch
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("an input was read before the config check")

        monkeypatch.setattr(cli, "read_manifest", no_read)
        monkeypatch.setattr("mlc.io.read_ppm", no_read)
        out = tmp_path / "x.params"
        assert main([
            "train", "--manifest", str(dataset / "manifest.tsv"), "--mode", "M1",
            "--size", "8", "8", "--pool-grid", "16", "16", "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "pool_grid" in err and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_evaluate_k_below_one_is_usage_error(self, tmp_path, capsys):
        # rejected before any file is read: neither path exists
        assert main([
            "evaluate", "--scores", str(tmp_path / "none.csv"),
            "--labels", str(tmp_path / "none.csv"), "--k", "0",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--k" in err and len(err.splitlines()) == 1

    def test_evaluate_k_above_classes_is_runtime_error(self, tmp_path, capsys):
        (tmp_path / "s.csv").write_text("0.5,0.1\n0.2,0.9\n")
        (tmp_path / "y.csv").write_text("1,0\n0,1\n")
        assert main([
            "evaluate", "--scores", str(tmp_path / "s.csv"),
            "--labels", str(tmp_path / "y.csv"), "--k", "3",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "k=3" in err and len(err.splitlines()) == 1

    def test_predict_non_ascii_checkpoint_is_runtime_error(self, dataset, tmp_path, capsys):
        params = tmp_path / "bad.params"
        params.write_bytes(b"\xff\xfe not a checkpoint")
        assert main([
            "predict", "--params", str(params), "--manifest", str(dataset / "manifest.tsv"),
            "--size", "24", "24", "--out", str(tmp_path / "s.csv"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_predict_v1_checkpoint_names_the_v2_header(self, dataset, tmp_path, capsys):
        # the first lines of a checkpoint in the retired text format
        params = tmp_path / "old.params"
        params.write_text("mlc-params v1\n2 2 5 3\n0.02160163177293639,0.13603346174552106\n")
        assert main([
            "predict", "--params", str(params), "--manifest", str(dataset / "manifest.tsv"),
            "--size", "24", "24", "--out", str(tmp_path / "s.csv"),
        ]) == 1
        assert capsys.readouterr().err == "error: missing checkpoint header 'mlc-params v2'\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_predict_from_a_pipe_is_parse_error(self, dataset, tmp_path, capsys):
        # the payload length is checked by seeking, which a pipe cannot do
        fifo = tmp_path / "model.params"
        os.mkfifo(fifo)
        # a reader held open lets the writer open without blocking, and the
        # writer held open lets `mlc predict` open the pipe without blocking
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        writer = os.open(fifo, os.O_WRONLY)
        try:
            os.write(writer, CHECKPOINT.read_bytes())
            code = main([
                "predict", "--params", str(fifo), "--manifest", str(dataset / "manifest.tsv"),
                "--size", "24", "24", "--out", str(tmp_path / "s.csv"),
            ])
        finally:
            os.close(writer)
            os.close(reader)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fifo}: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_overflow_prints_only_the_error_line(self, dataset, tmp_path, command):
        # a real process: pytest would capture numpy's warnings before stderr
        if command == "train":
            args = [
                "--manifest", str(dataset / "manifest.tsv"), "--mode", "M1", "--size", "24", "24",
                "--batch-size", "4", "--pool-grid", "4", "4", "--hidden", "8", "--epochs", "3",
                "--decay-epoch", "1", "--lr-head", "1e200", "--lr-body", "1e200",
                "--out", str(tmp_path / "m.params"),
            ]
        else:
            huge = ModelParams(
                (2, 2), np.full((12, 5), 1e305), np.full(5, 1e305), np.full((5, 3), 1e305),
                np.full(3, 1e305),
            )
            (tmp_path / "huge.params").write_bytes(b"".join(save_params(huge)))
            args = [
                "--params", str(tmp_path / "huge.params"), "--manifest",
                str(dataset / "manifest.tsv"), "--size", "24", "24", "--out", str(tmp_path / "s.csv"),
            ]
        run = subprocess.run(
            [sys.executable, "-m", "mlc.cli", command, *args],
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
            capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 1
        assert run.stderr.startswith("error: ") and len(run.stderr.splitlines()) == 1, run.stderr

    def test_augment_config_error_is_usage_error(self, dataset, tmp_path, capsys):
        assert main([
            "augment", "--manifest", str(dataset / "manifest.tsv"), "--mode", "M1",
            "--out-dir", str(tmp_path / "aug"), "--size", "0", "24",
        ]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_predict_size_below_one_is_usage_error(self, dataset, tmp_path, capsys, monkeypatch):
        def no_read(*args, **kwargs):
            raise AssertionError("an input was read before the size check")

        monkeypatch.setattr(cli, "load_params", no_read)
        out = tmp_path / "s.csv"
        assert main([
            "predict", "--params", str(CHECKPOINT), "--manifest", str(dataset / "manifest.tsv"),
            "--size", "0", "16", "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--size" in err and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target", ["file", "missing parent", "writable"])
    def test_augment_out_dir_fails_before_reading(
        self, dataset, tmp_path, capsys, monkeypatch, target
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("an input was read before the output directory was checked")

        # `mlc augment` reads its manifest through `open` and `read_manifest`;
        # the writable target shows that the patch is reached
        monkeypatch.setattr(cli, "open", no_read, raising=False)
        monkeypatch.setattr(cli, "read_manifest", no_read)
        out_dir = tmp_path / "missing" / "aug" if target == "missing parent" else tmp_path / "aug"
        if target == "file":
            out_dir.write_text("not a directory\n")
        argv = [
            "augment", "--manifest", str(dataset / "manifest.tsv"), "--mode", "M3",
            "--out-dir", str(out_dir), "--size", "24", "24",
        ]
        if target == "writable":
            with pytest.raises(AssertionError, match="an input was read"):
                main(argv)
            assert list(tmp_path.iterdir()) == []
            return
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out_dir}: ") and len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == (["aug"] if target == "file" else [])
        if target == "file":
            assert out_dir.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "argv, refused",
        [
            ("augment --manifest {ds}/manifest.tsv --mode M1 --out-dir {link}",
             "{link}/manifest.tsv: it is an input"),
            ("train --manifest {ds}/manifest.tsv --mode M1 --out {ds}/x.bin --log {ds}/x.bin",
             "{ds}/x.bin: it is another output"),
            ("train --manifest {ds}/manifest.tsv --mode M1 --out {link}/manifest.tsv",
             "{link}/manifest.tsv: it is an input"),
            ("predict --params {ds}/m.params --manifest {ds}/manifest.tsv --out {ds}/m.params",
             "{ds}/m.params: it is an input"),
            ("predict --params {ds}/m.params --manifest {ds}/manifest.tsv --out {ds}/manifest.tsv",
             "{ds}/manifest.tsv: it is an input"),
            ("fuse {ds}/a.csv {ds}/b.csv --out {link}/b.csv", "{link}/b.csv: it is an input"),
        ],
        ids=["augment-into-the-manifest-dir", "train-log-is-out", "train-out-is-manifest",
             "predict-out-is-params", "predict-out-is-manifest", "fuse-out-is-a-member"],
    )
    def test_output_over_an_input_or_another_output_is_refused(
        self, dataset, tmp_path, capsys, monkeypatch, argv, refused
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("an input was read before the targets were checked")

        # every input is opened through `open`; `link` is a symlink to `ds`
        monkeypatch.setattr(cli, "open", no_read, raising=False)
        ds = tmp_path / "ds"
        ds.mkdir()
        for path in dataset.iterdir():
            (ds / path.name).write_bytes(path.read_bytes())
        (ds / "m.params").write_bytes(CHECKPOINT.read_bytes())
        (ds / "a.csv").write_text("0.5,0.1\n")
        (ds / "b.csv").write_text("0.2,0.9\n")
        (tmp_path / "link").symlink_to(ds)
        before = _tree(ds)
        paths = {"ds": ds, "link": tmp_path / "link"}
        assert main(argv.format(**paths).split()) == 1
        assert capsys.readouterr().err == f"error: cannot write {refused.format(**paths)}\n"
        assert _tree(ds) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds", "link"]

    @pytest.mark.parametrize(
        "argv, refused",
        [
            ("train --manifest {ds}/manifest.tsv --mode M1 --out {ds}/img_00000.ppm",
             "{ds}/img_00000.ppm: it is an input"),
            ("train --manifest {ds}/manifest.tsv --mode M1 --out {ds}/x.bin "
             "--log {link}/img_00003.ppm", "{link}/img_00003.ppm: it is an input"),
            ("predict --params {ds}/m.params --manifest {ds}/manifest.tsv "
             "--out {link}/img_00001.ppm", "{link}/img_00001.ppm: it is an input"),
            ("augment --manifest {ds}/m2.tsv --mode M2 --size 16 16 --out-dir {ds}/sub",
             "{ds}/sub: it holds an input"),
            ("augment --manifest {ds}/m2.tsv --mode M2 --size 16 16 --out-dir {link}/links",
             "{link}/links: it holds an input"),
            ("augment --manifest {ds}/m2.tsv --mode M2 --size 16 16 --out-dir {ds}/named",
             "{ds}/named: it holds an input"),
        ],
        ids=["train-out-is-an-image", "train-log-is-an-image", "predict-out-is-an-image",
             "augment-out-dir-holds-an-image", "augment-out-dir-holds-a-linked-image",
             "augment-out-dir-holds-an-image-named-manifest"],
    )
    def test_output_over_a_listed_image_is_refused(
        self, dataset, tmp_path, capsys, monkeypatch, argv, refused
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("an image was read before the targets were checked")

        monkeypatch.setattr(trainer, "read_image", no_read)
        ds = tmp_path / "ds"
        ds.mkdir()
        for path in dataset.iterdir():
            (ds / path.name).write_bytes(path.read_bytes())
        (ds / "m.params").write_bytes(CHECKPOINT.read_bytes())
        (tmp_path / "link").symlink_to(ds)
        # m2.tsv lists an image where augment writes its first one, a symlink
        # there (its target is elsewhere) and an image where augment writes
        # its manifest
        for folder in ("sub", "links", "named"):
            (ds / folder).mkdir()
        (ds / "sub" / "aug_00000.ppm").write_bytes((dataset / "img_00000.ppm").read_bytes())
        (ds / "links" / "aug_00000.ppm").symlink_to("../img_00001.ppm")
        (ds / "named" / "manifest.tsv").write_bytes((dataset / "img_00002.ppm").read_bytes())
        header = (dataset / "manifest.tsv").read_text().splitlines()[0]
        (ds / "m2.tsv").write_text(
            f"{header}\nsub/aug_00000.ppm\t0\nlinks/aug_00000.ppm\t1\nnamed/manifest.tsv\t0\n"
        )
        before = _tree(ds)
        paths = {"ds": ds, "link": tmp_path / "link"}
        assert main(argv.format(**paths).split()) == 1
        assert capsys.readouterr().err == f"error: cannot write {refused.format(**paths)}\n"
        assert _tree(ds) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds", "link"]

    def test_predict_reads_its_manifest_before_its_checkpoint(self, tmp_path, capsys):
        # both inputs are bad, and the manifest's error is the one reported
        (tmp_path / "manifest.tsv").write_text("no header\n")
        (tmp_path / "bad.params").write_text("not a checkpoint\n")
        assert main([
            "predict", "--params", str(tmp_path / "bad.params"),
            "--manifest", str(tmp_path / "manifest.tsv"), "--out", str(tmp_path / "s.csv"),
        ]) == 1
        assert capsys.readouterr().err == "error: manifest must start with '#classes=C'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.params", "manifest.tsv"]

    @pytest.mark.parametrize("command", ["train", "predict", "augment"])
    def test_lone_cr_manifest_is_runtime_error(self, dataset, tmp_path, capsys, command):
        # a lone "\r" ends no line, so the whole manifest is one header line
        # whose class count does not parse; the images it names are all there
        for path in dataset.glob("*.ppm"):
            (tmp_path / path.name).write_bytes(path.read_bytes())
        manifest = tmp_path / "manifest.tsv"
        manifest.write_bytes((dataset / "manifest.tsv").read_bytes().replace(b"\n", b"\r"))
        before = sorted(p.name for p in tmp_path.iterdir())
        out = str(tmp_path / "out")
        argv = {
            "train": ["train", "--mode", "M1", "--out", out],
            "predict": ["predict", "--params", str(CHECKPOINT), "--out", out],
            "augment": ["augment", "--mode", "M3", "--out-dir", out],
        }[command]
        assert main([*argv, "--manifest", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad class count in ") and len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["train", "predict", "augment"])
    def test_zero_class_count_is_runtime_error_naming_the_header(
        self, dataset, tmp_path, capsys, command
    ):
        (tmp_path / "img.ppm").write_bytes((dataset / "img_00000.ppm").read_bytes())
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("#classes=0\nimg.ppm\t\n")
        out = str(tmp_path / "x")
        argv = {
            "train": ["train", "--mode", "M1", "--out", out],
            "predict": ["predict", "--params", str(CHECKPOINT), "--out", out],
            "augment": ["augment", "--mode", "M1", "--out-dir", out],
        }[command]
        assert main([*argv, "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == "error: bad class count in '#classes=0'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["img.ppm", "manifest.tsv"]

    def test_bad_header_error_line_is_bounded(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("#classes=3\r" + "".join(f"img{k}.ppm\t0\r" for k in range(10_000)))
        assert main([
            "augment", "--manifest", str(manifest), "--mode", "M1",
            "--out-dir", str(tmp_path / "aug"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert len(err) < 200

    @pytest.mark.parametrize("classes", [2**63 - 1, 10**20])
    @pytest.mark.parametrize("command", ["train", "predict", "augment"])
    def test_unallocatable_class_count_is_runtime_error(
        self, dataset, tmp_path, capsys, command, classes
    ):
        # no 64-bit host can allocate either count, so nothing is touched
        (tmp_path / "img.ppm").write_bytes((dataset / "img_00000.ppm").read_bytes())
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(f"#classes={classes}\nimg.ppm\t0\n")
        argv = {
            "train": ["train", "--mode", "M1", "--epochs", "1", "--decay-epoch", "0",
                      "--hidden", "4", "--size", "24", "24", "--out", str(tmp_path / "x")],
            "predict": ["predict", "--params", str(CHECKPOINT), "--size", "24", "24",
                        "--out", str(tmp_path / "x")],
            "augment": ["augment", "--mode", "M1", "--out-dir", str(tmp_path / "x")],
        }[command]
        assert main([*argv, "--manifest", str(manifest)]) == 1
        err = capsys.readouterr().err
        if command == "predict":  # the 3-class checkpoint refuses the manifest first
            assert err == f"error: manifest has {classes} classes, checkpoint 3\n"
        else:
            assert err == f"error: #classes={classes} is too large to allocate\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["img.ppm", "manifest.tsv"]

    @pytest.mark.parametrize(
        "command", ["gen", "train", "predict", "augment", "hidden", "pool-grid"]
    )
    def test_unallocatable_size_is_runtime_error(
        self, dataset, dataset_c3, tmp_path, capsys, command
    ):
        # each shape exceeds 2**63 bytes, so numpy rejects it before it
        # allocates anything: 2**31 x 2**31 pixels of 3 float64s, and the W1
        # that `init_params` draws first for `--hidden 2**62` (768 x 2**62
        # float64s) or `--pool-grid 2**31 2**31` (3 * 2**62 x 4096)
        manifest = str(dataset / "manifest.tsv")
        train = ["train", "--manifest", manifest, "--mode", "M1", "--epochs", "1",
                 "--decay-epoch", "0", "--out", str(tmp_path / "x")]
        argv = {
            "gen": ["gen", "--out", str(tmp_path / "x"), "--num", "1"],
            "train": [*train, "--hidden", "4"],
            "predict": ["predict", "--params", str(CHECKPOINT),
                        "--manifest", str(dataset_c3 / "manifest.tsv"), "--out", str(tmp_path / "x")],
            "augment": ["augment", "--manifest", manifest, "--mode", "M1",
                        "--out-dir", str(tmp_path / "x")],
            "hidden": [*train, "--hidden", str(2**62)],
            "pool-grid": [*train, "--pool-grid", str(2**31), str(2**31)],
        }[command]
        assert main([*argv, "--size", str(2**31), str(2**31)]) == 1
        err = capsys.readouterr().err
        shape = str(2**62) if command == "hidden" else "2147483648x2147483648"
        assert re.fullmatch(rf"error: .* {shape} .* too large to allocate\n", err)
        assert not (tmp_path / "x").is_file()

    @pytest.mark.parametrize("command", ["gen", "train", "augment"])
    def test_negative_seed_is_usage_error(self, dataset, tmp_path, capsys, monkeypatch, command):
        def no_read(*args, **kwargs):
            raise AssertionError("an input was read before the seed was checked")

        monkeypatch.setattr(cli, "read_manifest", no_read)
        manifest = str(dataset / "manifest.tsv")
        argv = {
            "gen": ["gen", "--out", str(tmp_path / "x"), "--num", "1"],
            "train": ["train", "--manifest", manifest, "--mode", "M1", "--out", str(tmp_path / "x")],
            "augment": ["augment", "--manifest", manifest, "--mode", "M1",
                        "--out-dir", str(tmp_path / "x")],
        }[command]
        assert main([*argv, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self):
        for sub in ("gen", "train", "predict", "evaluate", "fuse", "augment"):
            with pytest.raises(SystemExit) as exc:
                main([sub, "--help"])
            assert exc.value.code == 0

    def test_train_help_shows_config_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        text = capsys.readouterr().out
        from mlc.trainer import TrainConfig

        cfg = TrainConfig()
        for token in (
            f"default: {cfg.epochs}", f"default: {cfg.batch_size}",
            f"default: {cfg.lr_head}", f"default: {cfg.lr_body}",
            f"default: {cfg.lr_decay_epoch}", f"default: {cfg.hidden}",
        ):
            assert token in text, token


def test_cli_imports_no_numpy_and_no_private_names():
    # batching and parsing stay behind the modules that own them
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bad += [alias.name for alias in node.names if alias.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom):
            package = (node.module or "").split(".")[0]
            if package == "numpy":
                bad.append(node.module)
            elif node.level > 0 or package == "mlc":
                bad += [alias.name for alias in node.names if alias.name.startswith("_")]
    assert bad == []


def test_cli_reads_manifests_only_through_the_listed_image_guard():
    # a command that read a manifest past `_read_manifest` could write over its images
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    guard = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_read_manifest"
    )

    def uses(root):
        return [
            node for node in ast.walk(root)
            if getattr(node, "id", getattr(node, "attr", None)) == "read_manifest"
        ]

    assert len(uses(guard)) == 1
    assert uses(tree) == uses(guard)


def test_readme_cli_block_parses():
    # every `mlc` command of the README's CLI example, backslash-continued
    # lines joined, is one the parser accepts, so the docs keep no dead flag
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    commands = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines() if line.startswith("mlc ")
    ]
    assert len(commands) >= 5
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
