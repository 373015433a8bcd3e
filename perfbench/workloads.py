"""The three benchmark workloads and the output checks they run.

Each workload makes its inputs from the seed in `setup`, runs the commands
that are timed in `rep`, and checks the last repetition's outputs in
`final`, which also returns the run's mAP. Sizes are fixed here so that
every run of a workload does the same amount of work whatever the seed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

# train-m3: the acceptance-pipeline train split at the default model. An even
# epoch count puts mixup on exactly half the epochs; 4 epochs keep the
# checkpoint write near 30% of the command (4% at the default 40 epochs).
TRAIN_IMAGES = 500
TRAIN_TEST_IMAGES = 200
TRAIN_EPOCHS = 4
# floor for the test-split mAP of train-m3, well below what the code gives
# (0.85..0.89 over seeds 1..15 on the numpy backend)
TRAIN_MAP_FLOOR = 0.70

# scale-predict: a short M3 run makes the checkpoint; the test split is
# scored at the native 64x64 (identity resize, 4 px pool bins) and at 72x72
# (upscale, uneven 4.5 px pool bins).
SCALE_TRAIN_IMAGES = 200
SCALE_TRAIN_EPOCHS = 2
SCALE_TEST_IMAGES = 1000
SCALE_SIZES = (64, 72)

# eval-fuse: COCO-like score matrices (80 classes, 1..4 labels per image)
# for a 10,000-image test split and 4 ensemble members.
FUSE_ROWS = 10_000
FUSE_CLASSES = 80
FUSE_MEMBERS = 4
_FUSE_STREAM = 101  # spawn key of the benchmark's own score generator

PANEL_WIDTH = 7
PANEL_DECIMALS = 4  # `mlc evaluate` prints its machine line with 4 decimals


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def labels_csv(manifest: Path) -> str:
    """0/1 label matrix CSV for a manifest, written without mlc's own writer."""
    lines = manifest.read_text(encoding="ascii").splitlines()
    classes = int(lines[0].removeprefix("#classes="))
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        row = ["0"] * classes
        for tok in line.partition("\t")[2].split():
            row[int(tok)] = "1"
        rows.append(",".join(row))
    return "\n".join(rows) + "\n"


def load_matrix(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)


def mean_average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """mAP over classes with a positive: rank by score, ties to the lower row."""
    aps = []
    ranks = np.arange(1, scores.shape[0] + 1, dtype=np.float64)
    for j in range(scores.shape[1]):
        truth = labels[:, j]
        if truth.sum() == 0:
            continue
        hits = truth[np.argsort(-scores[:, j], kind="stable")]
        aps.append(float((np.cumsum(hits) / ranks)[hits == 1].mean()))
    return float(np.mean(aps))


def parse_panel(stdout: str) -> list[float]:
    """The 7 values of `mlc evaluate`'s last (machine-readable) line."""
    return [float(v) for v in stdout.strip().splitlines()[-1].split(",")]


def check_panel(bench, name: str, stdout: str | None, scores: np.ndarray, labels: np.ndarray) -> None:
    """The panel has 7 values in [0, 1] and its mAP matches an independent one."""

    def ok() -> bool:
        panel = parse_panel(stdout)
        in_range = len(panel) == PANEL_WIDTH and all(0.0 <= v <= 1.0 for v in panel)
        tolerance = 0.5 * 10.0**-PANEL_DECIMALS + 1e-12
        return in_range and abs(panel[0] - mean_average_precision(scores, labels)) <= tolerance

    bench.check(f"{name} panel is 7 values in [0, 1] with the independent mAP", ok)


class TrainM3:
    name = "train-m3"

    calibrated = False  # one command of ~12 s per repetition

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.items_per_rep = TRAIN_IMAGES * TRAIN_EPOCHS

    def setup(self, bench, d: Path) -> None:
        bench.mlc("gen", "--out", d / "train", "--num", TRAIN_IMAGES, "--seed", 2 * self.seed)
        bench.mlc("gen", "--out", d / "test", "--num", TRAIN_TEST_IMAGES, "--seed", 2 * self.seed + 1)
        (d / "test_labels.csv").write_text(labels_csv(d / "test" / "manifest.tsv"), encoding="ascii")

    def rep(self, bench, d: Path, out: Path) -> None:
        bench.mlc(
            "train", "--manifest", d / "train" / "manifest.tsv", "--mode", "M3",
            "--epochs", TRAIN_EPOCHS, "--decay-epoch", TRAIN_EPOCHS // 2,
            "--seed", self.seed, "--out", out / "model.ckpt", "--log", out / "train.log",
        )

    def outputs(self, out: Path) -> list[Path]:
        return [out / "model.ckpt", out / "train.log"]

    def final(self, bench, d: Path, out: Path) -> float:
        """Score the test split with the trained checkpoint; its mAP is the quality check."""
        bench.check(
            "every logged epoch loss is finite",
            lambda: all(
                np.isfinite(float(line.split()[2]))
                for line in (out / "train.log").read_text(encoding="ascii").splitlines()
            ),
        )
        scores_path = out / "test_scores.csv"
        loaded = bench.mlc("predict", "--params", out / "model.ckpt",
                           "--manifest", d / "test" / "manifest.tsv", "--out", scores_path)
        bench.check("the checkpoint loads through load_params", lambda: loaded is not None)
        panel = bench.mlc("evaluate", "--scores", scores_path, "--labels", d / "test_labels.csv")
        scores, labels = load_matrix(scores_path), load_matrix(d / "test_labels.csv")
        check_panel(bench, "test split", panel, scores, labels)
        map_ = mean_average_precision(scores, labels)
        bench.check(f"test mAP {map_:.4f} >= floor {TRAIN_MAP_FLOOR}", lambda: map_ >= TRAIN_MAP_FLOOR)
        return map_


class ScalePredict:
    name = "scale-predict"

    calibrated = False  # predicts of ~3 s

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.items_per_rep = SCALE_TEST_IMAGES * len(SCALE_SIZES)
        self.panels: dict[str, str | None] = {}

    def setup(self, bench, d: Path) -> None:
        bench.mlc("gen", "--out", d / "train", "--num", SCALE_TRAIN_IMAGES, "--seed", 2 * self.seed)
        bench.mlc("gen", "--out", d / "test", "--num", SCALE_TEST_IMAGES, "--seed", 2 * self.seed + 1)
        (d / "test_labels.csv").write_text(labels_csv(d / "test" / "manifest.tsv"), encoding="ascii")
        bench.mlc(
            "train", "--manifest", d / "train" / "manifest.tsv", "--mode", "M3",
            "--epochs", SCALE_TRAIN_EPOCHS, "--decay-epoch", SCALE_TRAIN_EPOCHS // 2,
            "--seed", self.seed, "--out", d / "model.ckpt",
        )

    def _members(self, out: Path) -> list[Path]:
        return [out / f"scores_{size}.csv" for size in SCALE_SIZES]

    def rep(self, bench, d: Path, out: Path) -> None:
        members = self._members(out)
        for size, path in zip(SCALE_SIZES, members):
            bench.mlc("predict", "--params", d / "model.ckpt", "--manifest", d / "test" / "manifest.tsv",
                      "--size", size, size, "--out", path)
        bench.mlc("fuse", *members, "--out", out / "fused.csv")
        for path in [*members, out / "fused.csv"]:
            self.panels[path.name] = bench.mlc("evaluate", "--scores", path, "--labels", d / "test_labels.csv")

    def outputs(self, out: Path) -> list[Path]:
        return [*self._members(out), out / "fused.csv"]

    def final(self, bench, d: Path, out: Path) -> float:
        labels = load_matrix(d / "test_labels.csv")
        members = [load_matrix(path) for path in self._members(out)]
        fused = load_matrix(out / "fused.csv")
        for path, scores in zip(self._members(out), members):
            bench.check(f"{path.name} scores are finite", lambda s=scores: bool(np.isfinite(s).all()))
        stack = np.stack(members)
        bench.check(
            "fused scores lie between the members' min and max",
            lambda: bool(((stack.min(axis=0) <= fused) & (fused <= stack.max(axis=0))).all()),
        )
        for path, scores in zip(self.outputs(out), [*members, fused]):
            check_panel(bench, path.name, self.panels.get(path.name), scores, labels)
        return mean_average_precision(fused, labels)


class EvalFuse:
    name = "eval-fuse"

    calibrated = True  # six commands of ~1 s per repetition

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # fuse reads every member; evaluate reads every member and the fused file
        self.items_per_rep = FUSE_ROWS * (2 * FUSE_MEMBERS + 1)
        self.panels: dict[str, str | None] = {}

    def setup(self, bench, d: Path) -> None:
        """Seeded COCO-like labels and member logits, written with mlc's CSV writer."""
        from mlc.io import write_csv_matrix
        from mlc.types import LabelMatrix, ScoreMatrix

        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(self.seed, spawn_key=(_FUSE_STREAM,))))
        # 1..4 classes per row, drawn without replacement with Zipf-like class
        # popularity (Gumbel top-k: the `count` largest perturbed log-weights)
        log_popularity = -0.8 * np.log(np.arange(1, FUSE_CLASSES + 1))
        keys = log_popularity + rng.gumbel(size=(FUSE_ROWS, FUSE_CLASSES))
        rank = np.argsort(np.argsort(-keys, axis=1), axis=1)
        counts = rng.integers(1, 5, size=(FUSE_ROWS, 1))
        labels = (rank < counts).astype(np.int8)
        bias = rng.normal(-2.0, 0.5, size=FUSE_CLASSES)
        (d / "labels.csv").write_text(write_csv_matrix(LabelMatrix(labels)), encoding="ascii")
        for m in range(FUSE_MEMBERS):
            logits = bias + 2.0 * labels + rng.normal(0.0, 1.5, size=labels.shape)
            (d / f"member_{m}.csv").write_text(write_csv_matrix(ScoreMatrix(logits)), encoding="ascii")

    def _members(self, d: Path) -> list[Path]:
        return [d / f"member_{m}.csv" for m in range(FUSE_MEMBERS)]

    def rep(self, bench, d: Path, out: Path) -> None:
        bench.mlc("fuse", *self._members(d), "--out", out / "fused.csv")
        for path in [*self._members(d), out / "fused.csv"]:
            self.panels[path.name] = bench.mlc("evaluate", "--scores", path, "--labels", d / "labels.csv")

    def outputs(self, out: Path) -> list[Path]:
        return [out / "fused.csv"]

    def final(self, bench, d: Path, out: Path) -> float:
        labels = load_matrix(d / "labels.csv")
        members = [load_matrix(path) for path in self._members(d)]
        fused = load_matrix(out / "fused.csv")
        bench.check(
            "fused matrix equals the numpy mean of the members within 1e-12",
            lambda: fused.shape == members[0].shape
            and float(np.abs(fused - np.mean(members, axis=0)).max()) <= 1e-12,
        )
        for path, scores in zip([*self._members(d), out / "fused.csv"], [*members, fused]):
            check_panel(bench, path.name, self.panels.get(path.name), scores, labels)
        return mean_average_precision(fused, labels)


WORKLOADS = {w.name: w for w in (TrainM3, ScalePredict, EvalFuse)}
