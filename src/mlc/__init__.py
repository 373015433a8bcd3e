"""Multi-label image classification toolkit.

Trains a small adaptive-pool + MLP classifier with flip / random-resized-
crop / mixup augmentation, evaluates it with the top-k metric panel (mAP,
label-centric and overall P/R/F1), and fuses model scores by averaging.
"""

from .augment import apply_mode, mixup, resize, rng_stream
from .fusion import fuse
from .io import DatasetManifest, read_csv_matrix, read_manifest, read_ppm, write_csv_matrix, write_manifest, write_ppm
from .metrics import MetricsReport, evaluate, mean_ap, top_k_binarize
from .model import ModelParams, bce_loss, init_params, load_params, save_params, sigmoid
from .synthgen import SynthConfig, census, generate
from .trainer import TrainConfig, TrainReport, predict, train
from .types import LabelMatrix, ScoreMatrix

__version__ = "0.1.0"

__all__ = [
    "apply_mode", "mixup", "resize", "rng_stream",
    "fuse",
    "DatasetManifest", "read_csv_matrix", "read_manifest", "read_ppm",
    "write_csv_matrix", "write_manifest", "write_ppm",
    "MetricsReport", "evaluate", "mean_ap", "top_k_binarize",
    "ModelParams", "bce_loss", "init_params", "load_params", "save_params", "sigmoid",
    "SynthConfig", "census", "generate",
    "TrainConfig", "TrainReport", "predict", "train",
    "LabelMatrix", "ScoreMatrix",
    "__version__",
]
