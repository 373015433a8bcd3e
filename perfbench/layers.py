"""Which mlc functions the traced run wraps, and the per-layer metrics they give.

Every metric is named `<module>.<function>.<stat>`: `self_s` is time in the
function minus time in wrapped functions it called, `calls` counts calls,
and `mb*` are megabytes computed from array shapes or byte lengths (unit
`MB_computed`), not measured traffic. Values cover one pass through the
workload: the median set-up, the median traced timed repetition and the
after-timing checks.
"""

from __future__ import annotations

from tracer import Target


def _nbytes_in(args, result) -> dict[str, float]:
    return {"mb_in": args[0].nbytes / 1e6}


def _nbytes_out(args, result) -> dict[str, float]:
    return {"mb_out": result.nbytes / 1e6}


def _rows(args, result) -> dict[str, float]:
    return {"rows": args[1].shape[0]}


def _len_in(args, result) -> dict[str, float]:
    return {"mb": len(args[0]) / 1e6}


def _len_out(args, result) -> dict[str, float]:
    return {"mb": len(result) / 1e6}


# (defining module, attribute, metric prefix, measure, extra stat -> unit)
SPANNED = [
    ("mlc.kernels", "adaptive_pool", "kernels.adaptive_pool", _nbytes_in, {"mb_in": "MB_computed"}),
    ("mlc.kernels", "resize_bilinear", "kernels.resize_bilinear", _nbytes_out, {"mb_out": "MB_computed"}),
    ("mlc.kernels", "paint_shapes", "kernels.paint_shapes", None, {}),
    ("mlc.synthgen", "render", "synthgen.render", None, {}),
    ("mlc.model", "backward_features", "model.backward_features", _rows, {"rows": "count"}),
    ("mlc.model", "forward_features", "model.forward_features", _rows, {"rows": "count"}),
    ("mlc.model", "ModelParams.__post_init__", "model.params_validate", None, {}),
    ("mlc.model", "save_params", "model.save_params", _len_out, {}),
    ("mlc.model", "load_params", "model.load_params", _len_in, {}),
    ("mlc.trainer", "train", "trainer.train", None, {}),
    ("mlc.trainer", "load_dataset", "trainer.load_dataset", None, {}),
    ("mlc.trainer", "predict", "trainer.predict", None, {}),
    ("mlc.augment", "apply_mode", "augment.apply_mode", None, {}),
    ("mlc.augment", "random_resized_crop", "augment.random_resized_crop", None, {}),
    ("mlc.augment", "mixup_pair", "augment.mixup_pair", None, {}),
    ("mlc.types", "Image.__post_init__", "types.image_validate", None, {}),
    ("mlc.types", "LabelVector.__post_init__", "types.label_validate", None, {}),
    ("mlc.io", "read_ppm", "io.read_ppm", _len_in, {"mb": "MB_computed"}),
    ("mlc.io", "write_ppm", "io.write_ppm", _len_out, {"mb": "MB_computed"}),
    ("mlc.io", "read_csv_matrix", "io.read_csv_matrix", _len_in, {"mb": "MB_computed"}),
    ("mlc.io", "write_csv_matrix", "io.write_csv_matrix", _len_out, {"mb": "MB_computed"}),
    ("mlc.metrics", "evaluate", "metrics.evaluate", None, {}),
    ("mlc.fusion", "fuse", "fusion.fuse", None, {}),
]
CLI_COMMANDS = ("gen", "train", "predict", "evaluate", "fuse")

PER_LAYER: list[tuple[str, str]] = [
    *((f"{name}.{stat}", unit) for _, _, name, _, extra in SPANNED
      for stat, unit in {"self_s": "s", "calls": "count", **extra}.items()),
    *((f"cli.{cmd}.{stat}", "s") for cmd in CLI_COMMANDS for stat in ("wall_s", "self_s")),
    ("model.checkpoint.mb", "MB_computed"),
    ("synthgen.accept_ratio", "ratio"),
    ("trainer.backward_rows_per_image", "ratio"),
    ("process.cpu_s", "s"),
    ("process.cpu_per_wall", "ratio"),
    ("process.wall_items_per_s", "items/s"),
    ("process.ref_pass_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unobserved", "count"),
]


def targets(mlc) -> list[Target]:
    """Wrapper targets, plus a count-only wrapper on the Philox stream factory."""
    stream_gen = getattr(mlc.augment, "STREAM_GEN", None)

    def gen_streams(args, result) -> dict[str, float]:
        return {"gen_streams": float(len(args) > 1 and args[1] == stream_gen)}

    return [
        *(Target(owner, attr, name, measure) for owner, attr, name, measure, _ in SPANNED),
        Target("mlc.augment", "rng_stream", "augment.rng_stream", gen_streams, span=False),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(totals: dict[str, float], unobserved: list[str],
                      measured: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every PER_LAYER metric: from the layer totals, or from `measured` (the
    run's own timings of whole repetitions)."""
    get = totals.get
    derived = {
        "model.checkpoint.mb": get("model.save_params.mb", 0.0) + get("model.load_params.mb", 0.0),
        # images accepted over STREAM_GEN draw attempts
        "synthgen.accept_ratio": _ratio(get("synthgen.render.calls", 0.0),
                                        get("augment.rng_stream.gen_streams", 0.0)),
        # rows reaching backward over images drawn; 0.75 for M3 at an even epoch count
        "trainer.backward_rows_per_image": _ratio(get("model.backward_features.rows", 0.0),
                                                  get("augment.apply_mode.calls", 0.0)),
        "process.cpu_per_wall": _ratio(get("process.cpu_s", 0.0), get("process.wall_s", 0.0)),
        "trace.unobserved": float(len(unobserved)),
        **measured,
    }
    return {name: (derived[name] if name in derived else get(name, 0.0), unit) for name, unit in PER_LAYER}
