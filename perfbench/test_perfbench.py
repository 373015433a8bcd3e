"""Tests for the benchmark's own helpers: `python3 -m pytest perfbench -q` from the repo root."""

from __future__ import annotations

import json
import statistics
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import reference  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def span(sid, parent, start, end, name="f", phase="p", rep=0):
    return tr.Span(sid, parent, name, phase, rep, start, end)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(2, 1, 2.0, 3.0, "grandchild"),
        span(1, 0, 1.0, 4.0, "child"),
        span(3, 0, 5.0, 7.0, "child"),
        span(0, -1, 0.0, 10.0, "root"),
    ]
    own = tr.self_times(spans)
    assert own == pytest.approx({0: 10.0 - 3.0 - 2.0, 1: 3.0 - 1.0, 2: 1.0, 3: 2.0})


def test_tracer_nests_spans_from_a_clock():
    ticks = iter(range(100))
    t = tr.Tracer(clock=lambda: float(next(ticks)))
    t.active = True
    with t.span("outer"):  # opens at 0
        with t.span("inner"):  # 1 .. 2
            pass
        with t.span("inner"):  # 3 .. 4
            pass
    # outer closes at 5
    totals = tr.one_pass(t.spans, t.counts)
    assert totals["outer.wall_s"] == 5.0
    assert totals["outer.self_s"] == 3.0
    assert totals["inner.self_s"] == 2.0
    assert totals["inner.calls"] == 2
    assert [s.parent for s in t.spans] == [0, 0, -1]


def test_inactive_tracer_records_nothing():
    t = tr.Tracer()
    with t.span("x"):
        t.add("k", 1.0)
    assert t.spans == [] and not t.counts


def test_one_pass_takes_median_per_phase_and_adds_phases():
    spans = [
        span(0, -1, 0.0, 1.0, "f", "setup", 0),
        span(1, -1, 0.0, 3.0, "f", "setup", 1),
        span(2, -1, 0.0, 2.0, "f", "setup", 2),
        span(3, -1, 0.0, 10.0, "f", "timed", 1),
        span(4, -1, 0.0, 20.0, "f", "timed", 3),
    ]
    counts = {("timed", 1, "f.rows"): 4.0, ("timed", 3, "f.rows"): 4.0}
    totals = tr.one_pass(spans, counts)
    assert totals["f.self_s"] == 2.0 + 15.0
    assert totals["f.calls"] == 1 + 1
    assert totals["f.rows"] == 4.0


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, med, q3 = tr.quartiles(values)
    assert (q1, med, q3) == tuple(statistics.quantiles(values, n=4))
    assert med == statistics.median(values)
    assert tr.relative_spread(values) == pytest.approx((q3 - q1) / med)
    assert tr.quartiles([2.5]) == (2.5, 2.5, 2.5)


# -- install / restore ----------------------------------------------------------


def _snapshot(objects):
    return [(obj, dict(vars(obj))) for obj in objects]


def _assert_identical(before):
    for obj, attrs in before:
        now = dict(vars(obj))
        assert now.keys() == attrs.keys()
        for key, value in attrs.items():
            assert now[key] is value, f"{obj}.{key} was not restored"


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    defining = types.ModuleType("fakepkg.core")
    importing = types.ModuleType("fakepkg.user")

    def work(x):
        return helper(x) + 1

    def helper(x):
        return 2 * x

    class Box:
        def __post_init__(self):
            return None

    defining.work, defining.helper, defining.Box = work, helper, Box
    importing.work = work  # as after `from .core import work`
    pkg.core, pkg.user = defining, importing
    for name, module in (("fakepkg", pkg), ("fakepkg.core", defining), ("fakepkg.user", importing)):
        monkeypatch.setitem(sys.modules, name, module)
    return pkg


def test_install_patches_every_alias_and_restore_leaves_attributes_identical(fake_package):
    core, user = fake_package.core, fake_package.user
    targets = [
        tr.Target("fakepkg.core", "work", "core.work", lambda a, r: {"units": a[0]}),
        tr.Target("fakepkg.core", "Box.__post_init__", "core.box_validate"),
        tr.Target("fakepkg.core", "gone", "core.gone"),
    ]
    before = _snapshot([fake_package, core, user, core.Box])
    t = tr.Tracer()
    with t.installed(targets, package="fakepkg"):
        assert user.work is core.work and user.work.__wrapped__ is not None
        user.work(3)
        core.work(4)
        core.Box().__post_init__()
    _assert_identical(before)
    totals = tr.one_pass(t.spans, t.counts)
    assert totals["core.work.calls"] == 2
    assert totals["core.work.units"] == 7
    assert totals["core.box_validate.calls"] == 1
    assert t.unobserved == ["core.gone"]


def test_restore_happens_when_the_traced_code_raises(fake_package):
    before = _snapshot([fake_package.core, fake_package.user])
    t = tr.Tracer()
    with pytest.raises(RuntimeError):
        with t.installed([tr.Target("fakepkg.core", "work", "core.work")], package="fakepkg"):
            raise RuntimeError("boom")
    _assert_identical(before)


def test_failing_measure_does_not_change_the_result(fake_package):
    t = tr.Tracer()
    target = tr.Target("fakepkg.core", "work", "core.work", lambda a, r: {"x": a[5]})
    with t.installed([target], package="fakepkg"):
        assert fake_package.user.work(1) == 3
    assert tr.one_pass(t.spans, t.counts)["core.work.unmeasured"] == 1


def test_real_mlc_targets_resolve_and_restore():
    import mlc.cli  # noqa: F401 - loads every module the targets live in
    from mlc.io import read_ppm, write_ppm
    from mlc.types import Image

    modules = [m for name, m in sys.modules.items() if name == "mlc" or name.startswith("mlc.")]
    classes = [mlc.types.Image, mlc.types.LabelVector, mlc.model.ModelParams]
    before = _snapshot(modules + classes)
    t = tr.Tracer()
    with t.installed(layers.targets(mlc)):
        blob = mlc.io.write_ppm(Image(np.full((4, 5, 3), 0.5)))
        mlc.trainer.read_ppm(blob)
    _assert_identical(before)
    assert read_ppm is mlc.io.read_ppm and write_ppm is mlc.io.write_ppm
    assert t.unobserved == []
    totals = tr.one_pass(t.spans, t.counts)
    assert totals["io.read_ppm.calls"] == 1 and totals["io.write_ppm.calls"] == 1
    assert totals["io.read_ppm.mb"] == len(blob) / 1e6
    assert totals["types.image_validate.calls"] == 2


# -- reference calibration -----------------------------------------------------


def test_calibrated_walls_scale_by_the_mean_reference_on_either_side():
    commands = [(0.2, 1.0), (0.4, 3.0), (0.2, 0.5)]
    nominal = reference.REF_NOMINAL_S
    expected = [1.0 * nominal / 0.3, 3.0 * nominal / 0.3, 0.5 * nominal / 0.25]
    assert reference.calibrated_walls(commands, 0.3) == pytest.approx(expected)


def test_reference_process_times_passes_and_ends_on_close():
    with reference.ReferenceProcess() as ref:
        assert ref.time_pass() > 0.0
    assert ref.child.poll() == 0


def test_a_uniformly_slower_host_leaves_calibrated_walls_unchanged():
    commands = [(0.25, 1.5), (0.3, 2.0)]
    slow = [(2.0 * ref, 2.0 * wall) for ref, wall in commands]
    assert reference.calibrated_walls(slow, 0.6) == pytest.approx(reference.calibrated_walls(commands, 0.3))


# -- benchmark definition and checks ------------------------------------------


def test_benchmark_json_lists_exactly_the_metrics_the_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    assert per_layer == set(layers.PER_LAYER)
    measured = {"trace.overhead_frac": 0.1, "process.wall_items_per_s": 2.0, "process.ref_pass_s": 0.3}
    reported = layers.per_layer_metrics({}, [], measured)
    assert set(reported) == {name for name, _ in layers.PER_LAYER}
    assert all(reported[name][0] == value for name, value in measured.items())
    gated = [w["name"] for w in spec["workloads"]]
    assert len(gated) >= 2 and set(gated) <= set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "items_per_s", "map", "peak_rss_mb"}


def test_independent_map_agrees_with_mlc():
    from mlc.metrics import mean_ap

    rng = np.random.default_rng(7)
    labels = (rng.random((60, 5)) < 0.3).astype(np.int8)
    labels[0] = 1
    scores = np.round(rng.normal(size=labels.shape) + labels, 1)  # rounding makes ties
    assert workloads.mean_average_precision(scores, labels) == pytest.approx(mean_ap(scores, labels)[0], abs=1e-12)


def test_labels_csv_from_manifest(tmp_path):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("#classes=4\na.ppm\t0 3\nb.ppm\t2\n", encoding="ascii")
    assert workloads.labels_csv(manifest) == "1,0,0,1\n0,0,1,0\n"
