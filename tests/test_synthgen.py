import os

import numpy as np
import pytest

from mlc import synthgen
from mlc.errors import IoError
from mlc.io import DATASET_CHUNK_BYTES, quantize, read_ppm
from mlc.synthgen import SynthConfig, census, generate, palette, render

from conftest import manifest_of


class TestConfig:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            SynthConfig(num_images=1, min_concepts=3, max_concepts=2)
        with pytest.raises(ValueError):
            SynthConfig(num_images=1, max_concepts=9, num_classes=6)
        with pytest.raises(ValueError):
            SynthConfig(num_images=1, image_size=(8, 64))
        with pytest.raises(ValueError):
            SynthConfig(num_images=0)

    def test_palette_distinct_and_byte_exact(self):
        colors = palette(12)
        assert len({tuple(c) for c in colors}) == 12
        bytes_ = np.floor(colors * 255.0 + 0.5)
        np.testing.assert_array_equal(bytes_ / 255.0, colors)

    def test_palette_rejects_oversize(self):
        with pytest.raises(ValueError):
            palette(13)


def census_as_before(pixels, num_classes):
    """`census` as it was before the cached class codes: an (H*W, 1) column of
    pixel codes against a fresh row of class codes, summed down; the oracle."""
    def codes(rgb):
        rgb = rgb.astype(np.int32)
        return rgb[..., 0] << 16 | rgb[..., 1] << 8 | rgb[..., 2]

    column = codes(pixels).reshape(-1, 1)
    return (column == codes(quantize(palette(num_classes)))).sum(axis=0)


class TestRender:
    def test_label_count_within_bounds(self):
        cfg = SynthConfig(num_images=10, image_size=(24, 24), seed=5)
        for i in range(10):
            _, labels = render(cfg, i)
            assert 1 <= len(labels) <= 3
            assert all(0 <= j < 6 for j in labels)

    def test_deterministic(self):
        cfg = SynthConfig(num_images=2, image_size=(24, 24), seed=9)
        a, la = render(cfg, 0)
        b, lb = render(cfg, 0)
        np.testing.assert_array_equal(a, b)
        assert la == lb

    @pytest.mark.parametrize("num_classes", [1, 6, 12])
    def test_census_equals_the_frozen_census(self, num_classes):
        cfg = SynthConfig(
            num_images=40, image_size=(24, 40), num_classes=num_classes,
            max_concepts=min(num_classes, 4), seed=num_classes,
        )
        # rendered images, then each one's pixels shuffled with the class
        # colors written over a random quarter, so counts run high too
        rng = np.random.default_rng(num_classes)
        colors = quantize(palette(num_classes))
        for i in range(cfg.num_images):
            image, _ = render(cfg, i)
            painted = rng.permutation(image.reshape(-1, 3))
            at = rng.random(len(painted)) < 0.25
            painted[at] = colors[rng.integers(num_classes, size=int(at.sum()))]
            for pixels in (image, painted.reshape(image.shape)):
                counts, expected = census(pixels, num_classes), census_as_before(pixels, num_classes)
                assert counts.dtype == expected.dtype
                assert counts.tobytes() == expected.tobytes()

    def test_class_colors_are_shared_read_only(self):
        cfg = SynthConfig(num_images=1, image_size=(24, 24), seed=1)
        render(cfg, 0)
        colors, codes = synthgen._class_colors(cfg.num_classes)
        assert not colors.flags.writeable and not codes.flags.writeable
        assert colors.tobytes() == palette(cfg.num_classes).tobytes()
        assert synthgen._class_colors(cfg.num_classes)[0] is colors

    def test_census_matches_labels_both_ways(self):
        cfg = SynthConfig(num_images=30, image_size=(32, 32), seed=3)
        for i in range(30):
            image, labels = render(cfg, i)
            counts = census(image, cfg.num_classes)
            present = tuple(int(j) for j in np.flatnonzero(counts))
            assert present == labels


class TestGenerate:
    def test_writes_files_and_manifest(self, tmp_path):
        cfg = SynthConfig(num_images=10, image_size=(24, 24), seed=1)
        manifest = generate(cfg, tmp_path)
        assert len(manifest) == 10
        assert manifest_of(tmp_path / "manifest.tsv") == manifest
        names = [name for name, _ in manifest.entries] + ["manifest.tsv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)

    @pytest.mark.parametrize("num", [1, 63, 64, 65])
    def test_writes_each_render_in_order(self, tmp_path, num):
        # at the default 64x64, write_dataset draws and writes 64 images a chunk
        assert DATASET_CHUNK_BYTES // (64 * 64 * 3) == 64
        cfg = SynthConfig(num_images=num, seed=11)
        manifest = generate(cfg, tmp_path)
        names = [f"img_{i:05d}.ppm" for i in range(num)]
        assert [name for name, _ in manifest.entries] == names
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names + ["manifest.tsv"])
        for i, (name, labels) in enumerate(manifest.entries):
            pixels, expected = render(cfg, i)
            assert read_ppm((tmp_path / name).read_bytes()).tobytes() == pixels.tobytes()
            assert labels == expected
        assert manifest_of(tmp_path / "manifest.tsv") == manifest

    def test_failed_write_is_io_error_without_temp_files(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(IoError):
            generate(SynthConfig(num_images=2, image_size=(24, 24), seed=1), tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = SynthConfig(num_images=5, image_size=(24, 24), seed=4)
        generate(cfg, tmp_path / "a")
        generate(cfg, tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_decoded_files_pass_census(self, tmp_path):
        cfg = SynthConfig(num_images=8, image_size=(24, 24), seed=2)
        manifest = generate(cfg, tmp_path)
        for name, labels in manifest.entries:
            image = read_ppm((tmp_path / name).read_bytes())
            counts = census(image, cfg.num_classes)
            assert tuple(int(j) for j in np.flatnonzero(counts)) == labels

    def test_class_frequency_roughly_uniform(self):
        # chi-squared over 5000 draws; critical value for df=5 at p=0.001
        cfg = SynthConfig(num_images=5000, image_size=(24, 24), seed=17)
        counts = np.zeros(cfg.num_classes)
        for i in range(cfg.num_images):
            _, labels = render(cfg, i)
            for j in labels:
                counts[j] += 1
        expected = counts.sum() / cfg.num_classes
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 <= 20.515, f"chi2={chi2:.2f}, counts={counts}"
