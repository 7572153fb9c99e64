import math
import os

import numpy as np
import pytest

from otce import (
    MetricConfig,
    SinkhornConfig,
    SyntheticTaskSpec,
    f_otce,
    generate_task_pair,
    jc_otce,
    make_cross_matching_toy,
    read_feature_file,
    write_sweep,
)
from otce.errors import InfeasibleSeparation, IoFailure
from otce.synth import simplex_centroids


class TestSimplexCentroids:
    @pytest.mark.parametrize("classes,dim", [(2, 1), (2, 2), (3, 2), (4, 3), (5, 8)])
    def test_exact_pairwise_separation(self, classes, dim):
        sep = 3.7
        centroids = simplex_centroids(classes, dim, sep)
        for a in range(classes):
            for b in range(a + 1, classes):
                got = np.linalg.norm(centroids[a] - centroids[b])
                assert got == pytest.approx(sep, abs=1e-12)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleSeparation):
            simplex_centroids(4, 2, 1.0)

    def test_spec_level_infeasibility(self):
        with pytest.raises(InfeasibleSeparation):
            generate_task_pair(SyntheticTaskSpec(classes=5, dim=2, seed=0))


class TestGenerateTaskPair:
    def test_same_seed_bit_identical(self):
        spec = SyntheticTaskSpec(seed=99, domain_shift=1.5, label_permutation_fraction=0.4)
        a_src, a_tgt = generate_task_pair(spec)
        b_src, b_tgt = generate_task_pair(spec)
        assert np.array_equal(a_src.features, b_src.features)
        assert np.array_equal(a_tgt.features, b_tgt.features)
        assert np.array_equal(a_tgt.labels, b_tgt.labels)

    def test_different_seed_differs(self):
        a_src, _ = generate_task_pair(SyntheticTaskSpec(seed=1))
        b_src, _ = generate_task_pair(SyntheticTaskSpec(seed=2))
        assert not np.array_equal(a_src.features, b_src.features)

    def test_no_shift_no_noise_is_exact_copy(self):
        spec = SyntheticTaskSpec(seed=7)
        src, tgt = generate_task_pair(spec)
        assert np.array_equal(src.features, tgt.features)
        assert np.array_equal(src.labels, tgt.labels)
        sharp = MetricConfig(sinkhorn=SinkhornConfig(lam=1e-3, max_iterations=5000))
        assert abs(f_otce(src, tgt, sharp).value) <= 1e-3

    def test_shift_is_rigid(self):
        base = SyntheticTaskSpec(seed=11)
        shifted = SyntheticTaskSpec(seed=11, domain_shift=2.0)
        src, tgt = generate_task_pair(shifted)
        assert np.array_equal(src.features, generate_task_pair(base)[0].features)
        # rigid transform preserves all pairwise distances
        def pdists(x):
            return np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
        assert np.abs(pdists(src.features) - pdists(tgt.features)).max() < 1e-9
        assert not np.array_equal(src.features, tgt.features)

    def test_full_label_noise_approaches_independence(self):
        values = []
        for seed in range(3):
            spec = SyntheticTaskSpec(
                classes=2, samples_per_class=100, seed=seed,
                label_permutation_fraction=1.0,
            )
            src, tgt = generate_task_pair(spec)
            values.append(f_otce(src, tgt).value)
        assert abs(np.mean(values) - (-math.log(2))) < 0.08

    def test_geometry_shared_across_noise_levels(self):
        lo = SyntheticTaskSpec(seed=5, label_permutation_fraction=0.2)
        hi = SyntheticTaskSpec(seed=5, label_permutation_fraction=0.8)
        src_lo, tgt_lo = generate_task_pair(lo)
        src_hi, tgt_hi = generate_task_pair(hi)
        assert np.array_equal(src_lo.features, src_hi.features)
        assert np.array_equal(tgt_lo.features, tgt_hi.features)
        # corruption is nested: any index visibly redrawn at 0.2 was also
        # redrawn (to the same value) at 0.8
        redrawn_lo = tgt_lo.labels != src_lo.labels
        assert np.array_equal(tgt_hi.labels[redrawn_lo], tgt_lo.labels[redrawn_lo])

    def test_generated_sets_validate(self):
        spec = SyntheticTaskSpec(classes=4, dim=6, samples_per_class=3, seed=2,
                                 domain_shift=0.5, label_permutation_fraction=0.5)
        src, tgt = generate_task_pair(spec)
        assert src.present_classes.size >= 1
        assert tgt.features.flags.writeable is False

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticTaskSpec(classes=1)
        with pytest.raises(ValueError):
            SyntheticTaskSpec(label_permutation_fraction=1.2)
        with pytest.raises(ValueError):
            SyntheticTaskSpec(centroid_separation=0.0)

    @pytest.mark.parametrize("name", ["classes", "dim", "samples_per_class", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SyntheticTaskSpec(**{name: value})

    def test_numpy_int_counts(self):
        plain = SyntheticTaskSpec(classes=3, dim=2, samples_per_class=4, seed=5)
        numpy_ints = SyntheticTaskSpec(
            classes=np.int64(3), dim=np.int32(2), samples_per_class=np.int64(4), seed=np.int64(5)
        )
        got, want = generate_task_pair(numpy_ints)[1], generate_task_pair(plain)[1]
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.labels, want.labels)


class TestCrossMatchingToy:
    def test_sample_distance_metric_ties(self):
        source_a, source_b, target = make_cross_matching_toy()
        fa = f_otce(source_a, target).value
        fb = f_otce(source_b, target).value
        assert abs(fa - fb) < 0.02

    def test_label_distance_breaks_the_tie(self):
        source_a, source_b, target = make_cross_matching_toy()
        ja = jc_otce(source_a, target).value
        jb = jc_otce(source_b, target).value
        assert jb - ja > 0.05

    def test_scores_in_range(self):
        source_a, source_b, target = make_cross_matching_toy()
        for src in (source_a, source_b):
            for metric in (f_otce, jc_otce):
                value = metric(src, target).value
                assert -math.log(2) - 1e-9 <= value <= 0.0


class TestWriteSweep:
    def test_manifest_and_files(self, tmp_path):
        manifest = write_sweep(
            tmp_path / "sweep",
            SyntheticTaskSpec(samples_per_class=3, seed=0),
            "label_permutation_fraction",
            levels=[0.0, 0.5],
            seeds=[0, 1],
        )
        lines = manifest.read_text().splitlines()
        assert lines[0] == "level,seed,path"
        assert len(lines) == 1 + 2 * 2 * 2  # levels x seeds x (source, target)
        for line in lines[1:]:
            _, _, name = line.split(",")
            fs = read_feature_file(manifest.parent / name)
            assert fs.n == 9

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_manifest_write_failure_is_io_failure(self, tmp_path):
        # Writes to /dev/full fail with ENOSPC, here when the manifest is closed.
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "manifest.csv").symlink_to("/dev/full")
        with pytest.raises(IoFailure, match="manifest.csv"):
            write_sweep(out, SyntheticTaskSpec(samples_per_class=3), "domain_shift", [0.0], [0])
