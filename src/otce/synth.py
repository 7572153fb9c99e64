"""Seeded synthetic cross-domain cross-task generators.

Source tasks are isotropic unit-variance Gaussian clusters whose
centroids sit on a scaled simplex, so every pair of centroids is exactly
``centroid_separation`` apart. The target task reuses the same sample
geometry pushed through a seeded rigid transform whose magnitude is the
``domain_shift`` knob, with a controllable fraction of labels redrawn
uniformly. Streams come from the counter-based Philox generator, so the
same seed reproduces the same pair bit-for-bit on any platform, and the
underlying geometry is shared across knob levels for a fixed seed
(levels differ only in how much of the corruption is applied).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import FeatureSet, _check_integer, _check_real
from .errors import InfeasibleSeparation
from .fileio import _make_dir, _write_csv, write_feature_file

__all__ = [
    "SyntheticTaskSpec",
    "generate_task_pair",
    "make_cross_matching_toy",
    "write_sweep",
]

# Rotation angle applied per unit of domain shift, radians. The rotation
# scales with the shift so that shift 0 is exactly the identity.
_ROTATION_PER_UNIT = 0.2


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Knobs of one synthetic source/target pair, checked on construction.

    classes: number of classes, an integer >= 2.
    dim: feature dimension, an integer >= 1; generating a pair needs
        at least classes - 1 (InfeasibleSeparation otherwise).
    samples_per_class: samples of each class in each task, an integer >= 1.
    centroid_separation: distance between every two class centroids, a
        finite real number > 0.
    domain_shift: magnitude of the rigid transform from source to
        target, a finite real number >= 0 (0 leaves the geometry as is).
    label_permutation_fraction: share of target labels redrawn
        uniformly, a finite real number in [0, 1].
    seed: Philox seed of every draw, an integer >= 0.

    Real fields take Python or numpy ints and floats, never bools;
    counts and the seed take ints only.
    """

    classes: int = 3
    dim: int = 2
    samples_per_class: int = 20
    centroid_separation: float = 4.0
    domain_shift: float = 0.0
    label_permutation_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integer("classes", self.classes, 2)
        _check_integer("dim", self.dim, 1)
        _check_integer("samples_per_class", self.samples_per_class, 1)
        _check_real("centroid_separation", self.centroid_separation, 0.0, open_low=True)
        _check_real("domain_shift", self.domain_shift, 0.0)
        _check_real("label_permutation_fraction", self.label_permutation_fraction, 0.0, 1.0)
        _check_integer("seed", self.seed, 0)


def simplex_centroids(classes: int, dim: int, separation: float) -> np.ndarray:
    """Centroids with exact pairwise distance ``separation``.

    A regular simplex on ``classes`` vertices needs ``classes - 1``
    dimensions; anything smaller cannot host it and raises rather than
    shrinking the separation. Coordinates come from the Helmert basis
    (the orthonormal complement of the all-ones direction), so the
    construction is deterministic.
    """
    if dim < classes - 1:
        raise InfeasibleSeparation(
            f"{classes} centroids pairwise {separation} apart need "
            f"dimension >= {classes - 1}, got {dim}"
        )
    basis = np.zeros((classes - 1, classes))
    for k in range(1, classes):
        basis[k - 1, :k] = 1.0
        basis[k - 1, k] = -k
        basis[k - 1] /= np.sqrt(k * (k + 1.0))
    coords = (separation / np.sqrt(2.0)) * basis.T
    centroids = np.zeros((classes, dim))
    centroids[:, : classes - 1] = coords
    return centroids


def generate_task_pair(spec: SyntheticTaskSpec) -> tuple[FeatureSet, FeatureSet]:
    """Build a (source, target) pair per the spec, deterministically.

    The target starts as an exact copy of the source samples, then a
    seeded rotation (angle proportional to domain_shift) and a seeded
    translation of norm domain_shift are applied, and the requested
    fraction of target labels is redrawn uniformly over [0, classes).
    With shift 0 and fraction 0 the target equals the source exactly.
    """
    rng = np.random.Generator(np.random.Philox(spec.seed))
    centroids = simplex_centroids(spec.classes, spec.dim, spec.centroid_separation)
    labels = np.repeat(np.arange(spec.classes), spec.samples_per_class)
    n = labels.shape[0]

    # Fixed draw order keeps the geometry identical across knob levels.
    source = centroids[labels] + rng.normal(size=(n, spec.dim))
    plane_u = _unit(rng.normal(size=spec.dim))
    plane_w = rng.normal(size=spec.dim)
    plane_w = _unit(plane_w - (plane_w @ plane_u) * plane_u) if spec.dim > 1 else None
    shift_dir = _unit(rng.normal(size=spec.dim))
    corrupt_order = rng.permutation(n)
    redrawn = rng.integers(0, spec.classes, size=n)

    target = source.copy()
    if spec.domain_shift > 0:
        if plane_w is not None:
            theta = _ROTATION_PER_UNIT * spec.domain_shift
            cu = target @ plane_u
            cw = target @ plane_w
            target = target - np.outer(cu, plane_u) - np.outer(cw, plane_w)
            target += np.outer(np.cos(theta) * cu - np.sin(theta) * cw, plane_u)
            target += np.outer(np.sin(theta) * cu + np.cos(theta) * cw, plane_w)
        target = target + spec.domain_shift * shift_dir

    target_labels = labels.copy()
    corrupted = int(round(spec.label_permutation_fraction * n))
    picked = corrupt_order[:corrupted]
    target_labels[picked] = redrawn[picked]

    tag = f"synth-s{spec.seed}"
    src = FeatureSet(source, labels, spec.classes, name=f"{tag}-source")
    tgt = FeatureSet(target, target_labels, spec.classes, name=f"{tag}-target")
    return src, tgt


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


# -- metric-tie showcase ----------------------------------------------------
#
# Two 2-class planar source configurations against one target, sized so
# that squared-distance-only coupling cannot tell them apart while the
# class-conditional geometry clearly favours B:
#
#   target   class 0: horizontal point pair centred at (-1, 0)
#            class 1: vertical   point pair centred at (+1, 0)
#   source A both classes horizontal pairs, mirrored at (0, +/-0.7)
#   source B class 0 horizontal at (0, +0.7), class 1 vertical at (0, -0.7)
#
# Every target point sits symmetrically between the two source classes,
# so the sample-distance plan splits class mass 50/50 for A and B alike
# and both f-otce values land at -ln 2. A's class clouds are congruent,
# leaving the label distance blind; B's clouds match the target clouds
# shape-for-shape, so the label distance term snaps the joint coupling
# to the class-correct assignment.

_TOY_HALF_GAP = 1.0      # horizontal distance of target cluster centres
_TOY_HEIGHT = 0.7        # vertical distance of source cluster centres
_TOY_SPREAD = 0.95       # half-width of each point pair


def make_cross_matching_toy() -> tuple[FeatureSet, FeatureSet, FeatureSet]:
    """Fixed toy scenario: returns (source_a, source_b, target).

    f_otce ties the two sources within 0.02 while jc_otce at gamma 0.5
    scores source B at least 0.05 above source A.
    """
    b, a, s = _TOY_HALF_GAP, _TOY_HEIGHT, _TOY_SPREAD
    labels = np.array([0, 0, 1, 1])
    target = np.array(
        [[-b - s, 0.0], [-b + s, 0.0], [b, -s], [b, s]]
    )
    source_a = np.array(
        [[-s, a], [s, a], [-s, -a], [s, -a]]
    )
    source_b = np.array(
        [[-s, a], [s, a], [0.0, -a - s], [0.0, -a + s]]
    )
    return (
        FeatureSet(source_a, labels, 2, name="toy-source-a"),
        FeatureSet(source_b, labels, 2, name="toy-source-b"),
        FeatureSet(target, labels, 2, name="toy-target"),
    )


def write_sweep(
    out_dir: str | Path,
    base: SyntheticTaskSpec,
    knob: str,
    levels: list[float],
    seeds: list[int],
) -> Path:
    """Materialize a knob sweep as FTRS files plus a manifest.

    ``knob`` is a SyntheticTaskSpec field name (typically
    ``label_permutation_fraction`` or ``domain_shift``). Writes one
    source/target pair per (level, seed) and a ``manifest.csv`` with
    columns level, seed, path. Returns the manifest path.
    """
    out_dir = _make_dir(out_dir)
    rows = [["level", "seed", "path"]]
    for idx, level in enumerate(levels):
        for seed in seeds:
            spec = replace(base, seed=seed, **{knob: level})
            src, tgt = generate_task_pair(spec)
            for role, featureset in (("source", src), ("target", tgt)):
                path = out_dir / f"level{idx:02d}_seed{seed}_{role}.ftrs"
                write_feature_file(featureset, path)
                rows.append([repr(float(level)), seed, path.name])
    _write_csv(out_dir / "manifest.csv", rows)
    return out_dir / "manifest.csv"
