"""Seeded benchmark inputs, generated without the library's own generator.

Every input is a class-structured Gaussian cloud drawn from a Philox
stream keyed by (seed, purpose, index), so the same ``--seed`` gives
byte-identical files and a change to ``otce.synth`` or ``otce.fileio``
cannot change what the benchmark feeds the program. Files are written in
the FTRS layout the README documents (little-endian header, i32 labels,
f32 features).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

_FTRS_HEADER = struct.Struct("<4sIQQII")

# Purposes keep the streams of different workloads independent.
STREAM_SCORE = 1
STREAM_ZOO = 2
STREAM_GUIDE = 3


def stream(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, purpose, index])))


def orthogonal_centroids(rng, classes: int, dim: int, separation: float) -> np.ndarray:
    """``classes`` centroids in a random orthonormal frame, pairwise ``separation`` apart."""
    frame, _ = np.linalg.qr(rng.normal(size=(dim, classes)))
    return (separation / np.sqrt(2.0)) * frame.T


def draw_cloud(rng, centroids: np.ndarray, per_class: int, noise: float) -> tuple[np.ndarray, np.ndarray]:
    """``per_class`` samples around each centroid; returns (features, true classes)."""
    classes, dim = centroids.shape
    truth = np.repeat(np.arange(classes), per_class)
    return centroids[truth] + noise * rng.normal(size=(truth.size, dim)), truth


def redraw_labels(rng, truth: np.ndarray, classes: int, fraction: float) -> np.ndarray:
    """Copy of ``truth`` with round(fraction * n) labels redrawn uniformly."""
    labels = truth.copy()
    count = int(round(fraction * truth.size))
    picked = rng.permutation(truth.size)[:count]
    labels[picked] = rng.integers(0, classes, size=count)
    return labels


def class_matched_score(truth: np.ndarray, labels: np.ndarray, classes: int) -> float:
    """-H(labels | truth): the score of a plan that keeps every class together.

    When the clouds are well separated and every class has equal mass on
    both sides, the optimal plan moves each target sample's mass to
    source samples of its true class, so this is the score a correct
    solve reaches up to its entropic blur.
    """
    joint = np.zeros((classes, classes))
    np.add.at(joint, (truth, labels), 1.0 / truth.size)
    row = joint.sum(axis=1, keepdims=True)
    mask = joint > 0
    return float((joint[mask] * np.log((joint / np.where(row > 0, row, 1.0))[mask])).sum())


def write_ftrs(path: Path, features: np.ndarray, labels: np.ndarray, classes: int) -> None:
    n, d = features.shape
    with open(path, "wb") as fh:
        fh.write(_FTRS_HEADER.pack(b"FTRS", 1, n, d, classes, 0))
        fh.write(labels.astype("<i4").tobytes())
        fh.write(features.astype("<f4").tobytes())


def score_pair(seed: int, out: Path) -> dict:
    """score_f / score_jc input: source and target 1000 x 512, 10 classes.

    Unit noise in 512 dimensions puts squared distances near 1e3, the
    scale of the throughput acceptance test; centroids 20 apart keep the
    classes separable. 30% of the target labels are redrawn.
    """
    rng = stream(seed, STREAM_SCORE)
    centroids = orthogonal_centroids(rng, 10, 512, 20.0)
    xs, ys = draw_cloud(rng, centroids, 100, 1.0)
    xt, truth = draw_cloud(rng, centroids, 100, 1.0)
    yt = redraw_labels(rng, truth, 10, 0.3)
    write_ftrs(out / "source.ftrs", xs, ys, 10)
    write_ftrs(out / "target.ftrs", xt, yt, 10)
    return {"reference": class_matched_score(truth, yt, 10), "classes": 10}


ZOO_SOURCES = 8


def source_zoo(seed: int, index: int, out: Path) -> list[str]:
    """rank_cli input: one target and 8 sources, each 500 x 128, 10 classes.

    Source k has a share k/8 of its labels redrawn, so ranking by score
    must list the sources in order of k. The small scale (noise 0.037,
    centroids 0.74 apart) is one where default solves converge in about
    100 iterations. Returns the source names in the expected rank order.
    """
    rng = stream(seed, STREAM_ZOO, index)
    centroids = orthogonal_centroids(rng, 10, 128, 0.74)
    (out / "sources").mkdir(parents=True, exist_ok=True)
    xt, yt = draw_cloud(rng, centroids, 50, 0.037)
    write_ftrs(out / "target.ftrs", xt, yt, 10)
    names = []
    for k in range(ZOO_SOURCES):
        xs, truth = draw_cloud(rng, centroids, 50, 0.037)
        ys = redraw_labels(rng, truth, 10, k / ZOO_SOURCES)
        names.append(f"noise{k}")
        write_ftrs(out / "sources" / f"{names[-1]}.ftrs", xs, ys, 10)
    return names


def guidance_task(seed: int, index: int, out: Path) -> None:
    """optimize input, the recipe of the guidance acceptance test.

    3 classes in 2-d, 20 per class, centroids 4 apart on a triangle; the
    target is the source rotated by 0.4 rad and moved by 2 along a random
    direction, with 30% of its labels redrawn.
    """
    rng = stream(seed, STREAM_GUIDE, index)
    angles = np.pi / 2 + 2 * np.pi * np.arange(3) / 3
    centroids = (4.0 / np.sqrt(3.0)) * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    xs, ys = draw_cloud(rng, centroids, 20, 1.0)
    theta = 0.2 * 2.0
    rotation = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    direction = rng.normal(size=2)
    xt = xs @ rotation.T + 2.0 * direction / np.linalg.norm(direction)
    yt = redraw_labels(rng, ys, 3, 0.3)
    write_ftrs(out / "source.ftrs", xs, ys, 3)
    write_ftrs(out / "target.ftrs", xt, yt, 3)
