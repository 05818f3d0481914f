"""Seeded generators for the benchmark's LIBSVM text inputs.

The program under test only ever sees the files written here. The shape
follows the public a9a dataset: row count, feature count, density of
binary features and share of positive labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHUNK_ROWS = 4096  # rows drawn per block, so generation never holds a dense (rows, d) mask


@dataclass(frozen=True)
class Shape:
    rows: int
    d: int
    density: float
    pos_share: float


A9A = Shape(rows=32561, d=123, density=0.11, pos_share=0.24)


@dataclass(frozen=True)
class Generated:
    path: Path
    rows: int
    d: int
    nnz: int


def write_libsvm(shape: Shape, seed: int, path: Path) -> Generated:
    """Write binary-feature LIBSVM text with +1/-1 labels from a planted model.

    Per-feature frequencies are skewed (a few common features, many rare
    ones) with mean ``shape.density``. Every row has at least one feature,
    and row 0 holds feature ``d`` so the parsed dimension is exactly ``d``.
    Labels take the top ``pos_share`` of noisy planted scores.
    """
    rows = shape.rows
    rng = np.random.Generator(np.random.PCG64(seed))
    freq = rng.gamma(0.6, size=shape.d)
    freq = np.minimum(freq * (shape.density / freq.mean()), 0.9)
    w = rng.normal(size=shape.d) / np.sqrt(shape.density * shape.d)
    row_feats: list[np.ndarray] = []
    scores = np.empty(rows)
    for start in range(0, rows, CHUNK_ROWS):
        count = min(CHUNK_ROWS, rows - start)
        mask = rng.random((count, shape.d)) < freq
        empty = ~mask.any(axis=1)
        mask[empty, rng.integers(shape.d, size=int(empty.sum()))] = True
        if start == 0:
            mask[0, shape.d - 1] = True
        scores[start : start + count] = mask @ w + 0.5 * rng.normal(size=count)
        r, c = np.nonzero(mask)
        row_feats.extend(np.split(c, np.cumsum(np.bincount(r, minlength=count))[:-1]))
    threshold = np.quantile(scores, 1.0 - shape.pos_share)
    positive = scores > threshold
    tokens = [f"{j + 1}:1" for j in range(shape.d)]
    lines = [
        ("+1 " if pos else "-1 ") + " ".join([tokens[j] for j in feats])
        for pos, feats in zip(positive.tolist(), row_feats)
    ]
    path.write_text("\n".join(lines) + "\n")
    return Generated(path=path, rows=rows, d=shape.d, nnz=sum(len(f) for f in row_feats))
