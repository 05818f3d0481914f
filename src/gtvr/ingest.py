"""LIBSVM-format parsing, label normalization, and sample partitioning.

Grammar per data line: ``<label> <idx>:<val> <idx>:<val> ...`` with
strictly increasing 1-based indices; ``#`` starts a comment that runs to
the end of the line. Rows are parsed straight into one CSR matrix whose
columns are the 0-based feature indices.
"""

from __future__ import annotations

import logging
import re
from array import array
from dataclasses import dataclass
from itertools import islice
from math import isfinite
from pathlib import Path
from typing import IO, NoReturn

import numpy as np
import scipy.sparse as sp

from .rng import PURPOSE_PARTITION, derived_generator

log = logging.getLogger(__name__)

PARTITION_SCHEMES = ("contiguous", "round_robin", "shuffled")

_TOKEN = re.compile(r"\S+")
# feature indices are stored as C ints, the CSR index type
_MAX_INDEX = 2**31 - 1


class LibsvmFormatError(ValueError):
    """Malformed dataset text; the message names line and column."""


@dataclass
class RawDataset:
    """Parsed rows as one CSR matrix (0-based feature columns) and their labels."""

    features: sp.csr_matrix
    labels: np.ndarray

    @property
    def d(self) -> int:
        return int(self.features.shape[1])

    @property
    def num_rows(self) -> int:
        return int(self.features.shape[0])


def _fail(line_no: int, body: str, k: int, message: str) -> NoReturn:
    """Raise for the k-th whitespace-separated token of ``body``."""
    col = next(islice(_TOKEN.finditer(body), k, None)).start() + 1
    raise LibsvmFormatError(f"line {line_no}, column {col}: {message}")


def parse_libsvm(source: str | Path | IO[str], declared_d: int | None = None) -> RawDataset:
    """Parse LIBSVM text into a RawDataset.

    ``declared_d`` can widen the feature dimension beyond the largest
    index seen; the effective dimension is the max of the two. Blank
    lines and trailing whitespace are tolerated; duplicate or decreasing
    indices are rejected because silently deduplicating them would
    corrupt every gradient computed from the row, and non-finite labels
    and values are rejected because no gradient survives them.
    """
    if declared_d is not None and declared_d < 1:
        raise ValueError(f"declared dimension must be positive, got {declared_d}")
    if declared_d is not None and declared_d > _MAX_INDEX:
        raise ValueError(f"declared dimension {declared_d} exceeds {_MAX_INDEX}")
    if isinstance(source, (str, Path)):
        with open(source, "r") as fh:
            return parse_libsvm(fh, declared_d)

    labels = array("d")
    indices = array("i")
    data = array("d")
    indptr = array("q", [0])
    max_index = 0
    for line_no, line in enumerate(source, start=1):
        body = line.split("#", 1)[0]
        tokens = body.split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            _fail(line_no, body, 0, f"bad label {tokens[0]!r}")
        if not isfinite(label):
            _fail(line_no, body, 0, f"non-finite label {tokens[0]!r}")
        prev = 0
        for k in range(1, len(tokens)):
            idx_str, sep, val_str = tokens[k].partition(":")
            if not sep or not idx_str or not val_str:
                _fail(line_no, body, k, f"expected <index>:<value>, got {tokens[k]!r}")
            try:
                idx = int(idx_str)
            except ValueError:
                _fail(line_no, body, k, f"bad feature index {idx_str!r}")
            if idx < 1:
                _fail(line_no, body, k, f"feature indices are 1-based, got {idx}")
            if idx <= prev:
                _fail(line_no, body, k, f"feature index {idx} not increasing (previous {prev})")
            try:
                val = float(val_str)
            except ValueError:
                _fail(line_no, body, k, f"bad feature value {val_str!r}")
            if not isfinite(val):
                _fail(line_no, body, k, f"non-finite feature value {val_str!r}")
            try:
                indices.append(idx)  # 1-based here, shifted once after the loop
            except OverflowError:
                _fail(line_no, body, k, f"feature index {idx} exceeds {_MAX_INDEX}")
            data.append(val)
            prev = idx
        max_index = max(max_index, prev)
        labels.append(label)
        indptr.append(len(indices))

    if not labels:
        raise LibsvmFormatError("line 1, column 1: no data rows found")
    columns = np.frombuffer(indices, dtype=np.intc)
    columns -= 1
    features = sp.csr_matrix(
        (
            np.frombuffer(data, dtype=float),
            columns,
            np.frombuffer(indptr, dtype=np.int64),
        ),
        shape=(len(labels), max(max_index, declared_d or 0)),
    )
    return RawDataset(features, np.frombuffer(labels, dtype=float))


def serialize_libsvm(raw: RawDataset, sink: str | Path | IO[str]) -> None:
    """Re-emit a dataset in LIBSVM text form (lossless for 64-bit values)."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w") as fh:
            serialize_libsvm(raw, fh)
            return
    indptr = raw.features.indptr.tolist()
    indices = raw.features.indices.tolist()
    data = raw.features.data.tolist()
    for r, label in enumerate(raw.labels.tolist()):
        parts = [f"{label:.17g}"]
        lo, hi = indptr[r], indptr[r + 1]
        parts.extend(f"{i + 1}:{v:.17g}" for i, v in zip(indices[lo:hi], data[lo:hi]))
        sink.write(" ".join(parts) + "\n")


def to_binary_labels(raw: RawDataset) -> RawDataset:
    """Map the two observed label values onto {-1, +1}.

    Supported conventions: {-1, +1} kept, {0, 1} -> {-1, +1}, and the
    covtype-style {1, 2} -> {+1, -1}.
    """
    distinct = np.unique(raw.labels)
    if len(distinct) != 2:
        raise ValueError(
            f"need exactly two distinct label values, found {distinct.tolist()}"
        )
    key = tuple(distinct.tolist())
    mappings = {
        (-1.0, 1.0): {-1.0: -1.0, 1.0: 1.0},
        (0.0, 1.0): {0.0: -1.0, 1.0: 1.0},
        (1.0, 2.0): {1.0: 1.0, 2.0: -1.0},
    }
    if key not in mappings:
        raise ValueError(f"no {{-1,+1}} convention for label values {list(key)}")
    mapping = mappings[key]
    log.info("label mapping: %s", {k: mapping[k] for k in key})
    labels = np.array([mapping[l] for l in raw.labels])
    return RawDataset(raw.features, labels)


def _balanced_sizes(total: int, n: int) -> list[int]:
    base, extra = divmod(total, n)
    return [base + 1] * extra + [base] * (n - extra)


def partition(
    raw: RawDataset,
    n: int,
    scheme: str = "shuffled",
    seed: int = 0,
) -> list[np.ndarray]:
    """Assign every sample to exactly one agent, balanced to within one.

    Returns per-agent row-index arrays. ``shuffled`` applies a seeded
    permutation before the contiguous split and is deterministic for a
    fixed seed.
    """
    total = raw.num_rows
    if n < 1 or n > total:
        raise ValueError(f"cannot split {total} samples across {n} agents")
    if scheme == "contiguous":
        order = np.arange(total, dtype=np.int64)
    elif scheme == "round_robin":
        return [np.arange(i, total, n, dtype=np.int64) for i in range(n)]
    elif scheme == "shuffled":
        order = derived_generator(seed, 0, PURPOSE_PARTITION).permutation(total)
    else:
        raise ValueError(f"unknown partition scheme {scheme!r}, expected one of {PARTITION_SCHEMES}")
    out = []
    start = 0
    for size in _balanced_sizes(total, n):
        out.append(np.asarray(order[start : start + size], dtype=np.int64))
        start += size
    return out


def take_head(raw: RawDataset, max_samples: int) -> RawDataset:
    """Deterministic desk-scale cap: keep the first max_samples rows."""
    if max_samples < 1:
        raise ValueError(f"max_samples must be positive, got {max_samples}")
    if max_samples >= raw.num_rows:
        return raw
    return RawDataset(raw.features[:max_samples], raw.labels[:max_samples])
