r"""LIBSVM-format parsing, label normalization, and sample partitioning.

Grammar per data line: ``<label> <idx>:<val> <idx>:<val> ...`` with
strictly increasing 1-based indices; ``#`` starts a comment that runs to
the end of the line. Rows are parsed straight into one CSR matrix whose
columns are the 0-based feature indices.

A line loop defines the format, and its messages name the line and
column of the first bad token. Most files stay inside a *plain* subset,
which a bulk parser reads in a few numpy passes over the bytes instead:

- bytes are digits, ``+ - . :``, space, tab and ``\n``;
- each line is ``label (idx:val)*``, or blank;
- an index has 1 to 9 digits, no sign and no dot, and indices increase
  strictly within a row;
- a label or value matches ``[+-]?(\d+\.?\d*|\.\d+)`` with at most 15
  digits, so it is ``±mantissa / 10**frac`` with both terms exact
  doubles, and that one division rounds it as ``float()`` does.

If any line of the text leaves the subset, the bulk parser gives up and
the loop parses the whole text. Whenever the bulk parser returns, its
labels, row pointers, columns, values, shape and dtypes equal the
loop's bit for bit.
"""

from __future__ import annotations

import logging
import re
from array import array
from dataclasses import dataclass
from itertools import islice
from math import isfinite
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, NoReturn

import numpy as np

from .rng import PURPOSE_PARTITION, derived_generator

if TYPE_CHECKING:
    import scipy.sparse as sp

log = logging.getLogger(__name__)

PARTITION_SCHEMES = ("contiguous", "round_robin", "shuffled")

_TOKEN = re.compile(r"\S+")
# feature indices are stored as C ints, the CSR index type
_MAX_INDEX = 2**31 - 1

# Bulk parser of the plain subset. Bytes per block (blocks end at a
# newline, so a block holds whole rows).
_BULK_BLOCK = 1 << 16
_WS, _NL, _DIGIT, _COLON, _SIGN, _DOT = 1, 2, 3, 4, 5, 6
_CLASSES = (
    (b" \t", _WS), (b"\n", _NL), (b"0123456789", _DIGIT), (b":", _COLON), (b"+-", _SIGN), (b".", _DOT)
)
# class of every byte value; 0 for a byte outside the subset
_BYTE_CLASS = bytes(next((cls for chars, cls in _CLASSES if b in chars), 0) for b in range(256))
# digits of a plain label or value, so its integer stays below 10**15 < 2**53
_MAX_DIGITS = 15
# digits of a plain index, so it stays below 2**31 - 1
_MAX_INDEX_DIGITS = 9
_POW10_INT = np.array([10**k for k in range(_MAX_DIGITS + 2)], dtype=np.uint64)
_POW10 = np.array([float(10**k) for k in range(_MAX_DIGITS + 1)])


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
        # read with universal newlines, every line of the text ends at "\n"
        with open(source, "r") as fh:
            text = fh.read()
        parsed = _parse_plain(text) or _parse_lines(text.split("\n"))
    else:
        lines = list(source)
        text = "".join(lines)
        # the loop follows the stream's own line ends; the bulk parser
        # ends lines at "\n", which a stream may not (newline="\r")
        ends_at_newline = len(lines) == text.count("\n") + (not text.endswith("\n"))
        parsed = (ends_at_newline and _parse_plain(text)) or _parse_lines(lines)
    labels, indptr, columns, data = parsed
    if not labels.size:
        raise LibsvmFormatError("line 1, column 1: no data rows found")
    d_seen = int(columns.max()) + 1 if columns.size else 0
    # scipy loads here, on a LIBSVM run's first parse, so the quadratic
    # runs and the theory report start on numpy alone
    import scipy.sparse as sp

    features = sp.csr_matrix(
        (data, columns, indptr), shape=(labels.size, max(d_seen, declared_d or 0))
    )
    return RawDataset(features, labels)


_Parsed = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _parse_lines(lines: Iterable[str]) -> _Parsed:
    """The line loop: labels, int64 row pointers, 0-based C-int columns
    and values of every data line, or a LibsvmFormatError naming the
    first bad token."""
    labels = array("d")
    indices = array("i")
    data = array("d")
    indptr = array("q", [0])
    for line_no, line in enumerate(lines, start=1):
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
        labels.append(label)
        indptr.append(len(indices))

    columns = np.frombuffer(indices, dtype=np.intc)
    columns -= 1
    return (
        np.frombuffer(labels, dtype=float),
        np.frombuffer(indptr, dtype=np.int64),
        columns,
        np.frombuffer(data, dtype=float),
    )


def _parse_plain(text: str) -> _Parsed | None:
    """The plain subset in bulk numpy passes, or None if ``text`` leaves it.

    The ASCII bytes are parsed in blocks of about ``_BULK_BLOCK`` bytes
    that end at a newline, so every block holds whole rows and the
    temporaries stay bounded.
    """
    if not text.isascii():
        return None
    raw = b"\n" + text.encode("ascii") + b"\n"
    classes = raw.translate(_BYTE_CLASS)
    if b"\0" in classes:
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    cls = np.frombuffer(classes, dtype=np.uint8)
    # neighbouring blocks share their boundary newline
    bounds = [0]
    while bounds[-1] < len(raw) - 1:
        bounds.append(raw.find(b"\n", min(bounds[-1] + _BULK_BLOCK, len(raw) - 1)))
    # a parsed text has one feature per colon
    columns = np.empty(classes.count(_COLON), dtype=np.intc)
    data = np.empty(columns.size)
    labels, counts = [], []
    filled = 0
    for lo, hi in zip(bounds, bounds[1:]):
        part = _parse_plain_block(buf[lo : hi + 1], cls[lo : hi + 1])
        if part is None:
            return None
        block_labels, block_counts, block_columns, block_data = part
        columns[filled : filled + block_data.size] = block_columns
        data[filled : filled + block_data.size] = block_data
        filled += block_data.size
        labels.append(block_labels)
        counts.append(block_counts)
    labels, counts = np.concatenate(labels), np.concatenate(counts)
    indptr = np.zeros(labels.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return labels, indptr, columns, data


def _parse_plain_block(a: np.ndarray, cls: np.ndarray) -> tuple[np.ndarray, ...] | None:
    """Labels, per-row feature counts, 0-based columns and values of the
    rows in ``a``, bytes of the subset that start and end with a newline
    and have byte classes ``cls``; None unless every line is plain."""
    ws = cls <= _NL
    edges = np.flatnonzero(ws[1:] != ws[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]  # tokens are [starts, ends)
    is_label = np.zeros(starts.size + 1, dtype=bool)
    is_label[np.searchsorted(starts, np.flatnonzero(cls == _NL))] = True
    is_label = is_label[:-1]  # the first token after each newline
    feature = np.flatnonzero(~is_label)
    # one colon strictly inside every feature token, so none in labels
    colons = np.flatnonzero(cls == _COLON)
    if colons.size != feature.size:
        return None
    feat_starts = starts[feature]
    if not ((feat_starts < colons) & (colons < ends[feature] - 1)).all():
        return None

    # each token holds one number, [num_starts, ends): its label, or the
    # value after its colon; a sign may only lead it, a dot occur once
    num_starts = starts.copy()
    num_starts[feature] = colons + 1
    marks = np.flatnonzero(cls >= _SIGN)
    owner = np.searchsorted(starts, marks, side="right") - 1
    is_sign = cls[marks] == _SIGN
    signs, sign_owner = marks[is_sign], owner[is_sign]
    dots, dot_owner = marks[~is_sign], owner[~is_sign]
    if not (
        (signs == num_starts[sign_owner]).all()
        and (dots >= num_starts[dot_owner]).all()
        and (np.diff(dot_owner) > 0).all()
    ):
        return None
    signed = np.zeros(starts.size, dtype=np.intp)
    signed[sign_owner] = 1
    num_starts += signed
    n_digits = ends - num_starts
    n_digits[dot_owner] -= 1
    index_len = colons - feat_starts
    if not (
        ((1 <= n_digits) & (n_digits <= _MAX_DIGITS)).all()
        and (index_len <= _MAX_INDEX_DIGITS).all()
    ):
        return None

    digits = a - ord("0")
    digits *= digits <= 9  # a dot or a sign reads as the digit 0
    index = _field_integers(digits, colons, index_len).astype(np.int64)
    follows = ~is_label[feature - 1]  # the token before is a feature of the same row
    if not ((index >= 1).all() and (np.diff(index)[follows[1:]] > 0).all()):
        return None
    # read with the dot as a digit 0, a number holds one place too many
    # left of its dot; the mantissa and 10**frac are exact doubles, so
    # one division rounds the decimal correctly, as float() does
    mantissa = _field_integers(digits, ends, ends - num_starts)
    frac = np.zeros(starts.size, dtype=np.intp)  # digits after the dot
    frac[dot_owner] = ends[dot_owner] - dots - 1
    dotted, f = mantissa[dot_owner], frac[dot_owner]
    mantissa[dot_owner] = dotted // _POW10_INT[f + 1] * _POW10_INT[f] + dotted % _POW10_INT[f]
    values = mantissa.astype(np.float64) / _POW10[frac]
    np.negative(values, out=values, where=a[num_starts - signed] == ord("-"))

    counts = np.diff(np.append(np.flatnonzero(is_label), starts.size)) - 1
    return values[is_label], counts, (index - 1).astype(np.intc), values[feature]


def _field_integers(digits: np.ndarray, ends: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The decimal integers whose digit values fill the fields ``[ends -
    lengths, ends)`` of ``digits``.

    One Horner step per digit column. Ordered longest first, the fields
    that reach a column are a prefix, and its step runs over that prefix
    alone. Ordering costs about as much as three steps over every field,
    so it is done only where it skips more digit reads than that, when a
    few long fields would otherwise set the work for all.
    """
    n, top = ends.size, int(lengths.max(initial=0))
    order = None
    if top * n - int(lengths.sum()) > 3 * n:
        order = np.argsort((top - lengths).astype(np.uint8), kind="stable")
        ends, lengths = ends[order], lengths[order]
    acc = np.zeros(n, dtype=np.uint64)
    for k in range(top, 0, -1):
        reach = lengths >= k  # in order, true on a prefix
        live = n if order is None else np.count_nonzero(reach)
        # a field shorter than k reads some other byte, or clips at the
        # block's start, and its digit is masked out
        digit = digits.take(ends[:live] - k, mode="clip")
        digit *= reach[:live]
        acc[:live] *= 10
        acc[:live] += digit
    if order is None:
        return acc
    out = np.empty_like(acc)
    out[order] = acc
    return out


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
    if key not in ((-1.0, 1.0), (0.0, 1.0), (1.0, 2.0)):
        raise ValueError(f"no {{-1,+1}} convention for label values {list(key)}")
    # 1 is the positive class in every supported convention
    log.info("label mapping: %s", {k: 1.0 if k == 1.0 else -1.0 for k in key})
    return RawDataset(raw.features, np.where(raw.labels == 1.0, 1.0, -1.0))


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
        order = derived_generator(seed, 0, PURPOSE_PARTITION).permutation(total).astype(np.int64)
    else:
        raise ValueError(f"unknown partition scheme {scheme!r}, expected one of {PARTITION_SCHEMES}")
    # the first total % n agents take one sample more
    return np.array_split(order, n)


def take_head(raw: RawDataset, max_samples: int) -> RawDataset:
    """Deterministic desk-scale cap: keep the first max_samples rows."""
    if max_samples < 1:
        raise ValueError(f"max_samples must be positive, got {max_samples}")
    if max_samples >= raw.num_rows:
        return raw
    return RawDataset(raw.features[:max_samples], raw.labels[:max_samples])
