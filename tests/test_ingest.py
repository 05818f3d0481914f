import io

import numpy as np
import pytest

from gtvr import ingest
from helpers import raw_from_rows, same_bits, same_csr


def parse(text, declared_d=None):
    return ingest.parse_libsvm(io.StringIO(text), declared_d)


def test_basic_line():
    raw = parse("+1 3:1 11:0.5\n")
    assert raw.num_rows == 1
    assert raw.labels[0] == 1.0
    assert raw.features.indptr.tolist() == [0, 2]
    assert raw.features.indices.tolist() == [2, 10]
    assert raw.features.data.tolist() == [1.0, 0.5]
    assert raw.d == 11


def test_dimension_is_bounded_by_the_c_int_range():
    # the largest index a C int holds is accepted; the error cases for
    # larger indices are in test_error_messages_name_line_and_column
    raw = parse("+1 2147483647:1\n")
    assert raw.d == 2**31 - 1
    assert raw.features.indices.tolist() == [2**31 - 2]
    assert parse("-1 2:1\n", declared_d=2**31 - 1).d == 2**31 - 1
    with pytest.raises(ValueError, match="declared dimension 2147483648 exceeds 2147483647"):
        parse("-1 2:1\n", declared_d=2**31)


def test_declared_dimension_widens():
    assert parse("-1 2:1\n", declared_d=40).d == 40
    assert parse("-1 2:1\n", declared_d=1).d == 2
    wide = parse("-1 2:1\n+1 5:3\n", declared_d=40).features
    assert wide.shape == (2, 40)
    assert same_csr(wide[:, :5], parse("-1 2:1\n+1 5:3\n").features)


def test_label_only_line_is_an_empty_row():
    raw = parse("+1\n-1 2:4\n+1 # no features\n")
    assert raw.labels.tolist() == [1.0, -1.0, 1.0]
    assert raw.features.shape == (3, 2)
    assert raw.features.indptr.tolist() == [0, 0, 1, 1]
    assert raw.features.indices.tolist() == [1]
    assert raw.features.data.tolist() == [4.0]
    only = parse("+1\n")
    assert only.features.shape == (1, 0) and only.features.nnz == 0


def test_parsed_csr_matches_tokens():
    raw = parse("-1 1:0.5 4:-2\n+1\n0 2:1e-300 3:7 5:-0\n")
    expect = np.array([[0.5, 0, 0, -2.0, 0], [0, 0, 0, 0, 0], [0, 1e-300, 7.0, 0, -0.0]])
    assert np.array_equal(raw.features.toarray(), expect)
    assert raw.features.indices.dtype == np.int32 and raw.features.data.dtype == np.float64
    assert raw.features.has_sorted_indices
    assert raw.labels.dtype == np.float64


def test_comments_blanks_and_whitespace():
    raw = parse("# leading comment\n\n+1 1:2.0   # trailing comment\n   \n-1 2:1 \t\n")
    assert raw.num_rows == 2
    assert raw.labels.tolist() == [1.0, -1.0]


def test_error_messages_name_line_and_column():
    with pytest.raises(ingest.LibsvmFormatError, match=r"line 2, column 1: bad label"):
        parse("+1 1:1\nx 1:1\n")
    with pytest.raises(ingest.LibsvmFormatError, match=r"line 1, column 4: bad feature index"):
        parse("+1 a:1\n")
    with pytest.raises(ingest.LibsvmFormatError, match=r"1-based"):
        parse("+1 0:1\n")
    with pytest.raises(ingest.LibsvmFormatError, match=r"not increasing"):
        parse("+1 3:1 2:1\n")
    with pytest.raises(ingest.LibsvmFormatError, match=r"not increasing"):
        parse("+1 3:1 3:2\n")  # duplicate index
    with pytest.raises(ingest.LibsvmFormatError, match=r"bad feature value"):
        parse("+1 3:zz\n")
    with pytest.raises(ingest.LibsvmFormatError, match=r"expected <index>:<value>"):
        parse("+1 3\n")
    # the column points at the offending token, mid-line included
    with pytest.raises(ingest.LibsvmFormatError, match=r"line 1, column 8: bad feature index"):
        parse("+1 2:1 x7:1\n")
    with pytest.raises(ingest.LibsvmFormatError, match=r"expected <index>:<value>"):
        parse("+1 3:\n")
    with pytest.raises(ingest.LibsvmFormatError, match=r"expected <index>:<value>"):
        parse("+1 :5\n")
    # non-finite labels and values (1e400 overflows to inf) name their token
    for text, message in [
        ("+1 3:nan\n", r"line 1, column 4: non-finite feature value 'nan'"),
        ("+1 1:1 3:inf\n", r"line 1, column 8: non-finite feature value 'inf'"),
        ("+1 1:1\n-1 2:-1e400\n", r"line 2, column 4: non-finite feature value '-1e400'"),
        ("nan 1:1\n", r"line 1, column 1: non-finite label 'nan'"),
        ("+1 1:1\n  -inf 1:1\n", r"line 2, column 3: non-finite label '-inf'"),
        ("1e400 1:1\n", r"line 1, column 1: non-finite label '1e400'"),
        # feature indices past the C int range of the CSR columns
        ("+1 3000000000:1\n", r"line 1, column 4: feature index 3000000000 exceeds 2147483647"),
        ("+1 1:1 2147483648:1\n", r"line 1, column 8: feature index 2147483648 exceeds 2147483647"),
        ("+1 1:1\n-1 2:1 99999999999999999999:1\n", r"line 2, column 8: feature index 99999999999999999999 exceeds"),
    ]:
        with pytest.raises(ingest.LibsvmFormatError, match=message):
            parse(text)


@pytest.mark.parametrize("sep", [" ", "\t", "\x0b", "\x1c", "\u00a0", " \t\u00a0 "])
def test_error_columns_under_any_whitespace(sep):
    # every separator str.split() accepts is one the column search accepts too
    text = sep.join(["+1", "2:1", "x7:1"]) + "\n"
    col = len("+1") + len(sep) + len("2:1") + len(sep) + 1
    with pytest.raises(ingest.LibsvmFormatError, match=rf"line 1, column {col}: bad feature index 'x7'"):
        parse(text)
    text = sep + sep.join(["+1", "2:1", "3:nan"]) + "\n"
    col = len(sep) * 3 + len("+1") + len("2:1") + 1
    with pytest.raises(ingest.LibsvmFormatError, match=rf"line 1, column {col}: non-finite feature value"):
        parse(text)
    raw = parse(sep.join(["+1", "2:1", "4:3"]) + "\n")
    assert raw.features.indices.tolist() == [1, 3]


def test_empty_inputs_rejected():
    with pytest.raises(ingest.LibsvmFormatError, match="no data rows"):
        parse("")
    with pytest.raises(ingest.LibsvmFormatError, match="no data rows"):
        parse("# only a comment\n\n")


def random_dataset(seed, rows=60, d=25):
    rng = np.random.default_rng(seed)
    out_rows = []
    labels = rng.choice([-1.0, 1.0], size=rows)
    for _ in range(rows):
        nnz = int(rng.integers(1, 6))
        idx = np.sort(rng.choice(d, size=nnz, replace=False)).astype(np.int32)
        val = rng.normal(size=nnz)
        out_rows.append((idx, val))
    return raw_from_rows(out_rows, labels, d)


def test_serialize_parse_roundtrip():
    raw = random_dataset(5)
    buf = io.StringIO()
    ingest.serialize_libsvm(raw, buf)
    back = ingest.parse_libsvm(io.StringIO(buf.getvalue()), declared_d=raw.d)
    assert back.num_rows == raw.num_rows
    assert back.d == raw.d
    assert same_bits(back.labels, raw.labels)
    assert same_csr(back.features, raw.features)


def test_binary_label_mappings():
    base = random_dataset(2, rows=6)

    keep = ingest.RawDataset(base.features, np.array([-1.0, 1.0, 1.0, -1.0, 1.0, -1.0]))
    assert ingest.to_binary_labels(keep).labels.tolist() == keep.labels.tolist()
    assert ingest.to_binary_labels(keep).features is base.features

    zero_one = ingest.RawDataset(base.features, np.array([0.0, 1.0, 1.0, 0.0, 0.0, 1.0]))
    assert ingest.to_binary_labels(zero_one).labels.tolist() == [-1.0, 1.0, 1.0, -1.0, -1.0, 1.0]

    one_two = ingest.RawDataset(base.features, np.array([1.0, 2.0, 2.0, 1.0, 1.0, 2.0]))
    assert ingest.to_binary_labels(one_two).labels.tolist() == [1.0, -1.0, -1.0, 1.0, 1.0, -1.0]


def test_binary_label_errors():
    base = random_dataset(3, rows=6)
    three = ingest.RawDataset(base.features, np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="exactly two"):
        ingest.to_binary_labels(three)
    exotic = ingest.RawDataset(base.features, np.array([3.0, 7.0, 3.0, 7.0, 3.0, 7.0]))
    with pytest.raises(ValueError, match="convention"):
        ingest.to_binary_labels(exotic)
    single = ingest.RawDataset(base.features, np.ones(6))
    with pytest.raises(ValueError, match="exactly two"):
        ingest.to_binary_labels(single)


def test_contiguous_even_split():
    raw = random_dataset(1, rows=10)
    parts = ingest.partition(raw, 10, "contiguous")
    assert [len(p) for p in parts] == [1] * 10
    assert [int(p[0]) for p in parts] == list(range(10))


@pytest.mark.parametrize("scheme", ingest.PARTITION_SCHEMES)
@pytest.mark.parametrize("rows,n", [(103, 7), (32, 5), (50, 50), (61, 2)])
def test_partition_balance_and_bijection(scheme, rows, n):
    raw = random_dataset(11, rows=rows)
    parts = ingest.partition(raw, n, scheme, seed=3)
    sizes = [len(p) for p in parts]
    assert sum(sizes) == rows
    assert max(sizes) - min(sizes) <= 1
    assert abs(max(sizes) - rows / n) < 1.0 and abs(min(sizes) - rows / n) < 1.0
    assert sorted(np.concatenate(parts).tolist()) == list(range(rows))


def test_shuffled_partition_deterministic():
    raw = random_dataset(4, rows=40)
    a = ingest.partition(raw, 6, "shuffled", seed=9)
    b = ingest.partition(raw, 6, "shuffled", seed=9)
    c = ingest.partition(raw, 6, "shuffled", seed=10)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_partition_rejects_more_agents_than_samples():
    raw = random_dataset(6, rows=4)
    with pytest.raises(ValueError, match="cannot split"):
        ingest.partition(raw, 5, "contiguous")
    with pytest.raises(ValueError, match="unknown partition scheme"):
        ingest.partition(raw, 2, "striped")


def test_take_head_cap():
    raw = random_dataset(7, rows=30)
    capped = ingest.take_head(raw, 12)
    assert capped.num_rows == 12 and capped.d == raw.d
    assert np.array_equal(capped.labels, raw.labels[:12])
    head = raw.features.indptr[12]
    assert same_bits(capped.features.indptr, raw.features.indptr[:13])
    assert same_bits(capped.features.indices, raw.features.indices[:head])
    assert same_bits(capped.features.data, raw.features.data[:head])
    assert ingest.take_head(raw, 100).num_rows == 30
    with pytest.raises(ValueError):
        ingest.take_head(raw, 0)
