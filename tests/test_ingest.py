import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvr import ingest
from helpers import raw_from_rows, same_bits, same_csr

FIXED_SEED = settings(derandomize=True, max_examples=6, deadline=None, database=None)


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


# -- the bulk parser of the plain subset against the line loop ----------


def outcome(source):
    """What parse_libsvm makes of a text, a path or a stream: the dataset or the error."""
    try:
        return ingest.parse_libsvm(io.StringIO(source) if isinstance(source, str) else source)
    except (ingest.LibsvmFormatError, ValueError) as err:
        return type(err), str(err)


def loop_outcome(source):
    """The same from the line loop alone; a file goes to it line by line, as a stream."""
    with mock.patch.object(ingest, "_parse_plain", lambda text: None):
        if isinstance(source, Path):
            with open(source, "r") as fh:
                return outcome(fh)
        return outcome(source)


def same_outcome(a, b):
    if isinstance(a, ingest.RawDataset) and isinstance(b, ingest.RawDataset):
        return same_bits(a.labels, b.labels) and same_csr(a.features, b.features)
    return a == b


DIGITS = st.text("0123456789", min_size=1, max_size=7)
# [+-]?(\d+\.?\d*|\.\d+)
NUMBERS = st.builds(
    lambda sign, whole, frac, form: sign + (whole, whole + ".", f"{whole}.{frac}", "." + frac)[form],
    st.sampled_from(["", "+", "-"]),
    DIGITS,
    DIGITS,
    st.integers(0, 3),
)
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def plain_rows(draw):
    """Rows of plain tokens; the first has at least two features."""
    rows = []
    for r in range(draw(st.integers(1, 6))):
        idx = draw(
            st.sets(st.integers(1, 40) | st.integers(1, 10**9 - 1), min_size=2 if r == 0 else 0, max_size=6)
        )
        rows.append([draw(NUMBERS)] + [f"{i}:{draw(NUMBERS)}" for i in sorted(idx)])
    return draw(st.permutations(rows))


def feature_mutation(make):
    """Replace one feature token ``i:v`` of a two-feature row with make(i, v)."""

    def mutate(rows, draw):
        row = next(r for r in rows if len(r) >= 3)
        k = draw(st.integers(1, len(row) - 1))
        i, v = row[k].split(":")
        row[k] = make(i, v)

    return mutate


def label_mutation(label):
    def mutate(rows, draw):
        rows[draw(st.integers(0, len(rows) - 1))][0] = label

    return mutate


def insert_line(line):
    def mutate(rows, draw):
        rows.insert(draw(st.integers(0, len(rows))), line)

    return mutate


def swap_features(rows, draw):
    row = next(r for r in rows if len(r) >= 3)
    row[1], row[2] = row[2], row[1]


def repeat_feature(rows, draw):
    row = next(r for r in rows if len(r) >= 3)
    row.insert(2, row[1])


def no_change(rows, draw):
    pass


# (name, mutation, whether the text stays plain; None where that depends on the draw)
MUTATIONS = [
    ("none", no_change, True),
    ("signed_index", feature_mutation(lambda i, v: f"+{i}:{v}"), False),
    ("negative_index", feature_mutation(lambda i, v: f"-{i}:{v}"), False),
    ("zero_padded_index", feature_mutation(lambda i, v: f"00{i}:{v}"), None),
    ("ten_digit_index", feature_mutation(lambda i, v: f"1234567890:{v}"), False),
    ("zero_index", feature_mutation(lambda i, v: f"0:{v}"), False),
    ("dotted_index", feature_mutation(lambda i, v: f"{i}.0:{v}"), False),
    ("sixteen_digit_value", feature_mutation(lambda i, v: f"{i}:1234567890123456"), False),
    ("fifteen_digit_value", feature_mutation(lambda i, v: f"{i}:-12345678901234.5"), True),
    ("lone_dot", feature_mutation(lambda i, v: f"{i}:."), False),
    ("trailing_dot", feature_mutation(lambda i, v: f"{i}:1."), True),
    ("leading_dot", feature_mutation(lambda i, v: f"{i}:.5"), True),
    ("minus_zero", feature_mutation(lambda i, v: f"{i}:-0"), True),
    ("plus_leading_dot", feature_mutation(lambda i, v: f"{i}:+.5"), True),
    ("lone_minus", feature_mutation(lambda i, v: f"{i}:-"), False),
    ("exponent", feature_mutation(lambda i, v: f"{i}:1e5"), False),
    ("two_dots", feature_mutation(lambda i, v: f"{i}:1.2.3"), False),
    ("two_signs", feature_mutation(lambda i, v: f"{i}:+-1"), False),
    ("two_colons", feature_mutation(lambda i, v: f"{i}:{v}:{v}"), False),
    ("empty_value", feature_mutation(lambda i, v: f"{i}:"), False),
    ("empty_index", feature_mutation(lambda i, v: f":{v}"), False),
    ("no_colon", feature_mutation(lambda i, v: f"{i}"), False),
    ("nan_value", feature_mutation(lambda i, v: f"{i}:nan"), False),
    ("comment_in_token", feature_mutation(lambda i, v: f"{i}:{v}#note"), False),
    ("arabic_digit", feature_mutation(lambda i, v: f"{i}:\u0661"), False),
    ("nbsp_separator", feature_mutation(lambda i, v: f"{i}:{v}\u00a0{i}5:1"), False),
    ("vertical_tab", feature_mutation(lambda i, v: f"{i}:{v}\x0b"), False),
    ("label_trailing_dot", label_mutation("1."), True),
    ("label_leading_dot", label_mutation(".5"), True),
    ("label_minus_zero", label_mutation("-0"), True),
    ("label_lone_dot", label_mutation("."), False),
    ("label_lone_plus", label_mutation("+"), False),
    ("label_exponent", label_mutation("1e5"), False),
    ("label_sixteen_digits", label_mutation("1234567890123456"), False),
    ("label_with_colon", label_mutation("1:1"), False),
    ("blank_line", insert_line([]), True),
    ("whitespace_line", insert_line(["\t"]), True),
    ("label_only_line", insert_line(["-1"]), True),
    ("comment_line", insert_line(["# comment"]), False),
    ("crlf_line", insert_line(["+1", "1:1", "\r"]), False),
    ("decreasing_indices", swap_features, False),
    ("duplicate_index", repeat_feature, False),
]


@st.composite
def mutated_texts(draw, mutate):
    rows = draw(plain_rows())
    mutate(rows, draw)
    lines = [draw(st.sampled_from(["", " "])) + draw(SEPARATORS).join(row) for row in rows]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@pytest.mark.parametrize("name,mutate,plain", MUTATIONS, ids=[m[0] for m in MUTATIONS])
@FIXED_SEED
@given(data=st.data(), block=st.sampled_from([1 << 17, 1, 16]))
def test_bulk_parser_equals_the_line_loop(name, mutate, plain, data, block):
    text = data.draw(mutated_texts(mutate))
    # tiny blocks put every line, or a few, in its own block
    with mock.patch.object(ingest, "_BULK_BLOCK", block), tempfile.TemporaryDirectory() as tmp:
        if plain is not None:
            assert (ingest._parse_plain(text) is not None) == plain, text
        assert same_outcome(outcome(text), loop_outcome(text)), text
        path = Path(tmp) / "data.libsvm"
        path.write_text(text, encoding="utf-8", newline="")
        assert same_outcome(outcome(path), loop_outcome(path)), text


def test_stream_lines_split_elsewhere_than_newline_go_to_the_loop():
    # with newline="\r" the whole text is one line, and its third token is no feature
    stream = io.TextIOWrapper(io.BytesIO(b"+1 1:1\n-1 2:1\n"), newline="\r")
    with pytest.raises(ingest.LibsvmFormatError, match="line 1, column 8: expected <index>:<value>, got '-1'"):
        ingest.parse_libsvm(stream)


def decimal_tokens(rng, count):
    """Plain numbers: 1 to 15 digits, a dot anywhere or none, any sign."""
    out = []
    for _ in range(count):
        digits = "".join(rng.choice(list("0123456789"), size=int(rng.integers(1, 16))))
        dot = int(rng.integers(-1, len(digits) + 1))
        body = digits if dot < 0 else digits[:dot] + "." + digits[dot:]
        out.append(str(rng.choice(["", "+", "-"])) + body)
    return out


def test_bulk_values_equal_float_bit_for_bit(monkeypatch):
    tokens = decimal_tokens(np.random.default_rng(8), 20_000)
    lines = [
        tokens[r] + "".join(f" {k}:{t}" for k, t in enumerate(tokens[r + 1 : r + 10], start=1))
        for r in range(0, len(tokens), 10)
    ]
    monkeypatch.setattr(ingest, "_parse_lines", None)  # the bulk parser or nothing
    raw = parse("\n".join(lines) + "\n")
    want = np.array([float(t) for t in tokens])
    assert same_bits(raw.labels, want[0::10].copy())
    assert same_bits(raw.features.data, np.delete(want, np.s_[0::10]))


@pytest.mark.parametrize("block", [1 << 16, 200])
def test_mixed_length_decimals_equal_the_line_loop(block):
    # mostly short values with a few long ones, so the leading digit
    # columns are reached by only some of the numbers in a block
    rng = np.random.default_rng(12)
    lines = []
    for _ in range(400):
        idx = np.sort(rng.choice(300, size=int(rng.integers(1, 12)), replace=False)) + 1
        places = np.where(rng.random(idx.size) < 0.1, rng.integers(9, 13, idx.size), rng.integers(0, 3, idx.size))
        vals = [f"{v:.{p}f}" for v, p in zip(rng.normal(scale=50.0, size=idx.size), places)]
        lines.append(f"{rng.choice(['+1', '-1', '0.5'])} " + " ".join(f"{i}:{v}" for i, v in zip(idx, vals)))
    text = "\n".join(lines) + "\n"
    with mock.patch.object(ingest, "_BULK_BLOCK", block):
        assert ingest._parse_plain(text) is not None
        assert same_outcome(outcome(text), loop_outcome(text))


def a9a_shaped_text(rows=2000, d=123, seed=0):
    rng = np.random.default_rng(seed)
    feats = [np.flatnonzero(rng.random(d) < 0.11) for _ in range(rows)]
    feats[0] = np.append(feats[0][feats[0] < d - 1], d - 1)
    labels = np.where(rng.random(rows) < 0.24, 1.0, -1.0)
    lines = [
        ("+1 " if y > 0 else "-1 ") + " ".join(f"{j + 1}:1" for j in f) for y, f in zip(labels, feats)
    ]
    expect = raw_from_rows([(f, np.ones(len(f))) for f in feats], labels, d)
    return "\n".join(lines) + "\n", expect


def test_a9a_shaped_text_takes_the_bulk_path(monkeypatch):
    text, expect = a9a_shaped_text()

    def no_loop(lines):
        raise AssertionError("the line loop ran")

    monkeypatch.setattr(ingest, "_parse_lines", no_loop)
    raw = parse(text)
    assert same_bits(raw.labels, expect.labels)
    assert same_csr(raw.features, expect.features)


def test_text_with_a_comment_parses_through_the_loop(monkeypatch):
    text, expect = a9a_shaped_text(rows=50)
    calls = []
    loop = ingest._parse_lines

    def spy(lines):
        calls.append(len(lines))
        return loop(lines)

    monkeypatch.setattr(ingest, "_parse_lines", spy)
    raw = parse("# generated\n" + text)
    assert calls == [51]
    assert same_bits(raw.labels, expect.labels)
    assert same_csr(raw.features, expect.features)
