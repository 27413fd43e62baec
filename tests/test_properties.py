"""Property tests: the file loaders fail only with their documented error
types, the numpy counts reader agrees with the JSON one, and EM keeps its
invariants on arbitrary small data."""

import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qem_mix import shotdata
from qem_mix.emcore import EmConfig, load_model, run_em
from qem_mix.errors import DegenerateModelError, QemError
from qem_mix.harness import load_sweep_config
from qem_mix.shotdata import BitString, ShotDataset, load_counts, load_shots_text, save_counts
from qem_mix.synth import load_ground_truth

from conftest import reference_save_counts

LOADERS = [load_counts, load_shots_text, load_model, load_ground_truth, load_sweep_config]

# a fixed alphabet: the default one costs seconds of Unicode table set-up
texts = st.text(alphabet="01 b_+x.\u00e9\u2028\x00", max_size=8)
scalars = st.none() | st.booleans() | st.integers() | st.floats() | texts
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=12,
)
bit_texts = st.text(alphabet="01", min_size=1, max_size=6)
fields = scalars | st.lists(scalars | bit_texts, max_size=3) | json_values
# documents shaped like each file format, with arbitrary values, so the
# field readers are reached and not only the top-level checks
documents = st.one_of(
    json_values,
    st.dictionaries(texts, fields, max_size=4),
    st.fixed_dictionaries({
        "solutions": st.lists(bit_texts, max_size=3) | fields,
        "alpha": fields, "weights": fields, "eps": fields, "p": fields,
    }),
    st.fixed_dictionaries({
        "n_values": fields, "k_values": fields, "s_values": fields,
        "noise": st.lists(st.dictionaries(st.sampled_from(["p", "eps_low", "eps_high"]),
                                          fields), max_size=2) | fields,
    }, optional={"repeats": fields, "subsample_points": fields,
                 "filter": fields, "em": fields}),
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "input"


def _load_all(path):
    for loader in LOADERS:
        try:
            loader(path)
        except (QemError, OSError):
            pass


@settings(max_examples=60)
@given(body=st.binary(max_size=64))
def test_loaders_on_arbitrary_bytes(scratch, body):
    scratch.write_bytes(body)
    _load_all(scratch)


@settings(max_examples=150)
@given(doc=documents)
def test_loaders_on_arbitrary_json(scratch, doc):
    scratch.write_text(json.dumps(doc))
    _load_all(scratch)


def _counts_file(entries, end=b"}\n") -> bytes:
    return b"{" + b",".join(b'"%s":%s' % (k.encode(), c.encode()) for k, c in entries) + end


def _load_outcome(path, fast: bool):
    """``load_counts``'s dataset, or its error's type, text and exit code,
    with the numpy reader on or skipped."""
    reader = shotdata._read_canonical_counts if fast else (lambda path: None)
    with mock.patch.object(shotdata, "_read_canonical_counts", reader):
        try:
            return load_counts(path)
        except QemError as exc:
            return type(exc), str(exc), exc.exit_code


def _assert_readers_agree(path, body):
    path.write_bytes(body)
    assert _load_outcome(path, fast=True) == _load_outcome(path, fast=False)


MAX_18 = "9" * 18
# count spellings the numpy reader must leave to the JSON one
bad_counts = st.one_of(
    st.integers(0, 10**16).map(lambda c: "0" + str(c)),
    st.integers(10**18, 10**19 - 1).map(str),
    st.sampled_from(["0", "true", "1.0", "1e3", "-1", '"1"']),
)
# byte strings spliced into a canonical file
splices = st.sampled_from([b" ", b"\n", b"\t", b"\\u0030", b'"', b",", b":", b"0",
                           b"\xff", b"\xc3\x28", b"\xe2\x80\xa8"])


EDITS = ["none", "count", "duplicate", "width", "no-newline", "splice", "delete", "replace"]


@st.composite
def near_canonical_files(draw, edit):
    """A canonical counts file with one deviation of the kind ``edit``."""
    n = draw(st.sampled_from([1, 2, 5, 20, 63, 64, 65, 128]))
    size = draw(st.integers(1, 12))
    keys = [draw(st.text("01", min_size=n, max_size=n)) for _ in range(size)]
    if draw(st.booleans()):  # all of the widest canonical count: the sum may pass 2**63
        counts = [MAX_18] * size
    else:
        counts = [str(draw(st.integers(1, 10**18 - 1))) for _ in range(size)]
    entries = list(zip(keys, counts))
    at = draw(st.integers(0, size - 1))
    if edit == "count":
        entries[at] = (keys[at], draw(bad_counts))
    elif edit == "duplicate":
        entries.insert(draw(st.integers(0, size)), (keys[at], "7"))
    elif edit == "width":
        entries[at] = ("1" * draw(st.sampled_from([n - 1, n + 1]).filter(bool)), counts[at])
    body = _counts_file(entries, b"}" if edit == "no-newline" else b"}\n")
    at = draw(st.integers(0, len(body) - 1))
    if edit == "splice":
        body = body[:at] + draw(splices) + body[at:]
    elif edit == "delete":
        body = body[:at] + body[at + 1:]
    elif edit == "replace":
        body = body[:at] + draw(splices) + body[at + 1:]
    return body


# files whose deviation shows only across two records, each with the byte
# offset just past the first of them, where a block edge can part them
EDGE_FILES = {
    "descending-at-edge": (_counts_file([("0011", "5"), ("0110", "2"), ("0101", "1")]), 19),
    "repeated-at-edge": (_counts_file([("0011", "5"), ("0110", "2"), ("0110", "9")]), 19),
    "sum-past-2**63-at-edge": (_counts_file([(format(i, "04b"), MAX_18) for i in range(10)]), 131),
}


NAMED_FILES = {
    "canonical": _counts_file([("0011", "5"), ("0110", "12"), ("1111", "1")]),
    "unsorted": _counts_file([("1111", "1"), ("0011", "5")]),
    "space": b'{"0011": 5}\n',
    "escape": b'{"\\u0030011":5}\n',
    "duplicate": _counts_file([("0011", "5"), ("0110", "2"), ("0011", "9")]),
    "leading-zero": _counts_file([("0011", "05")]),
    "zero": _counts_file([("0011", "0")]),
    "18-digits": _counts_file([("0011", MAX_18)]),
    "19-digits": _counts_file([("0011", "1" + "0" * 18)]),
    "true": _counts_file([("0011", "true")]),
    "float": _counts_file([("0011", "1.0")]),
    "exponent": _counts_file([("0011", "1e3")]),
    "no-newline": _counts_file([("0011", "5")], end=b"}"),
    "mixed-widths": _counts_file([("0011", "5"), ("011", "5")]),
    "digit-in-key": _counts_file([("0011", "5"), ("0120", "2")]),
    **{f"width-{n}": _counts_file([(("01" * n)[:n], "3"), ("1" * n, "4")])
       for n in (63, 64, 65, 128)},
    "sum-past-2**63": _counts_file([(format(i, "04b"), MAX_18) for i in range(10)]),
    "not-utf8": b'{"0011":5,"0\xff11":5}\n',
    "empty": b"{}\n",
    "no-bytes": b"",
    "colon-for-comma": b'{"0011":5:"0110":2,"1111":1}\n',
    "space-for-comma": b'{"0011":5,"0110":2 "1111":1}\n',
    **{name: body for name, (body, _) in EDGE_FILES.items()},
}


@pytest.mark.parametrize("body", NAMED_FILES.values(), ids=NAMED_FILES)
def test_counts_readers_agree_on_named_files(scratch, body):
    _assert_readers_agree(scratch, body)


@pytest.mark.parametrize("edit", EDITS)
@settings(max_examples=50)
@given(data=st.data())
def test_counts_readers_agree(scratch, edit, data):
    _assert_readers_agree(scratch, data.draw(near_canonical_files(edit)))


@settings(max_examples=100)
@given(data=st.data(), block=st.sampled_from([1, 2, 7, 64, 65, 200]))
def test_canonical_reader_ignores_block_size(scratch, data, block):
    """The numpy reader gives the same dataset, or None, when its blocks
    end inside a key, a count or a separator, or hold one record."""
    named = st.sampled_from(list(NAMED_FILES.values()))
    scratch.write_bytes(data.draw(named | near_canonical_files(data.draw(st.sampled_from(EDITS)))))
    with open(scratch, "rb") as fh:
        whole = shotdata._read_canonical_counts(fh)
        with mock.patch.object(shotdata, "_SCAN_BLOCK", block):
            assert shotdata._read_canonical_counts(fh) == whole


@pytest.mark.parametrize("body, edge", EDGE_FILES.values(), ids=EDGE_FILES)
def test_counts_readers_agree_across_a_block_edge(scratch, body, edge):
    """The checks that span records see the whole file when a block ends
    between the two records that break them."""
    assert body[edge - 1:edge + 1] == b',"'
    for block in (edge - 1, edge, edge + 1, 1):
        with mock.patch.object(shotdata, "_SCAN_BLOCK", block):
            _assert_readers_agree(scratch, body)


@st.composite
def count_tables(draw):
    """A dataset of 1 to 130 bits, given as 1 to 300 distinct keys and
    counts whose sum is below 2**63; the widest count has 1 to 19 digits."""
    n = draw(st.integers(1, 130) | st.sampled_from([1, 63, 64, 65, 127, 128, 130]))
    bits = random.Random(draw(st.integers(0, 2**32 - 1)))
    # 19-digit counts need u <= 9
    size = draw(st.integers(1, 9) | st.integers(10, 99) | st.integers(100, 300))
    values = {bits.getrandbits(n) for _ in range(size)}
    values = sorted(values | set(draw(st.sets(st.sampled_from([0, (1 << n) - 1])))))
    u, w = len(values), -(-n // 64)
    widest = min(10 ** draw(st.integers(1, 19) | st.just(19)) - 1, (2**63 - 1) // u)
    counts = [draw(st.integers(1, widest)) for _ in values]
    counts[draw(st.integers(0, u - 1))] = widest
    keys = [[(v >> (64 * (w - 1 - i))) & (2**64 - 1) for i in range(w)] for v in values]
    return ShotDataset._make(n, np.array(keys, dtype=np.uint64), np.array(counts, dtype=np.int64))


@pytest.mark.parametrize("block", [1, 2, 7, shotdata._WRITE_BLOCK])
@settings(max_examples=40)
@given(dataset=count_tables())
def test_save_counts_writes_the_reference_bytes(scratch, block, dataset):
    """The numpy writer gives the f-string writer's bytes at any block size,
    and the file loads back as the same dataset: through the numpy reader
    when every count has at most 18 digits, through the JSON one if not."""
    reference = scratch.with_name("reference.json")
    reference_save_counts(dataset, reference)
    with mock.patch.object(shotdata, "_WRITE_BLOCK", block):
        save_counts(dataset, scratch)
    assert scratch.read_bytes() == reference.read_bytes()
    with open(scratch, "rb") as fh:
        fast = shotdata._read_canonical_counts(fh)
    assert fast == (dataset if dataset.key_counts.max() < 10**18 else None)
    assert load_counts(scratch) == dataset


def reference_unique_rows(keys):
    """The row grouping ``_unique_rows`` replaced: ``np.unique`` over axis 0."""
    rows, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    return rows, counts, inverse.reshape(-1)


@st.composite
def bit_matrices_with_repeats(draw):
    """Rows drawn from a few distinct ones, so most tables repeat rows."""
    n = draw(st.sampled_from([1, 7, 8, 9, 63, 64, 65, 127, 128, 130]))
    pool = draw(arrays(np.uint8, (draw(st.integers(1, 6)), n), elements=st.integers(0, 1)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    return pool[picks]


@settings(max_examples=150)
@given(bits=bit_matrices_with_repeats())
def test_codec_round_trips(bits):
    s, n = bits.shape
    texts = ["".join(map(str, row)) for row in bits.tolist()]
    ints = [int(text, 2) for text in texts]
    strings = [BitString(n, v) for v in ints]
    keys = shotdata._pack_bits(bits)
    assert np.array_equal(shotdata._text_bits(texts, n), bits)
    assert np.array_equal(shotdata._unpack_bits(keys, n), bits)
    assert shotdata._key_values(keys) == ints
    assert shotdata._bits_strings(bits) == strings
    assert np.array_equal(shotdata._strings_bits(strings), bits)
    assert all(np.array_equal(x.bits(), row) for x, row in zip(strings, bits))
    order = np.argsort(shotdata._sortable(keys), kind="stable")
    assert order.tolist() == sorted(range(s), key=ints.__getitem__)
    got, want = shotdata._unique_rows(keys), reference_unique_rows(keys)
    for a, b in zip(got, want):
        assert np.array_equal(a, b) and a.shape == b.shape
    assert ShotDataset(strings) == ShotDataset.from_bit_matrix(bits)


@settings(max_examples=60)
@given(
    bits=st.integers(1, 6).flatmap(
        lambda n: arrays(np.uint8, st.tuples(st.integers(1, 60), st.just(n)),
                         elements=st.integers(0, 1))),
    k=st.integers(1, 4).flatmap(lambda k_max: st.tuples(st.integers(1, k_max), st.just(k_max))),
    mml=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_em_invariants(bits, k, mml, seed):
    k_min, k_max = k
    config = EmConfig(k_min=k_min, k_max=k_max, seed=seed, mml_enabled=mml, max_iters=50)
    try:
        report = run_em(ShotDataset.from_bit_matrix(bits), config)
    except DegenerateModelError:
        return
    model = report.best
    assert abs(model.alpha.sum() - 1.0) < 1e-9
    assert np.all((model.eps > 0.0) & (model.eps < 0.5))
    assert k_min <= report.k_hat <= k_max
