import json
import os
from pathlib import Path

import numpy as np
import pytest

from qem_mix import shotdata
from qem_mix.errors import DimensionError, EmptyDatasetError, ParseError
from qem_mix.shotdata import (
    BitString,
    ShotDataset,
    hamming_distance,
    load_counts,
    load_shots_text,
    save_counts,
)

from conftest import PEAK, naive_hamming, random_dataset, run_python


B = BitString.from_text


class TestBitString:
    def test_text_round_trip(self):
        for text in ["0", "1", "01", "1100", "1" * 130]:
            assert B(text).text == text

    def test_msb_first_indexing(self):
        b = B("1100")
        assert [b.bit(j) for j in (1, 2, 3, 4)] == [1, 1, 0, 0]
        assert list(b.bits()) == [1, 1, 0, 0]

    def test_rejects_empty_and_nonbinary(self):
        with pytest.raises(ParseError):
            B("")
        with pytest.raises(ParseError):
            B("012")

    def test_rejects_zero_width(self):
        with pytest.raises(DimensionError):
            BitString(0, 0)

    def test_from_bits(self):
        assert BitString.from_bits([1, 0, 1]).text == "101"
        assert BitString.from_bits(np.array([0, 1], dtype=np.uint8)).text == "01"

    def test_lexicographic_equals_numeric_order(self, rng):
        texts = ["".join(rng.choice(["0", "1"], 6)) for _ in range(50)]
        by_text = sorted(texts)
        by_value = [b.text for b in sorted((B(t) for t in texts), key=lambda x: x.value)]
        assert by_text == by_value


class TestHammingDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("000", "000", 0), ("101", "010", 3), ("1100", "1010", 2)],
    )
    def test_examples(self, a, b, expected):
        assert hamming_distance(B(a), B(b)) == expected

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            hamming_distance(B("01"), B("011"))

    def test_matches_naive_and_symmetric(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 100))
            a = "".join(rng.choice(["0", "1"], n))
            b = "".join(rng.choice(["0", "1"], n))
            d = hamming_distance(B(a), B(b))
            assert d == naive_hamming(a, b)
            assert d == hamming_distance(B(b), B(a))

    def test_triangle_inequality(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 40))
            a, b, c = (B("".join(rng.choice(["0", "1"], n))) for _ in range(3))
            assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)

    def test_zero_iff_equal(self, rng):
        a = B("10110")
        assert hamming_distance(a, B("10110")) == 0
        assert hamming_distance(a, B("10111")) > 0


class TestShotDataset:
    def test_basic_counts(self):
        ds = ShotDataset([B("01"), B("01"), B("10")])
        assert ds.n == 2 and ds.s == 3
        assert {k.text: v for k, v in ds.counts.items()} == {"01": 2, "10": 1}

    def test_empty_rejected(self):
        with pytest.raises(EmptyDatasetError):
            ShotDataset([])

    def test_mixed_width_rejected(self):
        with pytest.raises(DimensionError):
            ShotDataset([B("01"), B("011")])

    def test_bit_matrix_round_trip(self, rng):
        mat = rng.integers(0, 2, size=(40, 17), dtype=np.uint8)
        ds = ShotDataset.from_bit_matrix(mat)
        assert np.array_equal(ds.bit_matrix, mat)

    def test_views_before_and_after_the_index_is_derived(self, rng):
        # ordered shots keep their keys and search the shot index on each
        # call; every view must equal the one numpy computes from the bit
        # matrix, and the dataset must still equal the same shots after it
        from qem_mix.emcore import MixtureModel, e_step

        for n in (5, 70):
            mat = rng.integers(0, 2, size=(60, n), dtype=np.uint8)
            mat[30:] = mat[rng.permutation(30)]
            rows, index = np.unique(mat, axis=0, return_inverse=True)
            index = index.reshape(-1)
            mask = np.arange(len(rows)) % 3 != 1
            idx = rng.choice(60, size=25, replace=False)
            alpha, eps = np.array([0.4, 0.6]), np.full(n, 0.1)
            model = MixtureModel(tuple(map(BitString.from_bits, mat[:2])), alpha, eps)
            texts = ["".join(map(str, row)) for row in mat]
            views = {
                "subset": (lambda ds: ds.subset(idx).bit_matrix, mat[idx]),
                "select_distinct": (lambda ds: ds.select_distinct(mask).bit_matrix,
                                    mat[mask[index]]),
                "bit_matrix": (lambda ds: ds.bit_matrix, mat),
                "shots": (lambda ds: [s.text for s in ds.shots], texts),
                "e_step": (lambda ds: e_step(ds, model), posterior(mat, mat[:2], alpha, eps)),
            }
            for name, (view, reference) in views.items():
                fresh = ShotDataset.from_bit_matrix(mat)
                same = np.allclose if name == "e_step" else np.array_equal
                assert same(view(fresh), reference), name
                assert fresh == ShotDataset.from_bit_matrix(mat), name
                assert fresh != ShotDataset.from_bit_matrix(mat[::-1]), name

    def test_subset_preserves_order(self):
        ds = ShotDataset([B("00"), B("01"), B("10"), B("11")])
        sub = ds.subset([0, 2])
        assert [s.text for s in sub.shots] == ["00", "10"]

    def test_counts_iterate_in_key_order(self, rng):
        # support_counts relies on this order to key its support array
        ds = ShotDataset([B("10"), B("01"), B("10")])
        assert list(ds.counts.items()) == [(B("01"), 1), (B("10"), 2)]
        mat = rng.integers(0, 2, size=(50, 70), dtype=np.uint8)
        mat[25:] = mat[:25]
        ds = ShotDataset.from_bit_matrix(mat)
        values = [s.value for s in ds.counts]
        assert values == sorted({int("".join(map(str, row)), 2) for row in mat.tolist()})
        assert list(ds.counts.values()) == ds.key_counts.tolist() == [2] * 25

    def test_distinct_bits_of_a_band(self, rng):
        # rows of the distinct strings, in key order, as BitStrings spell them
        ds = ShotDataset.from_bit_matrix(rng.integers(0, 2, size=(40, 70), dtype=np.uint8))
        texts = [s.text for s in ds.counts]
        for start, stop in ((0, None), (5, 17), (39, 40), (12, 12)):
            band = ds.distinct_bits(start, stop)
            assert band.shape == (len(texts[start:stop]), 70)
            assert ["".join(map(str, row)) for row in band.tolist()] == texts[start:stop]


def assert_holds(ds, mat):
    """``ds`` holds the shots of the S x n {0,1} matrix ``mat``, in its row
    order: every field checked against np.unique of the rows."""
    rows, index, counts = np.unique(mat, axis=0, return_inverse=True, return_counts=True)
    assert (ds.n, ds.s, ds.distinct) == (mat.shape[1], len(mat), len(rows))
    assert np.array_equal(ds.distinct_bits(), rows)
    assert np.array_equal(ds.key_counts, counts)
    assert np.array_equal(ds.shot_index(), index.reshape(-1))
    assert np.array_equal(ds.bit_matrix, mat)


def posterior(mat, centers, alpha, eps):
    """S x K responsibilities of a Bernoulli flip mixture, in numpy."""
    far = mat[:, None, :] != centers[None]
    log = np.log(alpha) + np.where(far, np.log(eps), np.log1p(-eps)).sum(axis=2)
    w = np.exp(log - log.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


# the BitString views a dataset caches on first use
CACHED_VIEWS = {"_strings", "shots", "counts", "bit_matrix"}


class TestShotOrderReference:
    """Ordered datasets and count tables against numpy on their bit matrix."""

    @pytest.fixture(params=[5, 64, 65, 130])
    def n(self, request):
        return request.param

    @pytest.fixture(params=["ordered", "table"])
    def case(self, request, n, rng):
        """A dataset and the bit matrix it expands to."""
        mat = rng.integers(0, 2, size=(90, n), dtype=np.uint8)[rng.integers(0, 90, 240)]
        if request.param == "ordered":
            return ShotDataset.from_bit_matrix(mat), mat
        rows, counts = np.unique(mat, axis=0, return_counts=True)
        table = ShotDataset._make(n, shotdata._pack_bits(rows), counts)
        return table, np.repeat(rows, counts, axis=0)

    def test_shot_index_and_bit_matrix(self, case):
        assert_holds(*case)

    def test_subset_and_subset_of_subset(self, case, rng):
        ds, mat = case
        idx = rng.integers(0, len(mat), size=150)  # repeats allowed
        again = rng.permutation(150)[:70]
        assert_holds(ds.subset(idx), mat[idx])
        assert_holds(ds.subset(idx).subset(again), mat[idx][again])
        assert_holds(ds.subset(np.arange(len(mat))), mat)

    def test_select_distinct_of_dataset_and_subset(self, case, rng):
        ds, mat = case
        idx = rng.permutation(len(mat))[:100]
        for data, rows in ((ds, mat), (ds.subset(idx), mat[idx])):
            _, index = np.unique(rows, axis=0, return_inverse=True)
            mask = rng.random(data.distinct) < 0.6
            mask[0] = True
            assert_holds(data.select_distinct(mask), rows[mask[index.reshape(-1)]])

    def test_e_step(self, case, rng, n):
        from qem_mix.emcore import MixtureModel, e_step

        ds, mat = case
        centers = rng.integers(0, 2, size=(3, n), dtype=np.uint8)
        alpha, eps = np.array([0.2, 0.3, 0.5]), rng.uniform(0.05, 0.3, size=n)
        model = MixtureModel(tuple(map(BitString.from_bits, centers)), alpha, eps)
        assert np.allclose(e_step(ds, model), posterior(mat, centers, alpha, eps))
        idx = rng.permutation(len(mat))[:50]
        assert np.allclose(e_step(ds.subset(idx), model),
                           posterior(mat[idx], centers, alpha, eps))

    def test_equality_follows_the_bit_matrix(self, case, n):
        ds, mat = case
        turned = mat[::-1]
        assert not np.array_equal(turned, mat)
        assert ds == ShotDataset.from_bit_matrix(mat)
        assert ShotDataset.from_bit_matrix(mat) == ds
        assert ds != ShotDataset.from_bit_matrix(turned)
        assert ds.subset(np.arange(len(mat))[::-1]) == ShotDataset.from_bit_matrix(turned)
        rows, counts = np.unique(mat, axis=0, return_counts=True)
        table = ShotDataset._make(n, shotdata._pack_bits(rows), counts)
        in_key_order = np.array_equal(mat, np.repeat(rows, counts, axis=0))
        assert (ds == table) == in_key_order
        assert (table == ds) == in_key_order

    def test_reading_leaves_the_dataset_unchanged(self, case, rng, n):
        # apart from its cached views, a dataset never changes once built
        from qem_mix.emcore import MixtureModel, e_step

        ds, mat = case
        before = {k: v for k, v in vars(ds).items() if k not in CACHED_VIEWS}
        model = MixtureModel(tuple(map(BitString.from_bits, mat[:1])), [1.0], [0.1] * n)
        reads = {
            "shot_index": lambda: ds.shot_index(),
            "subset": lambda: ds.subset([3, 1, 3]),
            "select_distinct": lambda: ds.select_distinct(np.arange(ds.distinct) % 2 == 0),
            "e_step": lambda: e_step(ds, model),
            "==": lambda: ds == ShotDataset.from_bit_matrix(mat),
        }
        for name, read in reads.items():
            read()
            after = {k: v for k, v in vars(ds).items() if k not in CACHED_VIEWS}
            assert after.keys() == before.keys(), name
            assert all(after[k] is v for k, v in before.items()), name


class TestSelectDistinctTable:
    """``select_distinct`` keeps ordered shots through a dense 2**n table
    where one fits, and through ``shot_index()`` otherwise."""

    @staticmethod
    def ordered(rng, n, distinct):
        """An ordered dataset of 3000 shots over exactly ``distinct``
        strings of n bits, and its bit matrix."""
        values = rng.choice(1 << n, distinct, replace=False)
        repeats = values[rng.integers(0, distinct, 3000 - distinct)]
        shots = rng.permutation(np.concatenate([values, repeats]))
        mat = (shots[:, None] >> np.arange(n - 1, -1, -1)) & 1
        return ShotDataset.from_bit_matrix(mat), mat.astype(np.uint8)

    @staticmethod
    def select(ds, mask, table: bool, monkeypatch):
        """``ds.select_distinct(mask)``, failing if it takes the other way."""
        def no_search(self):
            raise AssertionError("searched shot_index() where the table fits")
        with monkeypatch.context() as patch:
            if table:
                patch.setattr(ShotDataset, "shot_index", no_search)
            return ds.select_distinct(mask)

    # at n=12, U=256 is the smallest count of distinct strings the table serves
    @pytest.mark.parametrize("distinct, table", [(256, True), (255, False)])
    def test_both_sides_of_the_table_condition(self, rng, monkeypatch, distinct, table):
        ds, mat = self.ordered(rng, 12, distinct)
        assert (1 << 12 <= shotdata._TABLE_ENTRIES_PER_KEY * ds.distinct) == table
        _, index = np.unique(mat, axis=0, return_inverse=True)
        mask = rng.random(ds.distinct) < 0.5
        mask[0] = True
        assert_holds(self.select(ds, mask, table, monkeypatch), mat[mask[index.reshape(-1)]])

    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_table_and_search_agree(self, rng, monkeypatch, n):
        ds, mat = self.ordered(rng, n, min(1 << n, 700))
        ds = ds.subset(rng.permutation(3000)[:2000])
        mask = rng.random(ds.distinct) < 0.4
        mask[-1] = True
        kept = []
        for entries in (1 << 24, 0):
            monkeypatch.setattr(shotdata, "_TABLE_ENTRIES_PER_KEY", entries)
            kept.append(self.select(ds, mask, entries > 0, monkeypatch))
        assert kept[0] == kept[1]
        assert np.array_equal(kept[0].bit_matrix, ds.bit_matrix[mask[ds.shot_index()]])


def padded_pack_bits(bits):
    """The packer ``_pack_bits`` replaced: every row padded to whole words."""
    s, n = bits.shape
    padded = np.zeros((s, n + (-n) % 64), dtype=np.uint8)
    padded[:, (-n) % 64:] = bits
    return np.packbits(padded, axis=1).view(">u8").astype(np.uint64)


class TestPackBits:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 127, 128, 130])
    def test_matches_word_padded_packer(self, rng, n):
        bits = rng.integers(0, 2, size=(40, n), dtype=np.uint8)
        bits[0], bits[1] = 0, 1
        for layout in (bits, np.asfortranarray(bits)):
            keys = shotdata._pack_bits(layout)
            assert keys.dtype == np.uint64 and keys.shape == (40, -(-n // 64))
            assert np.array_equal(keys, padded_pack_bits(bits))
        assert np.array_equal(shotdata._unpack_bits(keys, n), bits)


# Only shotdata packs, unpacks or sorts keys and reads or writes JSON files;
# cli prints JSON to stdout.
LAYOUT_WORDS = ("packbits", "unpackbits", "to_bytes", "from_bytes", "lexsort", "json.load")


def test_only_shotdata_knows_the_key_layout():
    for path in sorted(Path(shotdata.__file__).parent.glob("*.py")):
        if path.name == "shotdata.py":
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            where = f"{path.name}:{lineno}: {line.strip()}"
            assert not any(word in line for word in LAYOUT_WORDS), where
            if "json.dumps" in line:
                assert path.name == "cli.py" and line.strip().startswith("print(json.dumps("), where


class TestShotsTextIO:
    def test_load(self, tmp_path):
        path = tmp_path / "shots.txt"
        path.write_text("01\n01\n10\n")
        ds = load_shots_text(path)
        assert ds.n == 2 and ds.s == 3
        assert {k.text: v for k, v in ds.counts.items()} == {"01": 2, "10": 1}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "shots.txt"
        path.write_text("")
        with pytest.raises(EmptyDatasetError):
            load_shots_text(path)

    def test_ragged_line_reports_lineno(self, tmp_path):
        path = tmp_path / "shots.txt"
        path.write_text("01\n011\n")
        with pytest.raises(DimensionError, match=":2"):
            load_shots_text(path)

    def test_nonbinary_reports_lineno(self, tmp_path):
        path = tmp_path / "shots.txt"
        path.write_text("01\n0x\n")
        with pytest.raises(ParseError, match=":2"):
            load_shots_text(path)

    def test_trailing_newline_optional(self, tmp_path):
        path = tmp_path / "shots.txt"
        path.write_text("01\n10")
        assert load_shots_text(path).s == 2


PEAK_GROWTH = (
    PEAK +
    "from qem_mix.shotdata import load_counts\n"
    "before = peak()\n"
    "ds = load_counts({path!r})\n"
    "print((peak() - before) / 1024, (ds.keys.nbytes + ds.key_counts.nbytes) / 2**20)\n"
)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_counts_load_memory_is_bounded(tmp_path, rng):
    """Loading a canonical counts file raises a fresh process's peak by the
    keys and counts it returns and a few blocks, not by the file."""
    # 10**6 distinct strings of 20 bits: a 27 MB file for a 15 MiB dataset
    keys = np.sort(rng.choice(1 << 20, 10**6, replace=False)).astype(np.uint64)
    path = tmp_path / "counts.json"
    save_counts(ShotDataset._make(20, keys.reshape(-1, 1), rng.integers(1, 1000, 10**6)), path)
    done = run_python(PEAK_GROWTH.format(path=str(path)))
    assert done.returncode == 0, done.stderr
    grown, arrays = map(float, done.stdout.split())
    assert grown < arrays + 8


PIPED_PEAK_GROWTH = (
    PEAK +
    "import os, subprocess\n"
    "from qem_mix.shotdata import load_counts\n"
    "read_end, write_end = os.pipe()\n"
    "cat = subprocess.Popen(['cat', {path!r}], stdout=write_end)\n"
    "os.close(write_end)\n"
    "before = peak()\n"
    "ds = load_counts(f'/dev/fd/{{read_end}}')\n"
    "grown = (peak() - before) / 1024\n"
    "assert cat.wait() == 0\n"
    "print(grown, (ds.keys.nbytes + ds.key_counts.nbytes) / 2**20, ds == load_counts({path!r}))\n"
)


@pytest.mark.skipif(not Path("/proc/self/status").exists() or not Path("/dev/fd").is_dir(),
                    reason="reads VmHWM and opens a pipe by path")
def test_piped_counts_load_memory_is_bounded(tmp_path, rng):
    """A canonical counts file read from a pipe raises a fresh process's
    peak by the file's bytes, the keys and counts and a few blocks, and
    gives the dataset the file gives by name."""
    keys = np.sort(rng.choice(1 << 20, 10**6, replace=False)).astype(np.uint64)
    path = tmp_path / "counts.json"
    save_counts(ShotDataset._make(20, keys.reshape(-1, 1), rng.integers(1, 1000, 10**6)), path)
    done = run_python(PIPED_PEAK_GROWTH.format(path=str(path)))
    assert done.returncode == 0, done.stderr
    grown, arrays, same = done.stdout.split()
    assert same == "True"
    assert float(grown) < path.stat().st_size / 2**20 + float(arrays) + 8


def _pipe_path(body: bytes) -> str:
    """A path that reads ``body`` from a pipe once, like a shell's
    ``<(...)``; a second open of it reads nothing."""
    read_end, write_end = os.pipe()
    os.write(write_end, body)
    os.close(write_end)
    return f"/dev/fd/{read_end}"


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="opens a pipe by path")
@pytest.mark.parametrize("loader, body", [
    (load_counts, b'{"01":2,"10":1}\n'),
    (load_counts, b'{"01": 2, "10": 1}'),
    (load_shots_text, b"01\n10\n01\n"),
], ids=["canonical-counts", "other-counts", "shots"])
def test_load_from_a_pipe(loader, body):
    path = _pipe_path(body)
    try:
        ds = loader(path)
    finally:
        os.close(int(path.rsplit("/", 1)[1]))
    assert {k.text: v for k, v in ds.counts.items()} == {"01": 2, "10": 1}


class TestCountsIO:
    def test_load_expands(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text('{"0101": 3}')
        ds = load_counts(path)
        assert ds.n == 4 and ds.s == 3

    def test_load_preserves_counts(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text('{"00": 1, "11": 2}')
        ds = load_counts(path)
        assert ds.s == 3
        assert {k.text: v for k, v in ds.counts.items()} == {"00": 1, "11": 2}

    def test_expansion_order_lexicographic(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text('{"10": 1, "01": 2}')
        ds = load_counts(path)
        assert [s.text for s in ds.shots] == ["01", "01", "10"]

    @pytest.mark.parametrize("body", ['{"00": 0}', '{"00": -1}', '{"00": 1.5}', '{"0x": 1}', "[1]", "{"])
    def test_bad_content(self, tmp_path, body):
        path = tmp_path / "counts.json"
        path.write_text(body)
        with pytest.raises(ParseError):
            load_counts(path)

    def test_huge_count_loads_in_bounded_memory(self, tmp_path):
        # counts are never expanded shot by shot: 10**12 shots of one
        # string load and filter under a 2 GB address-space cap
        path = tmp_path / "huge.json"
        path.write_text('{"0101": 1000000000000}')
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from qem_mix.cli import dispatch\n"
            "from qem_mix.shotdata import load_counts\n"
            f"ds = load_counts({str(path)!r})\n"
            f"code = dispatch(['--quiet', 'filter', {str(path)!r}])\n"
            "print(ds.s, ds.distinct, code)\n"
        )
        run = run_python(code)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "1000000000000 1 0"

    def test_int_parser_spellings_rejected(self, tmp_path):
        # int(key, 2) accepts all of these; the loader must not
        path = tmp_path / "counts.json"
        for key in ("0b1", "1_0", "+1", " 1", "1 "):
            path.write_text(json.dumps({key: 1, "0" * len(key): 1}))
            with pytest.raises(ParseError):
                load_counts(path)

    def test_mismatched_key_width(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text('{"00": 1, "000": 1}')
        with pytest.raises(DimensionError):
            load_counts(path)

    def test_round_trip(self, tmp_path):
        ds = ShotDataset([B("00"), B("11"), B("11")])
        path = tmp_path / "counts.json"
        save_counts(ds, path)
        back = load_counts(path)
        assert {k.text: v for k, v in back.counts.items()} == {"00": 1, "11": 2}

    def test_round_trip_random(self, tmp_path, rng):
        for i in range(20):
            ds = random_dataset(rng, int(rng.integers(1, 12)), int(rng.integers(1, 60)))
            path = tmp_path / f"case{i}.json"
            save_counts(ds, path)
            back = load_counts(path)
            assert {k.text: v for k, v in back.counts.items()} == {
                k.text: v for k, v in ds.counts.items()
            }

    @pytest.mark.parametrize("n", [1, 20, 64, 65, 128])
    def test_saved_files_take_the_fast_reader(self, tmp_path, monkeypatch, rng, n):
        # every file save_counts writes is in the form the numpy reader
        # accepts, so the JSON reader is never reached
        bits = rng.integers(0, 2, size=(200, n), dtype=np.uint8)
        bits[100:] = bits[:100]
        big = {
            format(int(v), f"0{n}b"): int(c)
            for v, c in zip(rng.integers(0, 1 << min(n, 62), size=40),
                            rng.integers(1, 10**17, size=40, endpoint=True))
        }
        big[format(0, f"0{n}b")] = 10**17
        path = tmp_path / "table.json"
        path.write_text(json.dumps(big))  # spaces: read as JSON
        datasets = [ShotDataset.from_bit_matrix(bits), load_counts(path)]

        def no_json(path):
            raise AssertionError(f"{path} was read as JSON")
        monkeypatch.setattr(shotdata, "_read_json_object", no_json)
        for ds in datasets:
            save_counts(ds, path)
            back = load_counts(path)
            assert (back.n, back.s) == (ds.n, ds.s)
            assert back.keys.dtype == np.uint64 and back.key_counts.dtype == np.int64
            assert np.array_equal(back.keys, ds.keys)
            assert np.array_equal(back.key_counts, ds.key_counts)

    @pytest.mark.parametrize("n", [1, 20, 65])
    @pytest.mark.parametrize("block", [1, 64, 1000])
    def test_fast_reader_in_small_blocks(self, tmp_path, monkeypatch, rng, n, block):
        # blocks that end inside records give the dataset one block gives
        ds = ShotDataset.from_bit_matrix(rng.integers(0, 2, size=(300, n), dtype=np.uint8))
        path = tmp_path / "table.json"
        save_counts(ds, path)

        def no_json(path):
            raise AssertionError(f"{path} was read as JSON")
        monkeypatch.setattr(shotdata, "_read_json_object", no_json)
        monkeypatch.setattr(shotdata, "_SCAN_BLOCK", block)
        back = load_counts(path)
        assert np.array_equal(back.keys, ds.keys)
        assert np.array_equal(back.key_counts, ds.key_counts)

    def test_keys_sorted_on_disk(self, tmp_path):
        ds = ShotDataset([B("10"), B("01")])
        path = tmp_path / "counts.json"
        save_counts(ds, path)
        text = path.read_text()
        assert text.index('"01"') < text.index('"10"')

    def test_write_deterministic(self, tmp_path, rng):
        ds = random_dataset(rng, 8, 50)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_counts(ds, p1)
        save_counts(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()
