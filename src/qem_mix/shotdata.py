"""Bit-string and shot-dataset types plus text/counts file I/O.

Conventions used throughout the package:

* A bit-string of n bits is written most-significant-qubit first, i.e. the
  leftmost character of ``"1100"`` is bit j=1. A ``BitString`` holds its
  bits in one Python integer, so XOR and popcount run word-wise.
* A dataset is an immutable multiset of equal-length bit-strings, held in
  one form: its distinct strings as packed uint64 keys in ascending order
  plus their counts (see ``ShotDataset``). It keeps no shot order: every
  per-shot view lists the shots in key order. Loading, filtering, EM and
  saving run on that form; ``BitString`` objects are built only for
  callers that ask for them, and a dataset never changes once built,
  apart from its cached views.
* Every input is read through one seekable binary stream (``_seekable``);
  a pipe's bytes are first copied into memory. Counts files in the form
  ``save_counts`` writes are parsed in one pass with numpy,
  ``_SCAN_BLOCK`` bytes at a time, through one reused buffer
  (``_records``), so a load of a file holds the dataset it returns and a
  few blocks, not the file. Any other counts file goes to the JSON reader,
  which gives each error its message.
* Only this module knows the key layout and the key order. Its codec
  helpers are the only encoders and decoders of the layout: ``_text_bits``,
  ``_pack_bits``, ``_unpack_bits``, ``_key_values``, ``_strings_bits`` and
  ``_bits_strings``; ``_sortable`` gives the key order. JSON files are read
  and written by ``_read_json_object`` and ``_write_json_object`` alone.
"""

from __future__ import annotations

import io
import json
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, EmptyDatasetError, ParseError, QemError

__all__ = [
    "BitString",
    "ShotDataset",
    "hamming_distance",
    "load_shots_text",
    "load_counts",
    "save_counts",
]


@dataclass(frozen=True)
class BitString:
    """Fixed-width binary vector, bit-packed into an int.

    ``value`` holds the bits with the leftmost (j=1) text character as the
    most significant bit, so lexicographic order on the text equals numeric
    order on ``value`` for fixed n.
    """

    n: int
    value: int

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError(f"bit-string width must be >= 1, got {self.n}")
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"value {self.value} does not fit in {self.n} bits")

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        if not text or set(text) - {"0", "1"}:
            raise ParseError(f"not a binary string: {_quoted(text)}")
        return cls(len(text), int(text, 2))

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitString":
        value = 0
        for b in bits:
            if b not in (0, 1):
                raise ParseError(f"bit values must be 0 or 1, got {b!r}")
            value = (value << 1) | int(b)
        return cls(len(bits), value)

    @property
    def text(self) -> str:
        return format(self.value, f"0{self.n}b")

    def bit(self, j: int) -> int:
        """Bit at 1-indexed position j (leftmost = 1)."""
        return (self.value >> (self.n - j)) & 1

    def bits(self) -> np.ndarray:
        """Unpacked bits as a uint8 array of length n, index 0 = leftmost."""
        return _text_bits([self.text], self.n)[0]

    def __str__(self) -> str:
        return self.text


def hamming_distance(a: BitString, b: BitString) -> int:
    """Number of differing bit positions; XOR then popcount."""
    if a.n != b.n:
        raise DimensionError(f"length mismatch: {a.n} vs {b.n}")
    return (a.value ^ b.value).bit_count()


class ShotDataset:
    """Immutable multiset of S equal-length bit-strings.

    A dataset is its ``keys``, the U distinct strings in ascending order,
    each packed into W = ceil(n/64) uint64 words (word 0 the most
    significant), and ``key_counts``, their int64 counts; it holds nothing
    of size S. Every constructor ends in these two arrays, so the order in
    which shots were given is not kept: the per-shot views (``shot_index()``,
    ``shots``, ``bit_matrix``, ``e_step``) expand the counts in key order.
    The BitString views ``shots``, ``counts`` and ``bit_matrix`` are built
    lazily and cached.
    """

    def __init__(self, shots: Iterable[BitString]):
        shots = tuple(shots)
        n = shots[0].n if shots else 1
        for i, s in enumerate(shots):
            if s.n != n:
                raise DimensionError(f"shot {i} has {s.n} bits, expected {n}")
        self._set(n, *_unique_rows(_pack_bits(_text_bits([s.text for s in shots], n))))

    @classmethod
    def _make(cls, n, keys, key_counts) -> "ShotDataset":
        dataset = cls.__new__(cls)
        dataset._set(n, keys, key_counts)
        return dataset

    def _set(self, n, keys, key_counts):
        if not len(key_counts):
            raise EmptyDatasetError("a dataset must contain at least one shot")
        keys.flags.writeable = key_counts.flags.writeable = False
        self.n, self.s, self.distinct = n, int(key_counts.sum()), len(keys)
        self.keys, self.key_counts = keys, key_counts

    def shot_index(self) -> np.ndarray:
        """Row of ``keys`` holding each shot, in key order."""
        return np.repeat(np.arange(self.distinct), self.key_counts)

    def distinct_bits(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """uint8 bit matrix of the distinct strings in key order: all U of
        them, or rows ``start`` to ``stop`` - 1 of ``keys``, n bits each."""
        return _unpack_bits(self.keys[start:stop], self.n)

    @cached_property
    def _strings(self) -> list:
        return [BitString(self.n, v) for v in _key_values(self.keys)]

    @cached_property
    def shots(self) -> tuple:
        """Every shot as a BitString, in key order."""
        strings = self._strings
        return tuple(strings[i] for i in self.shot_index().tolist())

    @cached_property
    def counts(self) -> dict:
        """Occurrence count per distinct BitString; iterates in key order,
        aligned with ``keys`` and ``key_counts``."""
        return dict(zip(self._strings, self.key_counts.tolist()))

    @cached_property
    def bit_matrix(self) -> np.ndarray:
        """Dense S x n uint8 matrix of shot bits, in key order (read-only)."""
        mat = self.distinct_bits()[self.shot_index()]
        mat.flags.writeable = False
        return mat

    @classmethod
    def from_bit_matrix(cls, matrix: np.ndarray) -> "ShotDataset":
        """Build a dataset from the rows of an S x n {0,1} matrix."""
        matrix = np.asarray(matrix, dtype=np.uint8)
        if matrix.ndim != 2 or matrix.shape[1] < 1:
            raise DimensionError(f"expected an S x n matrix, got shape {matrix.shape}")
        return cls._make(matrix.shape[1], *_unique_rows(_pack_bits(matrix)))

    def subset(self, indices: Sequence[int]) -> "ShotDataset":
        """New dataset of the shots at the given positions of the key-order
        expansion (``shot_index()``). A sorted uniform sample of positions
        draws shots without replacement from the multiset."""
        rows = self.shot_index()[np.asarray(indices, dtype=np.intp)]
        return ShotDataset._make(self.n, *_unique_rows(self.keys[rows]))

    def select_distinct(self, mask: np.ndarray) -> "ShotDataset":
        """New dataset with every shot of the distinct strings where the
        boolean ``mask`` (aligned with ``keys``) is true."""
        return ShotDataset._make(self.n, self.keys[mask], self.key_counts[mask])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ShotDataset) and self.n == other.n
            and np.array_equal(self.keys, other.keys)
            and np.array_equal(self.key_counts, other.key_counts)
        )

    def __hash__(self):
        return hash((self.n, self.keys.tobytes(), self.key_counts.tobytes()))

    def __repr__(self) -> str:
        return f"ShotDataset(n={self.n}, s={self.s}, distinct={self.distinct})"


def _text_bits(texts: list, n: int) -> np.ndarray:
    """len(texts) x n uint8 bits of validated n-character binary strings."""
    return np.frombuffer("".join(texts).encode("ascii"), np.uint8).reshape(len(texts), n) & 1


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """S x W uint64 keys of an S x n {0,1} matrix: each row is padded on
    the left to whole bytes, packed, and right-aligned in its W words."""
    s, n = bits.shape
    nbytes, w = -(-n // 8), -(-n // 64)
    if n % 8:
        padded = np.zeros((s, 8 * nbytes), dtype=np.uint8)
        padded[:, (-n) % 8:] = bits
        bits = padded
    words = np.zeros((s, 8 * w), dtype=np.uint8)
    # packing the rows as one flat run is much faster than along axis 1
    words[:, 8 * w - nbytes:] = np.packbits(bits.reshape(-1)).reshape(s, nbytes)
    return words.view(">u8").astype(np.uint64)


def _unpack_bits(keys: np.ndarray, n: int) -> np.ndarray:
    """The U x n {0,1} matrix of U x W uint64 keys of n bits: the inverse
    of ``_pack_bits``."""
    nbytes = -(-n // 8)
    raw = keys.astype(">u8").view(np.uint8)[:, 8 * keys.shape[1] - nbytes:]
    return np.unpackbits(raw, axis=1)[:, 8 * nbytes - n:]


def _key_values(keys: np.ndarray) -> list:
    """The int value of each row of U x W uint64 keys."""
    values = keys[:, 0].tolist()
    for col in keys.T[1:]:
        values = [(v << 64) | c for v, c in zip(values, col.tolist())]
    return values


def _strings_bits(strings: Sequence[BitString]) -> np.ndarray:
    """k x n uint8 bit matrix of k >= 1 BitStrings of one width n."""
    return _text_bits([s.text for s in strings], strings[0].n)


def _bits_strings(bits: np.ndarray) -> list:
    """The BitString of each row of an S x n {0,1} matrix."""
    return [BitString(bits.shape[1], v) for v in _key_values(_pack_bits(bits))]


def _sortable(keys: np.ndarray) -> np.ndarray:
    """One comparable item per key row, ordered as the rows: the word itself
    for n <= 64, else the row's big-endian bytes."""
    if keys.shape[1] == 1:
        return keys[:, 0]
    return keys.astype(">u8").view(f"V{8 * keys.shape[1]}")[:, 0]


def _unique_rows(keys: np.ndarray) -> tuple:
    """Distinct rows of ``keys`` in ascending order and their counts, from
    one sort of the ``_sortable`` items."""
    rows, counts = np.unique(_sortable(keys), return_counts=True)
    if keys.shape[1] == 1:
        return rows.reshape(-1, 1), counts
    return rows.view(">u8").reshape(-1, keys.shape[1]).astype(np.uint64), counts


# characters of a bad line, key or string that an error quotes
_QUOTED_CHARS = 80


def _quoted(text: str) -> str:
    """``text`` for an error line: its repr, cut to ``_QUOTED_CHARS``
    characters and followed by "…" when it was longer."""
    more = "…" if len(text) > _QUOTED_CHARS else ""
    return f"{text[:_QUOTED_CHARS]!r}{more}"


def _seekable(path, fh=None):
    """``fh``, or else ``path`` opened, as a seekable binary stream: one
    that cannot seek, such as a pipe, is read whole into an io.BytesIO."""
    fh = open(path, "rb") if fh is None else fh
    if fh.seekable():
        return fh
    with fh:
        return io.BytesIO(fh.read())


def load_shots_text(path, fh=None) -> ShotDataset:
    """Read a dataset from a text file, one bit-string per line.

    Blank lines are ignored; n is inferred from the first shot. Raises
    ParseError / DimensionError with a 1-based line number on bad content.
    ``fh``, if given, is the file opened as a binary stream at its start.
    """
    texts = []
    n = None
    # undecodable bytes read as U+FFFD, which the binary check rejects
    with io.TextIOWrapper(_seekable(path, fh), encoding="utf-8", errors="replace") as lines:
        for lineno, line in enumerate(lines, start=1):
            text = line.strip()
            if not text:
                continue
            if set(text) - {"0", "1"}:
                raise ParseError(f"{path}:{lineno}: not a binary string: {_quoted(text)}")
            if n is None:
                n = len(text)
            elif len(text) != n:
                raise DimensionError(
                    f"{path}:{lineno}: expected {n} bits, got {len(text)}"
                )
            texts.append(text)
    if not texts:
        raise EmptyDatasetError(f"{path}: no shots found")
    return ShotDataset._make(n, *_unique_rows(_pack_bits(_text_bits(texts, n))))


def load_counts(path, fh=None) -> ShotDataset:
    """Read a dataset from a JSON count table {bitstring: count}.

    The table is validated, packed and sorted without expanding the counts,
    so memory grows with the number of distinct strings, not with S.
    ``fh``, if given, is the file opened as a binary stream at its start.

    A file in the exact byte form ``save_counts`` writes is parsed with
    numpy in one pass: ``{"bits":count,...}`` and a newline, with no
    whitespace or escapes, every key n >= 1 characters of 0 and 1, every
    count 1 to 18 digits with no leading zero, and no key twice. Besides
    the dataset, a load holds one block's bytes and temporaries, and the
    bytes of a pipe. Any other file is read as JSON, and gives the same
    dataset or error it always did.
    """
    with _seekable(path, fh) as fh:
        dataset = _read_canonical_counts(fh)
        if dataset is not None:
            return dataset
        fh.seek(0)
        return _parse_count_table(path, _read_json_object(path, fh))


def _parse_count_table(path, table: dict) -> ShotDataset:
    """The dataset of a JSON count table (see ``load_counts``); errors
    name ``path``."""
    if not table:
        raise EmptyDatasetError(f"{path}: empty count table")
    texts, counts = list(table), list(table.values())
    n = len(texts[0])
    joined = "".join(texts)
    # int(key, 2) would also take "0b1", "1_0", "+1" and " 1": check first
    if (
        not n or set(map(len, texts)) != {n}
        or joined.count("0") + joined.count("1") != len(joined)
        or set(map(type, counts)) != {int} or min(counts) < 1
    ):
        _raise_first_bad(path, table)
    if sum(counts) >= 1 << 63:
        raise ParseError(f"{path}: the counts sum past 2**63 - 1")
    keys = _pack_bits(_text_bits(texts, n))
    order = np.argsort(_sortable(keys))
    return ShotDataset._make(n, keys[order], np.array(counts, dtype=np.int64)[order])


# 10**18 - 1 < 2**63: a count of at most this many digits fits an int64
_MAX_DIGITS = 18
# file bytes per read of the canonical counts reader: each block's
# temporaries stay in cache, and below glibc's default 128 KiB mmap
# threshold, so the heap reuses them from block to block
_SCAN_BLOCK = 1 << 16


def _records(fh, end: int):
    """The whole records of the binary file ``fh`` that end in the byte
    ``end``, as uint8 views of one buffer that is refilled ``_SCAN_BLOCK``
    bytes at a time: each view ends at the last ``end`` read so far, and the
    bytes after it are carried into the next view. The last view holds the
    bytes after the file's last ``end``, and may be empty. Each view is
    overwritten when the next one is taken.
    """
    buf, kept = bytearray(2 * _SCAN_BLOCK), 0
    while True:
        if len(buf) < kept + _SCAN_BLOCK:  # a record longer than the buffer
            buf = buf[:kept] + bytearray(len(buf))
        got = fh.readinto(memoryview(buf)[kept:kept + _SCAN_BLOCK])
        if not got:
            yield np.frombuffer(buf, np.uint8, kept)
            return
        cut = buf.rfind(end, kept, kept + got) + 1
        kept += got
        if cut:
            yield np.frombuffer(buf, np.uint8, cut)
            buf[:kept - cut] = buf[cut:kept]
            kept -= cut


def _read_canonical_counts(fh) -> Optional[ShotDataset]:
    """The dataset of ``fh``, a seekable binary stream of a counts file in
    ``save_counts``'s byte form, or None if it deviates from it anywhere
    (see ``load_counts``).

    The stream is read once, from its start, in blocks of records that end
    at a comma (``_records``). n is taken from the first key. Every record
    takes at least n + 5 bytes, so the keys and counts are allocated once,
    for the stream's length, and rows past the last record are never
    written. Each block's records are checked, packed and parsed in turn.
    """
    size = fh.seek(0, io.SEEK_END)
    fh.seek(0)
    lo = 0
    for chunk in _records(fh, ord(",")):
        if lo == 0:  # the file's first record
            at = np.flatnonzero(chunk == ord('"'))[:2]
            n = int(at[1] - at[0]) - 1 if len(at) == 2 else 0
            if n < 1 or chunk[0] != ord("{"):
                return None
            keys = np.empty((size // (n + 5), -(-n // 64)), dtype=np.uint64)
            counts = np.empty(len(keys), dtype=np.int64)
            chunk = chunk[1:]
        if not len(chunk) or chunk[-1] != ord(","):  # the file's last record
            if chunk[-2:].tobytes() != b"}\n":
                return None
            chunk = chunk[:-1]
        lo = _parse_records(chunk, n, keys, counts, lo)
        if lo is None:
            return None
    keys, counts = keys[:lo], counts[:lo]
    if int(counts.max()) * lo >= 1 << 63 and sum(counts.tolist()) >= 1 << 63:
        return None  # the JSON reader raises for this total
    # save_counts writes keys ascending
    if keys.shape[1] > 1 or np.any(keys[1:, 0] <= keys[:-1, 0]):
        order = np.argsort(_sortable(keys))
        keys, counts = keys[order], counts[order]
        sortable = _sortable(keys)
        if np.any(sortable[1:] == sortable[:-1]):
            return None  # a repeated key: JSON keeps its last count
    return ShotDataset._make(n, keys, counts)


def _parse_records(body: np.ndarray, n: int, keys, counts, lo: int) -> Optional[int]:
    """Check, pack and parse the records ``"bits":count`` of ``body`` into
    ``keys`` and ``counts`` from row ``lo``; the row after the last one
    written, or None if a record deviates. Each record ends in one byte, a
    comma but for the last one's, which the caller checks."""
    at = np.flatnonzero(body == ord('"'))
    hi = lo + len(at) // 2
    if not len(at) or len(at) % 2 or at[0] or hi > len(counts):
        return None
    opens, closes = at[::2], at[1::2]
    starts = closes + 2                               # first digit of each count
    ends = np.append(opens[1:], len(body)) - 1        # the comma, or the last "}"
    digits = ends - starts
    if (
        np.any(closes - opens != n + 1)
        or digits.min() < 1 or digits.max() > _MAX_DIGITS
        or np.any(body[closes + 1] != ord(":"))
        or np.any(body[ends[:-1]] != ord(","))
        or np.any(body[starts] == ord("0"))
        # every byte but the quotes, colon and end of each record is a digit
        or np.count_nonzero(body - ord("0") < 10) != len(body) - 4 * len(opens)
    ):
        return None
    bits = sliding_window_view(body, n)[opens + 1]  # row i: the n bytes from byte i
    if bits.max() > ord("1"):
        return None
    bits &= 1
    keys[lo:hi] = _pack_bits(bits)
    value = counts[lo:hi]
    np.subtract(body[starts], ord("0"), out=value, dtype=np.int64)
    for k in range(1, int(digits.max())):
        more = np.flatnonzero(digits > k)
        value[more] = value[more] * 10 + (body[starts[more] + k] - ord("0"))
    return hi


def _raise_first_bad(path, table: dict) -> None:
    """Raise for the first bad entry of a count table, in key order."""
    n = None
    for key in sorted(table):
        count = table[key]
        if not key or set(key) - {"0", "1"}:
            raise ParseError(f"{path}: bad bit-string key {_quoted(key)}")
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ParseError(f"{path}: count for {_quoted(key)} must be a positive integer")
        if n is None:
            n = len(key)
        elif len(key) != n:
            raise DimensionError(
                f"{path}: key {_quoted(key)} has {len(key)} bits, expected {n}")


def _read_json_object(path, fh=None) -> dict:
    """The top-level JSON object of a UTF-8 file, or of ``fh``, a binary
    stream of its bytes, which it closes. Undecodable bytes, invalid or too
    deeply nested JSON, and any other top level are a ParseError."""
    try:
        with io.TextIOWrapper(open(path, "rb") if fh is None else fh,
                              encoding="utf-8") as text:
            doc = json.load(text)  # one decoded copy of the file at a time
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return doc


def _write_json_object(path, doc: dict) -> None:
    """Write ``doc`` to a UTF-8 file as indented JSON with sorted keys and
    a closing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@contextmanager
def _parse_fields(path):
    """Read a document's fields inside this block: a missing field or a
    value of the wrong type or form is a ParseError naming ``path``, and a
    qem_mix error keeps its type but gains the path."""
    try:
        yield
    except QemError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _check_integer(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer: a
    bool, a float or a string is not one, a numpy integer is."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}: {value!r} is not an integer")


# records per block of save_counts: each block's byte matrix stays in cache
_WRITE_BLOCK = 1 << 12
# 10**j for j = 1 .. 18: a count c has 1 + (how many of these are <= c) digits
_POWERS_OF_TEN = 10 ** np.arange(1, _MAX_DIGITS + 1, dtype=np.int64)


def save_counts(dataset: ShotDataset, path) -> None:
    """Write a dataset's count table as JSON, keys sorted lexicographically.

    The file is ``{"bits":count,...}`` and a newline, with no whitespace:
    the byte form ``load_counts`` parses with numpy. A count of 19 digits
    (10**18 or more) is written in the same form, but read back by the JSON
    reader. Records are encoded ``_WRITE_BLOCK`` at a time: each block is a
    matrix of one row per record, with its count right-aligned in the
    block's widest digit count, and one mask drops the leading zeros.
    """
    n, u = dataset.n, dataset.distinct
    with open(path, "wb") as fh:
        fh.write(b"{")
        for lo in range(0, u, _WRITE_BLOCK):
            hi = min(lo + _WRITE_BLOCK, u)
            value = dataset.key_counts[lo:hi]
            digits = 1 + np.searchsorted(_POWERS_OF_TEN, value, side="right")
            d = int(digits.max())
            # a row: the quoted key, a colon, d digit columns and a comma
            record = np.empty((hi - lo, n + 4 + d), dtype=np.uint8)
            record[:, [0, n + 1]] = ord('"')
            record[:, n + 2] = ord(":")
            record[:, -1] = ord(",")
            np.add(_unpack_bits(dataset.keys[lo:hi], n), ord("0"), out=record[:, 1:n + 1])
            for col in range(n + 2 + d, n + 2, -1):
                value, digit = np.divmod(value, 10)
                np.add(digit, ord("0"), out=record[:, col], casting="unsafe")
            keep = np.ones(record.shape, dtype=bool)
            keep[:, n + 3:n + 3 + d] = np.arange(d - 1, -1, -1) < digits[:, None]
            out = record[keep]
            if hi == u:
                out[-1] = ord("}")
            fh.write(out)
        fh.write(b"\n")
