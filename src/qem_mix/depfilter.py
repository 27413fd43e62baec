"""Depolarization filter: drop shots whose Hamming neighborhood is sparse.

For each distinct observed string x the support count f_r(x) is the number
of shots within Hamming distance r of x, its own shots included. It is
compared against a threshold T_r. Under pure uniform noise the expected
support is lam*|B_n(r)| with lam = S/2**n and |B_n(r)| = sum_{i<=r} C(n, i)
the size of the radius-r Hamming ball, so shots with f_r(x) < T_r are
treated as depolarization noise and removed.

The paper's filter is the radius-1 case, and ``filter_dataset`` uses it
whenever it can. On wide registers no two observed strings are one bit
apart, every radius-1 support is just the string's own count, and the
radius-1 filter can only keep everything or nothing. When it keeps nothing
there, ``filter_dataset`` widens the radius by a rule fixed by S, n, eta and
t_floor (``select_radius``): the widest r before the first one at which
uniform noise is expected to leave at least one survivor.

Both passes run on the dataset's sorted packed keys and their counts.
Radius-1 counting on keys of n <= 64 bits, where 2**n is at most
``_TABLE_ENTRIES_PER_KEY`` times the U distinct strings, scatters the
counts into a dense 2**n table and gathers each key's n neighbours with
one XOR per bit: O(2**n + n * U). Otherwise it sets each clear bit of
every key and looks the result up by binary search over the sorted keys:
O(n * U log U). Wider radii compare all pairs of distinct strings with
Gram products over cache-sized tiles of the upper triangle: O(U**2 * n)
arithmetic in bounded memory, spread over the process's CPUs by threads.
Each float32 Gram entry answers D pairs at once, in D bit fields of one
exact integer (D = 3 at n=128, r=31; see ``_support_within``), so the
pass computes about U**2 / (2 * D) entries and holds the strings as
U/D packed rows.
The thread count is worked out from the process (``_gram_threads``): one in
a ``multiprocessing`` child, else the CPUs it may use divided by the threads
BLAS was told to use, so processes x threads stays within the CPUs. Shots
are kept with one boolean mask over the distinct strings.
"""

from __future__ import annotations

import logging
import math
import numbers
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AllFilteredError
from .shotdata import ShotDataset, _check_integer, _sortable

__all__ = [
    "FilterConfig",
    "FilterReport",
    "support_counts",
    "compute_threshold",
    "select_radius",
    "check_threshold",
    "filter_dataset",
]

log = logging.getLogger("qem_mix.depfilter")

# The radius-1 support counts use a dense table over all 2**n values when it
# has at most this many entries per distinct string.
_TABLE_ENTRIES_PER_KEY = 16
# Entries computed per block by the support passes: table lookups at radius
# 1; at radius r > 1 each of a worker's two Gram tile buffers holds a
# quarter as many (1 MiB of float32 each).
_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class FilterConfig:
    """Threshold tuning: T_r = max(t_floor, eta * lam * |B_n(r)|).

    At the radius-1 filter |B_n(1)| = n+1. The multiplier placement is a
    calibration choice; eta scales the expected uniform support and t_floor
    keeps a minimal absolute bar. The same two values fix the radius
    ``filter_dataset`` widens to on wide registers (see ``select_radius``).
    """

    eta: float = 1.5
    t_floor: int = 2

    def __post_init__(self):
        if isinstance(self.eta, bool) or not isinstance(self.eta, numbers.Real) \
                or not 0 < self.eta < math.inf:  # NaN fails it
            raise ValueError(f"eta must be finite and > 0, got {self.eta!r}")
        _check_integer("t_floor", self.t_floor)
        if self.t_floor < 1:
            raise ValueError(f"t_floor must be >= 1, got {self.t_floor}")


@dataclass(frozen=True)
class FilterReport:
    """Outcome of one filtering pass.

    ``lam`` is the expected uniform frequency S/2**n; ``support`` holds
    f_r(x) at the ``radius`` the pass used (1 unless the radius was
    widened), aligned with the keys of the dataset filtered.
    """

    kept: ShotDataset
    removed_count: int
    threshold_used: float
    lam: float
    support: np.ndarray = field(repr=False, compare=False)
    radius: int = 1


def support_counts(dataset: ShotDataset, radius: int = 1) -> dict:
    """f_r(x) per distinct observed string: the number of shots within
    Hamming distance ``radius`` of x, its own shots included.

    Only observed strings contribute (unobserved neighbors count 0).
    Radius 1 costs O(2**n + n * U) where the dense table applies, else
    O(n * U log U); wider radii cost O(U**2 * n).
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    return dict(zip(dataset.counts, _support(dataset, radius).tolist()))


def _support(dataset: ShotDataset, radius: int) -> np.ndarray:
    """f_r per distinct string, aligned with ``dataset.keys``.

    At radius 1 on one-word keys with 2**n at most
    ``_TABLE_ENTRIES_PER_KEY`` entries per distinct string, the counts are
    scattered into a dense 2**n table and each key gathers its n neighbours
    with one XOR per bit. Otherwise, for each bit, every key with the bit
    clear is looked up with the bit set by binary search over the sorted
    keys, and each pair found credits both ends. Two strings one bit apart
    share every key word but the toggled one, so on multi-word keys only
    rows that share those words with another row are searched.
    """
    if radius > 1:
        return _support_within(dataset, radius, _gram_threads())
    keys, cnt = dataset.keys, dataset.key_counts
    w = keys.shape[1]
    f = cnt.copy()
    if w == 1 and 1 << dataset.n <= _TABLE_ENTRIES_PER_KEY * dataset.distinct:
        table = np.zeros(1 << dataset.n, dtype=np.int32 if dataset.s < 1 << 31 else np.int64)
        table[keys[:, 0]] = cnt
        rows = max(1, _BLOCK_ENTRIES // dataset.n)  # keys per block of lookups
        for lo in range(0, len(keys), rows):
            index, part = keys[lo:lo + rows, 0].astype(np.intp), f[lo:lo + rows]
            for b in range(dataset.n):
                part += table[index ^ (1 << b)]
        return f
    for i in range(w):
        rows = np.arange(len(keys))
        if w > 1:
            _, group, size = np.unique(_sortable(np.delete(keys, i, axis=1)),
                                       return_inverse=True, return_counts=True)
            rows = np.flatnonzero(size[group] > 1)
            if not rows.size:
                continue
        sub, ref = keys[rows], _sortable(keys[rows])
        for b in range(dataset.n - 64 * (w - 1) if i == 0 else 64):  # bits in word i
            # search from the side with the bit clear; credit both ends
            bit = np.uint64(1) << np.uint64(b)
            low = np.flatnonzero((sub[:, i] & bit) == 0)
            query = sub[low]
            query[:, i] |= bit
            query = _sortable(query)
            pos = np.minimum(np.searchsorted(ref, query), len(ref) - 1)
            hit = ref[pos] == query
            a, c = rows[low[hit]], rows[pos[hit]]
            f[a] += cnt[c]
            f[c] += cnt[a]
    return f


def _gram_threads() -> int:
    """Threads for the radius-r Gram pass, from what the process observes.

    One inside a ``multiprocessing`` child, so a pool's workers stay at one
    thread each; a process that never imported ``multiprocessing`` is no
    such child, as forked and spawned workers always have it loaded.
    Otherwise the CPUs this process may run on, divided by the threads
    BLAS was told to use: the first positive integer among
    ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``,
    else all of them (BLAS then threads each product itself). At least one.
    """
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.parent_process() is not None:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    blas = cpus
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    return max(1, cpus // blas)


def _packing(n: int, radius: int, digits: int) -> tuple:
    """(w, D) for the packed Gram pass on strings of even length n: the
    field width w, the smallest with 2**(w-1) >= max(r+1, n-r), and the
    most fields D (0 if none) for which every partial sum of a product, and
    every packed entry, is exact in a float of ``digits`` significand bits.
    """
    w = (max(radius + 1, n - radius) - 1).bit_length() + 1
    d = 0
    # a partial sum is a multiple of 1/2 of magnitude at most
    # n/2 * sum_t 2**(w*t): exact while twice that is at most 2**digits
    while w * (d + 1) <= digits and n * ((1 << w * (d + 1)) - 1) // ((1 << w) - 1) <= 1 << digits:
        d += 1
    return w, d


def _signs(dataset: ShotDataset, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """Distinct strings lo..hi-1 as rows of +-1 (a 0 bit reads +1) in
    ``out[:hi - lo]``. Columns past n, and rows past U, read +1."""
    z = out[:hi - lo]
    z.fill(1)
    bits = dataset.distinct_bits(lo, min(hi, dataset.distinct))
    z[:len(bits), :dataset.n] -= 2 * bits
    return z


def _support_within(dataset: ShotDataset, radius: int, threads: int) -> np.ndarray:
    """Radius-r support by tiled Gram products, D string pairs per entry.

    With bits mapped to +-1, z_i . z_j / 2 = h - n/2, where h = n - d(i, j)
    is the number of bits the two strings share. An odd n gains one bit
    that every string shares, so n is even and h - n/2 an integer. The
    distinct strings, padded to a multiple of D with all-zero strings of
    count 0, are packed D to a column: P[g] = sum_t 2**(w*t) * z[g*D+t] / 2.
    One product z_i . P[g], plus a constant, then holds in its field t
    (bits w*t .. w*t+w-1) the value h + 2**(w-1) - (n - r) for the pair
    (i, g*D+t), in [0, 2**w), and the field's top bit is set exactly when
    d <= r (see ``_packing`` for w and D; D = 3 at n=128, r=31). Every
    partial sum is a multiple of 1/2 of magnitude at most 2**23, so float32
    computes each entry exactly in any summation order; when S exceeds
    2**24, or no field fits float32, the pass runs in float64 and int64.

    The upper triangle is cut into tiles of ``side`` = isqrt(_BLOCK_ENTRIES
    / 4) (512) rows by as many packed columns. Row bands of tiles are
    handed out in order to ``threads`` workers (the count ``_gram_threads``
    gives), and numpy releases the GIL inside each product. A worker signs
    its band's rows from the keys when it takes the band, so only P, about
    U/D x n floats, spans the strings. Each tile is converted to integers
    once, and only rows whose entries, OR-ed together, set some field's top
    bit are decoded. For each field, its top bits credit their rows with
    the columns' counts, from the band's first string on, and their
    columns with the rows' counts, past the band's last string, each by
    one matrix-vector product. Each worker reuses two tile buffers (1 MiB
    of float32 each) and its band's signs (side x n floats), and keeps
    float64 partial supports (U entries for rows, U for columns); the
    partials are summed in worker order. The buffers come from the calling
    thread, so their memory is returned when the pass ends (what a worker
    thread allocates stays with the process), and the tile's size sets how
    often the workers hand each other the GIL. All values are exact
    integers, so the result does not depend on which worker took which
    band. Each pass logs one debug line: the radius, U, pairs compared,
    Gram entries computed, D, rows decoded, threads and seconds.
    """
    u, start = dataset.distinct, time.perf_counter()
    n = dataset.n + dataset.n % 2
    (w, per), dtype, itype = _packing(n, radius, 24), np.float32, np.int32
    if dataset.s > 1 << 24 or not per:
        (w, per), dtype, itype = _packing(n, radius, 53), np.float64, np.int64
    groups, side = -(-u // per), max(1, math.isqrt(_BLOCK_ENTRIES // 4))
    tops = [1 << (w * t + w - 1) for t in range(per)]  # each field's top bit
    hits = sum(tops)
    offset = (2 ** (w - 1) - n // 2 + radius) * sum(1 << w * t for t in range(per))
    cnt = np.zeros(groups * per, dtype=dtype)
    cnt[:u] = dataset.key_counts
    field_cnt = cnt.reshape(groups, per).T.copy()  # row t: the counts of field t
    packed = np.empty((groups, n), dtype=dtype)
    z = np.empty((side * per, n), dtype=dtype)
    for g in range(0, groups, side):
        end = min(g + side, groups)
        signs = _signs(dataset, g * per, end * per, z)
        block = np.multiply(signs[0::per], 0.5, out=packed[g:end])
        for t in range(1, per):
            block += signs[t::per] * 2.0 ** (w * t - 1)
    del z
    bands = iter(range(0, u, side))
    lock = threading.Lock()

    def work(z: np.ndarray, tile_buf: np.ndarray, field_buf: np.ndarray) -> tuple:
        rows = np.zeros(u, dtype=np.float64)
        cols = np.zeros((per, groups), dtype=np.float64)
        entries = decoded = 0
        while True:
            with lock:
                a = next(bands, None)
            if a is None:
                return rows, cols, entries, decoded
            b = min(a + side, u)
            signs = _signs(dataset, a, b, z)
            for g0 in range(a // per, groups, side):
                g1 = min(g0 + side, groups)
                size, shape = (b - a) * (g1 - g0), (b - a, g1 - g0)
                tile = np.matmul(signs, packed[g0:g1].T, out=tile_buf[:size].reshape(shape))
                fields = field_buf[:size].reshape(shape)
                np.add(tile, offset, out=fields, casting="unsafe")
                hit = np.flatnonzero(np.bitwise_or.reduce(fields, axis=1) & hits)
                entries += fields.size
                decoded += len(hit)
                if not len(hit):
                    continue
                if len(hit) < len(fields):  # gather the rows with a hit into the spent tile
                    size, shape = len(hit) * (g1 - g0), (len(hit), g1 - g0)
                    # mode "raise" would gather into a temporary first
                    fields = np.take(fields, hit, axis=0, mode="clip",
                                     out=tile_buf.view(itype)[:size].reshape(shape))
                    bit = field_buf.view(dtype)[:size].reshape(shape)
                else:
                    bit = tile
                row_cnt, credit = cnt[a + hit], np.zeros(len(hit), dtype=dtype)
                for t, top in enumerate(tops):
                    np.bitwise_and(fields, top, out=bit, casting="unsafe")
                    lo = max(0, -(-(a - t) // per) - g0)  # first column at or after a
                    credit += bit[:, lo:] @ field_cnt[t, g0 + lo:g1] / top
                    lo = max(0, -(-(b - t) // per) - g0)  # first column after the band
                    cols[t, g0 + lo:g1] += row_cnt @ bit[:, lo:] / top
                rows[a + hit] += credit

    from concurrent.futures import ThreadPoolExecutor  # loaded by the radius-r pass alone

    workers = min(threads, -(-u // side))
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(work, np.empty((side, n), dtype=dtype),
                               np.empty(side * side, dtype=dtype),
                               np.empty(side * side, dtype=itype))
                   for _ in range(workers)]
        parts = [future.result() for future in futures]
    support = sum(r + c.T.reshape(-1)[:u] for r, c, _, _ in parts)
    log.debug("radius %d support: U=%d, %d pairs compared on %d Gram entries of %d pairs, "
              "%d rows decoded, %d thread(s) in %.3f s", radius, u, u * (u - 1) // 2,
              sum(p[2] for p in parts), per, sum(p[3] for p in parts), threads,
              time.perf_counter() - start)
    return support.astype(np.int64)


def _ball(n: int, radius: int) -> int:
    """|B_n(r)|: the number of n-bit strings within distance r of one."""
    return sum(math.comb(n, i) for i in range(radius + 1))


def _threshold(s: int, n: int, config: FilterConfig, radius: int, ball: int) -> float:
    if radius == 1:
        # the radius-1 filter's expression, kept in its evaluation order
        expected = config.eta * math.ldexp(s, -n) * ball
    else:
        # lam * |B| as an int quotient: neither factor overflows a float
        expected = config.eta * (s * ball / (1 << n))
    return max(float(config.t_floor), expected)


def compute_threshold(s: int, n: int, config: FilterConfig, radius: int = 1) -> float:
    """T_r = max(t_floor, eta * (S/2**n) * |B_n(r)|); |B_n(1)| = n+1."""
    if s < 1 or n < 1:
        raise ValueError(f"need s >= 1 and n >= 1, got s={s}, n={n}")
    if not 1 <= radius <= n:
        raise ValueError(f"radius must be in [1, {n}], got {radius}")
    return _threshold(s, n, config, radius, _ball(n, radius))


def _poisson_tail(m: int, mu: float) -> float:
    """P[Poisson(mu) >= m] from log-space terms.

    For m above the mean the upper tail is summed directly; otherwise the
    lower tail is subtracted, and it is then at most 1/2 (the median is at
    least mu - ln 2), so neither side cancels. Terms are summed outward
    from m, where they are largest, until they stop changing the total, so
    nothing underflows to 0 where exp(-mu) alone would.
    """
    if m <= 0:
        return 1.0
    if mu == 0.0:  # lam*|B| underflowed: the ball is a vanishing share of 2**n
        return 0.0
    if m == 1:
        return -math.expm1(-mu)
    log_mu = math.log(mu)

    def side_sum(i, step):
        total = 0.0
        while i >= 0:
            term = math.exp(i * log_mu - mu - math.lgamma(i + 1))
            total += term
            if term <= total * 1e-17:
                break
            i += step
        return total

    if mu < m:  # terms fall by mu/(i+1) < 1 from i = m on
        return side_sum(m, 1)
    return 1.0 - side_sum(m - 1, -1)


def select_radius(s: int, n: int, config: Optional[FilterConfig] = None) -> int:
    """The radius the filter widens to when no two shots are one bit apart.

    Scans r = 1, 2, ..., n and returns the last r before the first at which
    the expected number of uniform-noise survivors,
    S * P[Poisson(lam*|B_n(r)|) >= ceil(T_r) - 1], reaches 1 (a survivor's
    own shot supplies the remaining 1 of T_r). Returns 1 when r = 1 already
    reaches it and n when no radius does. The scan stops at the first
    violation because once eta*lam*|B| outgrows t_floor the expectation
    falls below 1 again at radii far too wide to separate anything.
    """
    config = config or FilterConfig()
    if s < 1 or n < 1:
        raise ValueError(f"need s >= 1 and n >= 1, got s={s}, n={n}")
    ball, full = 1, 1 << n
    for r in range(1, n + 1):
        ball += math.comb(n, r)
        t = _threshold(s, n, config, r, ball)
        if s * _poisson_tail(math.ceil(t) - 1, s * ball / full) >= 1:
            return max(1, r - 1)
    return n


def check_threshold(threshold: Optional[float]) -> None:
    """Raise ValueError unless ``threshold`` is None or finite: a NaN or
    infinite T would keep no shot, or every shot, whatever the data."""
    if threshold is not None and not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")


def filter_dataset(
    dataset: ShotDataset,
    config: Optional[FilterConfig] = None,
    threshold: Optional[float] = None,
) -> FilterReport:
    """Keep exactly the shots whose string has support f_r(x) >= T_r.

    The radius is 1 unless all of these hold: no ``threshold`` was passed,
    the radius-1 pass keeps no shot, and no two observed strings are at
    distance 1 (every radius-1 support equals the string's own count). Then
    the pass is redone at ``select_radius(S, n, config)``, unless its T_r
    exceeds S: no support can reach it, and the pass is skipped.

    Multiplicity is preserved. Pass ``threshold`` to reuse
    an absolute T (e.g. a previous report's threshold_used) at radius 1:
    re-deriving T from the smaller filtered S would silently shift the
    criterion. Raises ValueError for a non-finite ``threshold`` and
    AllFilteredError, naming the radius tried, when no shot survives.
    """
    check_threshold(threshold)
    config = config or FilterConfig()
    s, n = dataset.s, dataset.n
    lam = math.ldexp(s, -n)
    radius = 1
    t = compute_threshold(s, n, config) if threshold is None else float(threshold)
    support = _support(dataset, 1)
    keep = support >= t
    if not keep.any() and threshold is None and np.array_equal(support, dataset.key_counts):
        radius = select_radius(s, n, config)
        if radius > 1:
            t = compute_threshold(s, n, config, radius)
            if t <= s:  # no support exceeds S, so a higher T keeps nothing
                support = _support(dataset, radius)
                keep = support >= t
    if not keep.any():
        raise AllFilteredError(
            f"threshold {t:g} at Hamming radius {radius} removed all {s} shots; "
            f"lower eta (currently {config.eta:g}) or pass an explicit --threshold"
        )
    kept = dataset.select_distinct(keep)
    return FilterReport(kept=kept, removed_count=s - kept.s, threshold_used=t, lam=lam,
                        support=support, radius=radius)
