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
uniform noise is expected to leave at least one survivor. Supports counted
against a reference of S_R shots take the same rule with S_R in place of S
in the noise rate and the threshold scaled by S_R/S (``_scan_radius``).
One generator, ``_radii``, grows |B_n(r)| by one exact step per radius and
evaluates T_r: ``compute_threshold``, the radius scan and the report's
expected noise survivors all read it.

Both passes run on the dataset's sorted packed keys and their counts.
Radius-1 counting on keys of n <= 64 bits, where 2**n is at most
``_TABLE_ENTRIES_PER_KEY`` times the U distinct strings, scatters the
counts into a dense 2**n table and gathers each key's n neighbours with
one XOR per bit: O(2**n + n * U). Otherwise it sets each clear bit of
every key and looks the result up by binary search over the sorted keys:
O(n * U log U). Wider radii compare every distinct string with a reference
R of them, by one Gram product per band of rows against all of R:
O(U * M' * n) arithmetic in bounded memory, spread over the process's CPUs
by threads.
R is every string while U is at most ``_REFERENCE_STRINGS`` (M), and the
supports are then exact; otherwise R is every ceil(U/M)-th string in key
order, and each support is estimated from R's shots, scaled up to S (see
``_support_within``). Each float32 Gram entry answers D pairs at once, in
D bit fields of one exact integer (D = 3 at n=128, r=31), so the pass
computes U * ceil(M'/D) entries and holds R as M'/D packed rows.
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
# 1; at radius r > 1 a band's Gram tile holds an eighth as many (512 KiB of
# float32), or one row when the packed reference alone is wider.
_BLOCK_ENTRIES = 1 << 20
# The widened pass counts support against every string while there are at
# most this many distinct strings, else against every ceil(U/M)-th one.
# 2048 keeps the widened golden inputs (U = 2000) exact; 4096 cost about
# twice as much at n=128, S=2*10**4 and dropped one string from one kept
# set; 1024 also passed criterion 1 but would move those inputs' outputs.
_REFERENCE_STRINGS = 2048


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
    widened), aligned with the keys of the dataset filtered. It is int64,
    except after a widened pass over more than ``_REFERENCE_STRINGS``
    distinct strings: it then holds the float64 estimates of f_r counted
    against a reference of them (see ``_support_within``).

    ``t_tail`` is the radius-1 threshold that uniform noise is expected to
    reach at most once: the smallest integer T with
    S * P[Poisson(lam*(n+1)) >= T-1] < 1 (see ``_tail_threshold``).
    ``expected_survivors`` is how many of the S shots uniform noise is
    expected to carry past ``threshold_used`` at ``radius``, with supports
    counted against the pass's reference (see ``_noise_survivors``).
    """

    kept: ShotDataset
    removed_count: int
    threshold_used: float
    lam: float
    t_tail: int
    expected_survivors: float
    support: np.ndarray = field(repr=False, compare=False)
    radius: int = 1


def support_counts(dataset: ShotDataset, radius: int = 1) -> dict:
    """f_r(x) per distinct observed string: the number of shots within
    Hamming distance ``radius`` of x, its own shots included.

    Only observed strings contribute (unobserved neighbors count 0).
    Radius 1 costs O(2**n + n * U) where the dense table applies, else
    O(n * U log U); wider radii cost O(U**2 * n). ``radius`` is an
    integer, a numpy one included; a bool or a float raises ValueError.
    """
    _check_integer("radius", radius)
    radius = int(radius)
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    f = _support(dataset) if radius == 1 else _support_within(dataset, radius, _gram_threads())
    return dict(zip(dataset.counts, f.tolist()))


def _support(dataset: ShotDataset) -> np.ndarray:
    """f_1 per distinct string, aligned with ``dataset.keys``.

    On one-word keys with 2**n at most
    ``_TABLE_ENTRIES_PER_KEY`` entries per distinct string, the counts are
    scattered into a dense 2**n table and each key gathers its n neighbours
    with one XOR per bit. Otherwise, for each bit, every key with the bit
    clear is looked up with the bit set by binary search over the sorted
    keys, and each pair found credits both ends. Two strings one bit apart
    share every key word but the toggled one, so on multi-word keys only
    rows that share those words with another row are searched.
    """
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


def _support_within(dataset: ShotDataset, radius: int, threads: int,
                    step: int = 1) -> np.ndarray:
    """Radius-r support by tiled Gram products, D string pairs per entry,
    counted against the reference R of every ``step``-th distinct string.

    With ``step`` 1, R is every string and the result is f_r as int64.
    Otherwise it is the float64 estimate
    f(x) = c(x) + N(x) * (S - c(x)) / (S_R - c_R(x)), where N(x) counts the
    shots of the strings y != x of R within distance r of x, S_R is R's
    shot count, and c_R(x) is c(x) if x is in R, else 0.

    With bits mapped to +-1, z_i . z_j / 2 = h - n/2, where h = n - d(i, j)
    is the number of bits the two strings share. An odd n gains one bit
    that every string shares, so n is even and h - n/2 an integer. The
    strings of R, padded to a multiple of D with all-zero strings of
    count 0, are packed D to a column: P[g] = sum_t 2**(w*t) * z[g*D+t] / 2.
    One product z_i . P[g], plus a constant, then holds in its field t
    (bits w*t .. w*t+w-1) the value h + 2**(w-1) - (n - r) for the pair
    (i, g*D+t), in [0, 2**w), and the field's top bit is set exactly when
    d <= r (see ``_packing`` for w and D; D = 3 at n=128, r=31). Every
    partial sum is a multiple of 1/2 of magnitude at most 2**23, so float32
    computes each entry exactly in any summation order; when S exceeds
    2**24, or no field fits float32, the pass runs in float64 and int64.

    The U x G product, G = ceil(M'/D) packed columns and M' the strings of
    R, is cut into bands of ``(_BLOCK_ENTRIES // 8) // G`` rows (at least
    one, at most U), and each band is multiplied by all G columns at once:
    a tile of at most an eighth of ``_BLOCK_ENTRIES`` entries (512 KiB of
    float32) while G is at most that, 196 rows at M' = 2000, D = 3. R is
    signed in one piece and packed, and its signs are freed before the
    workers start, so only P, about M'/D x n floats, spans R. Bands are
    handed out in order to ``threads`` workers (the count ``_gram_threads``
    gives), and numpy releases the GIL inside each product. A worker signs
    its band's rows from the keys when it takes the band. Each tile is
    converted to integers once, and only rows whose entries, OR-ed
    together, set some field's top bit are gathered into the spent tile
    and decoded. For each field, its top bits credit their rows with the
    columns' counts by one matrix-vector product, and each band's rows are
    credited by the one worker that took it. Each worker reuses two tile
    buffers and its band's signs (rows x n floats). The buffers come from
    the calling thread, so their memory is returned when the pass ends
    (what a worker thread allocates stays with the process), and the
    tile's size sets how often the workers hand each other the GIL. All
    credits are exact integers, so the result does not depend on which
    worker took which band. ``filter_dataset``'s R holds at most
    ``_REFERENCE_STRINGS`` + D - 1 rows with its padding; ``support_counts``
    at r > 1 passes every string as R, so it briefly holds U x n signs
    next to the U/D x n packed floats. Each pass logs one debug line: the
    radius, U, pairs compared (those with an end in R), Gram entries
    computed (U x G), D, rows decoded, R's strings and shots, threads and
    seconds.
    """
    u, start = dataset.distinct, time.perf_counter()
    reference = dataset if step == 1 else dataset.select_distinct(np.arange(u) % step == 0)
    m = reference.distinct
    n = dataset.n + dataset.n % 2
    (w, per), dtype, itype = _packing(n, radius, 24), np.float32, np.int32
    if dataset.s > 1 << 24 or not per:
        (w, per), dtype, itype = _packing(n, radius, 53), np.float64, np.int64
    groups = -(-m // per)
    rows = max(1, min(u, (_BLOCK_ENTRIES // 8) // groups))  # rows per band
    tops = [1 << (w * t + w - 1) for t in range(per)]  # each field's top bit
    hits = sum(tops)
    offset = (2 ** (w - 1) - n // 2 + radius) * sum(1 << w * t for t in range(per))
    field_cnt = np.zeros((per, groups), dtype=dtype)  # row t: the counts of field t
    field_cnt.T.flat[:m] = reference.key_counts
    z = _signs(reference, 0, groups * per, np.empty((groups * per, n), dtype=dtype))
    packed = sum(z[t::per] * 2.0 ** (w * t - 1) for t in range(per))
    del z
    near = np.zeros(u, dtype=np.float64)  # shots of R within r, own included
    bands = iter(range(0, u, rows))
    lock = threading.Lock()

    def work(z: np.ndarray, tile_buf: np.ndarray, field_buf: np.ndarray) -> int:
        decoded = 0
        while True:
            with lock:
                a = next(bands, None)
            if a is None:
                return decoded
            signs = _signs(dataset, a, min(a + rows, u), z)
            size, shape = len(signs) * groups, (len(signs), groups)
            tile = np.matmul(signs, packed.T, out=tile_buf[:size].reshape(shape))
            fields = np.add(tile, offset, out=field_buf[:size].reshape(shape), casting="unsafe")
            hit = np.flatnonzero(np.bitwise_or.reduce(fields, axis=1) & hits)
            decoded += len(hit)
            if not len(hit):
                continue
            # gather the rows with a hit into the spent tile; mode "raise"
            # would gather into a temporary first
            size, shape = len(hit) * groups, (len(hit), groups)
            fields = np.take(fields, hit, axis=0, mode="clip",
                             out=tile_buf.view(itype)[:size].reshape(shape))
            bit = field_buf.view(dtype)[:size].reshape(shape)
            credit = np.zeros(len(hit), dtype=dtype)
            for t, top in enumerate(tops):
                np.bitwise_and(fields, top, out=bit, casting="unsafe")
                credit += bit @ field_cnt[t] / top
            near[a + hit] += credit

    from concurrent.futures import ThreadPoolExecutor  # loaded by the radius-r pass alone

    workers = min(threads, -(-u // rows))
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(work, np.empty((rows, n), dtype=dtype),
                               np.empty(rows * groups, dtype=dtype),
                               np.empty(rows * groups, dtype=itype))
                   for _ in range(workers)]
        decoded = sum(future.result() for future in futures)
    log.debug("radius %d support: U=%d, %d pairs compared on %d Gram entries of %d pairs, "
              "%d rows decoded, reference of %d strings and %d shots, %d thread(s) in %.3f s",
              radius, u, m * (m - 1) // 2 + (u - m) * m, u * groups, per, decoded, m,
              reference.s, threads, time.perf_counter() - start)
    if step == 1:
        return near.astype(np.int64)
    c = dataset.key_counts.astype(np.float64)
    c_ref = np.zeros(u)
    c_ref[::step] = c[::step]
    return c + (near - c_ref) * (dataset.s - c) / (reference.s - c_ref)


def _radii(s: int, n: int, config: FilterConfig):
    """(r, |B_n(r)|, T_r) for r = 1, 2, ..., n: the one place the filter's
    rule T_r = max(t_floor, eta * lam * |B_n(r)|) is evaluated. The ball
    grows by one exact step per radius, C(n, r) = C(n, r-1) * (n-r+1) / r,
    so the whole scan costs O(n**2) word operations."""
    ball = comb = 1
    for r in range(1, n + 1):
        comb = comb * (n - r + 1) // r
        ball += comb
        # radius 1 keeps the radius-1 filter's evaluation order; wider balls
        # take lam * |B| as an int quotient, so neither factor overflows
        expected = config.eta * math.ldexp(s, -n) * ball if r == 1 \
            else config.eta * (s * ball / (1 << n))
        yield r, ball, max(float(config.t_floor), expected)


def compute_threshold(s: int, n: int, config: FilterConfig, radius: int = 1) -> float:
    """T_r = max(t_floor, eta * (S/2**n) * |B_n(r)|); |B_n(1)| = n+1.
    ``radius`` is an integer, a numpy one included; a bool or a float
    raises ValueError."""
    if s < 1 or n < 1:
        raise ValueError(f"need s >= 1 and n >= 1, got s={s}, n={n}")
    _check_integer("radius", radius)
    if not 1 <= radius <= n:
        raise ValueError(f"radius must be in [1, {n}], got {radius}")
    return next(t for r, _, t in _radii(s, n, config) if r == radius)


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


def _noise_survivors(s: int, t: float, s_ref: int, mu: float) -> float:
    """S * P[Poisson(mu) >= ceil((T - 1) * S_R / S)]: the shots of uniform
    noise expected to pass T when supports are counted against ``s_ref``
    of the S shots, ``mu`` being those shots' expected count in one ball.
    A noise string passes when its reference neighbours reach that bound;
    its own shot supplies the remaining 1 of T."""
    p, q = t.as_integer_ratio()
    need = -((q - p) * s_ref // (q * s))  # ceil((t - 1) * s_ref / s), exactly
    return s * _poisson_tail(need, mu)


def _tail_threshold(s: int, n: int) -> int:
    """T_tail: the smallest integer T with S * P[Poisson(lam*(n+1)) >= T-1]
    < 1, lam = S/2**n, found by doubling and then bisection over T, so it
    takes O(log T) tail sums. T = 1 never qualifies (P[X >= 0] = 1), so
    T_tail is at least 2."""
    mu = s * (n + 1) / (1 << n)
    lo, hi = 1, 2  # S * P[X >= lo - 1] >= 1 and S * P[X >= hi - 1] < 1, once found
    while s * _poisson_tail(hi - 1, mu) >= 1:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if s * _poisson_tail(mid - 1, mu) >= 1:
            lo = mid
        else:
            hi = mid
    return hi


def select_radius(s: int, n: int, config: Optional[FilterConfig] = None) -> int:
    """The radius the filter widens to when no two shots are one bit apart.

    Scans r = 1, 2, ..., n and returns the last r before the first at which
    the expected number of uniform-noise survivors,
    S * P[Poisson(lam*|B_n(r)|) >= ceil(T_r) - 1], reaches 1 (a survivor's
    own shot supplies the remaining 1 of T_r). Returns 1 when r = 1 already
    reaches it and n when no radius does. The scan stops at the first
    violation because once eta*lam*|B| outgrows t_floor the expectation
    falls below 1 again at radii far too wide to separate anything. The
    scan is ``_scan_radius`` at S_R = S.
    """
    config = config or FilterConfig()
    if s < 1 or n < 1:
        raise ValueError(f"need s >= 1 and n >= 1, got s={s}, n={n}")
    return _scan_radius(s, n, config, s)[0]


def _scan_radius(s: int, n: int, config: FilterConfig, s_ref: int) -> tuple:
    """(radius, T_r, |B_n(r)|, expected noise survivors) at the radius of
    ``select_radius``'s scan for supports counted against a reference of
    ``s_ref`` of the S shots (see ``_support_within``): a noise string is
    kept when its reference neighbours reach ceil((T_r - 1) * S_R / S), so
    the expected survivors are S * P[Poisson(S_R*|B_n(r)|/2**n) >= that].
    With S_R = S this is ``select_radius``'s rule, computed exactly. The
    balls and thresholds come from ``_radii``."""
    last = None
    for r, ball, t in _radii(s, n, config):
        survivors = _noise_survivors(s, t, s_ref, s_ref * ball / (1 << n))
        if survivors >= 1:
            return last or (r, t, ball, survivors)
        last = r, t, ball, survivors
    return last


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
    exceeds S: no support can reach it, and the pass is skipped. With more
    than ``_REFERENCE_STRINGS`` distinct strings, the redone pass estimates
    each support from every ceil(U/M)-th string (never above S), at the
    radius and T_r (still computed from S) that ``_scan_radius`` picks for
    that reference's shots; below that count it is exact, as at radius 1.

    Multiplicity is preserved. Pass ``threshold`` to reuse
    an absolute T (e.g. a previous report's threshold_used) at radius 1:
    re-deriving T from the smaller filtered S would silently shift the
    criterion. Raises ValueError for a non-finite ``threshold`` and
    AllFilteredError, naming the radius tried, when no shot survives.
    Before either outcome it logs one debug line: the radius, T, T_tail,
    lam*|B| and the expected noise survivors that the report carries.
    """
    check_threshold(threshold)
    config = config or FilterConfig()
    s, n = dataset.s, dataset.n
    radius, ball, t = next(_radii(s, n, config))
    t = t if threshold is None else float(threshold)
    survivors = _noise_survivors(s, t, s, s * ball / (1 << n))
    support = _support(dataset)
    keep = support >= t
    if not keep.any() and threshold is None and np.array_equal(support, dataset.key_counts):
        radius, t, ball, survivors = _scan_radius(s, n, config, s)
        step = -(-dataset.distinct // _REFERENCE_STRINGS)
        if t <= s and step > 1:
            s_ref = int(dataset.key_counts[::step].sum())  # the reference's shots
            radius, t, ball, survivors = _scan_radius(s, n, config, s_ref)
        if radius > 1 and t <= s:  # no support exceeds S, so a higher T keeps nothing
            support = _support_within(dataset, radius, _gram_threads(), step)
            keep = support >= t
    t_tail = _tail_threshold(s, n)
    log.debug("filter: radius %d, T=%g, T_tail=%d, lambda*|B|=%g, "
              "%.3g expected noise survivors", radius, t, t_tail, s * ball / (1 << n), survivors)
    if not keep.any():
        raise AllFilteredError(
            f"threshold {t:g} at Hamming radius {radius} removed all {s} shots; "
            f"lower eta (currently {config.eta:g}) or pass an explicit --threshold"
        )
    kept = dataset.select_distinct(keep)
    return FilterReport(kept=kept, removed_count=s - kept.s, threshold_used=t,
                        lam=math.ldexp(s, -n), t_tail=t_tail, expected_survivors=survivors,
                        support=support, radius=radius)
