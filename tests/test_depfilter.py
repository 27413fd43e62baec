import logging
import math
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from qem_mix import depfilter
from qem_mix.depfilter import (
    FilterConfig,
    compute_threshold,
    filter_dataset,
    select_radius,
    support_counts,
)
from qem_mix.errors import AllFilteredError
from qem_mix.shotdata import BitString, ShotDataset, hamming_distance
from qem_mix.synth import NoiseSpec, generate_shots, sample_ground_truth

from conftest import naive_support_counts, random_dataset, walsh_dataset

B = BitString.from_text


class TestSupportCounts:
    def test_single_string(self):
        ds = ShotDataset([B("00")] * 3)
        assert support_counts(ds) == {B("00"): 3}

    def test_adjacent_strings_share_support(self):
        ds = ShotDataset([B("00")] * 3 + [B("01")] * 2)
        f = support_counts(ds)
        assert f[B("00")] == 5
        assert f[B("01")] == 5

    def test_distance_two_excluded(self):
        ds = ShotDataset([B("00")] * 3 + [B("11")] * 2)
        f = support_counts(ds)
        assert f[B("00")] == 3
        assert f[B("11")] == 2

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 9))
            s = int(rng.integers(1, 120))
            ds = random_dataset(rng, n, s)
            assert support_counts(ds) == naive_support_counts(ds)

    def test_multi_word_keys_match_brute_force(self, rng):
        # n > 64 packs each string into several words; plant one-bit
        # neighbours in every word, next to unrelated strings
        for n in (65, 128, 130):
            pool = rng.integers(0, 2, size=(8, n), dtype=np.uint8)
            bits = pool[rng.integers(0, 8, size=80)]
            for row, j in zip(range(0, 80, 4), rng.integers(0, n, size=20)):
                bits[row, j] ^= 1
            bits[0, 0] ^= 1  # a toggle in the top word
            ds = ShotDataset.from_bit_matrix(bits)
            assert support_counts(ds) == naive_support_counts(ds)

    def test_radius_r_matches_brute_force(self, rng):
        repeated = False
        for _ in range(25):
            n = int(rng.integers(1, 11))
            s = int(rng.integers(1, 120))
            # draw from a small pool so strings repeat and counts exceed 1
            pool = rng.integers(0, 2, size=(int(rng.integers(1, 12)), n), dtype=np.uint8)
            ds = ShotDataset.from_bit_matrix(pool[rng.integers(0, len(pool), size=s)])
            repeated |= max(ds.counts.values()) > 1
            for radius in range(1, n + 1):
                assert support_counts(ds, radius) == naive_support_counts(ds, radius)
        assert repeated

    def test_radius_r_across_gram_blocks(self, rng, monkeypatch):
        # bands of 30 // G rows (2 or 3): pairs in different bands are
        # credited to both
        monkeypatch.setattr(depfilter, "_BLOCK_ENTRIES", 6 * 40)
        bits = rng.integers(0, 2, size=(40, 40), dtype=np.uint8)
        bits[20:25] = bits[0]  # one string five more times
        ds = ShotDataset.from_bit_matrix(bits)
        assert len(ds.counts) == 35
        for radius in (2, 15, 18, 40):
            assert support_counts(ds, radius) == naive_support_counts(ds, radius)

    @pytest.mark.parametrize("n", [1, 2, 12, 20])
    @pytest.mark.parametrize("table", [True, False], ids=["table", "search"])
    def test_table_and_search_match_brute_force(self, rng, monkeypatch, n, table):
        # the constant forces one radius-1 method; strings repeat and many
        # have one-bit neighbours
        monkeypatch.setattr(depfilter, "_TABLE_ENTRIES_PER_KEY", 1 << 24 if table else 0)
        pool = rng.integers(0, 2, size=(30, n), dtype=np.uint8)
        bits = pool[rng.integers(0, 30, size=300)]
        bits[::3][np.arange(100), np.arange(100) % n] ^= 1  # every bit position
        ds = ShotDataset.from_bit_matrix(bits)
        assert max(ds.counts.values()) > 1
        assert support_counts(ds) == naive_support_counts(ds)

    @pytest.mark.parametrize("n", [1, 12])
    def test_table_across_lookup_blocks(self, rng, monkeypatch, n):
        # blocks of 3 keys (one for n=1): neighbours in other blocks count
        monkeypatch.setattr(depfilter, "_TABLE_ENTRIES_PER_KEY", 1 << 24)
        monkeypatch.setattr(depfilter, "_BLOCK_ENTRIES", 3 * n)
        bits = rng.integers(0, 2, size=(200, n), dtype=np.uint8)
        bits[::2, 0] ^= 1
        ds = ShotDataset.from_bit_matrix(bits)
        assert support_counts(ds) == naive_support_counts(ds)

    @pytest.mark.parametrize("side", [0, -1], ids=["table", "search"])
    def test_both_sides_of_the_table_switch(self, rng, side):
        # the fewest distinct strings that still take the dense table, and
        # one fewer
        n = 12
        distinct = -(-(1 << n) // depfilter._TABLE_ENTRIES_PER_KEY) + side
        values = rng.choice(1 << n, size=distinct, replace=False)
        values = np.concatenate([values, values[: distinct // 2]])
        bits = (values[:, None] >> np.arange(n - 1, -1, -1)) & 1
        ds = ShotDataset.from_bit_matrix(bits)
        assert ds.distinct == distinct
        assert (1 << n <= depfilter._TABLE_ENTRIES_PER_KEY * ds.distinct) == (side == 0)
        assert support_counts(ds) == naive_support_counts(ds)

    def test_filter_keeps_the_same_shots_on_both_methods(self, monkeypatch):
        gt = sample_ground_truth(12, 4, 9)
        ds = generate_shots(gt, NoiseSpec(p=0.85, eps=np.full(12, 0.05)), 10000, 10)
        reports = []
        for entries in (1 << 24, 0):
            monkeypatch.setattr(depfilter, "_TABLE_ENTRIES_PER_KEY", entries)
            reports.append(filter_dataset(ds, FilterConfig(eta=1.5, t_floor=2)))
        assert reports[0].kept == reports[1].kept
        assert np.array_equal(reports[0].support, reports[1].support)

    def test_radius_below_one_rejected(self):
        with pytest.raises(ValueError):
            support_counts(ShotDataset([B("01")]), 0)

    def test_radius_is_an_integer(self, rng):
        # a numpy integer counts as its value; a float or a bool is refused
        ds = _distinct_dataset(rng, 10, 12)
        assert support_counts(ds, np.int64(3)) == support_counts(ds, 3)
        for radius in (2.0, 2.5, True):
            with pytest.raises(ValueError, match="radius"):
                support_counts(ds, radius)


def _distinct_dataset(rng, n, u):
    """U distinct n-bit strings (n <= 64), some of them repeated."""
    values = np.sort(rng.choice(1 << n, size=u, replace=False)).astype(np.uint64)
    counts = rng.integers(1, 4, size=u)
    counts[0] = 3
    return ShotDataset._make(n, values[:, None], counts)


class _NumpyWith:
    """numpy with ``matmul`` replaced, to hook the Gram pass's products."""

    def __init__(self, matmul):
        self.matmul = matmul

    def __getattr__(self, name):
        return getattr(np, name)


class TestGramTiles:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("u", [1, 3, 4, 8, 10, 17])
    def test_tiles_match_brute_force(self, rng, monkeypatch, threads, u):
        # tiles of at most 16 entries, in bands of min(U, 16 // G) rows: U
        # fits one band, is a multiple of the band height (U=10 at r=10) or
        # is off it
        monkeypatch.setattr(depfilter, "_BLOCK_ENTRIES", 8 * 4 * 4)
        monkeypatch.setattr(depfilter, "_gram_threads", lambda: threads)
        ds = _distinct_dataset(rng, 10, u)
        before = threading.active_count()
        for radius in (2, 4, 10):
            assert support_counts(ds, radius) == naive_support_counts(ds, radius)
        assert threading.active_count() == before

    @pytest.mark.parametrize("threads", [1, 2])
    def test_float64_branch_above_float32_range(self, monkeypatch, threads):
        # S > 2**24 from a few large odd counts, which float32 cannot hold
        monkeypatch.setattr(depfilter, "_BLOCK_ENTRIES", 8 * 2 * 2)
        monkeypatch.setattr(depfilter, "_gram_threads", lambda: threads)
        keys = np.array([[0b000000], [0b000011], [0b001111], [0b111111], [0b110000]],
                        dtype=np.uint64)
        counts = np.array([(1 << 24) + 1, 3, (1 << 23) + 7, 5, (1 << 24) + 9])
        ds = ShotDataset._make(6, keys, counts)
        assert ds.s > 1 << 24
        for radius in (2, 3, 4):
            assert support_counts(ds, radius) == naive_support_counts(ds, radius)

    @pytest.mark.parametrize("entries", [4 * 2, 4 * 2 * 2, 4 * 4 * 4])
    def test_each_band_takes_the_whole_packed_reference(self, rng, monkeypatch, entries):
        # G = 3 packed columns against tiles of 1, 2 and 8 entries: every
        # product spans all G columns, in bands of at least one row
        monkeypatch.setattr(depfilter, "_BLOCK_ENTRIES", entries)
        monkeypatch.setattr(depfilter, "_gram_threads", lambda: 2)
        products, lock = [], threading.Lock()

        def matmul(a, b, out):
            with lock:
                products.append((b.shape, out.size))
            return np.matmul(a, b, out=out)

        monkeypatch.setattr(depfilter, "np", _NumpyWith(matmul))
        ds = _distinct_dataset(rng, 10, 17)
        groups = -(-ds.distinct // depfilter._packing(10, 4, 24)[1])
        assert groups == 3
        assert support_counts(ds, 4) == naive_support_counts(ds, 4)
        assert products and all(shape == (10, groups) for shape, _ in products)
        assert all(size <= max(entries // 8, groups) for _, size in products)

    def test_every_worker_sums_its_bands(self, rng, monkeypatch):
        # each worker's first product waits for the others, so every worker
        # holds a band and every partial support must reach the result
        monkeypatch.setattr(depfilter, "_BLOCK_ENTRIES", 8 * 4 * 4)
        monkeypatch.setattr(depfilter, "_gram_threads", lambda: 3)
        barrier, seen = threading.Barrier(3), set()

        def matmul(*args, **kwargs):
            if threading.get_ident() not in seen:
                seen.add(threading.get_ident())
                barrier.wait(timeout=60)
            return np.matmul(*args, **kwargs)

        monkeypatch.setattr(depfilter, "np", _NumpyWith(matmul))
        ds = _distinct_dataset(rng, 10, 17)
        assert support_counts(ds, 4) == naive_support_counts(ds, 4)
        assert len(seen) == 3

    def test_more_threads_than_cpus_with_fast_switching(self, rng, monkeypatch):
        # a band taken twice or skipped would change some support
        monkeypatch.setattr(depfilter, "_BLOCK_ENTRIES", 8 * 2 * 2)
        monkeypatch.setattr(depfilter, "_gram_threads", lambda: 8)
        ds = _distinct_dataset(rng, 12, 60)
        expected = naive_support_counts(ds, 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert support_counts(ds, 5) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_worker_exception_reaches_the_caller(self, rng, monkeypatch):
        # the second tile product fails; the other worker's partial support
        # must not be returned in its place
        monkeypatch.setattr(depfilter, "_BLOCK_ENTRIES", 8 * 3 * 3)
        monkeypatch.setattr(depfilter, "_gram_threads", lambda: 2)
        calls, lock = [], threading.Lock()

        def matmul(*args, **kwargs):
            with lock:
                calls.append(threading.current_thread())
                if len(calls) == 2:
                    raise RuntimeError("tile failed")
            return np.matmul(*args, **kwargs)

        monkeypatch.setattr(depfilter, "np", _NumpyWith(matmul))
        ds = _distinct_dataset(rng, 10, 20)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="tile failed"):
            support_counts(ds, 3)
        assert calls[1] is not threading.main_thread()
        assert threading.active_count() == before


def _brute_support(ds, radii):
    """f_r of each distinct string, in key order, for every r in ``radii``,
    from the Hamming distance of every pair of bit rows."""
    bits, cnt = ds.distinct_bits(), ds.key_counts
    out = {r: np.empty(ds.distinct, dtype=np.int64) for r in radii}
    for lo in range(0, ds.distinct, 64):
        dist = (bits[lo:lo + 64, None, :] != bits[None, :, :]).sum(axis=2)
        for r in radii:
            out[r][lo:lo + 64] = (dist <= r) @ cnt
    return out


def _clustered_dataset(rng, n, u=40):
    """The n-bit strings 0...0, 1...1 and a random center, plus ``u`` drawn
    from them with bits flipped at rates up to 0.3, so that every radius
    splits some pairs; the first 9 drawn appear twice (counts above 1)."""
    centers = np.stack([np.zeros(n), np.ones(n), rng.integers(0, 2, n)]).astype(np.uint8)
    rates = rng.uniform(0, 0.3, (u, 1))
    bits = centers[rng.integers(0, 3, u)] ^ (rng.random((u, n)) < rates)
    return ShotDataset.from_bit_matrix(np.concatenate([centers, bits, bits[:9]]))


class TestPackedGram:
    def test_three_pairs_per_entry_at_n128_r31(self):
        assert depfilter._packing(128, 31, 24) == (8, 3)

    @pytest.mark.parametrize("n", [2, 10, 64, 128, 256])
    def test_packing_bound_is_exact_and_tight(self, n):
        # D fields of w bits fit, partial sums included; one more does not
        for r in range(1, n + 1):
            w, d = depfilter._packing(n, r, 24)
            assert 1 << (w - 1) >= max(r + 1, n - r) and 1 << (w - 2) < max(r + 1, n - r)
            fits = [w * k <= 24 and n * sum(1 << w * t for t in range(k)) <= 1 << 24
                    for k in (d, d + 1)]
            assert d >= 1 and fits == [True, False]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 127, 128, 129, 255])
    def test_every_radius_matches_brute_force(self, rng, monkeypatch, n, threads):
        # tiles of at most 50 entries over about 50 strings: bands of a few
        # rows against every packed column
        monkeypatch.setattr(depfilter, "_BLOCK_ENTRIES", 16 * 5 * 5)
        monkeypatch.setattr(depfilter, "_gram_threads", lambda: threads)
        ds = _clustered_dataset(rng, n)
        assert ds.key_counts.max() > 1
        expected = _brute_support(ds, range(1, n + 1))
        # radius 1 goes to its own pass in support_counts
        assert np.array_equal(depfilter._support_within(ds, 1, threads), expected[1])
        for r in range(2, n + 1):
            assert support_counts(ds, r) == dict(zip(ds.counts, expected[r].tolist()))

    @pytest.mark.parametrize("rows", [1, 2, 4, 5, 7])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_packed_groups_straddle_the_diagonal_and_the_padding(
            self, rng, monkeypatch, rows, threads):
        # D = 3 and U = 3k + 1, in bands of ``rows`` rows: a band's first
        # packed group starts before the band and its last ends past it,
        # and the last group is padding
        monkeypatch.setattr(depfilter, "_gram_threads", lambda: threads)
        ds = _clustered_dataset(rng, 128, u=33)
        ds = ds.select_distinct(np.arange(ds.distinct) < 3 * ((ds.distinct - 1) // 3) + 1)
        assert ds.distinct % 3 == 1
        monkeypatch.setattr(depfilter, "_BLOCK_ENTRIES", 8 * rows * -(-ds.distinct // 3))
        expected = _brute_support(ds, (20, 31, 40))
        for r in expected:
            assert depfilter._packing(128, r, 24)[1] == 3
            assert support_counts(ds, r) == dict(zip(ds.counts, expected[r].tolist()))

    def test_dense_hits(self):
        # n=128, K=1, 10 % noise: nearly every row decodes in every tile
        truth = sample_ground_truth(128, 1, 5)
        ds = generate_shots(truth, NoiseSpec(p=0.1, eps=np.full(128, 0.1)), 1500, 6)
        r = select_radius(ds.s, ds.n)
        support = support_counts(ds, r)
        assert support == dict(zip(ds.counts, _brute_support(ds, [r])[r].tolist()))
        assert sum(v >= compute_threshold(ds.s, ds.n, FilterConfig(), r)
                   for v in support.values()) > 0.8 * ds.distinct


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestGramThreads:
    @pytest.fixture
    def env(self, monkeypatch):
        for name in _THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        return monkeypatch

    def test_no_blas_variable_leaves_threading_to_blas(self, env):
        assert depfilter._gram_threads() == 1

    @pytest.mark.parametrize("name", _THREAD_VARS)
    def test_one_blas_thread_uses_every_cpu(self, env, name):
        env.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        env.setenv(name, "1")
        assert depfilter._gram_threads() == 4

    def test_first_valid_variable_wins(self, env):
        env.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3, 4}, raising=False)
        env.setenv("OPENBLAS_NUM_THREADS", "two")
        env.setenv("OMP_NUM_THREADS", "0")
        env.setenv("MKL_NUM_THREADS", "1")
        assert depfilter._gram_threads() == 5
        env.setenv("OMP_NUM_THREADS", "2")
        assert depfilter._gram_threads() == 2

    @pytest.mark.parametrize("value", ["abc", "", "-1", "0", "1.5"])
    def test_non_integer_counts_as_unset(self, env, value):
        env.setenv("OPENBLAS_NUM_THREADS", value)
        assert depfilter._gram_threads() == 1

    def test_never_above_the_affinity_mask(self, env):
        env.setenv("OPENBLAS_NUM_THREADS", "1")
        env.setattr(os, "cpu_count", lambda: 64)
        env.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert depfilter._gram_threads() == 1
        env.setattr(os, "sched_getaffinity", lambda pid: {3, 5, 7}, raising=False)
        assert depfilter._gram_threads() == 3
        env.setenv("OPENBLAS_NUM_THREADS", "8")
        assert depfilter._gram_threads() == 1

    def test_cpu_count_without_an_affinity_mask(self, env):
        env.delattr(os, "sched_getaffinity", raising=False)
        env.setattr(os, "cpu_count", lambda: 6)
        env.setenv("OMP_NUM_THREADS", "2")
        assert depfilter._gram_threads() == 3

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_one_thread_in_a_pool_worker(self, env, method):
        # one BLAS thread would give every CPU to a parent process
        env.setenv("OPENBLAS_NUM_THREADS", "1")
        context = multiprocessing.get_context(method)
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            assert pool.submit(depfilter._gram_threads).result(timeout=120) == 1


class TestComputeThreshold:
    def test_formula_case(self):
        t = compute_threshold(10000, 10, FilterConfig(eta=1.5, t_floor=2))
        assert t == pytest.approx(1.5 * (10000 / 1024) * 11)

    def test_floor_dominates_at_large_n(self):
        t = compute_threshold(20000, 128, FilterConfig(eta=1.5, t_floor=2))
        assert t == 2.0
        assert 1.5 * math.ldexp(20000, -128) * 129 < 1e-30

    def test_small_exact(self):
        assert compute_threshold(16, 4, FilterConfig(eta=1.0, t_floor=2)) == 5.0

    def test_radius_is_an_integer(self):
        # as in support_counts: a numpy integer counts as its value, a
        # bool or a float is refused, even one that names a valid radius
        config = FilterConfig()
        assert compute_threshold(300, 64, config, np.int64(3)) == \
            compute_threshold(300, 64, config, 3)
        for radius in (True, 2.0, 2.5):
            with pytest.raises(ValueError, match="radius"):
                compute_threshold(300, 64, config, radius)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FilterConfig(eta=0.0)
        with pytest.raises(ValueError):
            FilterConfig(t_floor=0)


def _survivors_scipy(s, n, config, r):
    """S * P[Poisson(lam*|B_n(r)|) >= ceil(T_r) - 1], with scipy."""
    from scipy.stats import poisson

    ball = sum(math.comb(n, i) for i in range(r + 1))
    t = compute_threshold(s, n, config, r)
    return s * poisson.sf(math.ceil(t) - 2, s * ball / 2**n)


def _rule_with_scipy(s, n, config):
    """The radius rule restated with scipy's Poisson tail."""
    for r in range(1, n + 1):
        if _survivors_scipy(s, n, config, r) >= 1:
            return max(1, r - 1)
    return n


class TestSelectRadius:
    def test_criterion_1_shape(self):
        # n=128, S=2*10^4, eta=1.5, t_floor=2: T stays 2 out to r=31
        assert select_radius(20000, 128, FilterConfig(eta=1.5, t_floor=2)) == 31

    def test_cli_exit_3_inputs(self):
        # two 10-bit strings 10 apart, the filter subcommand's defaults
        assert select_radius(2, 10, FilterConfig(eta=1.5, t_floor=2)) == 3

    def test_harness_inputs(self):
        assert select_radius(300, 64, FilterConfig(eta=1.5, t_floor=2)) == 14
        assert select_radius(4, 64, FilterConfig(eta=1.5, t_floor=2)) == 25

    def test_matches_scipy_poisson_tail(self):
        pytest.importorskip("scipy")
        for s, n, eta, t_floor in [
            (20000, 128, 1.5, 2), (1000, 128, 1.5, 2), (300, 64, 1.5, 2),
            (50, 20, 1.5, 2), (5000, 40, 1.5, 6), (10**6, 96, 2.0, 3),
            (2000, 30, 1.0, 2), (10000, 14, 1.5, 65), (7, 12, 3.0, 1),
        ]:
            config = FilterConfig(eta=eta, t_floor=t_floor)
            assert select_radius(s, n, config) == _rule_with_scipy(s, n, config)

    def test_stops_at_first_violation(self):
        # n=128: the survivor expectation reaches 1 at r=32 and falls below
        # 1 again once eta*lam*|B| outgrows t_floor; the rule must not
        # return one of those far wider radii
        pytest.importorskip("scipy")
        config = FilterConfig(eta=1.5, t_floor=2)
        assert _survivors_scipy(20000, 128, config, 31) < 1
        assert _survivors_scipy(20000, 128, config, 32) >= 1
        assert compute_threshold(20000, 128, config, 60) > 2.0
        assert _survivors_scipy(20000, 128, config, 60) < 1
        assert select_radius(20000, 128, config) == 31

    def test_poisson_tail_matches_scipy(self):
        # includes means past 745, where exp(-mu) alone is 0
        stats = pytest.importorskip("scipy.stats")
        for m in (0, 1, 2, 3, 7, 40, 900, 1300):
            for mu in (1e-30, 1e-5, 0.3, 1.0, 2.5, 37.2, 800.0, 1200.0):
                want = stats.poisson.sf(m - 1, mu)
                got = depfilter._poisson_tail(m, mu)
                if want < 1e-300:
                    assert got < 1e-290
                else:
                    assert got == pytest.approx(want, rel=1e-10)

    def test_dense_register_stays_at_one(self):
        assert select_radius(10000, 12, FilterConfig(eta=1.5, t_floor=2)) == 1

    @pytest.mark.parametrize("s, n, t_floor", [
        (1, 1, 2), (3, 2, 2), (10000, 12, 2), (300, 63, 2), (300, 64, 2), (4, 65, 2),
        (3000, 70, 65), (20, 4096, 2),
    ])
    def test_scan_returns_the_radius_and_its_threshold(self, s, n, t_floor):
        # (10000, 12) stops at radius 1, (3000, 70) runs out to radius n;
        # the scan also returns that radius's ball and expected survivors
        config = FilterConfig(t_floor=t_floor)
        radius = select_radius(s, n, config)
        scan = depfilter._scan_radius(s, n, config, s)
        assert scan[:2] == (radius, compute_threshold(s, n, config, radius))
        assert scan[2] == sum(math.comb(n, i) for i in range(radius + 1))
        pytest.importorskip("scipy")
        assert scan[3] == pytest.approx(_survivors_scipy(s, n, config, radius), rel=1e-10)

    def test_reference_scan_matches_the_definition(self):
        poisson = pytest.importorskip("scipy.stats").poisson
        config = FilterConfig()
        for s, n, s_ref in [(20000, 128, 2000), (52, 128, 8)]:
            scan = depfilter._scan_radius(s, n, config, s_ref)
            assert scan[:2] == _reference_scan(s, n, config, s_ref)
            assert scan[0] != select_radius(s, n, config)
            radius, t, ball, survivors = scan
            assert ball == sum(math.comb(n, i) for i in range(radius + 1))
            want = s * poisson.sf(math.ceil((t - 1) * s_ref / s) - 1, s_ref * ball / 2**n)
            assert survivors == pytest.approx(want, rel=1e-10)

    def test_wide_register_radius(self):
        assert select_radius(10, 16384, FilterConfig()) == 8043


class TestTailThreshold:
    """T_tail, the smallest integer T with S * P[Poisson(lam*(n+1)) >= T-1]
    < 1, and the expected noise survivors that a report carries."""

    @pytest.mark.parametrize("s, n, t_tail", [
        (1000, 10, 24), (1000, 12, 12), (1000, 14, 7), (2500, 10, 48), (5000, 10, 83),
        (10**4, 10, 150), (10**4, 12, 57), (10**4, 14, 24), (10**6, 20, 47),
        (2 * 10**4, 128, 2),
    ])
    def test_pins(self, s, n, t_tail):
        assert depfilter._tail_threshold(s, n) == t_tail

    @pytest.mark.parametrize("s, n", [
        (1, 1), (5, 2), (1000, 10), (10**4, 14), (10**6, 20), (10**6, 10),
        (2 * 10**4, 128), (10, 16384),
    ])
    def test_definition_holds_on_both_sides(self, s, n):
        # T_tail meets the bound and T_tail - 1 does not, by both tails;
        # P[X >= m] is scipy's sf(m - 1)
        stats = pytest.importorskip("scipy.stats")
        t, mu = depfilter._tail_threshold(s, n), s * (n + 1) / 2**n
        assert t >= 2
        assert s * depfilter._poisson_tail(t - 1, mu) < 1 <= s * depfilter._poisson_tail(t - 2, mu)
        assert s * stats.poisson.sf(t - 2, mu) < 1 <= s * stats.poisson.sf(t - 3, mu)

    def test_takes_logarithmically_many_tail_sums(self, monkeypatch):
        # n=10, S=10**6: lam*(n+1) is about 10,742
        calls, tail = [], depfilter._poisson_tail
        monkeypatch.setattr(depfilter, "_poisson_tail",
                            lambda m, mu: calls.append(m) or tail(m, mu))
        t = depfilter._tail_threshold(10**6, 10)
        assert t == 11240 and len(calls) <= 2 * t.bit_length() + 2

    @pytest.mark.parametrize("threshold", [None, 5.5, 12.0])
    def test_radius_one_report(self, rng, threshold):
        # S * P[Poisson(lam*(n+1)) >= ceil(T - 1)] at the T the pass used
        stats = pytest.importorskip("scipy.stats")
        ds = random_dataset(rng, 10, 1000)
        report = filter_dataset(ds, FilterConfig(t_floor=2), threshold=threshold)
        assert report.radius == 1 and report.t_tail == 24
        want = 1000 * stats.poisson.sf(math.ceil(report.threshold_used) - 2, 1000 * 11 / 1024)
        assert report.expected_survivors == pytest.approx(want, rel=1e-9)

    def test_widened_report(self):
        # the scan keeps the expected survivors at the radius it picks below 1
        pytest.importorskip("scipy")
        ds = ShotDataset([B(x) for x in [WIDE_A] + WIDE_CLUSTER])
        config = FilterConfig(eta=1.5, t_floor=3)
        report = filter_dataset(ds, config)
        assert report.radius == 28 and report.t_tail == 2
        assert report.expected_survivors == pytest.approx(
            _survivors_scipy(4, 64, config, 28), rel=1e-9)
        assert report.expected_survivors < 1 <= _survivors_scipy(4, 64, config, 29)


class TestFilterDataset:
    def test_identical_strings_all_kept(self):
        ds = ShotDataset([B("0110")] * 200)
        report = filter_dataset(ds, FilterConfig(eta=1.5, t_floor=2))
        assert report.kept.s == 200
        assert report.removed_count == 0
        assert report.radius == 1

    def test_uniform_dataset_mostly_removed(self):
        # >= 90% removal on purely uniform data, averaged over 20 seeds
        removed_fractions = []
        for seed in range(20):
            gt = sample_ground_truth(12, 1, 1000 + seed)
            ds = generate_shots(gt, NoiseSpec(p=1.0, eps=np.zeros(12)), 10000, 2000 + seed)
            config = FilterConfig(eta=1.5, t_floor=2)
            try:
                report = filter_dataset(ds, config)
                removed_fractions.append(report.removed_count / ds.s)
            except AllFilteredError:
                removed_fractions.append(1.0)
        assert np.mean(removed_fractions) >= 0.90

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected_before_work(self, monkeypatch, threshold):
        def no_support(*args):
            raise AssertionError("support counted")
        monkeypatch.setattr(depfilter, "_support", no_support)
        with pytest.raises(ValueError, match="finite"):
            filter_dataset(ShotDataset([B("0110")] * 10), threshold=threshold)

    def test_all_filtered_raises_with_advice(self):
        ds = ShotDataset([B("0" * 20), B("1" * 20)])
        with pytest.raises(AllFilteredError, match="eta"):
            filter_dataset(ds, FilterConfig(eta=5000.0, t_floor=2), threshold=10)

    def test_kept_is_subset_with_order(self, rng):
        ds = random_dataset(rng, 4, 300)
        report = filter_dataset(ds, FilterConfig(eta=1.0, t_floor=2))
        kept_iter = iter(ds.shots)
        for s in report.kept.shots:
            # each kept shot appears in the original in the same order
            for orig in kept_iter:
                if orig == s:
                    break
            else:
                pytest.fail("kept shot not found in original order")

    def test_every_kept_string_meets_threshold(self, rng):
        ds = random_dataset(rng, 5, 400)
        report = filter_dataset(ds, FilterConfig(eta=1.0, t_floor=2))
        f = dict(zip(ds.counts, report.support.tolist()))
        for s in report.kept.counts:
            assert f[s] >= report.threshold_used

    def test_refilter_at_fixed_threshold_never_grows(self, rng):
        # Removing shots can only lower survivors' support counts, so a
        # second pass at the same absolute T keeps a subset. Exact
        # idempotence is not a theorem on dense data: a string can owe its
        # support to a neighbor that itself fell below T.
        for seed in range(5):
            local = np.random.default_rng(seed)
            ds = random_dataset(local, 4, 500)
            first = filter_dataset(ds, FilterConfig(eta=1.0, t_floor=2))
            try:
                second = filter_dataset(first.kept, threshold=first.threshold_used)
            except AllFilteredError:
                continue  # empty set is a valid subset
            kept_counts = {k: v for k, v in first.kept.counts.items()}
            for s, c in second.kept.counts.items():
                assert kept_counts.get(s, 0) >= c

    def test_idempotent_on_cluster_data(self):
        # In the regime the filter targets (dense clusters over sparse
        # junk) the kept set is exactly stable under a re-run at the same
        # absolute threshold.
        gt = sample_ground_truth(10, 3, 17)
        eps = np.full(10, 0.05)
        ds = generate_shots(gt, NoiseSpec(p=0.85, eps=eps), 10000, 18)
        first = filter_dataset(ds, FilterConfig(eta=1.5, t_floor=2))
        second = filter_dataset(first.kept, threshold=first.threshold_used)
        assert second.kept == first.kept

    def test_threshold_override(self):
        ds = ShotDataset([B("00")] * 10 + [B("11")] * 3)
        report = filter_dataset(ds, threshold=5.0)
        assert {k.text for k in report.kept.counts} == {"00"}
        assert report.removed_count == 3

    def test_mixed_noise_keeps_clusters(self):
        # depolarized shots go, cluster shots stay
        gt = sample_ground_truth(12, 4, 9)
        eps = np.full(12, 0.05)
        ds = generate_shots(gt, NoiseSpec(p=0.85, eps=eps), 10000, 10)
        report = filter_dataset(ds, FilterConfig(eta=1.5, t_floor=2))
        kept_fraction = report.kept.s / ds.s
        assert 0.10 < kept_fraction < 0.25
        # every true center string survives
        for sol in gt.solutions:
            assert sol in report.kept.counts

    def test_report_lambda(self):
        ds = ShotDataset([B("0000")] * 160)
        report = filter_dataset(ds, FilterConfig(eta=1.0, t_floor=2))
        assert report.lam == pytest.approx(160 / 16)


# Four 64-bit strings: 0...0 alone, and three strings of 1s that are each
# 2 or 4 apart. No two are one bit apart, so at t_floor=3 the radius-1
# filter keeps nothing.
WIDE_A = "0" * 64
WIDE_CLUSTER = ["1" * 64, "1" * 62 + "00", "1" * 60 + "0011"]


class TestRadiusWidening:
    def test_widens_when_no_string_has_a_neighbor(self):
        ds = ShotDataset([B(x) for x in [WIDE_A] + WIDE_CLUSTER])
        config = FilterConfig(eta=1.5, t_floor=3)
        report = filter_dataset(ds, config)
        assert report.radius == select_radius(4, 64, config) > 1
        assert report.threshold_used == compute_threshold(4, 64, config, report.radius)
        assert {x.text for x in report.kept.counts} == set(WIDE_CLUSTER)
        assert dict(zip(ds.counts, report.support.tolist())) == \
            naive_support_counts(ds, report.radius)

    def test_widened_pass_logs_its_work(self, caplog):
        ds = ShotDataset([B(x) for x in [WIDE_A] + WIDE_CLUSTER])
        with caplog.at_level(logging.DEBUG, logger="qem_mix"):
            report = filter_dataset(ds, FilterConfig(eta=1.5, t_floor=3))
        lines = [r for r in caplog.records if r.name.startswith("qem_mix")]
        # the pass's own line, then filter_dataset's
        assert len(lines) == 2 and {r.levelno for r in lines} == {logging.DEBUG}
        message = lines[0].getMessage()
        assert message.startswith(f"radius {report.radius} support: U=4, 6 pairs compared on ")
        assert f" {depfilter._gram_threads()} thread(s) in " in message
        assert message.endswith(" s")
        assert lines[1].getMessage().startswith(f"filter: radius {report.radius}, T=3, ")

    def test_widened_pass_logs_its_packing(self, caplog):
        # n=64, r=28: three pairs per entry, so U=4 takes one band of 4 rows
        # by 2 packed columns, and each row decodes for its own pair
        ds = ShotDataset([B(x) for x in [WIDE_A] + WIDE_CLUSTER])
        with caplog.at_level(logging.DEBUG, logger="qem_mix"):
            report = filter_dataset(ds, FilterConfig(eta=1.5, t_floor=3))
        assert report.radius == 28
        message = caplog.records[0].getMessage()
        assert " on 8 Gram entries of 3 pairs, 4 rows decoded, " in message

    def test_threshold_above_s_skips_the_widened_pass(self, rng, monkeypatch):
        # at radius n every support is S, and T = 1.5 * S keeps nothing
        calls = []
        monkeypatch.setattr(depfilter, "_support_within", lambda *args: calls.append(args))
        ds = random_dataset(rng, 70, 3000)
        config = FilterConfig(t_floor=65)
        assert ds.distinct == 3000 and select_radius(3000, 70, config) == 70
        with pytest.raises(AllFilteredError, match=r"^threshold 4500 at Hamming radius 70 "
                                                   r"removed all 3000 shots; lower eta"):
            filter_dataset(ds, config)
        assert calls == []

    def test_radius_one_pass_logs_only_its_summary(self, caplog):
        # no Gram pass runs, so the one line is filter_dataset's own
        ds = ShotDataset([B("00")] * 3 + [B("01")] * 2)
        with caplog.at_level(logging.DEBUG, logger="qem_mix"):
            report = filter_dataset(ds, FilterConfig(eta=1.0))
        assert [r.getMessage() for r in caplog.records] == [
            f"filter: radius 1, T=3.75, T_tail={report.t_tail}, lambda*|B|=3.75, "
            f"{report.expected_survivors:.3g} expected noise survivors"]

    def test_distance_one_neighbor_keeps_radius_one(self):
        near_a = "0" * 63 + "1"
        ds = ShotDataset([B(x) for x in [WIDE_A, near_a] + WIDE_CLUSTER])
        with pytest.raises(AllFilteredError, match="radius 1 "):
            filter_dataset(ds, FilterConfig(eta=1.5, t_floor=3))

    def test_explicit_threshold_keeps_radius_one(self):
        ds = ShotDataset([B(x) for x in [WIDE_A] + WIDE_CLUSTER])
        with pytest.raises(AllFilteredError, match="radius 1 "):
            filter_dataset(ds, threshold=3)

    def test_widened_pass_that_keeps_nothing_names_radius(self):
        ds = ShotDataset([B(x) for x in ["0" * 64, "1" * 64, "01" * 32, "10" * 32]])
        with pytest.raises(AllFilteredError, match=r"radius 25 .*eta"):
            filter_dataset(ds, FilterConfig(eta=1.5, t_floor=2))

    def test_widest_register_fails_fast(self):
        # 10 n=16,384 strings 8,192 bits apart: the radius scan runs out to
        # r=8043, and neither it nor the threshold may rebuild the ball per
        # radius
        ds = walsh_dataset(16384, 10)
        assert ds.distinct == 10
        start = time.perf_counter()
        with pytest.raises(AllFilteredError, match=r"^threshold 2 at Hamming radius 8043 "
                                                   r"removed all 10 shots; lower eta"):
            filter_dataset(ds)
        assert time.perf_counter() - start < 10

    def test_wide_register_drops_the_junk(self):
        # n=64, half the shots uniform: every kept string lies near a true
        # solution (clean shots sit ~13 bits from theirs, junk ~32 bits)
        truth = sample_ground_truth(64, 2, 11)
        ds = generate_shots(truth, NoiseSpec(p=0.5, eps=np.full(64, 0.2)), 600, 21)
        report = filter_dataset(ds, FilterConfig(eta=1.5, t_floor=2))
        assert report.radius > 1
        assert report.kept.s > 150
        for x in report.kept.counts:
            assert min(hamming_distance(x, c) for c in truth.solutions) <= 24


def _reference_scan(s, n, config, s_ref):
    """(radius, T_r) for a reference of S_R = s_ref shots, restated from the
    definition: the radius is the last before
    S * P[Poisson(S_R*|B_n(r)|/2**n) >= ceil((T_r - 1) * S_R / S)] reaches
    1, with scipy's Poisson tail."""
    from scipy.stats import poisson

    radius = n
    for r in range(1, n + 1):
        t = compute_threshold(s, n, config, r)
        ball = sum(math.comb(n, i) for i in range(r + 1))
        if s * poisson.sf(math.ceil((t - 1) * s_ref / s) - 1, s_ref * ball / 2**n) >= 1:
            radius = max(1, r - 1)
            break
    return radius, compute_threshold(s, n, config, radius)


def _reference_filter(ds, config, m):
    """filter_dataset's widened pass restated from its definition, with a
    reference R of every ceil(U/m)-th distinct string: (radius, T, N,
    support, kept). The radius and T come from ``_reference_scan`` at R's
    shots, and the support of x is c(x) + N(x) * (S - c(x)) / (S_R - c_R(x)),
    with N(x) the shots of the strings y != x of R within the radius of x."""
    s, n, u = ds.s, ds.n, ds.distinct
    assert compute_threshold(s, n, config, _rule_with_scipy(s, n, config)) <= s
    ref = np.flatnonzero(np.arange(u) % -(-u // m) == 0)
    c = ds.key_counts.astype(np.float64)
    c_ref = np.zeros(u)
    c_ref[ref] = c[ref]
    s_ref = int(c_ref.sum())
    radius, t = _reference_scan(s, n, config, s_ref)
    bits = ds.distinct_bits()
    dist = (bits[:, None, :] != bits[None, ref, :]).sum(axis=2)
    near = ((dist <= radius) & (np.arange(u)[:, None] != ref[None, :])) @ c[ref]
    support = c + near * (s - c) / (s_ref - c_ref)
    return radius, t, near, support, ds.select_distinct(support >= t)


class TestReferencePass:
    @pytest.fixture
    def dataset(self, rng, monkeypatch):
        """The 43 strings of a clustered n=128 dataset, 52 shots, no two
        within distance 2, with a reference of every 6th string (8)."""
        monkeypatch.setattr(depfilter, "_REFERENCE_STRINGS", 8)
        ds = _clustered_dataset(rng, 128, u=40)
        assert (ds.distinct, ds.s, ds.key_counts.max()) == (43, 52, 2)
        return ds

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("t_floor", [2, 8])
    def test_filter_matches_the_definition(self, dataset, monkeypatch, threads, t_floor):
        # tiles of at most 4 entries, so bands of one row against every
        # packed column of R; at t_floor 2 every string appears once, so
        # that radius 1 keeps nothing; at t_floor 8 the scale
        # (S - c) / (S_R - c_R), not the reference's own shots, decides
        # what is kept
        pytest.importorskip("scipy")
        monkeypatch.setattr(depfilter, "_BLOCK_ENTRIES", 8 * 2 * 2)
        monkeypatch.setattr(depfilter, "_gram_threads", lambda: threads)
        ds = dataset
        if t_floor == 2:
            ds = ShotDataset.from_bit_matrix(ds.distinct_bits())
        config = FilterConfig(t_floor=t_floor)
        radius, t, near, support, kept = _reference_filter(ds, config, 8)
        report = filter_dataset(ds, config)
        assert (report.radius, report.threshold_used) == (radius, t)
        assert report.support.dtype == np.float64
        np.testing.assert_array_equal(report.support, support)
        assert report.kept == kept and 0 < kept.distinct < ds.distinct
        if t_floor == 8:
            assert radius != select_radius(ds.s, ds.n, config)
            assert (ds.key_counts + near >= t).sum() < kept.distinct

    def test_expected_survivors_count_the_reference_shots(self, dataset):
        # every 6th of the 43 strings: S_R = 9 of S = 52 shots
        stats = pytest.importorskip("scipy.stats")
        report = filter_dataset(dataset, FilterConfig(t_floor=8))
        s, s_ref, t = dataset.s, int(dataset.key_counts[::6].sum()), report.threshold_used
        assert (s, s_ref) == (52, 9) and report.radius > 1
        ball = sum(math.comb(128, i) for i in range(report.radius + 1))
        want = s * stats.poisson.sf(math.ceil((t - 1) * s_ref / s) - 1, s_ref * ball / 2**128)
        assert report.expected_survivors == pytest.approx(want, rel=1e-9)
        assert report.expected_survivors < 1

    def test_support_counts_stay_exact(self, dataset):
        expected = _brute_support(dataset, (20, 40, 60))
        for r in expected:
            assert support_counts(dataset, r) == dict(zip(dataset.counts, expected[r].tolist()))

    def test_debug_line_names_the_reference(self, dataset, caplog):
        ds = ShotDataset.from_bit_matrix(dataset.distinct_bits())
        with caplog.at_level(logging.DEBUG, logger="qem_mix"):
            report = filter_dataset(ds, FilterConfig(t_floor=2))
        per = depfilter._packing(128, report.radius, 24)[1]
        message = caplog.records[0].getMessage()
        assert message.startswith(f"radius {report.radius} support: U=43, "
                                  f"{8 * 7 // 2 + 35 * 8} pairs compared on "
                                  f"{43 * -(-8 // per)} Gram entries of {per} pairs, ")
        assert ", reference of 8 strings and 8 shots, " in message
