import json
import os

import numpy as np
import pytest
from scipy import stats

from qem_mix.errors import DimensionError, InfeasibleError, ParseError
from qem_mix.shotdata import BitString, ShotDataset
from qem_mix.synth import (
    GroundTruth,
    NoiseSpec,
    generate_shots,
    load_ground_truth,
    sample_flip_probabilities,
    sample_ground_truth,
    save_ground_truth,
)

from conftest import PEAK, run_python


class TestNoiseSpec:
    def test_validation(self):
        NoiseSpec(p=0.5, eps=np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            NoiseSpec(p=1.5, eps=np.array([0.1]))
        with pytest.raises(ValueError):
            NoiseSpec(p=0.5, eps=np.array([0.5]))
        with pytest.raises(ValueError):
            NoiseSpec(p=0.5, eps=np.array([-0.01]))

    @pytest.mark.parametrize("p,eps", [(np.nan, [0.1]), (0.5, [0.1, np.nan])])
    def test_nan_rejected(self, p, eps):
        with pytest.raises(ValueError):
            NoiseSpec(p=p, eps=np.array(eps))

    def test_depth_label_inert(self):
        a = NoiseSpec(p=0.5, eps=np.array([0.1]), depth_label="D=800")
        assert a.depth_label == "D=800"


class TestGroundTruth:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroundTruth(
                (BitString.from_text("01"), BitString.from_text("01")),
                np.array([0.5, 0.5]),
            )
        with pytest.raises(ValueError):
            GroundTruth((BitString.from_text("01"),), np.array([0.9]))

    def test_arbitrary_weights_supported(self):
        gt = GroundTruth(
            (BitString.from_text("00"), BitString.from_text("11")),
            np.array([0.3, 0.7]),
        )
        assert gt.k == 2


class TestSampleGroundTruth:
    def test_n1_k2_forced(self):
        gt = sample_ground_truth(1, 2, 123)
        assert sorted(s.text for s in gt.solutions) == ["0", "1"]
        assert np.allclose(gt.weights, [0.5, 0.5])

    def test_distinct_and_uniform_weights(self):
        gt = sample_ground_truth(10, 8, 7)
        assert len(set(s.text for s in gt.solutions)) == 8
        assert np.allclose(gt.weights, 1 / 8)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            sample_ground_truth(2, 5, 0)

    def test_exhaustive_small_space(self):
        gt = sample_ground_truth(2, 4, 5)
        assert sorted(s.text for s in gt.solutions) == ["00", "01", "10", "11"]

    def test_deterministic(self):
        a = sample_ground_truth(20, 4, 99)
        b = sample_ground_truth(20, 4, 99)
        assert [s.text for s in a.solutions] == [s.text for s in b.solutions]

    def test_large_n_distinct(self):
        gt = sample_ground_truth(128, 8, 3)
        assert len(set(s.value for s in gt.solutions)) == 8


class TestSampleFlipProbabilities:
    def test_range_and_shape(self):
        eps = sample_flip_probabilities(50, 1, 0.05, 0.15)
        assert eps.shape == (50,)
        assert np.all((eps >= 0.05) & (eps <= 0.15))

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            sample_flip_probabilities(10, 1, 0.2, 0.1)
        with pytest.raises(ValueError):
            sample_flip_probabilities(10, 1, 0.1, 0.6)


class TestGenerateShots:
    def test_noiseless_shots_are_solutions(self):
        gt = sample_ground_truth(8, 3, 11)
        noise = NoiseSpec(p=0.0, eps=np.zeros(8))
        ds = generate_shots(gt, noise, 3000, 12)
        solutions = {s.text for s in gt.solutions}
        assert all(s.text in solutions for s in ds.shots)
        # empirical frequencies close to the uniform weights
        for sol in gt.solutions:
            freq = ds.counts[sol] / ds.s
            assert abs(freq - 1 / 3) < 0.05

    def test_uniform_when_fully_depolarized(self):
        # chi-square goodness of fit over all 2**12 cells
        gt = sample_ground_truth(12, 2, 21)
        noise = NoiseSpec(p=1.0, eps=np.full(12, 0.1))
        ds = generate_shots(gt, noise, 10000, 22)
        observed = np.zeros(4096)
        for s, c in ds.counts.items():
            observed[s.value] = c
        result = stats.chisquare(observed)
        assert result.pvalue > 0.001

    def test_per_bit_flip_rate_matches_eps(self):
        # K=1, p=0: empirical flip fraction within a binomial CI of eps_j
        gt = sample_ground_truth(16, 1, 31)
        eps = sample_flip_probabilities(16, 32, 0.05, 0.15)
        noise = NoiseSpec(p=0.0, eps=eps)
        s = 50000
        ds = generate_shots(gt, noise, s, 33)
        center = gt.solutions[0].bits()
        flips = (ds.bit_matrix ^ center).mean(axis=0)
        half_width = 4.0 * np.sqrt(eps * (1 - eps) / s)
        assert np.all(np.abs(flips - eps) < half_width)

    def test_deterministic_given_seed(self):
        gt = sample_ground_truth(32, 4, 41)
        noise = NoiseSpec(p=0.6, eps=np.full(32, 0.1))
        a = generate_shots(gt, noise, 500, 42)
        b = generate_shots(gt, noise, 500, 42)
        assert a == b
        c = generate_shots(gt, noise, 500, 43)
        assert a != c

    def test_eps_width_mismatch(self):
        gt = sample_ground_truth(8, 2, 51)
        with pytest.raises(DimensionError):
            generate_shots(gt, NoiseSpec(p=0.0, eps=np.zeros(9)), 10, 52)

    def test_weighted_components(self):
        gt = GroundTruth(
            (BitString.from_text("00000000"), BitString.from_text("11111111")),
            np.array([0.9, 0.1]),
        )
        ds = generate_shots(gt, NoiseSpec(p=0.0, eps=np.zeros(8)), 5000, 61)
        freq = ds.counts[gt.solutions[0]] / ds.s
        assert abs(freq - 0.9) < 0.02


def reference_generate(truth, noise, s, seed):
    """Shots drawn as an S x n bit matrix, the way ``generate_shots`` drew
    them before it packed them as drawn; the same draws in the same order."""
    rng = np.random.default_rng(seed)
    depolarized = rng.random(s) < noise.p
    cum = np.cumsum(truth.weights)
    cum[-1] = 1.0
    comp = np.searchsorted(cum, rng.random(s), side="right")
    bits = np.empty((s, truth.n), dtype=np.uint8)
    n_dep = int(depolarized.sum())
    if n_dep:
        bits[depolarized] = rng.integers(0, 2, size=(n_dep, truth.n), dtype=np.uint8)
    if n_dep < s:
        centers = np.array([x.bits() for x in truth.solutions])
        flips = (rng.random((s - n_dep, truth.n)) < noise.eps).astype(np.uint8)
        bits[~depolarized] = centers[comp[~depolarized]] ^ flips
    return bits


class TestGenerateShotsReference:
    @pytest.mark.parametrize("n", [1, 7, 8, 20, 63, 64, 65, 128, 130])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("k", [1, 3])
    def test_equals_bit_matrix_construction(self, n, p, k):
        truth = sample_ground_truth(n, min(k, 1 << n), 100 + n)
        noise = NoiseSpec(p=p, eps=sample_flip_probabilities(n, 200 + n))
        ds = generate_shots(truth, noise, 300, 300 + n)
        bits = reference_generate(truth, noise, 300, 300 + n)
        rows, counts = np.unique(bits, axis=0, return_counts=True)
        assert np.array_equal(ds.distinct_bits(), rows)
        assert ds.key_counts.tolist() == counts.tolist()
        assert ds == ShotDataset.from_bit_matrix(bits)


class TestBlockedDraws:
    # blocks of 4k rows continue the generator's stream; other row counts
    # (13 rows of 3 bits, 41 rows of 1 bit) would not
    @pytest.mark.parametrize("draw_bits", [1, 40, 41])
    @pytest.mark.parametrize("n", [1, 3, 7, 65])
    @pytest.mark.parametrize("p", [0.0, 0.4, 1.0])
    def test_blocks_equal_one_draw(self, monkeypatch, draw_bits, n, p):
        from qem_mix import synth

        monkeypatch.setattr(synth, "_DRAW_BITS", draw_bits)
        truth = sample_ground_truth(n, min(2, 1 << n), 400 + n)
        noise = NoiseSpec(p=p, eps=sample_flip_probabilities(n, 500 + n))
        ds = generate_shots(truth, noise, 1001, 600 + n)
        assert ds == ShotDataset.from_bit_matrix(reference_generate(truth, noise, 1001, 600 + n))

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_peak_memory_is_bounded(self, p):
        # S x n uint8 bits would be 64 MB here, and their flip doubles 512 MB
        code = (
            PEAK +
            "from qem_mix.synth import (NoiseSpec, generate_shots,\n"
            "                           sample_flip_probabilities, sample_ground_truth)\n"
            "truth = sample_ground_truth(128, 4, 1)\n"
            f"noise = NoiseSpec(p={p}, eps=sample_flip_probabilities(128, 2))\n"
            "before = peak()\n"
            "generate_shots(truth, noise, 500_000, 3)\n"
            "print((peak() - before) // 1024)\n"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 64  # MB above the process's peak before the call


class TestSidecarIO:
    def test_round_trip(self, tmp_path):
        gt = sample_ground_truth(10, 4, 71)
        eps = sample_flip_probabilities(10, 72, 0.02, 0.1)
        noise = NoiseSpec(p=0.85, eps=eps, depth_label="demo")
        path = tmp_path / "truth.json"
        save_ground_truth(gt, noise, path, seed=71)
        gt2, noise2 = load_ground_truth(path)
        assert [s.text for s in gt2.solutions] == [s.text for s in gt.solutions]
        assert np.allclose(gt2.weights, gt.weights)
        assert noise2.p == noise.p
        assert np.allclose(noise2.eps, noise.eps)
        assert noise2.depth_label == "demo"

    def test_out_of_range_number_is_parse_error(self, tmp_path):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps({
            "solutions": ["01"], "weights": [1.0], "p": 10**400, "eps": [0.1, 0.1],
        }))
        with pytest.raises(ParseError):
            load_ground_truth(path)
