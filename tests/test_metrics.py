import itertools
import textwrap

import numpy as np
import pytest

from qem_mix.emcore import MixtureModel
from qem_mix.errors import DimensionError, NormalizationError
from qem_mix.metrics import (
    ber,
    hellinger_fidelity,
    model_to_distribution,
)
from qem_mix.shotdata import BitString, hamming_distance

from conftest import random_bitstring, run_python

B = BitString.from_text


def exhaustive_best_matching(truth, estimate, n):
    """Minimal total distance over all pairings (test oracle only)."""
    k = min(len(truth), len(estimate))
    best = None
    idx_e = range(len(estimate))
    for chosen in itertools.permutations(idx_e, k):
        for t_subset in itertools.permutations(range(len(truth)), k):
            total = sum(
                hamming_distance(truth[ti], estimate[ei])
                for ti, ei in zip(t_subset, chosen)
            )
            if best is None or total < best:
                best = total
    return best / (n * len(truth))


class TestBer:
    def test_identical_sets_any_order(self):
        truth = [B("0011"), B("1100"), B("0101")]
        estimate = [B("0101"), B("0011"), B("1100")]
        result = ber(truth, estimate, 4)
        assert result.ber == 0.0
        assert result.k_correct

    def test_worked_example(self):
        result = ber([B("00"), B("11")], [B("01"), B("11")], 2)
        assert result.ber == pytest.approx(0.25)
        assert result.k_correct
        # 11<->11 matched first at distance 0
        assert (1, 1, 0) in result.matching

    def test_size_mismatch_exhaustion(self):
        result = ber([B("00"), B("11")], [B("11")], 2)
        assert result.ber == 0.0
        assert not result.k_correct
        assert result.matching == ((1, 0, 0),)

    def test_permutation_invariance(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 10))
            truth = [random_bitstring(rng, n) for _ in range(int(rng.integers(1, 5)))]
            estimate = [random_bitstring(rng, n) for _ in range(int(rng.integers(1, 5)))]
            base = ber(truth, estimate, n).ber
            for _ in range(3):
                pt = [truth[i] for i in rng.permutation(len(truth))]
                pe = [estimate[i] for i in rng.permutation(len(estimate))]
                assert ber(pt, pe, n).ber == base

    def test_greedy_vs_exhaustive_divergence_recorded(self, rng):
        # greedy is normative; the optimal assignment is only a lower bound
        diverged = 0
        for _ in range(60):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 5))
            truth = [random_bitstring(rng, n) for _ in range(k)]
            estimate = [random_bitstring(rng, n) for _ in range(k)]
            greedy = ber(truth, estimate, n).ber
            optimal = exhaustive_best_matching(truth, estimate, n)
            assert greedy >= optimal - 1e-12
            if greedy > optimal + 1e-12:
                diverged += 1
        # divergence is possible but rare on random instances
        assert diverged <= 10

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            ber([B("00")], [B("000")], 2)

    def test_dimension_error_quotes_a_wide_string_in_part(self):
        with pytest.raises(DimensionError) as info:
            ber([B("0" * 16)], [B("01" * 8000)], 16)
        assert str(info.value) == f"string {'01' * 40!r}… has 16000 bits, expected 16"

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            ber([], [B("00")], 2)


class TestHellingerFidelity:
    def test_identical(self):
        p = {"00": 0.25, "01": 0.75}
        assert hellinger_fidelity(p, dict(p)) == pytest.approx(1.0)

    def test_disjoint(self):
        assert hellinger_fidelity({"00": 1.0}, {"11": 1.0}) == 0.0

    def test_disjoint_is_the_float_zero(self):
        # rows.csv writes the value as it is: an int 0 would read "0"
        got = hellinger_fidelity({"00": 1.0}, {"11": 1.0})
        assert type(got) is float and got == 0.0

    def test_half_overlap(self):
        got = hellinger_fidelity({"0": 0.5, "1": 0.5}, {"0": 1.0})
        assert got == pytest.approx(0.5)

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            hellinger_fidelity({"0": 0.5}, {"0": 1.0})
        with pytest.raises(NormalizationError):
            hellinger_fidelity({"0": 1.5, "1": -0.5}, {"0": 1.0})

    def test_nan_rejected(self):
        nan, half = {"0": float("nan"), "1": 1.0}, {"0": 0.5, "1": 0.5}
        with pytest.raises(NormalizationError, match="p\\['0'\\]"):
            hellinger_fidelity(nan, half)
        with pytest.raises(NormalizationError, match="q\\['0'\\]"):
            hellinger_fidelity(half, nan)

    def test_symmetry_and_bounds(self, rng):
        for _ in range(1000):
            n_keys = int(rng.integers(1, 8))
            keys = [format(v, "04b") for v in rng.choice(16, size=n_keys, replace=False)]
            p_raw = rng.random(n_keys)
            q_raw = rng.random(n_keys)
            p = dict(zip(keys, p_raw / p_raw.sum()))
            q = dict(zip(keys, q_raw / q_raw.sum()))
            f_pq = hellinger_fidelity(p, q)
            f_qp = hellinger_fidelity(q, p)
            assert abs(f_pq - f_qp) < 1e-12
            assert -1e-12 <= f_pq <= 1.0 + 1e-9

    def test_independent_of_string_hashing(self):
        # 64 shared keys: summed in set order, the last digits of the
        # result would follow each interpreter's PYTHONHASHSEED
        code = textwrap.dedent("""
            import numpy as np
            from qem_mix.metrics import hellinger_fidelity
            rng = np.random.default_rng(5)
            keys = [format(v, "012b") for v in rng.choice(4096, size=64, replace=False)]
            p, q = rng.random(64), rng.random(64)
            p, q = dict(zip(keys, p / p.sum())), dict(zip(keys, q / q.sum()))
            print(repr(hellinger_fidelity(p, q)))
        """)
        runs = [run_python(code, PYTHONHASHSEED=seed) for seed in ("0", "2")]
        assert all(r.returncode == 0 for r in runs), runs[0].stderr
        assert runs[0].stdout == runs[1].stdout != ""


class TestModelDistribution:
    def test_point_mass(self):
        model = MixtureModel((B("01"),), np.array([1.0]), np.array([0.1, 0.1]))
        assert model_to_distribution(model) == {"01": 1.0}

    def test_uniform_weights(self):
        model = MixtureModel(
            (B("00"), B("11")), np.array([0.5, 0.5]), np.array([0.1, 0.1])
        )
        assert model_to_distribution(model) == {"00": 0.5, "11": 0.5}

    def test_zero_weight_excluded(self):
        model = MixtureModel(
            (B("00"), B("11")), np.array([1.0, 0.0]), np.array([0.1, 0.1])
        )
        assert model_to_distribution(model) == {"00": 1.0}

    def test_fidelity_against_noiseless_empirical(self):
        model = MixtureModel(
            (B("00"), B("11")), np.array([0.75, 0.25]), np.array([0.1, 0.1])
        )
        fid = hellinger_fidelity(model_to_distribution(model), {"00": 0.75, "11": 0.25})
        assert fid == pytest.approx(1.0)
