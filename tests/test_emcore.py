import math

import numpy as np
import pytest

from qem_mix import emcore
from qem_mix.depfilter import FilterConfig, filter_dataset
from qem_mix.emcore import (
    EmConfig,
    MixtureModel,
    e_step,
    kmeanspp_init,
    load_model,
    log_likelihood,
    m_step_alpha,
    m_step_eps,
    m_step_x,
    run_em,
    run_em_fixed_k,
    save_model,
)
from qem_mix.errors import DegenerateModelError, DimensionError, InvalidModelError
from qem_mix.metrics import ber
from qem_mix.shotdata import BitString, ShotDataset, hamming_distance
from qem_mix.synth import NoiseSpec, generate_shots, sample_ground_truth

from conftest import (
    direct_e_step,
    direct_log_likelihood,
    naive_hamming,
    random_dataset,
    random_model_parts,
)

B = BitString.from_text


def make_model(texts, alpha, eps):
    return MixtureModel(tuple(B(t) for t in texts), np.asarray(alpha), np.asarray(eps))


class TestMixtureModel:
    def test_validates_weights(self):
        with pytest.raises(InvalidModelError):
            make_model(["00", "11"], [0.5, 0.6], [0.1, 0.1])

    def test_validates_eps_range(self):
        with pytest.raises(InvalidModelError):
            make_model(["00"], [1.0], [0.0, 0.1])
        with pytest.raises(InvalidModelError):
            make_model(["00"], [1.0], [0.5, 0.1])

    def test_k_nz_counts_live_components(self):
        m = make_model(["00", "11"], [1.0, 0.0], [0.1, 0.1])
        assert m.k == 2 and m.k_nz == 1


class TestEmConfig:
    @pytest.mark.parametrize("kwargs", [
        {"delta": math.nan}, {"delta": math.inf}, {"delta": 0.0},
        {"eps_init": math.nan}, {"eps_init": math.inf}, {"eps_init": 0.5},
        {"k_min": 0}, {"k_min": 5, "k_max": 4}, {"max_iters": 0},
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            EmConfig(**kwargs)

    @pytest.mark.parametrize("name", ["k_min", "k_max", "max_iters", "seed"])
    @pytest.mark.parametrize("value", [4.5, 4.0, "4", True])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name}: .* is not an integer"):
            EmConfig(**{name: value})

    def test_numpy_integers_accepted(self):
        config = EmConfig(k_max=np.int64(4), seed=np.uint32(7))
        assert config.k_max == 4 and config.seed == 7


class TestLogLikelihood:
    def test_single_component_closed_form(self):
        s = 17
        ds = ShotDataset([B("01")] * s)
        model = make_model(["01"], [1.0], [0.25, 0.25])
        assert log_likelihood(ds, model) == pytest.approx(s * 2 * math.log(0.75))

    def test_degenerate_mixture_weight(self):
        ds = ShotDataset([B("01"), B("11")])
        a = make_model(["01", "10"], [1.0, 0.0], [0.2, 0.3])
        b = make_model(["01"], [1.0], [0.2, 0.3])
        assert log_likelihood(ds, a) == pytest.approx(log_likelihood(ds, b), abs=1e-12)

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            ds = random_dataset(rng, n, 10)
            xs, alpha, eps = random_model_parts(rng, n, k)
            model = MixtureModel(tuple(xs), alpha, eps)
            expected = direct_log_likelihood(ds, xs, alpha, eps)
            assert log_likelihood(ds, model) == pytest.approx(expected, abs=1e-9)


class TestMmlObjective:
    """The MML objective is the first entry of a fixed-K run's trace: the
    objective of the initial model, before any update."""

    @staticmethod
    def objective(ds, model):
        return run_em_fixed_k(ds, model, EmConfig(max_iters=1)).trace[0][2]

    def test_worked_example(self):
        # n=2, S=1200, one live component, plain log-likelihood -10:
        # -10 - 0.5*log(100) - 1.5 - 1*log(100) = -18.40776
        ds = ShotDataset([B("00")] * 1200)
        model = make_model(["00"], [1.0], [0.25, 0.25])
        ll = log_likelihood(ds, model)
        got = self.objective(ds, model)
        expected = ll - 0.5 * math.log(100) - 1.5 - math.log(100)
        assert got == pytest.approx(expected, abs=1e-9)
        # frozen reference value for a plain log-likelihood of -10
        assert (-10 + (got - ll)) == pytest.approx(-18.40776, abs=1e-5)

    def test_annihilated_component_only_changes_penalty(self):
        ds = ShotDataset([B("0000")] * 50)
        m2 = make_model(["0000", "1111"], [1.0, 0.0], [0.1] * 4)
        m1 = make_model(["0000"], [1.0], [0.1] * 4)
        # zero-weight component contributes neither likelihood nor penalty
        assert self.objective(ds, m2) == pytest.approx(self.objective(ds, m1), abs=1e-9)


class TestEStep:
    def test_single_component(self):
        ds = ShotDataset([B("01"), B("10")])
        w = e_step(ds, make_model(["00"], [1.0], [0.1, 0.1]))
        assert np.allclose(w, 1.0)

    def test_worked_example(self):
        # y=01 vs x1=00, x2=11 with eps=(.1,.2): W = (9/13, 4/13)
        ds = ShotDataset([B("01")])
        model = make_model(["00", "11"], [0.5, 0.5], [0.1, 0.2])
        w = e_step(ds, model)
        assert w[0, 0] == pytest.approx(9 / 13, abs=1e-12)
        assert w[0, 1] == pytest.approx(4 / 13, abs=1e-12)

    def test_symmetric_split(self):
        ds = ShotDataset([B("01")])
        model = make_model(["00", "11"], [0.5, 0.5], [0.2, 0.2])
        w = e_step(ds, model)
        assert np.allclose(w, 0.5)

    def test_zero_weight_gives_zero_column(self):
        ds = ShotDataset([B("01"), B("11")])
        model = make_model(["01", "10"], [1.0, 0.0], [0.2, 0.2])
        w = e_step(ds, model)
        assert np.all(w[:, 1] == 0.0)
        assert np.allclose(w[:, 0], 1.0)

    def test_rows_sum_to_one(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, 5))
            ds = random_dataset(rng, n, int(rng.integers(1, 40)))
            xs, alpha, eps = random_model_parts(rng, n, k)
            w = e_step(ds, MixtureModel(tuple(xs), alpha, eps))
            assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, 5))
            ds = random_dataset(rng, n, int(rng.integers(1, 30)))
            xs, alpha, eps = random_model_parts(rng, n, k)
            w = e_step(ds, MixtureModel(tuple(xs), alpha, eps))
            expected = direct_e_step(ds, xs, alpha, eps)
            assert np.allclose(w, expected, atol=1e-9)


class TestMStepAlpha:
    def test_worked_example(self):
        # n=2, column masses (3,1): numerators (2,0) -> alpha (1,0)
        w = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        alpha = m_step_alpha(w, 2)
        assert np.allclose(alpha, [1.0, 0.0])

    def test_equal_masses(self):
        w = np.full((10, 2), 0.5)
        assert np.allclose(m_step_alpha(w, 2), [0.5, 0.5])

    def test_boundary_mass_annihilated(self):
        # column mass exactly n/2 -> max{0,0} = 0
        w = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 1)
        alpha = m_step_alpha(w, 2)
        assert alpha[1] == 0.0

    def test_all_annihilated_raises(self):
        w = np.array([[0.5, 0.5]])
        with pytest.raises(DegenerateModelError):
            m_step_alpha(w, 4)

    def test_matches_naive(self, rng):
        for _ in range(20):
            s, k, n = int(rng.integers(1, 50)), int(rng.integers(1, 5)), int(rng.integers(1, 12))
            raw = rng.random((s, k))
            w = raw / raw.sum(axis=1, keepdims=True)
            col = w.sum(axis=0)
            nums = np.maximum(0.0, col - n / 2)
            if nums.sum() <= 0:
                continue
            assert np.allclose(m_step_alpha(w, n), nums / nums.sum(), atol=1e-12)


class TestMStepX:
    def test_unanimous(self):
        ds = ShotDataset([B("101")] * 4)
        w = np.ones((4, 1))
        assert [x.text for x in m_step_x(ds, w)] == ["101"]

    def test_worked_example(self):
        # weights (1, 1, 0.5) with bit column (1, 0, 1): sum 0.5 >= 0 -> 1
        ds = ShotDataset([B("1"), B("0"), B("1")])
        w = np.array([[1.0], [1.0], [0.5]])
        assert [x.text for x in m_step_x(ds, w)] == ["1"]

    def test_tie_resolves_to_one(self):
        ds = ShotDataset([B("1"), B("0")])
        w = np.ones((2, 1))
        assert [x.text for x in m_step_x(ds, w)] == ["1"]

    def test_heaviside_equals_argmin_form(self, rng):
        for _ in range(50):
            s, k, n = int(rng.integers(1, 40)), int(rng.integers(1, 5)), int(rng.integers(1, 10))
            ds = random_dataset(rng, n, s)
            raw = rng.random((s, k))
            w = raw / raw.sum(axis=1, keepdims=True)
            got = m_step_x(ds, w)
            y = ds.bit_matrix.astype(float)
            for kk in range(k):
                for j in range(n):
                    mism0 = float(w[:, kk] @ y[:, j])          # x=0: mismatches are y=1
                    mism1 = float(w[:, kk] @ (1.0 - y[:, j]))  # x=1: mismatches are y=0
                    want = 1 if mism1 <= mism0 else 0
                    assert got[kk].bit(j + 1) == want


class TestMStepEps:
    def test_perfect_fit_clamps_low(self):
        ds = ShotDataset([B("01")] * 5)
        w = np.ones((5, 1))
        eps = m_step_eps(ds, w, [B("01")])
        assert np.allclose(eps, 1e-6)

    def test_worked_example(self):
        # K=1, x=00, shots {00,00,01,10}: eps = (0.25, 0.25)
        ds = ShotDataset([B("00"), B("00"), B("01"), B("10")])
        w = np.ones((4, 1))
        eps = m_step_eps(ds, w, [B("00")])
        assert np.allclose(eps, [0.25, 0.25])

    def test_k1_equals_empirical_mismatch_exactly(self, rng):
        for _ in range(20):
            n, s = int(rng.integers(1, 10)), int(rng.integers(2, 60))
            ds = random_dataset(rng, n, s)
            x = [B("0" * n)]
            w = np.ones((s, 1))
            eps = m_step_eps(ds, w, x)
            empirical = ds.bit_matrix.mean(axis=0)
            clamped = np.clip(empirical, 1e-6, 0.5 - 1e-6)
            assert np.array_equal(eps, clamped)

    def test_matches_naive_transcription(self, rng):
        for _ in range(20):
            s, k, n = int(rng.integers(1, 30)), int(rng.integers(1, 4)), int(rng.integers(1, 8))
            ds = random_dataset(rng, n, s)
            raw = rng.random((s, k))
            w = raw / raw.sum(axis=1, keepdims=True)
            xs = [B("".join(str(b) for b in rng.integers(0, 2, n))) for _ in range(k)]
            got = m_step_eps(ds, w, xs)
            naive = np.zeros(n)
            for j in range(n):
                acc = 0.0
                for i, y in enumerate(ds.shots):
                    for kk in range(k):
                        acc += w[i, kk] * (y.bit(j + 1) ^ xs[kk].bit(j + 1))
                naive[j] = acc / s
            assert np.allclose(got, np.clip(naive, 1e-6, 0.5 - 1e-6), atol=1e-12)


class TestKmeansppInit:
    def test_two_clusters_forced(self):
        ds = ShotDataset([B("000")] * 5 + [B("111")] * 5)
        centers = kmeanspp_init(ds, 2, seed=0)
        assert sorted(c.text for c in centers) == ["000", "111"]

    def test_exhaustion_falls_back_to_random(self):
        ds = ShotDataset([B("0101")] * 9)
        centers = kmeanspp_init(ds, 3, seed=1)
        assert len(centers) == 3
        assert centers[0].text == "0101"
        assert all(c.n == 4 for c in centers)

    def test_seeded_draws_are_pinned(self):
        # two count-weighted draws, then three uniform 9-bit draws; the
        # expected centers were taken from the per-row BitString builder
        ds = ShotDataset([B("010110011")] * 2 + [B("111000101")])
        assert [c.text for c in kmeanspp_init(ds, 5, seed=7)] == [
            "010110011", "111000101", "101001101", "000011000", "000100101"]

    def test_separated_clusters_each_seeded(self):
        # 4 clusters with pairwise distance >= n/4 at n=16: one center in
        # each cluster for >= 95% of 100 seeds
        n = 16
        truth = [
            B("0000000000000000"),
            B("1111111100000000"),
            B("0000000011111111"),
            B("1111111111111111"),
        ]
        rng = np.random.default_rng(5)
        shots = []
        for t in truth:
            base = t.bits()
            for _ in range(50):
                flips = rng.random(n) < 0.01
                shots.append(BitString.from_bits(base ^ flips.astype(np.uint8)))
        ds = ShotDataset(shots)
        hits = 0
        for seed in range(100):
            centers = kmeanspp_init(ds, 4, seed=seed)
            owners = {
                int(np.argmin([hamming_distance(c, t) for t in truth]))
                for c in centers
            }
            hits += owners == {0, 1, 2, 3}
        assert hits >= 95

    def test_deterministic(self):
        ds = ShotDataset([B("0011")] * 4 + [B("1100")] * 4 + [B("0101")] * 2)
        a = kmeanspp_init(ds, 3, seed=9)
        b = kmeanspp_init(ds, 3, seed=9)
        assert [c.text for c in a] == [c.text for c in b]

    def test_seed_contract(self):
        # a numpy integer seeds as the int it holds; a negative or
        # non-integer seed is refused, not folded onto another stream
        ds = ShotDataset([B("0011")] * 4 + [B("1100")] * 4 + [B("0101")] * 2)
        assert kmeanspp_init(ds, 5, np.uint32(9)) == kmeanspp_init(ds, 5, 9)
        with pytest.raises(ValueError):
            kmeanspp_init(ds, 3, -1)
        with pytest.raises(TypeError):
            kmeanspp_init(ds, 3, 1.5)

    def test_draw_frequencies(self):
        # counts 1, 2, 5; pairwise distances 2, 4, 2. Over seeds 0-1999 the
        # first center's frequencies follow count / S, the second's, given
        # the first, count * d_min**2, each within 4 binomial standard
        # deviations (so a zero weight is never drawn); the third is the one
        # string left with positive weight
        texts, counts = ["0000", "0011", "1111"], [1, 2, 5]
        ds = ShotDataset([B(t) for t, c in zip(texts, counts) for _ in range(c)])
        draws = [[c.text for c in kmeanspp_init(ds, 3, seed)] for seed in range(2000)]
        assert all(sorted(d) == texts for d in draws)

        def within_bounds(picked, weights):
            trials, total = len(picked), sum(weights)
            for text, w in zip(texts, weights):
                p = w / total
                hits = picked.count(text)
                assert abs(hits - trials * p) <= 4 * math.sqrt(trials * p * (1 - p))

        firsts = [d[0] for d in draws]
        within_bounds(firsts, counts)
        for first in texts:
            seconds = [d[1] for d in draws if d[0] == first]
            within_bounds(seconds, [c * naive_hamming(t, first) ** 2
                                    for t, c in zip(texts, counts)])


class TestRunEmFixedK:
    def test_fixed_point_on_noiseless_data(self):
        truth = ["0011", "1100"]
        ds = ShotDataset([B(truth[0])] * 30 + [B(truth[1])] * 30)
        init = make_model(truth, [0.5, 0.5], [0.01] * 4)
        res = run_em_fixed_k(ds, init, EmConfig())
        assert res.converged
        assert res.iterations <= 2
        assert sorted(x.text for x in res.model.x) == truth
        assert np.allclose(sorted(res.model.alpha), [0.5, 0.5], atol=1e-9)

    def test_plain_mode_no_annihilation(self):
        ds = ShotDataset([B("0000")] * 50 + [B("1111")] * 2)
        init = make_model(["0000", "1111"], [0.5, 0.5], [0.25] * 4)
        config = EmConfig(mml_enabled=False)
        res = run_em_fixed_k(ds, init, config)
        assert res.model.k == 2  # tiny component survives in plain mode

    def test_plain_mode_monotone_loglik(self, rng):
        # EM ascent: plain-mode objective never decreases (criterion-4 core)
        for case in range(10):
            n = int(rng.integers(2, 11))
            k = int(rng.integers(1, 5))
            truth = sample_ground_truth(n, k, int(rng.integers(1 << 30)))
            eps = rng.uniform(0.02, 0.15, size=n)
            ds = generate_shots(
                truth, NoiseSpec(p=0.1, eps=eps), int(rng.integers(50, 2000)),
                int(rng.integers(1 << 30)),
            )
            init = MixtureModel(
                tuple(kmeanspp_init(ds, k, int(rng.integers(1 << 30)))),
                np.full(k, 1 / k), np.full(n, 0.25),
            )
            res = run_em_fixed_k(ds, init, EmConfig(mml_enabled=False, max_iters=60))
            objs = [obj for _, _, obj in res.trace]
            for prev, cur in zip(objs, objs[1:]):
                assert cur >= prev - 1e-9

    def test_recovers_centers_post_filter_style(self):
        # mostly-clean data: EM at the true K recovers all centers exactly
        truth = sample_ground_truth(10, 4, 77)
        eps = np.random.default_rng(78).uniform(0.02, 0.1, 10)
        ds = generate_shots(truth, NoiseSpec(p=0.85, eps=eps), 10000, 79)
        kept = filter_dataset(ds, FilterConfig(eta=1.5, t_floor=2)).kept
        init = MixtureModel(
            tuple(kmeanspp_init(kept, 4, 80)), np.full(4, 0.25), np.full(10, 0.25)
        )
        res = run_em_fixed_k(kept, init, EmConfig())
        assert res.converged
        got = sorted(x.text for x in res.model.x)
        assert got == sorted(s.text for s in truth.solutions)

    def test_dimension_mismatch(self):
        ds = ShotDataset([B("01")])
        init = make_model(["011"], [1.0], [0.1] * 3)
        with pytest.raises(DimensionError):
            run_em_fixed_k(ds, init, EmConfig())


class TestRunEm:
    def test_noiseless_exact_recovery(self):
        truth = sample_ground_truth(8, 3, 5)
        ds = generate_shots(truth, NoiseSpec(p=0.0, eps=np.full(8, 1e-9)), 600, 6)
        report = run_em(ds, EmConfig(k_min=1, k_max=6, seed=7))
        assert report.k_hat == 3
        got = sorted(x.text for x in report.best.x)
        assert got == sorted(s.text for s in truth.solutions)

    def test_single_cluster(self):
        ds = ShotDataset([B("010101")] * 300)
        report = run_em(ds, EmConfig(k_min=1, k_max=4, seed=1))
        assert report.k_hat == 1
        assert report.best.x[0].text == "010101"

    def test_seed_contract(self):
        ds = ShotDataset([B("0011")] * 30 + [B("1100")] * 30)
        assert run_em(ds, EmConfig(k_max=3, seed=np.uint32(7))).k_hat == 2
        with pytest.raises(ValueError):
            run_em(ds, EmConfig(k_max=3, seed=-1))

    def test_deterministic(self):
        truth = sample_ground_truth(8, 2, 15)
        ds = generate_shots(truth, NoiseSpec(p=0.2, eps=np.full(8, 0.05)), 800, 16)
        a = run_em(ds, EmConfig(seed=3, k_max=8))
        b = run_em(ds, EmConfig(seed=3, k_max=8))
        assert [x.text for x in a.best.x] == [x.text for x in b.best.x]
        assert np.array_equal(a.best.alpha, b.best.alpha)
        assert np.array_equal(a.best.eps, b.best.eps)
        assert a.objective_trace == b.objective_trace

    def test_report_invariants(self):
        truth = sample_ground_truth(8, 2, 25)
        ds = generate_shots(truth, NoiseSpec(p=0.2, eps=np.full(8, 0.05)), 500, 26)
        config = EmConfig(k_min=1, k_max=6, seed=2)
        report = run_em(ds, config)
        assert config.k_min <= report.k_hat <= config.k_max
        assert report.k_hat == len(report.best.x)
        assert np.all(report.best.alpha > 0)
        assert report.iterations_total >= 1
        # trace objectives are finite and k_nz is non-increasing
        k_path = [k for k, _, _ in report.objective_trace]
        assert all(a >= b for a, b in zip(k_path, k_path[1:]))

    def test_annihilated_mass_never_returns(self):
        # once a component dies its column stays exactly zero in e_step
        ds = ShotDataset([B("0000")] * 40 + [B("1111")] * 40)
        model = make_model(["0000", "1111", "0011"], [0.5, 0.5, 0.0], [0.05] * 4)
        w = e_step(ds, model)
        assert np.all(w[:, 2] == 0.0)

    def test_mixed_noise_end_to_end(self):
        truth = sample_ground_truth(10, 4, 55)
        eps = np.random.default_rng(56).uniform(0.02, 0.1, 10)
        ds = generate_shots(truth, NoiseSpec(p=0.85, eps=eps), 10000, 57)
        kept = filter_dataset(ds, FilterConfig(eta=1.5, t_floor=65)).kept
        report = run_em(kept, EmConfig(seed=58))
        result = ber(list(truth.solutions), list(report.best.x), 10)
        assert report.k_hat == 4
        assert result.ber == 0.0

    def test_levels_fail_only_before_one_returns(self, monkeypatch):
        # A returned level leaves k components of mass > n/2, so S > k*n/2:
        # no later M-step can push every column under the floor.
        levels = []
        real = emcore.run_em_fixed_k

        def spy(dataset, model, config):
            try:
                res = real(dataset, model, config)
            except DegenerateModelError:
                levels.append((model.k, None))
                raise
            levels.append((model.k, res))
            return res

        monkeypatch.setattr(emcore, "run_em_fixed_k", spy)
        rng = np.random.default_rng(28)
        datasets = [
            random_dataset(rng, 40, 100),
            random_dataset(rng, 20, 60),
            generate_shots(sample_ground_truth(10, 3, 31),
                           NoiseSpec(p=0.5, eps=np.full(10, 0.08)), 300, 32),
            generate_shots(sample_ground_truth(16, 2, 41),
                           NoiseSpec(p=0.3, eps=np.full(16, 0.05)), 60, 42),
        ]
        configs = [EmConfig(k_min=k, seed=3) for k in (1, 2, 3, 12)]
        configs.append(EmConfig(k_max=6, seed=3, mml_enabled=False))
        failures = 0
        for ds in datasets:
            for config in configs:
                levels.clear()
                try:
                    report = run_em(ds, config)
                except DegenerateModelError:
                    report = None
                failed = [k for k, res in levels if res is None]
                returned = [res for _, res in levels if res is not None]
                assert [k for k, _ in levels[:len(failed)]] == failed
                if report is not None:
                    assert report.converged == {
                        **dict.fromkeys(failed, False),
                        **{res.model.k: res.converged for res in returned},
                    }
                elif returned:  # every level that returned fell below k_min
                    assert all(res.model.k < config.k_min for res in returned)
                else:  # the level at k_min failed and re-raised
                    assert failed[-1] == config.k_min
                failures += len(failed)
        assert failures > 0


class TestModelIO:
    def test_round_trip(self, tmp_path):
        ds = ShotDataset([B("0011")] * 120 + [B("1100")] * 80)
        report = run_em(ds, EmConfig(k_max=4, seed=0))
        path = tmp_path / "model.json"
        save_model(report, path, meta={"input": "test"})
        model, doc = load_model(path)
        assert [x.text for x in model.x] == [x.text for x in report.best.x]
        assert np.allclose(model.alpha, report.best.alpha)
        assert np.allclose(model.eps, report.best.eps)
        assert doc["k_hat"] == report.k_hat
        assert doc["meta"]["input"] == "test"

    def test_write_deterministic(self, tmp_path):
        ds = ShotDataset([B("01")] * 60)
        report = run_em(ds, EmConfig(k_max=2, seed=4))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(report, p1)
        save_model(report, p2)
        assert p1.read_bytes() == p2.read_bytes()
