import dataclasses
import hashlib
import json

import numpy as np
import pytest

from qem_mix.depfilter import FilterConfig
from qem_mix.emcore import EmConfig
from qem_mix.errors import ParseError
from qem_mix.harness import (
    NoiseGrid,
    SweepConfig,
    aggregate,
    load_sweep_config,
    run_pipeline,
    run_sweep,
    write_summary_json,
)
from qem_mix.metrics import ber
from qem_mix.shotdata import BitString, ShotDataset
from qem_mix.synth import NoiseSpec, generate_shots, sample_ground_truth


def tiny_config(**overrides):
    base = dict(
        n_values=(8,),
        k_values=(2,),
        s_values=(400,),
        noise=(NoiseGrid(p=0.0, eps_low=0.0, eps_high=0.0),),
        repeats=1,
        master_seed=5,
        filter=FilterConfig(eta=1.5, t_floor=2),
        em=EmConfig(k_max=6),
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestRunPipeline:
    def test_filter_then_em(self):
        truth = sample_ground_truth(10, 2, 1)
        eps = np.full(10, 0.05)
        ds = generate_shots(truth, NoiseSpec(p=0.85, eps=eps), 5000, 2)
        result = run_pipeline(ds, FilterConfig(eta=1.5, t_floor=2), EmConfig(seed=3))
        assert not result.filter_fallback
        assert result.filter_report is not None
        assert result.report.k_hat == 2

    def test_fallback_when_filter_empties(self):
        # four 64-bit strings at least 32 apart: no shot has support
        # t_floor=2 at radius 1 or at the widened radius (25 for S=4),
        # so EM runs raw
        ds = ShotDataset([
            BitString.from_text(x) for x in ("0" * 64, "1" * 64, "01" * 32, "10" * 32)
        ])
        result = run_pipeline(
            ds, FilterConfig(eta=1.5, t_floor=2),
            EmConfig(seed=13, k_max=4, mml_enabled=False),
        )
        assert result.filter_fallback
        assert result.filter_report is None
        assert result.report.best.k >= 1

    def test_radius_widens_when_no_shots_are_one_bit_apart(self):
        # every observed string unique, so the radius-1 support is 1 <
        # t_floor; the filter widens its radius and keeps the clean shots
        truth = sample_ground_truth(64, 2, 11)
        eps = np.full(64, 0.2)
        ds = generate_shots(truth, NoiseSpec(p=0.0, eps=eps), 300, 12)
        result = run_pipeline(ds, FilterConfig(eta=1.5, t_floor=2), EmConfig(seed=13, k_max=4))
        assert not result.filter_fallback
        assert result.filter_report.radius > 1
        assert result.report.k_hat == 2
        assert ber(list(truth.solutions), list(result.report.best.x), 64).ber == 0.0

    def test_hot_path_builds_no_per_shot_objects(self, monkeypatch):
        # filter and EM run on packed keys and counts: no per-shot view is
        # built, and BitString objects are made only for model centers
        truth = sample_ground_truth(16, 4, 21)
        ds = generate_shots(truth, NoiseSpec(p=0.85, eps=np.full(16, 0.05)), 200_000, 22)

        def refuse(self):
            raise AssertionError("a per-shot view was built")

        for view in ("shots", "counts", "bit_matrix"):
            monkeypatch.setattr(ShotDataset, view, property(refuse))
        built = []
        post_init = BitString.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(BitString, "__post_init__", counting)
        result = run_pipeline(ds, FilterConfig(eta=1.5, t_floor=2), EmConfig(seed=23))
        assert not result.filter_fallback
        assert result.report.k_hat == 4
        assert len(built) < 2000

    def test_skip_filter(self):
        ds = ShotDataset([BitString.from_text("0101")] * 50)
        result = run_pipeline(ds, skip_filter=True, em_config=EmConfig(k_max=2))
        assert result.filter_report is None
        assert not result.filter_fallback


class TestRunSweep:
    def test_degenerate_noiseless_sweep(self):
        rows = run_sweep(tiny_config())
        assert len(rows) == 1
        row = rows[0]
        assert row.status == "ok"
        assert row.k_hat == 2
        assert row.ber == 0.0
        assert row.k_error_flag is False
        # alpha is the empirical mixture weight, so fidelity is near 1
        assert row.hellinger > 0.999

    def test_pool_class_set_on_the_module_is_used(self, monkeypatch):
        # the pool loads lazily; a class patched in (as the benchmark's
        # tracer does) must still be the one a sweep starts
        import qem_mix.harness as harness

        started = []

        class Pool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
        rows = run_sweep(tiny_config(repeats=2), jobs=2)
        assert [row.status for row in rows] == ["ok", "ok"]
        assert started == [2]

    def test_repeat_rows_and_order(self):
        rows = run_sweep(tiny_config(repeats=3))
        assert [r.repeat for r in rows] == [0, 1, 2]

    def test_deterministic_across_runs_and_jobs(self):
        config = tiny_config(repeats=2, n_values=(6, 8))
        a = run_sweep(config, jobs=1)
        b = run_sweep(config, jobs=1)
        c = run_sweep(config, jobs=2)
        strip = lambda rows: [
            {k: v for k, v in r.__dict__.items() if k != "runtime_ms"} for r in rows
        ]
        assert strip(a) == strip(b) == strip(c)

    def test_failed_cell_recorded_not_raised(self):
        # K > 2**n makes ground-truth sampling infeasible
        rows = run_sweep(tiny_config(n_values=(2,), k_values=(5,)))
        assert len(rows) == 1
        assert rows[0].status.startswith("generate:")
        assert rows[0].k_hat is None

    def test_subsampling_rows(self):
        config = tiny_config(s_values=(400,), subsample_points=(100, 400))
        rows = run_sweep(config)
        assert [r.s_used for r in rows] == [100, 400]
        # the full-S row uses the entire dataset
        assert rows[1].s_used == 400
        for row in rows:
            assert row.status == "ok"

    def test_subsample_reproducible(self):
        config = tiny_config(subsample_points=(50, 400), repeats=2)
        a = run_sweep(config)
        b = run_sweep(config)
        assert [(r.s_used, r.ber, r.k_hat) for r in a] == [
            (r.s_used, r.ber, r.k_hat) for r in b
        ]

    def test_output_files(self, tmp_path):
        config = tiny_config(repeats=2)
        run_sweep(config, out_dir=tmp_path)
        rows_csv = (tmp_path / "rows.csv").read_text()
        assert rows_csv.splitlines()[0].startswith("n,k_true,s_full,s_used")
        assert "runtime" not in rows_csv
        timings = (tmp_path / "timings.csv").read_text()
        assert "runtime_ms" in timings
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["overall_p_k_error"] == 0.0
        assert len(summary["cells"]) == 1

    def test_rows_csv_byte_identical_across_jobs(self, tmp_path):
        config = tiny_config(repeats=2, n_values=(6, 8))
        run_sweep(config, jobs=1, out_dir=tmp_path / "a")
        run_sweep(config, jobs=2, out_dir=tmp_path / "b")
        assert (tmp_path / "a/rows.csv").read_bytes() == (tmp_path / "b/rows.csv").read_bytes()
        assert (tmp_path / "a/summary.json").read_bytes() == (tmp_path / "b/summary.json").read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_golden_bytes_of_a_sweep(self, tmp_path, jobs):
        # 16 rows of every kind a sweep writes: 8 generate failures (K=6 >
        # 2**2), one DegenerateModelError, 6 rows whose filter fell back to
        # the unfiltered shots and one filtered row. Fixing which rows fail
        # or fall back (ROADMAP item 1) changes these rows on purpose: that
        # change re-pins the digests and records it in CHANGES.md.
        config = SweepConfig(
            n_values=(2, 14), k_values=(6,), s_values=(2500,),
            noise=(NoiseGrid(0.85, 0.02, 0.1),), repeats=4,
            subsample_points=(1000, 2500), master_seed=8,
            filter=FilterConfig(1.5, 65),
        )
        rows = run_sweep(config, jobs=jobs, out_dir=tmp_path)
        assert [r.status.split(":")[0] for r in rows] == (
            ["generate"] * 8 + ["ok"] * 3 + ["DegenerateModelError"] + ["ok"] * 4)
        assert [r.filter_fallback for r in rows[8:]] == [
            True, True, True, False, True, False, True, True]
        # the wall-clock column is the one part of a sweep that differs per run
        timing_keys = "".join(
            line.rsplit(",", 1)[0] + "\n"
            for line in (tmp_path / "timings.csv").read_text().splitlines()
        ).encode()
        digests = {
            name: hashlib.sha256(data).hexdigest() for name, data in (
                ("rows.csv", (tmp_path / "rows.csv").read_bytes()),
                ("summary.json", (tmp_path / "summary.json").read_bytes()),
                ("timings.csv keys", timing_keys),
            )
        }
        assert digests == {
            "rows.csv": "9bd252d80438789efabed43de2b78f663c5289bf685a3d70fb6ccc4e942c2572",
            "summary.json": "0d337adf00e32ed9a050abb84d3347435bd15c62767d83f48c1ca92fa454d2c5",
            "timings.csv keys":
                "6ea6a9e0b072185fc7672ae082021ed569e9ccad6a5b06df639ffcfd7996c8e4",
        }


class TestAggregate:
    def _rows(self, flags, bers=None):
        config = tiny_config()
        rows = run_sweep(config)
        template = rows[0]
        out = []
        for i, wrong in enumerate(flags):
            out.append(
                type(template)(**{
                    **template.__dict__,
                    "repeat": i,
                    "k_hat": template.k_true + (1 if wrong else 0),
                    "k_error_flag": wrong,
                    "ber": (bers[i] if bers else 0.0),
                })
            )
        return out

    def test_all_correct(self):
        table = aggregate(self._rows([False] * 20))
        assert table[0]["p_k_error"] == 0.0
        assert table[0]["ber_mean_correct_k"] == 0.0

    def test_one_wrong_of_twenty(self):
        bers = [0.0] * 20
        bers[3] = 0.9  # wrong-K row's BER must not pollute the mean
        table = aggregate(self._rows([i == 3 for i in range(20)], bers))
        assert table[0]["p_k_error"] == pytest.approx(0.05)
        assert table[0]["ber_mean_correct_k"] == 0.0

    def test_deterministic(self):
        rows = self._rows([False] * 5)
        assert aggregate(rows) == aggregate(rows)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_no_wall_clock_field(self):
        table = aggregate(self._rows([False] * 3))
        assert not [key for entry in table for key in entry if "runtime" in key]

    def test_summary_json_has_no_timing(self, tmp_path):
        table = aggregate(self._rows([False] * 3))
        path = tmp_path / "summary.json"
        write_summary_json(table, path)
        assert "_ms" not in path.read_text()


class TestSweepConfigIO:
    def test_load(self, tmp_path):
        doc = {
            "n_values": [10, 12],
            "k_values": [2, 4],
            "s_values": [1000],
            "noise": [{"p": 0.85, "eps_low": 0.02, "eps_high": 0.1}],
            "repeats": 3,
            "subsample_points": [500, 1000],
            "master_seed": 42,
            "filter": {"eta": 1.5, "t_floor": 65},
            "em": {"k_max": 16, "delta": 1e-5},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        config = load_sweep_config(path)
        assert config.n_values == (10, 12)
        assert config.noise[0].p == 0.85
        assert config.filter.t_floor == 65
        assert config.em.k_max == 16
        assert config.subsample_points == (500, 1000)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text("{}")
        with pytest.raises(ParseError):
            load_sweep_config(path)

    def test_subsample_exceeding_s_rejected(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "n_values": [8], "k_values": [2], "s_values": [100],
            "noise": [{"p": 0.5}], "subsample_points": [200],
        }))
        with pytest.raises(ParseError):
            load_sweep_config(path)

    @pytest.mark.parametrize("noise", [
        {"p": 2}, {"p": "nan"}, {"p": 0.5, "eps_low": 0.6, "eps_high": 0.7},
        {"p": 0.5, "eps_low": 0.2, "eps_high": 0.1},
    ])
    def test_bad_noise_rejected_at_load(self, tmp_path, noise):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "n_values": [8], "k_values": [2], "s_values": [100], "noise": [noise],
        }))
        with pytest.raises(ParseError):
            load_sweep_config(path)

    def test_infinite_count_rejected_at_load(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "n_values": [float("inf")], "k_values": [2], "s_values": [100],
            "noise": [{"p": 0.5}],
        }))
        with pytest.raises(ParseError):
            load_sweep_config(path)

    def test_negative_master_seed_rejected_at_load(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "n_values": [8], "k_values": [2], "s_values": [100], "noise": [{"p": 0.5}],
            "master_seed": -3,
        }))
        with pytest.raises(ParseError, match=f"{path}: master_seed must be >= 0, got -3"):
            load_sweep_config(path)
        with pytest.raises(ValueError, match="master_seed"):
            tiny_config(master_seed=-1)

    def test_noise_grid_checks_bounds(self):
        for kwargs in ({"p": -0.1}, {"p": float("nan")}, {"p": 0.5, "eps_high": 0.5}):
            with pytest.raises(ValueError):
                NoiseGrid(**kwargs)

    def test_em_clamps_not_configurable(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "n_values": [8], "k_values": [2], "s_values": [100], "noise": [{"p": 0.5}],
            "em": {"eps_clamp_lo": 1e-3},
        }))
        with pytest.raises(ParseError, match="eps_clamp_lo"):
            load_sweep_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            load_sweep_config(path)

    @pytest.mark.parametrize("change,name", [
        ({"repeat": 3}, "repeat"),
        ({"noise": [{"p": 0.5, "eps_hi": 0.1}]}, "eps_hi"),
        ({"n_values": [10.5]}, "n_values"),
        ({"n_values": ["8"]}, "n_values"),
        ({"n_values": [True]}, "n_values"),
        ({"subsample_points": [100.9]}, "subsample_points"),
        ({"em": {"k_max": 4.5}}, "k_max"),
    ], ids=["unknown-key", "unknown-noise-key", "float-n", "string-n", "bool-n",
            "float-subsample-point", "float-k-max"])
    def test_malformed_field_names_file_and_field(self, tmp_path, change, name):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(dict(
            {"n_values": [8], "k_values": [2], "s_values": [200], "noise": [{"p": 0.5}]},
            **change)))
        with pytest.raises(ParseError) as info:
            load_sweep_config(path)
        assert str(info.value).startswith(f"{path}: ") and name in str(info.value)

    @pytest.mark.parametrize("change,name", [
        ({"filter": {"t_floor": True}}, "t_floor"),
        ({"filter": {"t_floor": 65.5}}, "t_floor"),
        ({"filter": {"eta": True}}, "eta"),
        ({"n_values": 8}, "n_values"),
        ({"noise": {"p": 0.5}}, "noise"),
        ({"subsample_points": [100, "8"]}, "subsample_points"),
    ], ids=["bool-t-floor", "float-t-floor", "bool-eta", "scalar-axis", "object-noise",
            "mixed-subsample-points"])
    def test_mistyped_field_names_file_and_field(self, tmp_path, change, name):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(dict(
            {"n_values": [8], "k_values": [2], "s_values": [200], "noise": [{"p": 0.5}]},
            **change)))
        with pytest.raises(ParseError) as info:
            load_sweep_config(path)
        assert str(info.value).startswith(f"{path}: ") and name in str(info.value)

    def test_every_field_round_trips(self, tmp_path):
        config = SweepConfig(
            n_values=(10, 12), k_values=(2, 4), s_values=(500, 1000),
            noise=(NoiseGrid(p=0.85, eps_low=0.02, eps_high=0.1), NoiseGrid(p=0.5)),
            repeats=3, subsample_points=(250, 1000), master_seed=42,
            filter=FilterConfig(eta=2.5, t_floor=7),
            em=EmConfig(k_min=2, k_max=9, delta=1e-4, max_iters=77, seed=5,
                        eps_init=0.2, mml_enabled=False),
        )
        defaults = dataclasses.asdict(SweepConfig(n_values=(1,), k_values=(1,), s_values=(1,),
                                                  noise=(NoiseGrid(p=0.0),)))
        changed = dataclasses.asdict(config)
        # every field, nested ones included, differs from its default
        assert [k for k in changed if changed[k] == defaults[k]] == []
        assert [k for k in changed["em"] if changed["em"][k] == defaults["em"][k]] == []
        assert [k for k in changed["filter"]
                if changed["filter"][k] == defaults["filter"][k]] == []
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(changed))
        assert load_sweep_config(path) == config

    def test_counts_must_be_integers(self):
        with pytest.raises(ValueError, match="repeats"):
            tiny_config(repeats=2.0)
        with pytest.raises(ValueError, match="master_seed"):
            tiny_config(master_seed="5")
        config = tiny_config(n_values=np.array([8, 9]), repeats=np.int64(2))
        assert config.n_values == (8, 9)
