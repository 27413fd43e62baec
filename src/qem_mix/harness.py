"""Experiment sweep driver: grids over (n, K, S, noise), repeated seeds,
shot-subsampling curves, and aggregate tables.

Determinism contract: every (cell, repeat) derives its RNG seeds from
``SeedSequence([master_seed, noise_index, n, K, S, repeat])``, so adding
grid points never perturbs existing cells and re-running a sweep with the
same config reproduces the row files byte for byte. Wall-clock timings are
therefore kept out of rows.csv and summary.json and written to a separate
timings.csv.
"""

from __future__ import annotations

import csv
import itertools
import logging
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .depfilter import FilterConfig, FilterReport, filter_dataset
from .emcore import EmConfig, EmReport, run_em
from .errors import AllFilteredError
from .metrics import ber, hellinger_fidelity, model_to_distribution
from .shotdata import (ShotDataset, _check_integer, _parse_fields, _read_json_object,
                       _write_json_object)
from .synth import (
    GroundTruth,
    NoiseSpec,
    check_noise,
    generate_shots,
    sample_flip_probabilities,
    sample_ground_truth,
)

__all__ = [
    "NoiseGrid",
    "SweepConfig",
    "SweepRow",
    "PipelineResult",
    "run_pipeline",
    "run_sweep",
    "aggregate",
    "load_sweep_config",
    "write_summary_json",
]

log = logging.getLogger("qem_mix.harness")

TIMING_FIELDS = ["n", "k_true", "s_full", "s_used", "p", "repeat", "runtime_ms"]


@dataclass(frozen=True)
class NoiseGrid:
    """One synthetic noise setting: depolarized fraction p and the interval
    the per-bit flip probabilities are drawn from."""

    p: float
    eps_low: float = 0.05
    eps_high: float = 0.15

    def __post_init__(self):
        for name in ("p", "eps_low", "eps_high"):
            object.__setattr__(self, name, float(getattr(self, name)))
        check_noise(self.eps_low, self.eps_high, self.p)


def _check_axis(name: str, axis) -> None:
    """Raise ValueError naming ``name`` unless ``axis`` is a list of values."""
    if not isinstance(axis, (Sequence, np.ndarray)):
        raise ValueError(f"{name}: {axis!r} is not a list")


@dataclass(frozen=True)
class SweepConfig:
    n_values: tuple
    k_values: tuple
    s_values: tuple
    noise: tuple
    repeats: int = 20
    subsample_points: Optional[tuple] = None
    master_seed: int = 0
    filter: FilterConfig = field(default_factory=FilterConfig)
    em: EmConfig = field(default_factory=EmConfig)

    def __post_init__(self):
        for name in ("n_values", "k_values", "s_values", "noise", "subsample_points"):
            axis = getattr(self, name)
            if axis is None and name == "subsample_points":
                continue
            _check_axis(name, axis)
            for value in axis if name != "noise" else ():  # typed before sorted() compares
                _check_integer(name, value)
            object.__setattr__(self, name, tuple(sorted(axis) if name == "subsample_points"
                                                 else axis))
        _check_integer("repeats", self.repeats)
        _check_integer("master_seed", self.master_seed)
        if not (self.n_values and self.k_values and self.s_values and self.noise):
            raise ValueError("grid axes must all be non-empty")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.subsample_points:
            if min(self.subsample_points) < 1:
                raise ValueError("subsample points must be >= 1")
            if max(self.subsample_points) > max(self.s_values):
                raise ValueError("subsample points must not exceed the largest S")


@dataclass(frozen=True)
class SweepRow:
    """One pipeline run: a (cell, repeat, subsample point) combination.

    The fields after ``repeat`` default to None, except ``filter_fallback``
    (False), ``runtime_ms`` (0.0) and ``status`` ("ok"). A failed row
    carries only its ``status`` and ``runtime_ms``."""

    n: int
    k_true: int
    s_full: int
    s_used: int
    p: float
    eps_low: float
    eps_high: float
    repeat: int
    k_hat: Optional[int] = None
    ber: Optional[float] = None
    k_error_flag: Optional[bool] = None
    hellinger: Optional[float] = None
    filter_kept_fraction: Optional[float] = None
    filter_fallback: bool = False
    iterations: Optional[int] = None
    runtime_ms: float = 0.0
    status: str = "ok"


# rows.csv columns: every row field but the wall-clock one, in field order
ROW_FIELDS = [f.name for f in fields(SweepRow) if f.name != "runtime_ms"]


@dataclass(frozen=True)
class PipelineResult:
    report: EmReport
    filter_report: Optional[FilterReport]
    filter_fallback: bool


def run_pipeline(
    dataset: ShotDataset,
    filter_config: Optional[FilterConfig] = None,
    em_config: Optional[EmConfig] = None,
    skip_filter: bool = False,
    threshold: Optional[float] = None,
) -> PipelineResult:
    """Depolarization filter followed by the EM sweep.

    On wide registers, where no two observed strings are one bit apart,
    ``filter_dataset`` widens its Hamming radius itself (see
    ``depfilter.select_radius``). If the filter still removes every shot
    (it raised AllFilteredError), the pipeline logs a warning and falls back
    to running EM on the unfiltered dataset: the filter is a pre-processing
    step, not a correctness requirement. ``threshold`` overrides the derived
    filter threshold with an absolute value, which also keeps the radius at 1.

    Once the filter has returned, the pipeline holds no reference to the
    unfiltered input. A caller that passes its only reference, as in
    ``run_pipeline(load_counts(path), ...)``, lets CPython 3.11 and later
    free it before EM runs on the kept shots.
    """
    filter_report = None
    fallback = False
    working = dataset
    del dataset
    if not skip_filter:
        try:
            filter_report = filter_dataset(working, filter_config, threshold=threshold)
            working = filter_report.kept
        except AllFilteredError:
            fallback = True
            log.warning(
                "filter would remove all %d shots; running EM unfiltered",
                working.s,
            )
    report = run_em(working, em_config)
    return PipelineResult(report, filter_report, fallback)


def _seeds(count: int, *key: int) -> list:
    """``count`` 32-bit seeds drawn from ``SeedSequence(key)``: every seed
    of a generate run or a sweep row is derived here."""
    return [int(v) for v in np.random.SeedSequence(key).generate_state(count)]


def _evaluate_run(truth: GroundTruth, result: PipelineResult):
    model = result.report.best
    res = ber(list(truth.solutions), list(model.x), truth.n)
    hf = hellinger_fidelity(
        model_to_distribution(model),
        {s.text: float(w) for s, w in zip(truth.solutions, truth.weights) if w > 0},
    )
    return res, hf


def _run_repeat(task) -> list:
    """All rows for one (noise, n, K, S, repeat): the full dataset plus any
    subsample points. Failures land in the row's status, never raise."""
    config, noise_idx, n, k, s, repeat = task
    noise_grid = config.noise[noise_idx]
    cell = (config.master_seed, noise_idx, n, k, s, repeat)
    truth_seed, eps_seed, shots_seed, em_seed = _seeds(4, *cell)
    em_config = replace(config.em, seed=em_seed)

    base = dict(
        n=n, k_true=k, s_full=s, p=noise_grid.p,
        eps_low=noise_grid.eps_low, eps_high=noise_grid.eps_high, repeat=repeat,
    )
    # subsample points are sorted, so dropping those past S keeps the
    # index each one derives its seed from
    points = [point for point in config.subsample_points or (s,) if point <= s]

    try:
        truth = sample_ground_truth(n, k, truth_seed)
        eps = sample_flip_probabilities(
            n, eps_seed, noise_grid.eps_low, noise_grid.eps_high
        )
        noise = NoiseSpec(p=noise_grid.p, eps=eps)
        full = generate_shots(truth, noise, s, shots_seed)
    except Exception as exc:  # noqa: BLE001 - recorded, sweep must go on
        return [SweepRow(**base, s_used=point, status=f"generate: {exc}") for point in points]

    rows = []
    for point_idx, point in enumerate(points):
        if point == s:
            dataset = full
        else:
            sub_rng = np.random.default_rng(_seeds(1, *cell, 1 + point_idx)[0])
            idx = np.sort(sub_rng.choice(s, size=point, replace=False))
            dataset = full.subset(idx)

        start = time.perf_counter()
        try:
            result = run_pipeline(dataset, config.filter, em_config)
            eval_res, hf = _evaluate_run(truth, result)
            outcome = dict(
                k_hat=result.report.k_hat,
                ber=eval_res.ber,
                k_error_flag=not eval_res.k_correct,
                hellinger=hf,
                filter_kept_fraction=(
                    result.filter_report.kept.s / dataset.s
                    if result.filter_report is not None
                    else 1.0
                ),
                filter_fallback=result.filter_fallback,
                iterations=result.report.iterations_total,
            )
        except Exception as exc:  # noqa: BLE001
            outcome = dict(status=f"{type(exc).__name__}: {exc}")
        runtime_ms = (time.perf_counter() - start) * 1000.0
        rows.append(SweepRow(**base, s_used=point, runtime_ms=runtime_ms, **outcome))
    return rows


def _tasks(config: SweepConfig):
    return itertools.product(
        [config], range(len(config.noise)), config.n_values, config.k_values,
        config.s_values, range(config.repeats),
    )


def run_sweep(config: SweepConfig, jobs: int = 1, out_dir=None) -> list:
    """Run every cell of the grid; returns all rows in deterministic order.

    With out_dir set, rows.csv / timings.csv are streamed as tasks finish
    and summary.json is written at the end. jobs > 1 runs cells in worker
    processes; per-cell seeding makes the output independent of the worker
    count.
    """
    tasks = list(_tasks(config))
    points = len(config.subsample_points) if config.subsample_points else 1
    log.info("sweep: %d tasks x %d shot counts, jobs=%d", len(tasks), points, jobs)

    rows: list = []
    with ExitStack() as stack:
        write = _row_writer(out_dir, stack) if out_dir is not None else None
        run = map
        if jobs > 1:  # a pool class set on this module replaces the default
            pool = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
            run = stack.enter_context(pool(max_workers=jobs)).map
        for chunk in run(_run_repeat, tasks):
            rows.extend(chunk)
            if write:
                write(chunk)
    if out_dir is not None:
        write_summary_json(aggregate(rows), Path(out_dir) / "summary.json")
    return rows


def __getattr__(name):
    """``ProcessPoolExecutor``, imported on first use: only a sweep with
    jobs > 1 needs a process pool."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor


def _row_writer(out_dir, stack: ExitStack):
    """Open rows.csv (deterministic columns) and timings.csv on ``stack``;
    returns a function that streams a chunk of rows into both."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows_csv, timings_csv = (
        csv.writer(stack.enter_context(open(out / name, "w", newline="", encoding="utf-8")))
        for name in ("rows.csv", "timings.csv")
    )
    rows_csv.writerow(ROW_FIELDS)
    timings_csv.writerow(TIMING_FIELDS)

    def write(chunk):
        for row in chunk:
            rows_csv.writerow([_csv_cell(getattr(row, name)) for name in ROW_FIELDS])
            timings = dict(vars(row), runtime_ms=f"{row.runtime_ms:.3f}")
            timings_csv.writerow([timings[name] for name in TIMING_FIELDS])
    return write


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return int(value)
    return value


def aggregate(rows: Sequence[SweepRow]) -> list:
    """Per-cell summary: P_Kerror over completed runs, mean BER over the
    runs with correctly estimated K. Cells are ordered by their key for
    deterministic output; no wall-clock field enters it."""
    if not rows:
        raise ValueError("nothing to aggregate")
    cells: dict = {}
    for row in rows:
        key = (row.n, row.k_true, row.s_used, row.p, row.eps_low, row.eps_high)
        cells.setdefault(key, []).append(row)

    table = []
    for key in sorted(cells):
        group = cells[key]
        ok = [r for r in group if r.status == "ok"]
        correct = [r for r in ok if not r.k_error_flag]
        entry = {
            "n": key[0], "k_true": key[1], "s_used": key[2], "p": key[3],
            "eps_low": key[4], "eps_high": key[5],
            "runs": len(group),
            "failed": len(group) - len(ok),
            "p_k_error": _mean([r.k_error_flag for r in ok]),
            "ber_mean_correct_k": _mean([r.ber for r in correct]),
            "hellinger_mean_correct_k": _mean([r.hellinger for r in correct]),
            "mean_kept_fraction": _mean([r.filter_kept_fraction for r in ok]),
        }
        table.append(entry)
    return table


def _mean(values: list) -> Optional[float]:
    """Mean of ``values``; None for an empty list."""
    return sum(values) / len(values) if values else None


def write_summary_json(table: list, path) -> None:
    """Write the ``aggregate`` table plus the overall P_Kerror as JSON."""
    overall_rows = [e for e in table if e["p_k_error"] is not None]
    doc = {
        "cells": table,
        "overall_p_k_error": (
            sum(e["p_k_error"] * (e["runs"] - e["failed"]) for e in overall_rows)
            / sum(e["runs"] - e["failed"] for e in overall_rows)
            if overall_rows else None
        ),
    }
    _write_json_object(path, doc)


def load_sweep_config(path) -> SweepConfig:
    """Read a sweep description from JSON: its keys are the fields of
    ``SweepConfig``, and each class converts and checks its own fields."""
    doc = _read_json_object(path)
    with _parse_fields(path):
        _check_axis("noise", doc["noise"])
        return SweepConfig(**dict(
            doc, noise=tuple(_from_object(NoiseGrid, "noise", e) for e in doc["noise"]),
            filter=_from_object(FilterConfig, "filter", doc.get("filter", {})),
            em=_from_object(EmConfig, "em", doc.get("em", {}))))


def _from_object(cls, name: str, fields):
    """``cls(**fields)``; a ValueError naming ``name`` unless it is an object."""
    if not isinstance(fields, dict):
        raise ValueError(f"{name}: {fields!r} is not an object")
    return cls(**fields)
