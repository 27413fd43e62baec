"""qem-mix benchmark: one workload, built from a seed, timed end to end.

    python3 perfbench/run.py --workload dense-1m --seed 1 --seconds 24 --trace 0

Run from any directory; the program under test is ``src/qem_mix`` of the
checkout that holds this file. The benchmark

1. sets up: imports qem_mix and builds the workload's inputs from the seed
   in fresh processes (``qem-mix generate`` for the file workloads), several
   times, checking that every repetition writes the same bytes;
2. runs the workload the way users do, one ``python -m qem_mix.cli``
   process at a time (closed loop, one client; a sweep's pool is the only
   parallelism), at least twice and until ``--seconds`` have passed;
3. checks every output: each model is scored against its truth sidecar,
   by the library and by ``qem-mix evaluate`` (a check, not timed), and
   must equal the first run's bytes, and each sweep's rows must all be
   ``ok``, match ``summary.json`` and equal the first sweep's bytes;
4. prints a report and, as the last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
runs alternate between untraced and traced (see ``tracer.py``), and the
metrics are the per-layer ones, derived from the traced runs' spans, plus
the tracing overhead (traced minus untraced ``wall_s``).

BLAS and OpenMP are pinned to one thread per process, so the two sweep
workers use at most two cores. ``--scale tiny`` shrinks every workload for
the smoke test.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
JOBS = 2
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
TIME_LIMIT_S = 170.0
FALLBACK_WARNING = "filter would remove all"

END_TO_END = {"setup_s": "s", "wall_s": "s", "shots_per_s": "shots/s", "peak_rss_mb": "MB"}
QUALITY = {"exact_frac": "fraction", "k_error_rate": "fraction", "ber_mean": "fraction",
           "failed_frac": "fraction"}
PER_LAYER = {
    "shotdata.load_s": "s", "shotdata.save_s": "s", "shotdata.counts_s": "s",
    "shotdata.shots": "count", "shotdata.distinct": "count",
    "synth.generate_s": "s",
    "depfilter.support_s": "s", "depfilter.filter_s": "s", "depfilter.kept_shots": "count",
    "depfilter.kept_frac": "fraction", "depfilter.fallbacks": "count",
    "emcore.init_s": "s", "emcore.em_s": "s", "emcore.level_s": "s", "emcore.level_s_p90": "s",
    "emcore.levels": "count", "emcore.iterations": "count", "emcore.iter_ms": "ms",
    "emcore.rows": "count", "emcore.distinct_rows": "count",
    "emcore.degenerate_levels": "count", "emcore.k_hat": "count",
    "metrics.eval_s": "s",
    "harness.pipeline_s": "s", "harness.subset_s": "s", "harness.rows": "count",
    "harness.row_ms_p50": "ms", "harness.row_ms_p90": "ms", "harness.busy_frac": "fraction",
    "cli.import_s": "s", "cli.process_s": "s",
    "trace.overhead_s": "s",
    **QUALITY,
}


def derive_seed(*parts) -> int:
    """A seed for one input, fixed by the workload seed and the input's role."""
    return random.Random(":".join(str(p) for p in parts)).randrange(1, 2**31)


def quantiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, q):
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


@dataclass
class Child:
    code: int
    wall: float
    rss_mb: float
    pid: int
    log: Path


class Runner:
    """Starts program processes one at a time and waits for each to end."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.traced_env = dict(self.env, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))

    def run(self, args, log, spans=None, run_id=None, code=None, stdout=None) -> Child:
        """Run ``qem-mix <args>``, traced when ``spans`` names a span file,
        or ``python -c <code> <args>`` when ``code`` is given. Standard
        output goes to ``stdout`` when given, else to ``log`` with stderr.

        Peak RSS comes from ``wait4`` on this process alone, so it covers the
        process and the workers it reaped, and nothing else.
        """
        if code is not None:
            argv, env = [sys.executable, "-c", code, *args], self.env
        elif spans is None:
            argv, env = [sys.executable, "-m", "qem_mix.cli", *args], self.env
        else:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), run_id, *args]
            env = self.traced_env
        with open(log, "wb") as err, open(stdout or os.devnull, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out if stdout else err, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, proc.pid, Path(log))


@dataclass
class Unit:
    """One measured workload run: its processes and what it produced."""

    traced: bool
    children: list
    checkers: list = field(default_factory=list)
    wall: float = 0.0
    shots: int = 0
    rss_mb: float = 0.0
    fallbacks: int = 0
    row_ms: list = field(default_factory=list)
    spans_dir: Path = None


@dataclass
class Tally:
    """Operations attempted and failed, plus scored outcomes."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)  # (k_true, k_hat, ber)

    def op(self, ok, problem=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def score(self, k_true, k_hat, ber):
        self.outcomes.append((k_true, k_hat, ber))

    def quality(self) -> dict:
        done = self.outcomes
        return {
            "exact_frac": (
                sum(1 for k, kh, b in done if kh == k and b == 0.0) / len(done) if done else 0.0
            ),
            "k_error_rate": sum(1 for k, kh, _ in done if kh != k) / len(done) if done else 0.0,
            "ber_mean": statistics.fmean(b for *_, b in done) if done else 0.0,
            "failed_frac": self.failed / self.attempted if self.attempted else 0.0,
        }


def same_bytes(a: Path, b: Path) -> bool:
    return a.exists() and b.exists() and a.read_bytes() == b.read_bytes()


def count_fallbacks(children) -> int:
    return sum(c.log.read_text(errors="replace").count(FALLBACK_WARNING) for c in children)


class MitigateWorkload:
    """Generated counts files, each mitigated by its own CLI process."""

    def __init__(self, name, n, ks, s, p, eps, t_floor):
        self.name, self.n, self.ks, self.s, self.p = name, n, ks, s, p
        self.eps, self.t_floor = eps, t_floor
        self.jobs = 1

    def prepare(self, seed, work):
        self.work = work
        self.gen_seeds = {k: derive_seed(self.name, seed, "generate", k) for k in self.ks}
        self.em_seeds = {k: derive_seed(self.name, seed, "mitigate", k) for k in self.ks}

    def data(self, k, rep=0) -> Path:
        return self.work / f"setup{rep}" / f"counts-k{k}.json"

    def setup_commands(self, rep):
        (self.work / f"setup{rep}").mkdir(parents=True, exist_ok=True)
        return [
            ["generate", "--n", str(self.n), "--k", str(k), "--s", str(self.s),
             "--p", str(self.p), "--eps-low", str(self.eps[0]), "--eps-high", str(self.eps[1]),
             "--seed", str(self.gen_seeds[k]), "--out", str(self.data(k, rep).relative_to(ROOT))]
            for k in self.ks
        ]

    def setup_outputs(self, rep):
        return [p for k in self.ks
                for p in (self.data(k, rep), Path(f"{self.data(k, rep)}.truth.json"))]

    def unit_commands(self, out: Path):
        return [
            ["mitigate", str(self.data(k).relative_to(ROOT)), "--t-floor", str(self.t_floor),
             "--seed", str(self.em_seeds[k]), "--model-out", str(out / f"model-k{k}.json")]
            for k in self.ks
        ]

    def check_commands(self, out: Path):
        """``qem-mix evaluate`` of each model against its truth sidecar,
        with the file its JSON report goes to."""
        return [
            (["evaluate", "--model", str(out / f"model-k{k}.json"),
              "--truth", f"{self.data(k).relative_to(ROOT)}.truth.json"],
             out / f"eval-k{k}.json")
            for k in self.ks
        ]

    def check(self, unit, out: Path, reference: Path, tally: Tally):
        from qem_mix.emcore import load_model
        from qem_mix.metrics import ber, hellinger_fidelity, model_to_distribution
        from qem_mix.synth import load_ground_truth

        unit.shots = self.s * len(self.ks)
        for k, child, checker in zip(self.ks, unit.children, unit.checkers):
            model_path = out / f"model-k{k}.json"
            if child.code != 0 or not model_path.exists():
                tally.op(False, f"mitigate K={k} exited {child.code}")
                continue
            model, doc = load_model(model_path)
            truth, _ = load_ground_truth(f"{self.data(k)}.truth.json")
            live = [x for x, a in zip(model.x, model.alpha) if a > 0]
            res = ber(list(truth.solutions), live, truth.n)
            ok = doc["k_hat"] == model.k == len(live) and truth.k == k
            if reference is not None:
                ok = ok and same_bytes(model_path, reference / f"model-k{k}.json")
            tally.op(ok, f"mitigate K={k}: model check or byte comparison failed")
            tally.score(k, model.k, res.ber)
            hf = hellinger_fidelity(
                model_to_distribution(model),
                {s.text: float(w) for s, w in zip(truth.solutions, truth.weights) if w > 0})
            tally.op(checker.code == 0 and self._evaluate_agrees(out / f"eval-k{k}.json", res, hf),
                     f"evaluate K={k} exited {checker.code} or disagrees with the library")

    @staticmethod
    def _evaluate_agrees(path: Path, res, hf) -> bool:
        """The CLI's report equals the library's scores. The Hellinger sum
        runs over a set of strings, whose order follows per-process string
        hashing, so it is compared to a relative 1e-12, not bit for bit."""
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return False
        return (doc.get("ber") == res.ber and doc.get("k_true") == res.k_true
                and doc.get("k_hat") == res.k_hat and doc.get("k_correct") == res.k_correct
                and doc.get("matching") == [list(m) for m in res.matching]
                and type(doc.get("hellinger")) in (int, float)  # 0 when no key is shared
                and math.isclose(doc["hellinger"], hf, rel_tol=1e-12, abs_tol=1e-15))


class GridWorkload:
    """The acceptance grid's shape, run by one ``qem-mix sweep`` process."""

    def __init__(self, name, n_values, k_values, s, points, repeats):
        self.name, self.n_values, self.k_values = name, n_values, k_values
        self.s, self.points, self.repeats = s, points, repeats
        self.jobs = JOBS

    def prepare(self, seed, work):
        self.work = work
        self.doc = {
            "n_values": self.n_values, "k_values": self.k_values, "s_values": [self.s],
            "noise": [{"p": 0.85, "eps_low": 0.02, "eps_high": 0.1}],
            "repeats": self.repeats, "subsample_points": self.points,
            "master_seed": derive_seed(self.name, seed, "sweep"),
            "filter": {"eta": 1.5, "t_floor": 65},
            "em": {"k_min": 1, "k_max": 16, "delta": 1e-5, "max_iters": 500, "eps_init": 0.25},
        }
        self.rows = len(self.n_values) * len(self.k_values) * self.repeats * len(self.points)

    def config(self, rep=0) -> Path:
        return self.work / f"setup{rep}" / "sweep.json"

    def setup_commands(self, rep):
        path = self.config(rep)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return [[
            "-c", "import sys; from qem_mix.harness import load_sweep_config; "
            "load_sweep_config(sys.argv[1])", str(path.relative_to(ROOT)),
        ]]

    def setup_outputs(self, rep):
        return [self.config(rep)]

    def unit_commands(self, out: Path):
        return [["sweep", "--config", str(self.config().relative_to(ROOT)),
                 "--out", str(out), "--jobs", str(self.jobs)]]

    def check_commands(self, out: Path):
        return []  # the sweep scores its own rows

    def check(self, unit, out: Path, reference: Path, tally: Tally):
        child = unit.children[0]
        lines, rows = [], []
        if child.code == 0 and (out / "rows.csv").exists():
            lines = (out / "rows.csv").read_text(encoding="utf-8").splitlines()
            rows = list(csv.DictReader(lines))
            with open(out / "timings.csv", newline="", encoding="utf-8") as fh:
                unit.row_ms = [float(r["runtime_ms"]) for r in csv.DictReader(fh)]
        first = (reference / "rows.csv").read_text(encoding="utf-8").splitlines() if reference else lines
        for row, line, ref in zip(rows, lines[1:], first[1:]):
            tally.op(row["status"] == "ok", f"sweep row status {row['status']!r}")
            tally.op(line == ref, "sweep row differs from the first sweep's bytes")
        for _ in range(self.rows - len(rows)):
            tally.op(False, f"sweep exited {child.code} before writing all rows")
        ok_rows = [r for r in rows if r["status"] == "ok"]
        unit.shots = sum(int(r["s_used"]) for r in ok_rows)
        for r in ok_rows:
            tally.score(int(r["k_true"]), int(r["k_hat"]), float(r["ber"]))
        if not ok_rows:
            return
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        k_error = sum(int(r["k_error_flag"]) for r in ok_rows) / len(ok_rows)
        tally.op(abs(summary["overall_p_k_error"] - k_error) < 1e-12,
                 "summary.json overall_p_k_error differs from rows.csv")
        if reference is not None:
            tally.op(same_bytes(out / "summary.json", reference / "summary.json"),
                     "summary.json differs from the first sweep's bytes")


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# ``grid`` runs but is not listed in BENCHMARK.json: the program fails its
# checks (README.md, "What the checks catch today").
SCALES = {
    "full": {
        "dense-1m": lambda: MitigateWorkload(
            "dense-1m", 20, (4,), 1_000_000, 0.85, (0.02, 0.1), 65),
        "wide-128": lambda: MitigateWorkload(
            "wide-128", 128, (2, 4, 8), 20_000, 0.9, (0.05, 0.15), 2),
        "grid": lambda: GridWorkload(
            "grid", [10, 12, 14], [2, 4, 6, 8], 10_000, [1000, 2500, 5000, 10000], 4),
    },
    "tiny": {
        "dense-1m": lambda: MitigateWorkload(
            "dense-1m", 12, (4,), 5_000, 0.85, (0.02, 0.1), 65),
        "wide-128": lambda: MitigateWorkload(
            "wide-128", 128, (2, 4, 8), 1_000, 0.9, (0.05, 0.15), 2),
        "grid": lambda: GridWorkload("grid", [10], [2], 2_000, [1000, 2000], 2),
    },
}


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(THREADS),
        "sweep_jobs": JOBS,
        "revision": revision(),
    }


def revision() -> str:
    """The git revision, or a digest of the program's sources outside git."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def set_up(workload, runner, tally, trace):
    """Build the inputs at least SETUP_REPEATS times and for SETUP_SECONDS;
    returns the repetitions' wall times.

    With ``trace`` there are two repetitions and the second runs traced and
    is left out of the times. Every repetition must write the bytes the
    first one wrote.
    """
    times = []
    traced_rep = 1 if trace else None
    rep = 0
    while rep < (2 if trace else SETUP_REPEATS) or (not trace and sum(times) < SETUP_SECONDS):
        spans = None
        if rep == traced_rep:
            spans = workload.work / "spans-setup"
            spans.mkdir(parents=True, exist_ok=True)
        total = 0.0
        for i, args in enumerate(workload.setup_commands(rep)):
            log = workload.work / f"setup{rep}-{i}.log"
            if args[0] == "-c":  # the grid's import-and-parse step
                child = runner.run(args[2:], log, code=args[1])
            else:
                child = runner.run(args, log, spans / f"{i}.jsonl" if spans else None,
                                   f"setup{rep}")
            if child.code != 0:
                raise SystemExit(f"set-up step {args[0]} exited {child.code}: "
                                 f"{log.read_text(errors='replace')[-2000:]}")
            total += child.wall
        if rep != traced_rep:
            times.append(total)
        if rep:
            for mine, first in zip(workload.setup_outputs(rep), workload.setup_outputs(0)):
                tally.op(same_bytes(mine, first), f"set-up repetition {rep} wrote other bytes")
            shutil.rmtree(workload.work / f"setup{rep}")
        rep += 1
    return times


def run_unit(workload, runner, index, traced, tally, reference):
    out = workload.work / f"unit{index}"
    out.mkdir(parents=True, exist_ok=True)
    spans_dir = out / "spans" if traced else None
    if traced:
        spans_dir.mkdir()
    children = []
    for i, args in enumerate(workload.unit_commands(out.relative_to(ROOT))):
        spans = spans_dir / f"{i}.jsonl" if traced else None
        children.append(runner.run(args, out / f"{i}.log", spans, f"unit{index}"))
    # Output checks run after the timed processes and are not part of them;
    # traced, their spans go apart so that only metrics.eval_s sees them.
    checkers = []
    for i, (args, report) in enumerate(workload.check_commands(out.relative_to(ROOT))):
        spans = spans_dir / "check" / f"{i}.jsonl" if traced else None
        if spans:
            spans.parent.mkdir(exist_ok=True)
        checkers.append(runner.run(args, out / f"check{i}.log", spans, f"unit{index}",
                                   stdout=ROOT / report))
    unit = Unit(traced, children, checkers, spans_dir=spans_dir)
    unit.wall = sum(c.wall for c in children)
    unit.rss_mb = max(c.rss_mb for c in children)
    unit.fallbacks = count_fallbacks(children)
    workload.check(unit, out, reference, tally)
    return unit, out


def measure(workload, runner, seconds, trace, tally):
    """At least two workload runs, then more while the next one is expected
    to end within ``seconds``."""
    units, took = [], []
    reference = None
    start = time.monotonic()
    while True:
        began = time.monotonic()
        traced = bool(trace) and len(units) % 2 == 1
        unit, out = run_unit(workload, runner, len(units), traced, tally, reference)
        reference = reference or out
        units.append(unit)
        took.append(time.monotonic() - began)
        next_end = time.monotonic() + statistics.median(took)
        if next_end > runner.deadline or (len(units) >= 2 and next_end - start > seconds):
            return units


def end_to_end(setup_times, units) -> dict:
    walls = [u.wall for u in units]
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "shots_per_s": statistics.median(u.shots / u.wall for u in units),
        "peak_rss_mb": statistics.median(u.rss_mb for u in units),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(workload, setup_spans, units, tally) -> dict:
    traced = [u for u in units if u.traced]
    plain = [u for u in units if not u.traced]
    per_unit, level_s, iter_ms, row_ms = [], [], [], []
    for unit in traced:
        tree = layers.SpanTree(layers.load_spans(layers.span_files(unit.spans_dir)))
        if workload.jobs == 1:
            unit.row_ms = [1000.0 * (s["end"] - s["start"])
                           for s in tree.named("harness.run_pipeline")]
        layer = layers.unit_layers(
            tree, [(c.pid, c.wall) for c in unit.children], unit.row_ms, workload.jobs)
        checks = layers.SpanTree(layers.load_spans(layers.span_files(unit.spans_dir / "check")))
        layer["metrics.eval_s"] += layers.eval_time(checks)
        per_unit.append(layer)
        tally.op(tree.errors("depfilter.filter_dataset", "AllFilteredError") == unit.fallbacks,
                 "traced fallbacks differ from logged fallback warnings")
        levels, iters = layers.level_samples(tree)
        level_s += levels
        iter_ms += iters
        row_ms += unit.row_ms
    metrics = {name: statistics.median(u[name] for u in per_unit) for name in per_unit[0]}
    setup = layers.SpanTree(layers.load_spans(layers.span_files(setup_spans)))
    metrics["shotdata.save_s"] = setup.self_time("shotdata.save_counts")
    metrics["synth.generate_s"] += layers.synth_time(setup)
    metrics["emcore.level_s"] = statistics.median(level_s) if level_s else 0.0
    metrics["emcore.level_s_p90"] = percentile(level_s, 0.9)
    metrics["emcore.iter_ms"] = statistics.median(iter_ms) if iter_ms else 0.0
    metrics["harness.row_ms_p50"] = statistics.median(row_ms) if row_ms else 0.0
    metrics["harness.row_ms_p90"] = percentile(row_ms, 0.9)
    metrics["trace.overhead_s"] = (statistics.median(u.wall for u in traced)
                                   - statistics.median(u.wall for u in plain))
    metrics.update(tally.quality())
    return {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCALES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="input size; 'tiny' is for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qem_mix" / "cli.py").is_file():
        print(f"error: no qem_mix sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(dict.fromkeys(THREAD_VARS, THREADS))  # before numpy loads
    sys.path.insert(0, str(SRC))
    deadline = time.monotonic() + TIME_LIMIT_S
    workload = SCALES[args.scale][args.workload]()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.prepare(args.seed, work)
    runner = Runner(deadline)
    tally = Tally()
    try:
        setup_times = set_up(workload, runner, tally, args.trace)
        units = measure(workload, runner, args.seconds, args.trace, tally)
        if args.trace:
            metrics = per_layer(workload, work / "spans-setup", units, tally)
        else:
            metrics = end_to_end(setup_times, units)
        report(args, units, metrics, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def report(args, units, metrics, tally):
    print(f"# qem-mix benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    for tag, group in (("untraced", [u for u in units if not u.traced]),
                       ("traced", [u for u in units if u.traced])):
        if group:
            q1, q2, q3 = quantiles([u.wall for u in group])
            print(f"# {tag} runs: {len(group)}  wall_s median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f}  "
                  f"each {[round(u.wall, 4) for u in group]}")
    quality = {name: (value, QUALITY[name]) for name, value in tally.quality().items()}
    for name, (value, unit) in {**quality, **metrics}.items():
        print(f"{name:24s} {value:14.6g}  {unit}")
    for problem in sorted(set(tally.problems)):
        print(f"# failed {tally.problems.count(problem)}x: {problem}")


if __name__ == "__main__":
    sys.exit(main())
