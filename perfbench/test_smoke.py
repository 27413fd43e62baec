"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs untraced and traced on two seeds. Every metric that
BENCHMARK.json names must come out with its unit, the output checks must
have run and pass on the workloads BENCHMARK.json lists, and a copy of the
benchmark without the program must fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


GATED = [w["name"] for w in SPEC["workloads"]]
# grid is not in BENCHMARK.json while the program fails on it (see README.md),
# but it must keep working.
WORKLOADS = GATED + ["grid"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, seed, trace):
    proc = run_bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["attempted"] >= 2
    assert result["correct"] == (result["failed"] == 0)
    if workload in GATED:
        assert result["correct"], proc.stdout
    reported = sum(int(line.split()[2].rstrip("x:")) for line in proc.stdout.splitlines()
                   if line.startswith("# failed "))
    assert reported == result["failed"]
    if not trace:
        assert result["metrics"]["wall_s"]["value"] > 0
        assert result["metrics"]["setup_s"]["value"] > 0


def test_layers_skip_failed_em_runs():
    """A sweep row whose EM raised leaves a span without result counts."""
    sys.path.insert(0, str(BENCH))
    import layers

    def span(sid, name, start, end, parent, **attrs):
        return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
                "run": "u", "attrs": attrs}

    tree = layers.SpanTree([
        span("1.0", "harness.run_pipeline", 0.0, 4.0, None, shots=10),
        span("1.1", "emcore.run_em", 0.5, 1.5, "1.0", error="DegenerateModelError"),
        span("1.2", "emcore.run_em", 2.0, 3.5, "1.0", rows=10, distinct=4, k_hat=2,
             iterations=7),
        span("1.3", "emcore.run_em_fixed_k", 2.0, 3.0, "1.2", iterations=7, k_out=2),
    ])
    got = layers.unit_layers(tree, [(1, 5.0)], [4000.0], 1)
    assert got["emcore.k_hat"] == 2
    assert got["emcore.rows"] == 10
    assert got["emcore.em_s"] == 2.5
    assert got["cli.process_s"] == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(SPEC["workloads"][0]["name"], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
