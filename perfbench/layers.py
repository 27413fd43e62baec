"""Per-layer metrics derived from the spans of one traced workload run.

A span's self time is its duration minus the spans it directly caused in
the same process. A layer's time inside a span also keeps the children of
the same layer (``emcore.run_em`` keeps its ``emcore.run_em_fixed_k``
levels but not the ``shotdata.counts`` build inside ``kmeanspp_init``).
Spans that sweep workers record are parented to the sweep's span across
processes; they never count against its time, because they run in parallel.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load_spans(paths) -> list:
    spans = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _pid(span_id) -> str:
    return span_id.split(".", 1)[0]


def _dur(span) -> float:
    return span["end"] - span["start"]


class SpanTree:
    def __init__(self, spans):
        self.spans = spans
        self.kids: dict = {}
        for span in spans:
            parent = span["parent"]
            if parent is not None and _pid(parent) == _pid(span["id"]):
                self.kids.setdefault(parent, []).append(span)

    def named(self, name) -> list:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name) -> float:
        return sum(_dur(s) for s in self.named(name))

    def self_time(self, name) -> float:
        return sum(
            _dur(s) - sum(_dur(c) for c in self.kids.get(s["id"], ()))
            for s in self.named(name)
        )

    def _foreign(self, span) -> float:
        layer = span["name"].split(".")[0]
        return sum(
            self._foreign(c) if c["name"].split(".")[0] == layer else _dur(c)
            for c in self.kids.get(span["id"], ())
        )

    def layer_time(self, name) -> float:
        return sum(_dur(s) - self._foreign(s) for s in self.named(name))

    def attr_sum(self, name, key) -> float:
        return sum(s["attrs"].get(key, 0) for s in self.named(name))

    def errors(self, name, error) -> int:
        return sum(1 for s in self.named(name) if s["attrs"].get("error") == error)


def unit_layers(tree: SpanTree, processes, row_ms, jobs) -> dict:
    """Additive layer metrics for one traced workload run.

    ``processes`` are (pid, wall seconds) of the program processes the
    benchmark started; ``row_ms`` are the per-row pipeline times.
    """
    pipeline_shots = tree.attr_sum("harness.run_pipeline", "shots")
    levels = tree.named("emcore.run_em_fixed_k")
    em_runs = [s for s in tree.named("emcore.run_em") if "error" not in s["attrs"]]
    loaded_counts = [s for s in tree.named("shotdata.counts") if s["attrs"].get("loaded")]
    wall = sum(w for _, w in processes)
    top = {str(pid): 0.0 for pid, _ in processes}
    for span in tree.spans:
        pid = _pid(span["id"])
        if span["parent"] is None and pid in top:
            top[pid] += _dur(span)
    return {
        "shotdata.load_s": tree.total("shotdata.load_counts"),
        "shotdata.counts_s": tree.total("shotdata.counts"),
        "shotdata.shots": tree.attr_sum("shotdata.load_counts", "shots"),
        "shotdata.distinct": sum(s["attrs"]["distinct"] for s in loaded_counts),
        "synth.generate_s": synth_time(tree),
        "depfilter.support_s": tree.self_time("depfilter.support_counts"),
        "depfilter.filter_s": tree.self_time("depfilter.filter_dataset"),
        "depfilter.kept_shots": tree.attr_sum("depfilter.filter_dataset", "kept"),
        "depfilter.kept_frac": (
            tree.attr_sum("depfilter.filter_dataset", "kept") / pipeline_shots
            if pipeline_shots else 0.0
        ),
        "depfilter.fallbacks": tree.errors("depfilter.filter_dataset", "AllFilteredError"),
        "emcore.init_s": tree.self_time("emcore.kmeanspp_init"),
        "emcore.em_s": tree.layer_time("emcore.run_em"),
        "emcore.levels": len(levels),
        "emcore.iterations": sum(s["attrs"].get("iterations", 0) for s in levels),
        "emcore.rows": tree.attr_sum("emcore.run_em", "rows"),
        "emcore.distinct_rows": tree.attr_sum("emcore.run_em", "distinct"),
        "emcore.degenerate_levels": tree.errors("emcore.run_em_fixed_k", "DegenerateModelError"),
        "emcore.k_hat": (
            statistics.fmean(s["attrs"]["k_hat"] for s in em_runs) if em_runs else 0.0
        ),
        "metrics.eval_s": eval_time(tree),
        "harness.pipeline_s": tree.total("harness.run_pipeline"),
        "harness.subset_s": tree.total("harness.subset"),
        "harness.rows": len(row_ms),
        "harness.busy_frac": sum(row_ms) / 1000.0 / (wall * jobs) if wall else 0.0,
        "cli.import_s": tree.total("cli.import"),
        "cli.process_s": sum(w - top[str(pid)] for pid, w in processes),
    }


def eval_time(tree: SpanTree) -> float:
    return tree.total("metrics.ber") + tree.total("metrics.hellinger_fidelity")


def synth_time(tree: SpanTree) -> float:
    return sum(tree.layer_time(name) for name in (
        "synth.generate_shots", "synth.sample_ground_truth", "synth.sample_flip_probabilities"))


def level_samples(tree: SpanTree):
    """(level seconds, ms per iteration) for every completed EM level."""
    levels = [s for s in tree.named("emcore.run_em_fixed_k") if "error" not in s["attrs"]]
    return (
        [_dur(s) for s in levels],
        [1000.0 * _dur(s) / s["attrs"]["iterations"] for s in levels if s["attrs"]["iterations"]],
    )


def span_files(directory) -> list:
    """The span files directly in ``directory``; none if it does not exist."""
    return sorted(Path(directory).glob("*.jsonl*"))
