"""Span recording for qem_mix, installed from outside the package.

``install`` replaces public functions in the module namespaces where the
package's own code looks them up (``harness.run_pipeline`` calls
``harness.filter_dataset``, not ``depfilter.filter_dataset``), so a call
made anywhere in the package is recorded. Each span holds its name, start
and end (``time.perf_counter``, one clock for every process on the host),
the id of the span that was open when it began, the run id and a few counts
read at the boundary. Spans stay in memory and are written as JSON lines
when the process ends.

Sweep workers are traced through the pool's initializer: the patched
``harness.ProcessPoolExecutor`` starts each worker with ``worker_init``,
which parents the worker's spans to the open ``harness.run_sweep`` span and
writes them to ``<out>.<pid>`` when the worker exits.
"""

from __future__ import annotations

import functools
import json
import os
import time

_TRACER = None


class Tracer:
    def __init__(self, out_path, run_id, parent=None):
        self.out_path = out_path
        self.run_id = run_id
        self.spans = []
        self.stack = [parent]
        self.count = 0
        self.loaded = set()

    def new_id(self) -> str:
        sid = f"{os.getpid()}.{self.count}"
        self.count += 1
        return sid

    def add(self, sid, name, start, end, parent) -> dict:
        span = {"id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "run": self.run_id, "attrs": {}}
        self.spans.append(span)
        return span

    def wrap(self, name, fn, attrs=None):
        """``fn`` wrapped in a span; ``attrs(args, result)`` runs after the
        span has ended, so reading counts is not charged to the layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1]
            sid = self.new_id()
            self.stack.append(sid)
            start = time.perf_counter()
            error = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                span = self.add(sid, name, start, end, parent)
                if error:
                    span["attrs"]["error"] = error
            if attrs is not None:
                span["attrs"].update(attrs(args, result))
            return result

        return traced

    def flush(self, path=None):
        with open(path or self.out_path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
        self.spans = []


def _traced_counts(tracer, owner):
    """``owner.counts``, a cached property, with its first access recorded;
    later accesses hit the instance cache and record nothing."""

    def attrs(args, table):
        return {"shots": args[0].s, "distinct": len(table),
                "loaded": id(args[0]) in tracer.loaded}

    traced = functools.cached_property(
        tracer.wrap("shotdata.counts", owner.__dict__["counts"].func, attrs))
    traced.__set_name__(owner, "counts")
    return traced


def install(out_path, run_id, parent=None):
    """Patch qem_mix in this process; returns the process's tracer."""
    global _TRACER
    from qem_mix import cli, depfilter, emcore, harness, shotdata

    tracer = _TRACER = Tracer(out_path, run_id, parent)
    wrap = tracer.wrap

    def loaded(args, ds):
        tracer.loaded.add(id(ds))
        return {"shots": ds.s}

    def filtered(args, report):
        return {"s_in": args[0].s, "kept": report.kept.s}

    def em_done(args, report):
        # counts is cached by kmeanspp_init, so len() is free here.
        return {"rows": args[0].s, "distinct": len(args[0].counts),
                "k_hat": report.k_hat, "iterations": report.iterations_total}

    def pipeline_in(args, result):
        return {"shots": args[0].s}

    def level_done(args, res):
        return {"iterations": res.iterations, "k_out": res.model.k}

    synth = [("synth.generate_shots", "generate_shots", None),
             ("synth.sample_ground_truth", "sample_ground_truth", None),
             ("synth.sample_flip_probabilities", "sample_flip_probabilities", None)]
    patches = [
        (cli, "load_counts", "shotdata.load_counts", loaded),
        (cli, "save_counts", "shotdata.save_counts", None),
        (cli, "run_pipeline", "harness.run_pipeline", pipeline_in),
        (cli, "run_sweep", "harness.run_sweep", None),
        (cli, "ber", "metrics.ber", None),
        (cli, "hellinger_fidelity", "metrics.hellinger_fidelity", None),
        (harness, "run_pipeline", "harness.run_pipeline", pipeline_in),
        (harness, "filter_dataset", "depfilter.filter_dataset", filtered),
        (harness, "run_em", "emcore.run_em", em_done),
        (harness, "ber", "metrics.ber", None),
        (harness, "hellinger_fidelity", "metrics.hellinger_fidelity", None),
        (depfilter, "support_counts", "depfilter.support_counts", None),
        (emcore, "kmeanspp_init", "emcore.kmeanspp_init", None),
        (emcore, "run_em_fixed_k", "emcore.run_em_fixed_k", level_done),
    ]
    patches += [(mod, attr, name, fn) for mod in (cli, harness) for name, attr, fn in synth]
    for module, attr, name, fn in patches:
        setattr(module, attr, wrap(name, getattr(module, attr), fn))

    dataset = shotdata.ShotDataset
    dataset.subset = wrap("harness.subset", dataset.subset)
    dataset.counts = _traced_counts(tracer, dataset)

    pool = harness.ProcessPoolExecutor

    class TracedPool(pool):
        def __init__(self, *args, **kwargs):
            kwargs["initializer"] = worker_init
            kwargs["initargs"] = (out_path, run_id, tracer.stack[-1])
            super().__init__(*args, **kwargs)

    harness.ProcessPoolExecutor = TracedPool
    return tracer


def worker_init(out_path, run_id, parent):
    """Pool initializer: trace this worker and write its spans at exit."""
    from multiprocessing import util

    global _TRACER
    if _TRACER is None:  # not forked from a traced process
        install(out_path, run_id, parent)
    _TRACER.spans = []
    _TRACER.stack = [parent]
    util.Finalize(_TRACER, _TRACER.flush, args=(f"{out_path}.{os.getpid()}",),
                  exitpriority=10)
