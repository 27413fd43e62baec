"""qem-mix command line: generate | filter | mitigate | evaluate | sweep.

Exit codes: 0 success, otherwise the ``exit_code`` of the error that ended
the command (see ``errors``); usage errors and allocations that cannot be
met exit 1, unreadable files 2.
Diagnostics go to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys
from dataclasses import asdict, replace

from . import __version__
from .depfilter import FilterConfig, check_threshold, filter_dataset
from .emcore import EmConfig, load_model, save_model
from .errors import QemError
from .harness import NoiseGrid, _seeds, load_sweep_config, run_pipeline, run_sweep
from .metrics import ber, hellinger_fidelity, model_to_distribution
from .shotdata import ShotDataset, _seekable, load_counts, load_shots_text, save_counts
from .synth import (
    NoiseSpec,
    generate_shots,
    load_ground_truth,
    sample_flip_probabilities,
    sample_ground_truth,
    save_ground_truth,
)

log = logging.getLogger("qem_mix")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class _UsageError(Exception):
    exit_code = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qem-mix",
        description="Recover likely noiseless circuit outputs from noisy shots.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"qem-mix {__version__}")
    parser.add_argument(
        "--log-level", choices=sorted(_LOG_LEVELS), dest="log_level",
        default=os.environ.get("QEM_LOG_LEVEL", "info"),
        help="diagnostic verbosity (env: QEM_LOG_LEVEL)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress non-error output")

    def seed(text: str) -> int:
        """A --seed value: every seed is a non-negative integer."""
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
        return value

    parser.add_argument(
        "--seed", type=seed, default=None, dest="master_seed",
        help="master seed; drawn from OS entropy and printed when unset",
    )
    sub = parser.add_subparsers(dest="command", metavar="<command>")

    def command(name, summary, func, parents=()):
        p = sub.add_parser(name, help=summary, parents=parents,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=func)
        return p

    # input and threshold flags shared by filter and mitigate
    filtering = argparse.ArgumentParser(add_help=False)
    filtering.add_argument("input", help="dataset path (counts JSON or shots text)")
    filtering.add_argument("--eta", type=float, default=FilterConfig.eta,
                           help="filter threshold multiplier")
    filtering.add_argument("--t-floor", type=int, default=FilterConfig.t_floor,
                           help="filter minimum absolute threshold")
    filtering.add_argument("--threshold", type=float, default=None,
                           help="absolute filter threshold (skips the eta formula)")

    p = command("generate", "sample a synthetic noisy dataset plus ground-truth sidecar",
                _cmd_generate)
    p.add_argument("--n", type=int, required=True, help="qubit count")
    p.add_argument("--k", type=int, required=True, help="number of true solutions")
    p.add_argument("--s", type=int, required=True, help="shot count")
    p.add_argument("--p", type=float, default=0.9, help="depolarized fraction")
    p.add_argument("--eps-low", type=float, default=NoiseGrid.eps_low,
                   help="flip probability lower bound")
    p.add_argument("--eps-high", type=float, default=NoiseGrid.eps_high,
                   help="flip probability upper bound")
    p.add_argument("--seed", type=seed, default=None, help="seed for this run")
    p.add_argument("--depth-label", default=None, help="free-form metadata, no model effect")
    p.add_argument("--out", required=True, help="output counts JSON path")
    p.add_argument("--truth-out", default=None,
                   help="ground-truth sidecar path (default: <out>.truth.json)")

    p = command("filter", "remove shots consistent with uniform depolarizing noise",
                _cmd_filter, [filtering])
    p.add_argument("--out", default=None, help="write kept shots as counts JSON")

    p = command("mitigate", "filter then run the EM sweep; writes a model file",
                _cmd_mitigate, [filtering])
    p.add_argument("--model-out", default=None,
                   help="model JSON path (default: <input>.model.json)")
    p.add_argument("--skip-filter", action="store_true", help="run EM on the raw dataset")
    p.add_argument("--k-min", type=int, default=EmConfig.k_min,
                   help="smallest component count to try")
    p.add_argument("--k-max", type=int, default=EmConfig.k_max,
                   help="starting component count")
    p.add_argument("--delta", type=float, default=EmConfig.delta,
                   help="relative convergence threshold")
    p.add_argument("--max-iters", type=int, default=EmConfig.max_iters,
                   help="iteration cap per K level")
    p.add_argument("--eps-init", type=float, default=EmConfig.eps_init,
                   help="initial flip probability")
    p.add_argument("--no-mml", action="store_true",
                   help="plain EM mode: no coding penalty, no annihilation")
    p.add_argument("--seed", type=seed, default=None, help="seed for this run")

    p = command("evaluate", "score a model file against a ground-truth sidecar",
                _cmd_evaluate)
    p.add_argument("--model", required=True, help="model JSON from mitigate")
    p.add_argument("--truth", required=True, help="ground-truth sidecar from generate")

    p = command("sweep", "run a parameter-grid experiment from a JSON config", _cmd_sweep)
    p.add_argument("--config", required=True, help="sweep config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")

    return parser


def _effective_seed(args, sub_seed) -> int:
    if sub_seed is not None:
        return sub_seed
    if args.master_seed is not None:
        return args.master_seed
    seed = random.SystemRandom().getrandbits(32)
    log.info("no seed given; using OS entropy seed %d", seed)
    return seed


def _load_dataset(path) -> ShotDataset:
    """Counts JSON if the input's first byte that is not JSON whitespace is
    '{', shots text otherwise. The input is opened once: its loader reads
    the same seekable stream (``_seekable``) from the start."""
    with _seekable(path) as fh:
        head = fh.read(1)
        while head in (b" ", b"\t", b"\n", b"\r"):
            head = fh.read(1)
        fh.seek(0)
        return load_counts(path, fh) if head == b"{" else load_shots_text(path, fh)


def _cmd_generate(args) -> int:
    seed = _effective_seed(args, args.seed)
    log.info("generate: n=%d k=%d s=%d p=%g eps=[%g,%g] seed=%d",
             args.n, args.k, args.s, args.p, args.eps_low, args.eps_high, seed)
    truth_seed, eps_seed, shots_seed = _seeds(3, seed)
    truth = _checked(sample_ground_truth, args.n, args.k, truth_seed)
    eps = _checked(sample_flip_probabilities, args.n, eps_seed, args.eps_low, args.eps_high)
    noise = _checked(NoiseSpec, p=args.p, eps=eps, depth_label=args.depth_label)
    dataset = _checked(generate_shots, truth, noise, args.s, shots_seed)
    save_counts(dataset, args.out)
    truth_out = args.truth_out or f"{args.out}.truth.json"
    save_ground_truth(truth, noise, truth_out, seed=seed)
    log.info("wrote %s (%d shots, %d distinct) and %s",
             args.out, dataset.s, dataset.distinct, truth_out)
    return 0


def _checked(func, *args, **kwargs):
    """func(*args, **kwargs); a value it rejects with ValueError is a usage
    error."""
    try:
        return func(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(exc) from exc


def _filter_config(args) -> FilterConfig:
    """The filter flags' config, checked before any data is read."""
    _checked(check_threshold, args.threshold)
    return _checked(FilterConfig, eta=args.eta, t_floor=args.t_floor)


def _cmd_filter(args) -> int:
    config = _filter_config(args)
    dataset = _load_dataset(args.input)
    report = filter_dataset(dataset, config, threshold=args.threshold)
    if args.out:
        save_counts(report.kept, args.out)
        log.info("wrote %s", args.out)
    doc = {
        "s_in": dataset.s,
        "s_out": report.kept.s,
        "radius": report.radius,
        "threshold": report.threshold_used,
        "lambda": report.lam,
        "removed": report.removed_count,
    }
    print("filter: S_in={s_in} S_out={s_out} r={radius} T={threshold:g} "
          "lambda={lambda:g} removed={removed}".format(**doc))
    print(json.dumps(doc, sort_keys=True))
    return 0


def _cmd_mitigate(args) -> int:
    seed = _effective_seed(args, args.seed)
    filter_config = _filter_config(args)
    em_config = _checked(
        EmConfig, k_min=args.k_min, k_max=args.k_max, delta=args.delta,
        max_iters=args.max_iters, seed=seed, eps_init=args.eps_init,
        mml_enabled=not args.no_mml,
    )

    def loaded() -> ShotDataset:
        dataset = _load_dataset(args.input)
        log.info("mitigate: %s (S=%d, n=%d), seed=%d",
                 args.input, dataset.s, dataset.n, seed)
        return dataset

    # no name holds the input here, so the pipeline can free it once filtered
    result = run_pipeline(
        loaded(), filter_config, em_config,
        skip_filter=args.skip_filter, threshold=args.threshold,
    )
    em_report, filter_report, fallback = (
        result.report, result.filter_report, result.filter_fallback
    )
    if filter_report is not None:
        log.info("filter: kept %d of %d shots at Hamming radius %d, T=%g",
                 filter_report.kept.s,
                 filter_report.kept.s + filter_report.removed_count,
                 filter_report.radius, filter_report.threshold_used)

    model_out = args.model_out or f"{args.input}.model.json"
    meta = {
        "input": str(args.input),
        "skip_filter": bool(args.skip_filter),
        "filter_fallback": fallback,
        "filter_kept": filter_report.kept.s if filter_report else None,
        "filter_threshold": filter_report.threshold_used if filter_report else None,
        **asdict(em_config),
    }
    save_model(em_report, model_out, meta=meta)
    log.info(
        "k_hat=%d objective=%.6f iterations=%d -> %s",
        em_report.k_hat, em_report.best_objective,
        em_report.iterations_total, model_out,
    )
    for x, a in zip(em_report.best.x, em_report.best.alpha):
        log.info("  %s  alpha=%.4f", x.text, a)
    return 0


def _cmd_evaluate(args) -> int:
    model, _doc = load_model(args.model)
    truth, _noise = load_ground_truth(args.truth)
    live = [x for x, a in zip(model.x, model.alpha) if a > 0]
    result = ber(list(truth.solutions), live, truth.n)
    hf = hellinger_fidelity(
        model_to_distribution(model),
        {s.text: float(w) for s, w in zip(truth.solutions, truth.weights) if w > 0},
    )
    log.info(
        "BER=%.6f k_true=%d k_hat=%d k_correct=%s hellinger=%.6f",
        result.ber, result.k_true, result.k_hat, result.k_correct, hf,
    )
    print(json.dumps({
        "ber": result.ber,
        "k_true": result.k_true,
        "k_hat": result.k_hat,
        "k_correct": result.k_correct,
        "matching": [list(m) for m in result.matching],
        "hellinger": hf,
    }, sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be >= 1, got {args.jobs}")
    config = load_sweep_config(args.config)
    if args.master_seed is not None:
        config = replace(config, master_seed=args.master_seed)
    log.info("sweep: config=%s out=%s jobs=%d master_seed=%d",
             args.config, args.out, args.jobs, config.master_seed)
    rows = run_sweep(config, jobs=args.jobs, out_dir=args.out)
    failed = sum(1 for r in rows if r.status != "ok")
    log.info("sweep complete: %d rows (%d failed) -> %s", len(rows), failed, args.out)
    return 0


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return exc.exit_code
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)

    if args.command is None:
        parser.print_help(sys.stderr)
        return 1

    level = logging.ERROR if args.quiet else _LOG_LEVELS.get(args.log_level, logging.INFO)
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    log.setLevel(level)

    try:
        return int(args.func(args) or 0)
    except (QemError, _UsageError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # an unreadable file (OSError) exits 2; an allocation that cannot be met, 1
        return getattr(exc, "exit_code", 2 if isinstance(exc, OSError) else 1)


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
