"""Run one qem-mix command with span tracing.

    python perfbench/traced_cli.py SPANS_OUT RUN_ID <qem-mix arguments>

Behaves like ``python -m qem_mix.cli <qem-mix arguments>`` and also writes
the process's spans to SPANS_OUT (sweep workers to SPANS_OUT.<pid>).
"""

import sys
import time

import tracer


def main(argv):
    out_path, run_id, args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    from qem_mix import cli
    end = time.perf_counter()
    spans = tracer.install(out_path, run_id)
    spans.add(spans.new_id(), "cli.import", start, end, None)
    try:
        return cli.dispatch(args)
    finally:
        spans.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
