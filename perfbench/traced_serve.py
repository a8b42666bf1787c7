"""Run ``ddbdd serve`` with the benchmark's layer wrappers installed.

Used by the traced serve-mix run only, so that the layers executing in
the daemon's worker threads are measured the same way as in-process
work.  Usage::

    python3 perfbench/traced_serve.py OUT.json serve --port 0

writes the per-layer self times, call counts and counters to ``OUT.json``
when the daemon has drained and exited.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer, install


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"self_s": tracer.self_s, "calls": tracer.calls,
                       "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
