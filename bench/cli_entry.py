"""Traced stand-in for the ``polyspace`` console script.

Usage: ``python cli_entry.py <trace-out.json> <polyspace arguments...>``.
Times the import of ``polyspace.cli``, installs the tracer, runs ``main`` and
writes the per-layer numbers to ``<trace-out.json>``; the exit status is
``main``'s.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def run():
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import polyspace.cli
    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return polyspace.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "layers": tracer.layers()}, fh)


if __name__ == "__main__":
    sys.exit(run())
