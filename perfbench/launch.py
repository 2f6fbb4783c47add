"""Start the measured simulation service.

    python3 -m perfbench.launch --socket S --cache-dir C [--trace-out F]

It calls the program's public entry point ``run_server`` with the
benchmark's scratch directories (the trace store directory comes from
``REPRO_TRACE_DIR``, set by the caller).  With ``--trace-out`` it first
wraps every measured layer (``perfbench.tracer.install_layers``) and
writes the spans and counts to that file when the server has drained.
"""

from __future__ import annotations

import argparse
import os
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--socket", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    from repro.runner import ResultCache
    from repro.service.server import run_server

    if args.trace_out is None:
        return run_server(args.socket, cache=ResultCache(args.cache_dir))
    from perfbench.tracer import Tracer, install_layers

    tracer = Tracer(f"serve:{os.getpid()}")
    install_layers(tracer)
    try:
        return run_server(args.socket, cache=ResultCache(args.cache_dir))
    finally:
        tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
