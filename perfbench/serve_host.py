"""Run ``python -m repro.serve`` with the layer tracer installed.

    python3 perfbench/serve_host.py TRACE_OUT [repro.serve arguments...]

Same server, same arguments; on graceful shutdown (SIGTERM) the merged
span tree of every handler thread is written to ``TRACE_OUT`` as JSON.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    import tracer

    trace_out, argv = sys.argv[1], sys.argv[2:]
    spans = tracer.install()
    from repro.serve.server import main as serve_main

    try:
        return serve_main(argv)
    finally:
        with open(trace_out, "w") as fh:
            json.dump(spans.tree().to_dict(), fh)


if __name__ == "__main__":
    raise SystemExit(main())
