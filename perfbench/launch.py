"""Launcher shim for the servers of ``serve_mix``.

    python3 perfbench/launch.py [--trace-out FILE] MODULE [ARGS...]

Imports ``MODULE`` (``repro.db.cache.server``, ``repro.serving.server`` or
``repro.serving.fleet.router``) and calls its ``main(ARGS)``, exactly what
``python -m`` would run, so the topology is the same traced or not.  With
``--trace-out`` it first wraps every layer (``layers.WRAPS``) and, when
``main`` returns after SIGTERM, writes the span totals and the import time
to ``FILE`` as JSON.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    began = perf_counter()
    module = importlib.import_module(argv[0])
    import_s = perf_counter() - began
    tracer = None
    if trace_out is not None:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    code = module.main(argv[1:])
    if tracer is not None:
        payload = tracer.snapshot()
        payload["import_s"] = import_s
        with open(trace_out, "w") as handle:
            json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
