"""Server process of the viewshed-service workload.

Runs ``repro serve`` unchanged, except for one extra op,
``{"op": "speed_probe"}``, that times the host-speed probe in this
process.  With ``--trace`` it first wraps the
session's layers in spans (see ``tracer.py``) and times the garbage
collector; untraced it imports no tracer.  On exit (SIGINT from the
load generator) it writes ``--summary``: peak RSS and, when traced,
the per-layer totals and span files.

    python3 e2ebench/serve_entry.py --summary out.json [--trace] -- \\
        terrain.json --port 0
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--summary", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]
    # The load generator stops the server with SIGINT.  A parent that
    # runs in the background may pass SIGINT down as ignored, and then
    # the server would never stop or write its summary.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    from common import BenchError, shipped_default, speed_probe

    # Host speed before the package and numpy load: the load generator
    # scales the start-up time by it (common.py, "host speed").  The
    # first call of a fresh process also pays for page faults.
    speed_probe()
    print(f"probe {speed_probe()}", flush=True)
    from repro.cli import main as repro_main
    from repro.service.server import ViewshedServer

    handle_request = ViewshedServer.handle_request

    async def handle_with_probe(self, req):
        # The load generator's host-speed probe, timed in this process
        # (common.py, "host speed"); every other op goes through as is.
        if req.get("op") == "speed_probe":
            return {"ok": True, "ms": speed_probe()}
        return await handle_request(self, req)

    ViewshedServer.handle_request = handle_with_probe

    try:
        shipped_default()
    except BenchError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    tracer = gc_timer = None
    if args.trace:
        from tracer import GcTimer, Tracer

        tracer, gc_timer = Tracer(keep_spans=100_000), GcTimer()
        tracer.install()
        gc_timer.install()

    rc = repro_main(["serve", *serve_args])

    summary = {
        "rc": rc,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        gc_timer.uninstall()
        summary["trace"] = tracer.snapshot()
        summary["gc_ms"] = gc_timer.ns / 1e6
        summary["gc_collections"] = gc_timer.collections
        stem = Path(args.summary).with_suffix("")
        files = [str(stem) + ".spans.json", str(stem) + ".chrome.json"]
        tracer.export(*files)
        summary["span_files"] = files
    Path(args.summary).write_text(json.dumps(summary))
    return rc


if __name__ == "__main__":
    sys.exit(main())
