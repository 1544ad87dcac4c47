"""Start ``repro serve`` with spans recorded around the calls each
``POST /evaluate`` makes inside the worker.

    python3 perfbench/launch_server.py SPANS_FILE serve --workers 1 ...

The wrappers are installed before the supervisor forks, so the worker
inherits them. When the worker finishes draining (after SIGTERM) it writes
its span summary to SPANS_FILE as JSON.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import spans  # noqa: E402


def main(argv) -> int:
    spans_path, serve_argv = argv[0], argv[1:]
    common.import_program()
    from repro import cli
    from repro.service import server, supervisor

    tracer = spans.Tracer()
    tracer.install(spans.LAYERS)
    tracer.patch_route(server.ROUTES["POST"], "/evaluate", "service.handle")
    run_worker = supervisor.run_worker

    def traced_worker(*args, **kwargs):
        try:
            return run_worker(*args, **kwargs)
        finally:
            spans.dump(tracer.summary(), spans_path)

    supervisor.run_worker = traced_worker
    return cli.main(serve_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
