"""Serving front end launcher for the E26 ``serving`` workload.

    python3 e26bench/server_main.py CONFIG_JSON [TRACE_DIR]

Reads a deployment mapping (the schema of ``repro.serving.config.load_config``)
from CONFIG_JSON, starts the HTTP server, prints ``PORT <n>`` once it
accepts connections, and serves until its standard input is closed.  It
then stops the server and closes the session.  With TRACE_DIR, spans
around every layer's public functions are recorded in this process and
written to TRACE_DIR at exit.
"""

import asyncio
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from e26bench import common, trace

    trace_dir = Path(argv[2]) if len(argv) > 2 else None
    if trace_dir is not None:
        trace.install(trace_dir, label="server")

    from repro.serving.config import load_config
    from repro.serving.server import ServingServer

    with open(argv[1]) as handle:
        config = load_config(json.load(handle))

    async def serve() -> None:
        server = ServingServer(config)
        try:
            port = await server.start()
            print(f"PORT {port}", flush=True)
            await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
        finally:
            await server.stop()
            server.session.close()

    try:
        asyncio.run(serve())
    finally:
        if trace_dir is not None:
            trace.flush()
        common.stop_resource_tracker()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
