"""Gateway server process of the ledger's gateway workloads.

Fits the Random Forest HSC on the fixed training corpus, serves it through ``Gateway`` over
``ScoringService`` with their default configs on a free localhost port, and
prints ``LEDGER-READY <port>`` once the socket is bound.  It drains and
exits on SIGTERM or when its standard input closes, so it never outlives
the benchmark process that started it::

    python3 ledger/server.py --size full
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import threading

from common import SIZES, fit_detector, require_sources

READY = "LEDGER-READY"


async def _serve(gateway) -> None:
    await gateway.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)

    def watch_stdin() -> None:
        sys.stdin.buffer.read()
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=watch_stdin, name="stdin-watch", daemon=True).start()
    print(f"{READY} {gateway.port}", flush=True)
    await stop.wait()
    await gateway.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args()
    require_sources()
    from repro.serving import ScoringService, ServingConfig
    from repro.serving.gateway import Gateway, GatewayConfig

    detector, _ = fit_detector(SIZES[args.size])
    service = ScoringService(detector, config=ServingConfig())
    try:
        asyncio.run(_serve(Gateway(service, GatewayConfig())))
    finally:
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
