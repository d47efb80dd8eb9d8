"""The ``serve_socket`` server process.

Builds the same fig4 market as the generator from the same seed, then runs
``start_frontend_thread`` over a default ``QuoteService`` and a default
``PricerRegistry`` on a unix socket.  It is driven over its standard input,
one command per line, and answers each with one JSON line:

* ``MARK`` — starts the timed window (of the tracer too, when traced) and
  answers like ``READ``;
* ``READ`` — peak RSS, process CPU time and the service and registry
  counters so far;
* ``STOP`` — stops the frontend and reports the same figures plus, when
  traced, the per-boundary span summary; the spans themselves go to a file.

Usage (from the repository root)::

    python3 -m perfbench.socket_server --seed 1 --rounds 4000 --socket .perfbench_tmp/s.sock

``--cpu N`` pins the process to CPU ``N`` before any thread starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from perfbench import common, program, tracer as tracing


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True, help="market rounds")
    parser.add_argument("--socket", required=True, help="unix socket path to bind")
    parser.add_argument("--trace", default="", help="write spans here and report them")
    parser.add_argument("--cpu", type=int, default=None, help="run on this CPU only")
    return parser.parse_args(argv)


def version_of(key) -> str:
    """The algorithm version a generator key names (its last path part)."""
    short = key.segment.rsplit("/", 1)[-1]
    for version, name in common.VERSION_SHORT.items():
        if name == short:
            return version
    raise ValueError("session key %s names no algorithm version" % (key,))


def figures(service) -> dict:
    return {
        "rss_peak_mb": common.rss_peak_mb(),
        "cpu_s": time.process_time(),
        "service": common.service_counters(service),
        "registry": common.store_counters(service.registry),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.cpu is not None:
        # Before any thread starts, so the frontend and executor threads inherit it.
        os.sched_setaffinity(0, {args.cpu})
    tracer = tracing.Tracer() if args.trace else None
    tally = tracing.CoreTally()
    environment = common.build_environment(args.seed, args.rounds)

    def factory(key):
        pricer = program.build_pricer_for_version(environment, version_of(key))
        tracing.install_pricer(tracer, pricer, tally)
        return environment.model, pricer

    service = program.QuoteService(program.PricerRegistry(factory))
    waits = tracing.install_service(tracer, service)
    handle = program.start_frontend_thread(service, unix_path=args.socket)
    try:
        print(json.dumps({"ready": True}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "MARK" and tracer is not None:
                tracer.mark()
                waits.mark()
                tally.mark()
            if command in ("MARK", "READ"):
                print(json.dumps(figures(service)), flush=True)
            elif command == "STOP":
                break
    finally:
        handle.stop()
    report = figures(service)
    if tracer is not None:
        os.makedirs(os.path.dirname(args.trace) or ".", exist_ok=True)
        tracer.save(args.trace)
        report["spans"] = tracer.summary()
        report["root_cover_s"] = tracer.root_cover_s()
        report["errors"] = tracer.errors
        report["dropped"] = tracer.dropped
        report["queue_wait_p50_ms"] = waits.p50_ms()
        report["core"] = tally.metrics()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
