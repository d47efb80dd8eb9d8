"""``serve_socket``: the only workload through wire, frontend and client.

The server runs in its own process (:mod:`perfbench.socket_server`): a
default ``QuoteService`` over a default ``PricerRegistry`` behind
``start_frontend_thread`` on a unix socket.  This process is the load
generator: 64 sessions (each of the four versions on each of sixteen
segments of one fig4 market) over two pipelined ``AsyncQuoteClient``
connections on wire v2.  The loop is closed per session (quote, result,
feedback acknowledged, next quote), the paper's sequential protocol, so
every session must match offline ``simulate`` bit for bit.  Generator and
server are two processes, so on two cores they never share an interpreter
lock; where this process may run on two or more CPUs, the server gets one
of its own and the generator the others, so neither migrates.

The window is a whole number of *epochs*: an epoch replays every segment
once with fresh session keys, so every epoch is the same work with the same
outcomes.  Sessions live 256 rounds, so most of their feedback cuts.
``ops_per_s`` and ``latency_p50_ms`` are medians over the epochs, so a
host slowdown that covers less than half of the window does not move them.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time

import numpy as np

from perfbench import common, program

HORIZON = 256
SEGMENTS = 16
CONNECTIONS = 2
#: Rounds per session of the set-up's warm-up epoch.
WARMUP_ROUNDS = 16
#: Epochs of the window after which the server's peak RSS and resident
#: bytes are read: its service keeps every latency sample and its registry
#: every session, so memory is compared at equal work, not equal time.
FIXED_EPOCHS = 2
#: Seconds allowed for the server to stop.
SERVER_TIMEOUT = 60.0


class ServeSocket:
    name = "serve_socket"

    def __init__(self, seed: int, horizon: int = HORIZON, segments: int = SEGMENTS,
                 workdir: str = common.TMP_DIR) -> None:
        self.seed = seed
        self.horizon = horizon
        self.segments = segments
        self.workdir = workdir
        self.shape = {
            "market_rounds": segments * horizon,
            "horizon": horizon,
            "sessions": 4 * segments,
            "connections": CONNECTIONS,
            "wire": 2,
            "loop": "closed per session",
            "service": "default",
            "registry": "default",
            **common.FIG4,
        }
        self.server = None
        self.loop = None
        self.clients = []
        self.socket_path = None
        self.affinity = None

    def prepare(self, tracer) -> None:
        self.market = common.SegmentedMarket(self.seed, self.segments, self.horizon, tracer)

    def start(self, tracer) -> None:
        self.tracer = tracer
        os.makedirs(self.workdir, exist_ok=True)
        self.socket_path = os.path.join(self.workdir, "quote-%d.sock" % os.getpid())
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        command = [
            sys.executable, "-m", "perfbench.socket_server",
            "--seed", str(self.seed),
            "--rounds", str(self.segments * self.horizon),
            "--socket", self.socket_path,
        ]
        if tracer is not None:
            command += [
                "--trace",
                os.path.join(common.OUT_DIR, "%s-seed%d-server-spans.npz" % (self.name, self.seed)),
            ]
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            command += ["--cpu", str(cpus[-1])]
            self.affinity = set(cpus)
            os.sched_setaffinity(0, cpus[:-1])
        self.server = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
        )
        self._reply()  # ready
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._connect())
        self.round_trips = tracer and (
            tracer.code("client.submit_quote"), tracer.code("client.submit_feedback")
        )
        self.epoch = 0
        self.outcomes = common.Outcomes(len(self.market.plan), self.horizon)
        self.loop.run_until_complete(self._epoch(None, None, min(WARMUP_ROUNDS, self.horizon)))

    async def _connect(self) -> None:
        for _ in range(CONNECTIONS):
            self.clients.append(await program.AsyncQuoteClient.connect(
                unix_path=self.socket_path, wire=program.WIRE_V2, coalesce_writes=True
            ))

    def _command(self, command: str) -> dict:
        self.server.stdin.write(command + "\n")
        self.server.stdin.flush()
        return self._reply()

    def _reply(self) -> dict:
        line = self.server.stdout.readline()
        if not line:
            raise RuntimeError("serve_socket: the server process exited early")
        return json.loads(line)

    def stop(self) -> dict:
        """Close the clients and stop the server; returns its final report.

        Safe to call after a failed or partial start.
        """
        report = {}
        if self.loop is not None:
            self.loop.run_until_complete(self._close())
            self.loop.close()
            self.loop = None
        if self.server is not None:
            try:
                report = self._command("STOP")
                self.server.wait(SERVER_TIMEOUT)
            finally:
                if self.server.poll() is None:
                    self.server.kill()
                    self.server.wait()
                self.server.stdin.close()
                self.server.stdout.close()
                self.server = None
        if self.socket_path is not None and os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        if self.affinity is not None:
            os.sched_setaffinity(0, self.affinity)
            self.affinity = None
        return report

    async def _close(self) -> None:
        clients, self.clients = self.clients, []
        for client in clients:
            await client.close()

    async def _session(self, client, key, j, rounds, latency, quote_ids) -> None:
        rows, outcomes = self.market.rows, self.outcomes
        offset = self.market.offsets[j]
        clock = time.perf_counter
        tracer, round_trips = self.tracer, self.round_trips
        for index in range(rounds):
            row = offset + index
            started = clock()
            result = await client.submit_quote(key, rows.features[row], rows.reserves[row])
            quote_id = result["quote_id"]
            if latency is not None:
                ended = clock()
                latency.add(ended - started)
                quote_ids.add(quote_id)
                if tracer is not None:
                    # The client returns a future at once: a span is the
                    # awaited round trip, from the call to its result.
                    tracer.record(round_trips[0], started, ended, quote_id)
            sold = program.frame_sold_at(result, rows.values[row])
            outcomes.record(
                j, index, result["link_price"], result["posted_price"], sold,
                result["skipped"], result["exploratory"],
            )
            started = clock()
            await client.submit_feedback(key, quote_id, sold)
            if tracer is not None and latency is not None:
                tracer.record(round_trips[1], started, clock(), quote_id)

    async def _epoch(self, latency, quote_ids, rounds=None) -> None:
        self.outcomes.reset()
        keys = self.market.keys(self.epoch)
        self.epoch += 1
        rounds = self.horizon if rounds is None else rounds
        await asyncio.gather(*(
            self._session(self.clients[j % CONNECTIONS], key, j, rounds, latency, quote_ids)
            for j, key in enumerate(keys)
        ))

    def measure(self, seconds: float) -> dict:
        latency = common.Samples()
        quote_ids = common.Samples()
        epochs = common.Epochs(self.outcomes)
        fixed = None
        if self.tracer is not None:
            self.tracer.mark()
        window = self._command("MARK")
        cpu = time.process_time()
        deadline = common.Deadline(seconds)
        while not epochs or not deadline.passed():
            started = time.perf_counter()
            self.loop.run_until_complete(self._epoch(latency, quote_ids))
            epochs.add(time.perf_counter() - started, latency.count)
            if len(epochs) == FIXED_EPOCHS:
                fixed = self._command("READ")
        wall = time.perf_counter() - deadline.start
        client_cpu = time.process_time() - cpu
        end = self._command("READ")
        fixed = fixed or end
        stats = self.loop.run_until_complete(self.clients[0].stats())
        return {
            "wall_s": wall,
            "attempted": len(epochs) * self.market.quotes_per_epoch,
            "unit_seconds": epochs.seconds,
            "ops_per_s": epochs.rate(self.market.quotes_per_epoch),
            "latency": latency,
            "quote_ids": quote_ids,
            "epochs": epochs,
            "regret_ratio": self.market.regret_ratio(epochs.first),
            "rss_peak_mb": fixed["rss_peak_mb"],
            "resident_bytes": fixed["registry"]["resident_bytes"],
            "server_cpu_s": end["cpu_s"] - window["cpu_s"],
            "client_cpu_s": client_cpu,
            "stats_frame": stats,
            "service_delta": {
                key: end["service"][key] - window["service"][key] for key in end["service"]
            },
            "store_before": window["registry"],
            "store_after": end["registry"],
        }

    def check(self, result: dict) -> int:
        common.check_epochs(self.name, self.market, result["epochs"])
        ids = result["quote_ids"].view()
        distinct = np.unique(ids).size
        if ids.size != result["attempted"] or distinct != ids.size:
            raise common.CheckFailed(
                "serve_socket: %d quotes sent, %d results, %d distinct quote ids"
                % (result["attempted"], ids.size, distinct)
            )
        rejected = result["stats_frame"].get("frontend", {}).get("rejected", 0)
        if rejected:
            raise common.CheckFailed("serve_socket: the frontend rejected %d quotes" % rejected)
        return 0

    def end_to_end(self, result: dict) -> dict:
        return {
            "ops_per_s": result["ops_per_s"],
            "latency_p50_ms": result["epochs"].median_p50_ms(result["latency"]),
            "rss_peak_mb": result["rss_peak_mb"],
            "regret_ratio": result["regret_ratio"],
        }
