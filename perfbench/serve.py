"""The ``serve`` workload: a seeded, closed-loop stream of ``probe``
requests from one client process over two connections to a real
``python -m repro.cli serve --store DIR`` daemon.

Every request belongs to one of three classes:

* ``new-graph``  — the first request for a graph spec: the daemon builds
  the graph on its loop thread, fingerprints it, solves and commits;
* ``new-budget`` — a known graph at an unseen budget: solve and commit;
* ``repeat``     — an answered (graph, budget): served from the memo.

Each connection owns its own graphs, so no two in-flight requests ever
share a key: which requests are fresh, and so every count the traced run
records, is fixed by the seed.  Heavy graphs (large DWTs, a few hundred
ms to build and solve) are only ever met as ``new-graph`` requests; they
are 3% of the stream and slower than anything else in it, so the slowest
2% of requests, around p99, are all of that class.  ``new-budget``
requests are two thirds of the stream, so p50 falls inside that class.

The stream runs in rounds of two phases, a heavy phase (both connections
send heavy requests, one pair of near-equal graphs at a time) and a
light phase (both send warm new-graph, new-budget and repeat requests);
a phase opens when the last request of the one before it is answered.
So every request shares the daemon with a request of its own kind.  With
heavy and light requests in flight together, light requests either wait
behind the heavy solve at every hand-off of the interpreter lock (8-10
ms) or starve it (~2 ms), and the daemon flips between the two for
seconds at a time, so p50 of such a mix jumps between the two modes.
"""

from __future__ import annotations

import functools
import json
import os
import random
import selectors
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: requests per connection and rounds (a heavy and a light phase each)
#: per pass, by stream size; "full" uses both graph pools whole, so the
#: seed changes order, budgets and the split between the connections but
#: not which graphs are served
SIZES = {
    "full": {"warm": 38, "heavy": 12, "budget": 260, "repeat": 90,
             "rounds": 4},
    "tiny": {"warm": 3, "heavy": 2, "budget": 12, "repeat": 6,
             "rounds": 2},
}


def _warm_pool():
    """Small and medium graphs: cheap to build, 0.3-10 ms to solve.  The
    pool is a list of pairs that differ only in weights (or, for k-ary
    DWTs, in strategy), so the two of a pair cost about the same."""
    pool = []
    for n, d in ((32, 2), (32, 3), (48, 2), (48, 3), (64, 2), (64, 3),
                 (64, 4), (96, 3), (96, 4), (128, 3), (128, 4)):
        for s in ("dwt-optimal", "layer-by-layer"):
            for w in ("equal", "da"):
                pool.append(({"family": "dwt", "n": n, "d": d,
                              "weights": w}, s))
    for m, n in ((6, 8), (8, 8), (8, 10), (10, 10), (10, 12), (12, 12)):
        for s in ("tiling", "layer-by-layer"):
            for w in ("equal", "da"):
                pool.append(({"family": "mvm", "m": m, "n": n,
                              "weights": w}, s))
    for n, d, k in ((27, 2, 3), (27, 3, 3), (32, 2, 4), (64, 2, 4)):
        for s in ("layer-by-layer", "greedy"):
            pool.append(({"family": "kdwt", "n": n, "d": d, "k": k,
                          "weights": "equal"}, s))
    return pool


def _heavy_pool():
    """Large DWTs, 2048-3840 inputs, solved by ``dwt-optimal``: 20-80 ms
    to build, 100-300 ms to solve.  Their sizes are evenly spaced, so
    their latencies spread evenly rather than in clusters with gaps for
    p99 to fall into; pairs differ only in weights, as in the warm
    pool."""
    pool = []
    for n in range(2048, 3841, 256):
        for d in (8, 9):
            if n % 2 ** d == 0:
                for w in ("equal", "da"):
                    pool.append(({"family": "dwt", "n": n, "d": d,
                                  "weights": w}, "dwt-optimal"))
    return pool


@functools.lru_cache(maxsize=None)
def _graph(key: str):
    """The graph of a spec (``json.dumps(spec, sort_keys=True)``), built
    once per process: the stream and the reference both need it."""
    from repro.service.protocol import resolve_graph
    return resolve_graph(json.loads(key))


def _spec_key(spec) -> str:
    return json.dumps(spec, sort_keys=True)


def _budget_grid(spec):
    """All feasible budgets of a graph, in weight-gcd steps."""
    import math

    from repro.core.bounds import min_feasible_budget
    g = _graph(_spec_key(spec))
    step = math.gcd(*g.weights.values())
    need = min_feasible_budget(g)
    return list(range(need, g.total_weight() + 1, step))


def _split(pool, k: int, rng):
    """``k`` graphs per connection: ``k`` of the pool's pairs, in seeded
    order, one of each pair to each connection, so that the two
    connections ask for about the same work."""
    mine = ([], [])
    for p in rng.sample(range(len(pool) // 2), k):
        pair = [pool[2 * p], pool[2 * p + 1]]
        rng.shuffle(pair)
        mine[0].append(pair[0])
        mine[1].append(pair[1])
    return mine


def make_stream(seed: int, size: str):
    """Two per-connection request lists, fixed by ``seed``.  Each request
    is ``{"cls", "graph", "strategy", "budget", "phase"}``; see the module
    doc for the phases.

    The seed picks which graph of each pool pair goes to which
    connection, the order of the pairs and of the light requests, and
    every budget except the heavy graphs', which are always the middle of
    their grid: a heavy solve's time depends on its budget by up to 3x,
    and the heavy requests hold p99, so a seeded draw of their budgets
    would move p99 from seed to seed."""
    rng = random.Random(seed)
    counts = SIZES[size]
    warm = _split(_warm_pool(), counts["warm"], rng)
    heavy = _split(_heavy_pool(), counts["heavy"], rng)
    if size == "full" and (2 * counts["warm"], 2 * counts["heavy"]) != (
            len(_warm_pool()), len(_heavy_pool())):
        raise AssertionError("the full stream must use both pools whole")
    rounds = counts["rounds"]
    streams = []
    for c in range(2):
        mine = warm[c]
        unused = []  # per warm graph: its budgets not yet asked, shuffled
        light = []

        def add(reqs, cls, graph, strategy, budget):
            reqs.append({"cls": cls, "graph": graph, "strategy": strategy,
                         "budget": budget})

        for g, s in mine:
            grid = _budget_grid(g)
            rng.shuffle(grid)
            unused.append(grid)
            add(light, "new-graph", g, s, grid.pop())
        rest = ["budget"] * counts["budget"] + ["repeat"] * counts["repeat"]
        rng.shuffle(rest)
        for cls in rest:
            if cls == "budget":
                i = rng.choice([j for j, grid in enumerate(unused) if grid])
                add(light, "new-budget", mine[i][0], mine[i][1],
                    unused[i].pop())
            else:
                old = rng.choice([r for r in light if r["cls"] != "repeat"])
                add(light, "repeat", old["graph"], old["strategy"],
                    old["budget"])
        batch = []
        for g, s in heavy[c]:
            grid = _budget_grid(g)
            add(batch, "new-graph", g, s, grid[len(grid) // 2])
        reqs = []
        for k in range(rounds):
            for phase, part in ((2 * k, batch), (2 * k + 1, light)):
                lo, hi = (k * len(part) // rounds,
                          (k + 1) * len(part) // rounds)
                reqs += [dict(r, phase=phase) for r in part[lo:hi]]
        streams.append(reqs)
    return streams


# --------------------------------------------------------------------- #
# Daemon process


class Daemon:
    """One daemon subprocess, spawned and timed until it answers
    ``health``."""

    def __init__(self, store_dir: str, env: dict, log_path: str,
                 trace_out=None):
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.cli"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                   trace_out]
        cmd += ["serve", "--store", store_dir]
        with open(log_path, "ab") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                         stderr=log, env=env)
        try:
            line = self.proc.stdout.readline().decode()
            if not line.startswith("repro-serve listening on "):
                with open(log_path, errors="replace") as log:
                    raise RuntimeError(f"daemon did not start ({line!r}):\n"
                                       f"{log.read()[-2000:]}")
            addr = line.split()[3]
            self.host, port = addr.rsplit(":", 1)
            self.port = int(port)
            with socket.create_connection((self.host, self.port),
                                          timeout=30) as s:
                s.sendall(b'{"verb": "health"}\n')
                frame = json.loads(_readline(s))
            if not frame.get("ok"):
                raise RuntimeError(f"health failed: {frame}")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def request(self, obj: dict) -> dict:
        with socket.create_connection((self.host, self.port),
                                      timeout=30) as s:
            s.sendall(json.dumps(obj).encode() + b"\n")
            return json.loads(_readline(s))

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self) -> None:
        """SIGTERM, then wait for the drain; a hung daemon is killed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("daemon did not drain within 30 s")
        finally:
            self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"daemon exited with code {code}")


def _readline(sock) -> bytes:
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        buf += chunk
    return buf


# --------------------------------------------------------------------- #
# Client


def drive(daemon: Daemon, streams, timeout_s: float = 90.0):
    """Closed loop in phases: each connection sends its next request of
    the current phase when the last one is answered, and the next phase
    opens when no request of this one is left in flight.  Returns
    ``(results, wall_s)``; each result is ``(latency_s, frame or None)``
    in stream order per connection."""
    sel = selectors.DefaultSelector()
    results = [[None] * len(reqs) for reqs in streams]
    last_phase = max(r["phase"] for reqs in streams for r in reqs)
    phase = 0
    conns = []

    def send(conn):
        i = conn["i"]
        r = streams[conn["c"]][i]
        line = json.dumps({"verb": "probe", "id": i, "graph": r["graph"],
                           "strategy": r["strategy"],
                           "budget": r["budget"]}).encode() + b"\n"
        conn["busy"] = True
        conn["t"] = time.perf_counter()
        conn["sock"].sendall(line)

    def pump():
        nonlocal phase
        while True:
            for conn in conns:
                reqs = streams[conn["c"]]
                if (not conn["busy"] and conn["i"] < len(reqs)
                        and reqs[conn["i"]]["phase"] == phase):
                    send(conn)
            if any(conn["busy"] for conn in conns) or phase >= last_phase:
                return
            phase += 1

    t0 = time.perf_counter()
    for c in range(len(streams)):
        s = socket.create_connection((daemon.host, daemon.port), timeout=30)
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = {"c": c, "sock": s, "i": 0, "buf": b"", "t": 0.0,
                "busy": False}
        conns.append(conn)
        sel.register(s, selectors.EVENT_READ, conn)
    deadline = t0 + timeout_s
    try:
        pump()
        while (any(conn["busy"] for conn in conns)
               and time.perf_counter() < deadline):
            for key, _ in sel.select(timeout=1.0):
                conn = key.data
                chunk = conn["sock"].recv(1 << 20)
                if not chunk:  # the rest of this connection goes unanswered
                    sel.unregister(conn["sock"])
                    conn["busy"] = False
                    conn["i"] = len(streams[conn["c"]])
                    continue
                conn["buf"] += chunk
                while b"\n" in conn["buf"]:
                    line, conn["buf"] = conn["buf"].split(b"\n", 1)
                    now = time.perf_counter()
                    results[conn["c"]][conn["i"]] = (now - conn["t"],
                                                     json.loads(line))
                    conn["i"] += 1
                    conn["busy"] = False
            pump()
        wall = time.perf_counter() - t0
    finally:
        for conn in conns:
            conn["sock"].close()
        sel.close()
    return results, wall


# --------------------------------------------------------------------- #
# Correctness


def reference_costs(streams):
    """Costs from a store-less in-process engine, one sweep per (strategy,
    graph), in the daemon's wire form."""
    from repro.analysis.engine import SweepEngine
    from repro.service.protocol import resolve_scheduler, resolve_tiling

    wanted = {}
    for reqs in streams:
        for r in reqs:
            key = (_spec_key(r["graph"]), r["strategy"])
            wanted.setdefault(key, set()).add(r["budget"])
    ref = {}
    with SweepEngine() as engine:
        for (gkey, strategy), budgets in wanted.items():
            graph = _graph(gkey)
            sched = (resolve_tiling({"name": strategy}, graph)
                     if strategy == "tiling"
                     else resolve_scheduler({"name": strategy}))
            budgets = sorted(budgets)
            series = engine.sweep(sched, graph, budgets, label="reference")
            for b, cost in zip(budgets, series.costs):
                ref[(gkey, strategy, b)] = (
                    repr(cost) if cost != cost or cost in (
                        float("inf"), float("-inf")) else cost)
    return ref


def check(streams, results, ref):
    """Every request answered by an ok frame whose cost matches the
    reference.  Returns the list of failures."""
    failed = []
    for c, reqs in enumerate(streams):
        for i, r in enumerate(reqs):
            got = results[c][i]
            if got is None:
                failed.append(f"conn {c} request {i}: no answer")
                continue
            frame = got[1]
            if not frame.get("ok"):
                failed.append(f"conn {c} request {i}: {frame.get('error')}")
                continue
            key = (_spec_key(r["graph"]), r["strategy"], r["budget"])
            cost = frame["result"]["cost"]
            if cost != ref[key]:
                failed.append(f"conn {c} request {i}: cost {cost} != "
                              f"reference {ref[key]}")
    return failed


def store_bytes(store_dir: str) -> int:
    seg = os.path.join(store_dir, "segments")
    return sum(os.path.getsize(os.path.join(seg, n))
               for n in os.listdir(seg))
