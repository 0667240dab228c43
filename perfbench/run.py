"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {paper,audit,serve} --seed N \\
        --seconds S --trace {0,1} [--size {full,tiny}]
    python3 perfbench/run.py --all [--seed N] [--trace 1]

Run it from the repository root.  With ``--trace 0`` it prints every
end-to-end metric; with ``--trace 1`` it makes one untimed traced run and
prints every per-layer metric.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is 0 only when every correctness gate passed.  The workloads and the
metric names and units are read from ``BENCHMARK.json``.  Scratch files go to
``.perfbench/`` under the repository root.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")

#: set-ups timed per run, on top of the one each measured unit pays
SETUP_SAMPLES = 5

#: the workloads and metrics, as BENCHMARK.json defines them
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _f:
    MANIFEST = json.load(_f)
WORKLOADS = tuple(w["name"] for w in MANIFEST["workloads"])
#: name -> unit: what a user of the system sees
END_TO_END = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
#: name -> unit: numbers of single layers, from the traced run
PER_LAYER = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}


# --------------------------------------------------------------------- #
# Plumbing


def program_env() -> dict:
    """Child processes import the program from this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def require_checkout() -> None:
    """Refuse to run anywhere but the root of a full checkout."""
    for rel in ("src/repro/__init__.py", "paper_artifacts/fig6.txt"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise SystemExit(f"perfbench: {rel} not found; run from the "
                             f"root of a repository checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__},"
                         f" not from {src}")


def warm_bytecode() -> None:
    """Import everything once, untimed, so no timed set-up compiles."""
    subprocess.run([sys.executable, "-c",
                    "import repro.cli, repro.experiments.__main__, "
                    "repro.analysis.fuzz, repro.service.daemon"],
                   env=program_env(), check=True, timeout=120)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def worker(workload, seed, out_dir, size, trace=False, setup_only=False):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload,
         str(seed), out_dir, size, "1" if trace else "0",
         "1" if setup_only else "0"],
        env=program_env(), capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# Workloads.  Each returns the units it measured plus the set-up samples;
# a unit is {"wall_s", "cpu_s", "peak_rss_mb", "latencies_s",
# "attempted", "failed", "detail"}.


def measure_units(run_unit, seconds):
    """Whole units, ``run_unit(0)``, ``run_unit(1)``, ...: as many as end
    nearest to ``seconds`` of measurement, and at least one."""
    units = []
    t0 = time.perf_counter()
    while True:
        units.append(run_unit(len(units)))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(units) / 2 >= seconds:
            return units


def measure_batch(workload, seed, seconds, size, tmp):
    """paper/audit: fresh worker processes, one per unit."""
    setups = [worker(workload, seed, tmp, size, setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    units = measure_units(
        lambda i: worker(workload, seed, os.path.join(tmp, f"u{i}"), size),
        seconds)
    setups += [unit.pop("setup_s") for unit in units]
    return units, setups


def serve_unit(streams, tmp, tag, trace_out=None):
    """One fresh daemon + store serving the whole stream."""
    import serve
    store = os.path.join(tmp, f"store-{tag}")
    daemon = serve.Daemon(store, program_env(),
                          os.path.join(tmp, "daemon.log"), trace_out)
    try:
        cpu0 = daemon.cpu_s()
        results, wall = serve.drive(daemon, streams)
        cpu = daemon.cpu_s() - cpu0
        rss = daemon.peak_rss_mb()
        stats = daemon.request({"verb": "stats"})["result"]
    finally:
        daemon.stop()
    flat = [(r["cls"], got) for reqs, res in zip(streams, results)
            for r, got in zip(reqs, res)]
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
            "setup_s": daemon.setup_s, "results": results,
            "latencies_s": [got[0] for _, got in flat if got is not None],
            "classes": [(cls, got[0]) for cls, got in flat
                        if got is not None],
            "attempted": len(flat), "stats": stats,
            "store_bytes": serve.store_bytes(store)}


def measure_serve(seed, seconds, size, tmp):
    import serve
    streams = serve.make_stream(seed, size)
    setups = []
    for i in range(SETUP_SAMPLES):
        d = serve.Daemon(os.path.join(tmp, f"setup-store-{i}"),
                         program_env(), os.path.join(tmp, "daemon.log"))
        d.stop()
        setups.append(d.setup_s)
    units = measure_units(lambda i: serve_unit(streams, tmp, i), seconds)
    setups += [unit.pop("setup_s") for unit in units]
    ref = serve.reference_costs(streams)
    for unit in units:
        unit["failed"] = serve.check(streams, unit.pop("results"), ref)
    return units, setups


def describe_percentiles(units) -> str:
    """The request class that makes up most of the 2% of requests around
    each reported percentile, with its share."""
    pairs = sorted((lat, cls) for u in units for cls, lat in u["classes"])
    parts = []
    for q in (50, 99):
        i = max(0, math.ceil(q / 100 * len(pairs)) - 1)
        lo, hi = max(0, i - len(pairs) // 100), i + len(pairs) // 100 + 1
        near = [cls for _, cls in pairs[lo:hi]]
        cls = max(set(near), key=near.count)
        parts.append(f"p{q} among {cls} ({near.count(cls) / len(near):.0%} "
                     f"of the requests around it)")
    return "; ".join(parts)


def summarize(units, setups) -> dict:
    """End-to-end metrics from the measured units: medians over units,
    percentiles over every request of the run."""
    lat = [x for u in units for x in u["latencies_s"]]
    attempted = sum(u["attempted"] for u in units)
    failed = sum(len(u["failed"]) for u in units)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "cpu_s": statistics.median(u["cpu_s"] for u in units),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
        "ok_frac": 1.0 - failed / attempted,
        "p50_ms": 1e3 * percentile(lat, 50),
        "p99_ms": 1e3 * percentile(lat, 99),
        "req_s": len(lat) / sum(u["wall_s"] for u in units),
    }
    return values


# --------------------------------------------------------------------- #
# Traced run


def code_digest() -> str:
    """Digest of the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src", "repro"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(n for n in filenames if n.endswith(".py")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def check_counts_repeat(workload, seed, size, layers) -> list:
    """Compare the exact counts with the previous traced run of the same
    (workload, seed, size) on the same code in this checkout, then record
    them.  Runs of other code, earlier or later, are not compared."""
    import tracer
    counts = {k: layers[k] for k in tracer.EXACT_COUNTS}
    path = os.path.join(WORK, "counts", code_digest(),
                        f"{workload}-{size}-seed{seed}.json")
    failed = []
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        failed = [f"{k}: {before[k]} in an earlier run, {counts[k]} now"
                  for k in counts if before.get(k) != counts[k]]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(counts, f, indent=1, sort_keys=True)
    return failed


def traced(workload, seed, size, tmp):
    """One untraced unit, then one traced unit; per-layer numbers come from
    the traced one, the overhead from the difference in wall time."""
    trace_dir = os.path.join(WORK, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    spans_path = os.path.join(trace_dir, f"{workload}-{size}-seed{seed}.json")
    if workload == "serve":
        import serve
        streams = serve.make_stream(seed, size)
        plain = serve_unit(streams, tmp, "plain")
        unit = serve_unit(streams, tmp, "traced", trace_out=spans_path)
        with open(spans_path) as f:
            layers = json.load(f)["layers"]
        ref = serve.reference_costs(streams)
        failed = (serve.check(streams, plain.pop("results"), ref)
                  + serve.check(streams, unit.pop("results"), ref))
        stats = unit["stats"]
        layers["store.bytes"] = unit["store_bytes"]
        layers["daemon.wait_s"] = (sum(unit["latencies_s"])
                                   - layers["traced_self_s"])
        layers["daemon.coalesced"] = stats["coalesce"]["hits"]
        layers["daemon.rejected"] = sum(stats["rejections"].values())
        attempted = plain["attempted"] + unit["attempted"]
    else:
        plain = worker(workload, seed, os.path.join(tmp, "plain"), size)
        unit = worker(workload, seed, os.path.join(tmp, "traced"), size,
                      trace=True)
        layers = unit.pop("layers")
        with open(spans_path, "w") as f:
            json.dump(unit.pop("spans"), f)
        failed = plain["failed"] + unit["failed"]
        attempted = plain["attempted"] + unit["attempted"]
        layers.update({"store.bytes": 0, "daemon.wait_s": 0.0,
                       "daemon.coalesced": 0, "daemon.rejected": 0})
    layers["trace.wall_s"] = unit["wall_s"]
    layers["trace.overhead_s"] = unit["wall_s"] - plain["wall_s"]
    layers["trace.coverage"] = layers.pop("traced_self_s") / unit["wall_s"]
    failed += check_counts_repeat(workload, seed, size, layers)
    return layers, attempted, failed


# --------------------------------------------------------------------- #
# Entry point


def run_one(workload, seed, seconds, size, trace):
    """Returns ``(metrics, attempted, failed, info)``."""
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        if trace:
            layers, attempted, failed = traced(workload, seed, size, tmp)
            metrics = {n: {"value": layers[n], "unit": u}
                       for n, u in PER_LAYER.items()}
            return metrics, attempted, failed, ""
        if workload == "serve":
            units, setups = measure_serve(seed, seconds, size, tmp)
            info = describe_percentiles(units)
        else:
            units, setups = measure_batch(workload, seed, seconds, size, tmp)
            info = json.dumps(units[0]["detail"])
        values = summarize(units, setups)
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u in END_TO_END.items()}
        failed = [f for u in units for f in u["failed"]]
        return metrics, sum(u["attempted"] for u in units), failed, info
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print a table")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("pass --workload NAME or --all")
    require_checkout()
    warm_bytecode()
    workloads = WORKLOADS if args.all else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        metrics, attempted, failed, info = run_one(
            w, args.seed, args.seconds, args.size, args.trace)
        for line in failed[:20]:
            print(f"FAIL {w}: {line}", file=sys.stderr)
        if info:
            print(f"{w}: {info}")
        for name, m in metrics.items():
            print(f"{w:6s} {name:26s} {m['value']:>14.6g} {m['unit']}")
        summary["correct"] &= not failed
        summary["attempted"] += attempted
        summary["failed"] += len(failed)
        if args.all:
            summary["metrics"].update(
                {f"{w}/{n}": m for n, m in metrics.items()})
        else:
            summary["metrics"] = metrics
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
