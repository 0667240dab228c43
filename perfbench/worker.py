"""One measured unit of the ``paper`` or ``audit`` workload, in a fresh
interpreter, so every unit pays the same imports and starts with cold
program caches.

    python3 perfbench/worker.py WORKLOAD SEED OUT_DIR SIZE TRACE SETUP_ONLY

The last line of standard output is a JSON object with the unit's set-up
time, wall time, CPU time, peak RSS, latency samples, correctness
verdict and, when ``TRACE`` is 1, the per-layer numbers.  Set-up is timed
from the first line of this file to "program imported and engine (or
auditor) ready"; the benchmark's own imports come after that window.
"""

import sys
import time

T_START = time.perf_counter()


def setup(workload: str):
    """Import the program and build the object the workload drives
    (returns the experiments driver module for ``paper``)."""
    if workload == "paper":
        from repro.analysis.engine import SweepEngine
        from repro.experiments import __main__ as experiments
        SweepEngine(jobs=1).close()
        return experiments
    from repro.analysis.audit import Auditor
    from repro.analysis.fuzz import fuzz  # noqa: F401
    Auditor(level="differential")
    return None


def completion_clock(owner, names, stamps):
    """Record a timestamp whenever one of ``owner``'s functions (a module
    or a class) returns: the moments the workload's answers are ready."""
    for name in names:
        fn = getattr(owner, name)

        def timed(*args, _fn=fn, **kwargs):
            out = _fn(*args, **kwargs)
            stamps.append(time.perf_counter())
            return out
        setattr(owner, name, timed)


def run_paper(experiments, out_dir: str, size: str, stamps):
    import contextlib
    import os
    import pathlib

    names = ["table1", "fig5", "fig6", "fig7", "fig8"]
    completion_clock(experiments, [f"render_{n}" for n in names], stamps)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        if size == "full":
            experiments.main(out_dir=out_dir)
        else:  # smoke size: the fast artifacts, through the same drivers
            names = ["table1", "fig7", "fig8"]
            out = pathlib.Path(out_dir)
            out.mkdir(exist_ok=True)
            for n in names:
                text = getattr(experiments, f"render_{n}")(
                    getattr(experiments, f"run_{n}")())
                (out / f"{n}.txt").write_text(text + "\n")
    return names


def check_paper(out_dir: str, names):
    """Byte-compare each written artifact with the committed one."""
    import os
    failed = []
    for n in names:
        with open(os.path.join(out_dir, f"{n}.txt"), "rb") as f:
            got = f.read()
        with open(os.path.join("paper_artifacts", f"{n}.txt"), "rb") as f:
            want = f.read()
        if got != want:
            failed.append(f"{n}.txt differs from paper_artifacts/{n}.txt")
    return len(names), failed


#: (cases, probes, skipped) of the differential audit, per seed, as
#: measured when the benchmark was defined.  Seeds not listed are checked
#: against an independent enumeration of the corpus instead.
AUDIT_COUNTS = {
    0: (20, 537, 3),
    7: (20, 543, 3),
    101: (20, 542, 3),
    102: (20, 542, 3),
    103: (20, 537, 3),
    104: (20, 542, 3),
    105: (20, 537, 3),
    106: (20, 532, 3),
    107: (20, 542, 3),
    108: (20, 532, 3),
    109: (20, 537, 3),
    110: (20, 547, 3),
}


def run_audit(seed: int, size: str, stamps):
    import importlib
    fuzz = importlib.import_module("repro.analysis.fuzz")
    # fuzz() calls budgets_for as it starts each case, so a case's verdict
    # is in when the next case starts, and the last one's when it returns.
    completion_clock(fuzz, ["budgets_for"], stamps)
    # Smoke size leaves the oracle's own probes out of the corpus.
    exclude = () if size == "full" else ("exhaustive",)
    report = fuzz.fuzz(seeds=(seed,), exclude=exclude)
    stamps.append(time.perf_counter())
    del stamps[0]
    return fuzz, report


def check_audit(fuzz, report, seed: int, size: str):
    from repro.schedulers.registry import schedulers_for
    failed = [f.describe() for f in report.failures]
    if report.inconclusive or report.cancelled:
        failed.append(f"{report.inconclusive} inconclusive and "
                      f"{report.cancelled} cancelled probe(s)")
    exclude = () if size == "full" else ("exhaustive",)
    cases = fuzz.corpus(seed)
    expected = sum(len(schedulers_for(g, exclude=exclude))
                   * len(fuzz.budgets_for(g))
                   for _, g in cases)
    got = (report.cases, report.probes + report.skipped + report.cancelled)
    if got != (len(cases), expected):
        failed.append(f"counts {got} != enumerated ({len(cases)}, "
                      f"{expected})")
    pinned = AUDIT_COUNTS.get(seed) if size == "full" else None
    seen = (report.cases, report.probes, report.skipped)
    if pinned is not None and seen != pinned:
        failed.append(f"(cases, probes, skipped) {seen} != pinned {pinned}")
    return report.probes + report.skipped, failed, {
        "cases": report.cases, "probes": report.probes,
        "skipped": report.skipped}


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    workload, seed, out_dir, size, trace, setup_only = argv
    seed, trace, setup_only = int(seed), trace == "1", setup_only == "1"
    experiments = setup(workload)
    setup_s = time.perf_counter() - T_START
    import json
    result = {"setup_s": setup_s}
    if setup_only:
        print(json.dumps(result))
        return 0
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    stamps = []
    c0, t0 = time.process_time(), time.perf_counter()
    if workload == "paper":
        names = run_paper(experiments, out_dir, size, stamps)
    else:
        fuzz, report = run_audit(seed, size, stamps)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    # Every artifact (paper) or case verdict (audit) is asked for at t0, so
    # its latency is the time until it is ready, and the percentiles read
    # most of the run.  (The answers' own durations would put p50 on a
    # second or two of cheap answers: a snapshot of the host's speed.)
    latencies = [s - t0 for s in stamps]
    if tracer is not None:  # before the checks, which call traced code
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = tracer.spans()
    if workload == "paper":
        attempted, failed = check_paper(out_dir, names)
        detail = {"artifacts": names}
    else:
        attempted, failed, detail = check_audit(fuzz, report, seed, size)
        if not report.failures and len(latencies) != report.cases:
            raise RuntimeError(f"timed {len(latencies)} case verdicts but "
                               f"fuzz() audited {report.cases} cases: the "
                               f"verdict clock no longer matches the program")
    result.update(
        wall_s=wall, cpu_s=cpu, peak_rss_mb=peak_rss_mb(),
        latencies_s=latencies,
        attempted=attempted, failed=failed, detail=detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
