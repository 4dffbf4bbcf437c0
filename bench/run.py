"""bihomcheck benchmark: time to verdict for `bihom` command lines.

Usage, from the root of a checkout:

    python3 bench/run.py --workload axioms-fp --seed 1 --seconds 56 --trace 0

Each workload is a closed loop with one client.  A request is one `bihom`
command line, run in this process through `bihomcheck.cli.main(argv)` with
its output captured and checked against a known answer (see workloads.py).
The loop repeats one round of requests; it starts a round only if, judging
by the previous round, it will end within `--seconds`, and it always runs at
least one.

With `--trace 0` the run reports the end-to-end metrics.  With `--trace 1` it
runs one round of the workload and its untimed requests, each request three
times in a row: with every layer wrapped (spans.py), plain, and wrapped
again.  It reports the per-layer split of the first copy and checks that
every count repeats exactly in the third.  Human-readable lines come first;
the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
CPUS = sorted(os.sched_getaffinity(0))

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS  # noqa: E402


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import bihomcheck from this checkout's src/, never from elsewhere."""
    if not (SRC / "bihomcheck" / "cli.py").is_file():
        fail(f"no bihomcheck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bihomcheck
    if Path(bihomcheck.__file__).resolve().parent != SRC / "bihomcheck":
        fail(f"imported bihomcheck from {bihomcheck.__file__}")


# ---------------------------------------------------------------------------
# CPUs
# ---------------------------------------------------------------------------

def _loop_seconds() -> float:
    began = time.perf_counter()
    for _ in range(20_000):
        pass
    return time.perf_counter() - began


def fastest_cpu() -> int:
    """The CPU that runs a fixed loop of under a millisecond fastest now.

    The CPUs of a shared host slow down one at a time, by up to 1.7x and
    for seconds to minutes, as other tenants load them; a thread left alone
    stays on its CPU however slow it turns.  Running each request on the
    faster CPU measures the program rather than its neighbours.
    """
    best = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        best[cpu] = min(_loop_seconds(), _loop_seconds())
    return min(best, key=best.get)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup_child(workload: str, seed: int, workdir: str):
    """Entry point of a set-up subprocess: time import, fixtures and files."""
    start = time.perf_counter()
    import_program()
    WORKLOADS[workload](workdir, seed).setup()
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def measure_setup(workload: str, seed: int, workdir: Path) -> list:
    """Set up in fresh processes; the first one only warms the file cache."""
    samples = []
    try:
        for i in range(SETUP_REPEATS + 1):
            child_dir = workdir / f"setup-{i}"
            child_dir.mkdir()
            os.sched_setaffinity(0, {fastest_cpu()})  # the child inherits it
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--setup-child", str(child_dir)],
                capture_output=True, text=True, timeout=120, cwd=ROOT)
            if proc.returncode != 0:
                fail(f"set-up failed: {proc.stderr.strip()[-2000:]}")
            if i > 0:
                samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
            shutil.rmtree(child_dir)
    finally:
        os.sched_setaffinity(0, CPUS)
    return samples


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

def serve(main, request):
    """Run one request; return (seconds, reason or None)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(request.argv))
    except SystemExit as exc:  # argparse rejected the command line
        rc = exc.code
    except Exception as exc:  # a traceback is a failed request, not a crash
        return time.perf_counter() - start, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    try:
        reason = request.expect(rc, out.getvalue())
    except (OSError, ValueError, KeyError) as exc:
        reason = f"output unreadable: {exc!r}"
    if reason is None and err.getvalue():
        reason = f"stderr: {err.getvalue()[:200]!r}"
    return elapsed, reason


class Pass:
    """Latencies and failures of one pass over some rounds.

    Garbage left by a request is collected before the next one starts, and
    the collection is not counted in the pass's wall time: a command line
    normally gets a fresh process, and reference cycles (such as the
    recursive helper in compose_all) would otherwise keep large arrays alive
    into later requests, at times that depend on the collector's thresholds.
    """

    def __init__(self):
        self.latency = []
        self.requests = []
        self.classes = Counter()
        self.failures = []
        self.wall = 0.0
        self.collect_s = 0.0

    def run_round(self, main, requests, pick_cpu=False):
        """Run the requests in order.  With `pick_cpu`, each runs on the CPU
        that is fastest just before it (see fastest_cpu), except those that
        start the program's worker pool, which keep every CPU."""
        try:
            for req in requests:
                began = time.perf_counter()
                gc.collect()
                if pick_cpu:
                    os.sched_setaffinity(0, CPUS if req.pool else {fastest_cpu()})
                self.collect_s += time.perf_counter() - began
                elapsed, reason = serve(main, req)
                self.latency.append(elapsed)
                self.requests.append(req)
                self.classes[req.cls] += 1
                if reason is not None:
                    self.failures.append(f"{req.cls} {' '.join(req.argv)}: {reason}")
        finally:
            os.sched_setaffinity(0, CPUS)


def run_pass(w, seconds: float) -> Pass:
    """Closed loop over whole rounds: as many as fit in `seconds`, judging
    by the previous round, and at least one."""
    from bihomcheck import cli
    result = Pass()
    requests = w.round()
    start = time.perf_counter()
    rounds, last = 0, 0.0
    while rounds == 0 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        result.run_round(cli.main, requests, pick_cpu=True)
        last = time.perf_counter() - began
        rounds += 1
    result.wall = time.perf_counter() - start - result.collect_s
    return result


def fastest(run: Pass) -> list:
    """Each verdict's time, replaced by the fastest time of the same command
    line anywhere in the run.

    Every round repeats the same command lines, so each one runs many times
    over the run.  The machine's slow spells only ever add time, and they
    come and go within a run; the fastest repeat is the time of the request
    itself, and a median over many of them is steady from run to run.
    """
    best = {}
    for req, seconds in zip(run.requests, run.latency):
        best[req.argv] = min(seconds, best.get(req.argv, seconds))
    return [best[req.argv] for req in run.requests]


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def metric(value, unit):
    return {"value": value, "unit": unit}


def self_check(w, seed) -> list:
    """A round must have the same class histogram for every seed."""
    other = type(w)(w.workdir, seed + 1)
    if hasattr(w, "fixtures"):
        other.fixtures = w.fixtures
    if Counter(r.cls for r in w.round()) != Counter(r.cls for r in other.round()):
        return ["the class histogram of a round depends on the seed"]
    return []


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def end_to_end(w, args, setup_samples) -> tuple:
    run = run_pass(w, args.seconds)
    n = len(run.latency)
    best = fastest(run)
    metrics = {
        "verdict_s.p50": metric(statistics.median(best), "s"),
        "verdict_s.p90": metric(p90(best), "s"),
        "verdicts_per_s": metric(n / sum(best), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
    }
    samples = {"peak_rss_mb": 1, "setup_s": len(setup_samples)}
    print(f"workload {w.name}, seed {args.seed}: {n} verdicts in {run.wall:.1f} s, "
          f"{len({r.argv for r in run.requests})} distinct command lines, "
          f"classes {dict(sorted(run.classes.items()))}")
    print(f"  as measured: p50 {statistics.median(run.latency):.6g} s, "
          f"p90 {p90(run.latency):.6g} s, {n / run.wall:.6g} verdicts/s")
    print(f"  {'failed_frac':<15} {len(run.failures) / n:.6g} ratio  (samples {n})")
    for name, m in metrics.items():
        print(f"  {name:<15} {m['value']:.6g} {m['unit']}  (samples {samples.get(name, n)})")
    by_class = {}
    for req, seconds in zip(run.requests, best):
        by_class.setdefault(req.cls, []).append(seconds)
    for cls, times in sorted(by_class.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"  class {cls:<20} {len(times):4d} verdicts, fastest-repeat times "
              f"{min(times):.4g} .. {statistics.median(times):.4g} .. {max(times):.4g} s")
    return metrics, [run]


# Per-layer metrics: span name -> (count name, unit) recorded at that boundary.
LAYER_COUNTS = {
    "exactlin.compose": ("macs", "count"),
    "combinat.Permutation.matrix": ("dense_bytes", "B"),
    "exactlin.kron": ("out_entries", "count"),
    "exactlin.first_difference": ("entries_scanned", "count"),
    "exactlin.solve_linear": ("unknowns", "count"),
    "exactlin.from_flat": ("entries", "count"),
}
LAYER_CALLS = ["exactlin.compose", "combinat.Permutation.matrix", "exactlin.kron",
               "exactlin.power", "exactlin.first_difference", "exactlin.solve_linear",
               "exactlin.invert", "exactlin.from_flat",
               "coherence.check_exponent_identities", "coherence.coherence_map",
               "coherence.xi_map", "coherence.nprod"]
LAYER_SELF = LAYER_CALLS + [
    "exactlin.kron_all", "exactlin.compose_all", "twist.antipode_solve", "twist.untwist",
    "twist.yau_twist", "cli.load_instance", "cli.save_instance", "cli.main"]
MODULES = ("exactlin", "combinat", "coherence", "structures", "twist", "report", "cli")


def per_layer(w, args) -> tuple:
    """Each request of the round, and each untimed request, runs traced,
    untraced, traced.

    Interleaving request by request keeps the machine's drift in speed out of
    trace.overhead_frac.  The first traced copy gives the metrics and the
    spans; the second must repeat every count.
    """
    from spans import COUNTING, Tracer
    from bihomcheck import cli
    first, second = Tracer(), Tracer()
    traced, plain, again = Pass(), Pass(), Pass()
    for request in w.round() + w.untimed():
        for tracer, into in ((first, traced), (None, plain), (second, again)):
            if tracer is not None:
                tracer.install()
            try:
                # cli.main is looked up per call, so it is the wrapper if installed.
                into.run_round(lambda argv: cli.main(argv), [request], pick_cpu=True)
            finally:
                if tracer is not None:
                    tracer.uninstall()
    for p in (traced, plain, again):
        p.wall = sum(p.latency)
    calls, counts = first.totals()
    self_s, overlap = first.self_times()
    first.write(str(WORK / f"spans-{w.name}-{args.seed}.tsv.gz"))
    calls2, counts2 = second.totals()

    problems = []
    differ = sorted(str(k) for k in set(calls) | set(calls2) if calls.get(k) != calls2.get(k))
    differ += sorted(str(k) for k in set(counts) | set(counts2) if counts.get(k) != counts2.get(k))
    if differ:
        problems.append(f"counts differ between two traced passes: {differ[:10]}")
    unaccounted = 1 - sum(self_s.values()) / traced.wall
    if not 0 <= unaccounted < 0.1:
        problems.append(f"self times leave {unaccounted:.1%} of the traced wall unaccounted")

    metrics = {}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = metric(calls.get(name, 0), "count")
    for name, (key, unit) in LAYER_COUNTS.items():
        metrics[f"{name}.{key}"] = metric(counts.get((name, key), 0), unit)
    macs = counts.get(("exactlin.compose", "macs"), 0)
    useful = counts.get(("exactlin.compose", "useful_macs"), 0)
    metrics["exactlin.compose.useful_mac_frac"] = metric(useful / macs if macs else 0.0, "ratio")
    for name in LAYER_SELF:
        metrics[f"{name}.self_s"] = metric(self_s.get(name, 0.0), "s")
    for module in MODULES:
        metrics[f"{module}.self_s"] = metric(
            sum(v for k, v in self_s.items() if k.startswith(module + ".")), "s")
    metrics["trace.counting_s"] = metric(self_s.get(COUNTING, 0.0), "s")
    metrics["trace.overhead_frac"] = metric(
        (traced.wall + again.wall) / (2 * plain.wall) - 1, "ratio")
    metrics["trace.unaccounted_frac"] = metric(unaccounted, "ratio")
    metrics["trace.thread_overlap_frac"] = metric(overlap / traced.wall, "ratio")

    print(f"workload {w.name}, seed {args.seed}: one round, requests take "
          f"{plain.wall:.2f} s untraced, {traced.wall:.2f} s and {again.wall:.2f} s traced")
    total = sum(self_s.values())
    for name, value in sorted(self_s.items(), key=lambda kv: -kv[1])[:12]:
        print(f"  {name:<40} self {value:8.3f} s  {value / total:6.1%}")
    return metrics, [plain, traced, again], problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=56,
                        help="length of the untraced run (a traced run does one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_child:
        setup_child(args.workload, args.seed, args.setup_child)
        return

    import_program()
    from bihomcheck import cli
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_samples = [] if args.trace else measure_setup(args.workload, args.seed, workdir)
        w = WORKLOADS[args.workload](str(workdir), args.seed)
        w.setup()
        problems = w.verify_setup() + self_check(w, args.seed)
        warm = Pass()
        warm.run_round(cli.main, w.warmup())
        if args.trace:
            metrics, passes, more = per_layer(w, args)
            problems += more
        else:
            metrics, passes = end_to_end(w, args, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    passes.append(warm)
    failures = [f for p in passes for f in p.failures]
    for line in failures[:10] + problems:
        print(f"  FAILED {line}")
    print(json.dumps({"correct": not failures and not problems,
                      "attempted": sum(len(p.latency) for p in passes),
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
