"""Closed-loop benchmark of the mlqueues package, driven from outside.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 40 --trace 0

One client in one process makes each call only after the previous one has
returned.  A pass is one full round of a workload's calls; passes repeat
until ``--seconds`` would be exceeded (at least one pass).  Every output is
checked.  The report lines go to stdout, and the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
spends half the time on untraced passes and half on passes under the
outside-in tracer (see ``tracer.py``), and reports the per-layer metrics plus
the tracing overhead.  ``--quick`` runs reduced inputs for a smoke check.
The package is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.  ``MLQ_THREADS`` is removed
from the environment so that ``verify`` uses its default pool size.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_RUNS = 7  # fresh-process set-ups per run; setup_s is their median
CALL_NAMES = {"verify-sweep": "suite", "project-bulk": "project", "stationary": "command"}
LAYERS = ("pairing", "mlq", "words", "projection", "markov", "cli", "documents")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(CALL_NAMES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="reduced inputs for a fast smoke check")
    p.add_argument("--setup-only", action="store_true", help="time one set-up, print it and exit")
    return p.parse_args(argv)


def run_passes(one_pass, budget_s: float) -> list:
    """Run passes until the next one would likely end after ``budget_s``."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(one_pass())
        typical = statistics.median(p.wall_s for p in passes)
        if perf_counter() - start + typical > budget_s:
            return passes


def typical_pass_s(passes) -> float:
    """Sum over a pass's calls of each call's median latency across passes.

    Every pass makes the same calls in the same order, so this estimates one
    pass's wall time while a burst of load on the machine during one call
    shifts a single sample rather than a whole pass.
    """
    return sum(statistics.median(call) for call in zip(*(p.samples_ns for p in passes))) / 1e9


def timed_setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"] + (["--quick"] if args.quick else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def quantile(values, q: int) -> float:
    """q-th percentile (statistics.quantiles, exclusive method); max for tiny samples."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]


def layer_self_s(spans: dict, layer: str) -> float:
    return sum(v[1] for k, v in spans.items() if k.split(".")[0] == layer) / 1e9


def layer_metrics(p, workers: int) -> dict:
    """Per-layer numbers of one traced pass, named as in BENCHMARK.json."""
    spans, counts, toplevel_ns = p.trace

    def calls(name):
        return spans.get(name, (0, 0, 0))[0]

    def self_s(name):
        return spans.get(name, (0, 0, 0))[1] / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("pairing.pair_weakly_right", "pairing.pair_strictly_left", "mlq.twist", "words.layer",
                 "projection.apply_row_fermionic", "projection.apply_row_bosonic", "projection.ctm_components",
                 "projection.ferrari_martin", "projection.apply_row_particlewise", "markov.stationary_exact",
                 "markov.ring", "cli.main"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    pair_calls = calls("pairing.pair_weakly_right") + calls("pairing.pair_strictly_left")
    rows = calls("projection.apply_row_fermionic") + calls("projection.apply_row_bosonic")
    m["pairing.particles_per_call"] = ratio(counts.get("pairing.particles", 0), pair_calls)
    m["projection.pair_calls_per_row"] = ratio(counts.get("projection.pair_calls_under_rows", 0), rows)
    m["projection.project.calls"] = calls("projection.project")
    m["projection.project.total_s"] = spans.get("projection.project", (0, 0, 0))[2] / 1e9
    m["mlq.enumerate_queues.queues"] = counts.get("mlq.enumerate_queues.queues", 0)
    m["mlq.enumerate_queues.self_s"] = self_s("mlq.enumerate_queues")
    for key in ("markov.enumerate_states.states", "markov.enumerate_states.visited",
                "markov.chain_build.transitions", "markov.stationary_exact.states",
                "markov.stationary_exact.result_bits", "markov.simulate_ctmc.jumps"):
        m[key] = counts.get(key, 0)
    m["markov.enumerate_states.self_s"] = self_s("markov.enumerate_states")
    m["markov.chain_build.self_s"] = self_s("markov.chain_build")
    m["markov.simulate_ctmc.self_s"] = self_s("markov.simulate_ctmc")
    m["markov.simulate_ctmc.jumps_per_s"] = ratio(m["markov.simulate_ctmc.jumps"], m["markov.simulate_ctmc.self_s"])
    m["documents.calls"] = calls("documents")
    m["documents.self_s"] = self_s("documents")
    for layer in ("pairing", "mlq", "projection", "markov"):  # the other layers have one span each
        m[f"{layer}.layer_self_s"] = layer_self_s(spans, layer)
    for suite in ("r-invariance", "projection", "ringing"):
        wall, cases = p.suites.get(suite, (0.0, 0))
        m[f"verify.{suite}.wall_s"] = wall
        m[f"verify.{suite}.cases"] = cases
    m["verify.workers"] = workers
    m["verify.thread_overlap"] = toplevel_ns / 1e9 / p.wall_s
    return m


def trace_self_checks(passes, workers: int) -> list:
    """Failures of the tracer's own invariants over the traced passes."""
    failures = []
    for p in passes:
        spans = p.trace[0]
        negative = [k for k, v in spans.items() if v[1] < 0]
        if negative:
            failures.append(f"negative self time in {negative}")
        for layer in LAYERS:
            total = layer_self_s(spans, layer)
            if total > p.wall_s * workers:
                failures.append(f"{layer} self time {total:.3f}s exceeds {workers} x traced wall {p.wall_s:.3f}s")
    return failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mlqueues" / "__init__.py").is_file():
        print(f"error: the mlqueues sources are missing ({SRC / 'mlqueues'} not found)", file=sys.stderr)
        return 2
    os.environ.pop("MLQ_THREADS", None)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    setup, run_pass = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        t0 = perf_counter()
        setup(args.seed, args.quick)
        print(perf_counter() - t0)
        return 0

    setup_s = statistics.median(timed_setup_in_child(args) for _ in range(SETUP_RUNS))
    inputs = setup(args.seed, args.quick)
    import mlqueues
    from mlqueues import verify

    if not Path(mlqueues.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported mlqueues from {mlqueues.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workers = verify.worker_count()

    start = perf_counter()
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = run_passes(lambda: run_pass(inputs), budget)
    traced = []
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

        def traced_pass():
            tracer.reset()
            p = run_pass(inputs)
            p.trace = tracer.snapshot()
            return p

        tracer.install()
        try:
            traced = run_passes(traced_pass, args.seconds - (perf_counter() - start))
        finally:
            tracer.uninstall()

    everything = passes + traced
    attempted = sum(p.checks for p in everything)
    failures = [f for p in everything for f in p.failures]  # one line per failed check
    known = [k for p in everything for k in p.known_defects]
    # Outputs must not depend on the pass, nor on whether tracing was on.
    attempted += 1
    if len({p.digest for p in everything}) != 1:
        failures.append("outputs differ between passes" + (" (traced vs untraced)" if traced else ""))
    if traced:
        attempted += 1
        broken = trace_self_checks(traced, workers)
        if broken:
            failures.append("tracer self-check: " + "; ".join(broken))

    wall_s = typical_pass_s(passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    samples_us = [ns / 1e3 for p in passes for ns in p.samples_ns]
    call = CALL_NAMES[args.workload]
    print(f"workload={args.workload} seed={args.seed} quick={args.quick} trace={args.trace} "
          f"passes={len(passes)} traced_passes={len(traced)} verify_workers={workers} MLQ_THREADS=unset "
          f"python={sys.version.split()[0]} cpus={os.cpu_count()}")
    print(f"  setup_s       {setup_s:.4f} s   (median of {SETUP_RUNS} fresh-process set-ups)")
    print(f"  wall_s        {wall_s:.4f} s   (per-call medians summed over {len(passes)} untraced passes; "
          f"pass walls {', '.join(f'{p.wall_s:.3f}' for p in passes[:8])}{', ...' if len(passes) > 8 else ''})")
    print(f"  error_rate    {(len(failures) + len(known)) / attempted:.4f}     "
          f"({len(failures)} failed + {len(known)} known-defect checks of {attempted} attempted)")
    print(f"  cases_per_s   {passes[0].cases / wall_s:.1f} 1/s ({passes[0].cases} cases per pass)")
    print(f"  {call}_us_p50  {quantile(samples_us, 50):.1f} us  ({len(samples_us)} calls)")
    print(f"  {call}_us_p99  {quantile(samples_us, 99):.1f} us  ({len(samples_us)} calls)")
    print(f"  peak_rss_mb   {peak_rss_mb:.1f} MB")
    for line in dict.fromkeys(known):
        print(f"  known defect: {line}")
    for line in failures[:20]:
        print(f"  FAILED: {line}")

    if traced:
        per_pass = [layer_metrics(p, workers) for p in traced]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["trace.wall_s"] = typical_pass_s(traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall_s
        units = {k: ("1/s" if k.endswith("_per_s") else "s" if k.endswith("_s") else
                     "bits" if k.endswith("_bits") else "ratio" if "_per_" in k or k.endswith("overlap") else "count")
                 for k in metrics}
        for k, v in metrics.items():
            print(f"  {k:45s} {v:.6g} {units[k]}")
    else:
        metrics = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
