"""perfbench: the MCCM benchmark (one command, three workloads).

    python3 perfbench/run.py --workload fig10-sample|campaign|serve \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). See ``perfbench/README.md`` for what each workload
exercises and why.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import common  # noqa: E402
import spans  # noqa: E402

#: Nominal seconds of one pass. It fixes how many passes a run makes for a
#: given --seconds, so every run does the same whole passes.
PASS_SECONDS = {"fig10-sample": 10.0, "campaign": 6.0}
#: Fewest passes (and worker processes) of an untraced run.
MIN_PASSES = 3
#: Set-ups timed in an untraced library run: one per pass, the rest in
#: workers that stop once set up.
SETUP_SAMPLES = 7


def _library_workers(workload: str, seed: int, seconds: float, traced: bool) -> list:
    """Run one worker process after another, one pass each. An untraced run
    makes passes 0, 1, ... and then set-up-only workers; a traced run gives
    pass 0 to an untraced and a traced worker, to compare the two."""
    if traced:
        kinds = [(0, "plain"), (0, "traced")]
    else:
        passes = max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))
        kinds = [(index, "plain") for index in range(passes)]
        kinds += [(index, "setup") for index in range(passes, SETUP_SAMPLES)]
    workers = []
    for index, mode in kinds:
        with common.Child([
            str(common.BENCH_DIR / "lib_worker.py"), workload, str(seed), str(index), mode,
        ]) as child:
            child.read()  # ready: set-up is over
            setup = time.perf_counter() - child.launched
            summary = child.read()
        summary["setup"] = setup
        workers.append(summary)
        for one in summary["passes"]:
            common.note(
                f"{workload} pass {one['index']} {mode}: "
                f"{one['ops']} designs in {one['elapsed']:.3f} s, peak {one['rss_mib']:.1f} MiB, "
                f"backend {one.get('backend', '-')} (worker set-up {setup:.3f} s)"
            )
    return workers


def _per_design_seconds(worker: dict) -> float:
    return common.median([p["elapsed"] / p["ops"] for p in worker["passes"]])


def run_library(workload: str, seed: int, seconds: float, traced: bool):
    workers = _library_workers(workload, seed, seconds, traced)
    passes = [p for worker in workers for p in worker["passes"]]
    problems = [problem for p in passes for problem in p["problems"]]
    problems += [f"blind check: {blind}" for p in passes for blind in p["blind"]]
    attempted = sum(p["ops"] for p in passes)
    if not traced:
        metrics = {
            "setup_s": (common.median([w["setup"] for w in workers]), "s"),
            "designs_per_s": (common.median([p["ops"] / p["elapsed"] for p in passes]), "1/s"),
            "peak_rss_mib": (common.median([p["rss_mib"] for p in passes]), "MiB"),
            "front_hypervolume": (
                checks.geometric_mean([v for p in passes for v in p["hypervolumes"]]), "fps.MiB"),
            "accuracy_pct": (checks.mean(a for p in passes for a in p["accuracy"]), "%"),
        }
        return problems, attempted, metrics
    plain, traced_worker = workers
    layers, counters = traced_worker["layers"], traced_worker["counters"]
    ops = sum(p["ops"] for p in traced_worker["passes"])
    metrics = {f"{name}_ms": (spans.self_ms(layers, name, ops), "ms") for name in spans.LAYER_TIMES}
    metrics["other_ms"] = (sum(p["other_ms"] for p in traced_worker["passes"]) / ops, "ms")
    metrics["runtime.hit_rate"] = (
        counters["cache_hits"] / counters["submitted"] if counters["submitted"] else 0.0, "ratio")
    lookups = counters["seg_hits"] + counters["seg_misses"]
    metrics["runtime.segcache.hit_rate"] = (counters["seg_hits"] / lookups if lookups else 0.0, "ratio")
    metrics["runtime.segcache.block_evals"] = (counters["block_evals"] / len(traced_worker["passes"]), "count")
    overhead = _per_design_seconds(traced_worker) / _per_design_seconds(plain) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    return problems, attempted, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fig10-sample", "campaign", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the servers and workers it started.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    try:
        common.require_source()
        common.note(f"host {common.host_metadata()}")
        if args.workload == "serve":
            import serve_load

            problems, attempted, failed, metrics = serve_load.run(
                args.seed, args.seconds, bool(args.trace)
            )
        else:
            problems, attempted, metrics = run_library(
                args.workload, args.seed, args.seconds, bool(args.trace)
            )
            failed = 0
    except common.BenchError as error:
        common.note(f"error: {error}")
        return 2
    for problem in problems:
        common.note(f"check failed: {problem}")
    common.emit(not problems, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
