"""One timed pass of a library workload, in a fresh process.

    python3 perfbench/lib_worker.py WORKLOAD SEED PASS MODE

MODE is ``plain``, ``traced`` or ``setup``. The worker sets up (imports,
resolves the models and boards, makes the evaluator or spec) and prints
``{"ready": true}`` immediately before its timed evaluation; a ``setup``
worker stops there. Otherwise it runs pass PASS through the program's
default public entry point (``random_search`` or ``run_campaign``,
``jobs=1``), drawing its inputs from ``(SEED, PASS)``. The pass starts
cold: the process-global memo tables are cleared and the evaluator,
caches and checkpoint are new. After the timed pass the outputs are
checked against computations made apart from the program. The last line
is a JSON summary for ``run.py``.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import common  # noqa: E402
import spans  # noqa: E402

#: Fig. 10 sample size: large enough that the 8192-entry segment cache
#: fills and evicts on xception/vcu110.
FIG10_SAMPLES = 2000
FIG10_CONTEXT = ("xception", "vcu110")
#: Designs checked on the uncached path per pass, besides every front member.
CHECK_SUBSET = 48

CAMPAIGN_CELLS = (("resnet50", "zcu102"), ("mobilenetv2", "zc706"), ("xception", "vcu110"))
CAMPAIGN_POPULATION = 32
CAMPAIGN_GENERATIONS = 30


def pass_seed(seed: int, index: int) -> int:
    """The program-facing seed of pass ``index`` of a run seeded ``seed``."""
    return random.Random(f"{seed}/{index}").randrange(2**31)


def _say(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _point(report) -> checks.Point:
    return (report.throughput_fps, report.buffer_requirement_bytes / 2**20)


def _check_designs(model: str, board: str, designs, reported_dicts):
    """Reports recomputed on the uncached path (a fresh builder, the default
    model, no segment or fingerprint cache) equal the reported ones, and
    off-chip accesses equal the reference simulator's. Returns the problems
    and each design's Eq. 10 accuracy against the simulator."""
    from repro.core.builder import MultipleCEBuilder
    from repro.core.cost.export import report_to_dict
    from repro.core.cost.model import default_model
    from repro.synth.simulator import SynthesisSimulator
    from repro.workloads import REGISTRY

    builder = MultipleCEBuilder(REGISTRY.model(model), REGISTRY.board(board))
    cost_model = default_model()
    accelerators = [builder.build(design.to_spec()) for design in designs]
    fresh = [report_to_dict(cost_model.evaluate(acc)) for acc in accelerators]
    problems = checks.equal_reports(f"{model}/{board} uncached", reported_dicts, fresh)
    accuracy = []
    for accelerator, reported in zip(accelerators, reported_dicts):
        reference = SynthesisSimulator(accelerator).run()
        if reference.access_bytes != reported["access_bytes"]["total"]:
            problems.append(f"{accelerator.name}: off-chip accesses "
                            f"{reported['access_bytes']['total']} != simulator {reference.access_bytes}")
        accuracy.append(checks.mean(checks.accuracy_rows(reference, reported).values()))
    return problems, accuracy


class Fig10:
    """Fig. 10: a random sample of the custom space through ``random_search``."""

    def __init__(self) -> None:
        from repro.dse.space import CustomDesignSpace
        from repro.workloads import REGISTRY

        model, board = FIG10_CONTEXT
        self.graph = REGISTRY.model(model)
        self.board = REGISTRY.board(board)
        self.space = CustomDesignSpace(self.graph.conv_specs())
        self.evaluator = None

    def prepare(self, seed: int) -> None:
        from repro.dse.sampler import DesignEvaluator

        self.evaluator = DesignEvaluator(self.graph, self.board, jobs=1)

    def timed(self, seed: int):
        from repro.dse.search import random_search

        return random_search(self.evaluator, self.space, FIG10_SAMPLES, seed=seed)

    def inspect(self, seed: int, result) -> dict:
        from repro.core.cost.export import report_to_dict

        self.evaluator.close()
        kernel = self.evaluator.runtime.cache_info().get("population_kernel", {})
        attempted = result.stats.evaluated + result.stats.failed
        out = {"ops": attempted, "backend": kernel.get("backend", "scalar"), "problems": []}
        front = [_point(r) for _d, r in result.front]
        out["hypervolumes"] = [checks.hypervolume(front, checks.REFERENCE_COST_MIB[FIG10_CONTEXT])]
        keys = {(d.pipelined_layers, d.cuts) for d, _r in result.evaluated}
        if attempted != FIG10_SAMPLES or len(keys) != attempted:
            out["problems"].append(f"sample has {attempted} designs, {len(keys)} distinct; "
                                   f"expected {FIG10_SAMPLES} distinct")
        front_ids = {id(pair) for pair in result.front}
        rest = [pair for pair in result.evaluated if id(pair) not in front_ids]
        out["problems"] += checks.front_problems(front, [_point(r) for _d, r in rest])
        chosen = list(result.front) + random.Random(seed).sample(rest, min(CHECK_SUBSET, len(rest)))
        reported = [report_to_dict(report) for _design, report in chosen]
        problems, out["accuracy"] = _check_designs(*FIG10_CONTEXT, [d for d, _r in chosen], reported)
        out["problems"] += problems
        out["blind"] = checks.blind_controls(report=reported[0], front=front)
        return out


class Campaign:
    """A three-cell NSGA-II ``run_campaign`` with checkpoint and event log."""

    def __init__(self) -> None:
        from repro.workloads import REGISTRY

        for model, board in CAMPAIGN_CELLS:
            REGISTRY.model(model)
            REGISTRY.board(board)

    def prepare(self, seed: int) -> None:
        from repro.dse.campaign import CampaignSpec

        self.spec = CampaignSpec.from_dict({
            "name": "perfbench",
            "strategy": "evolve",
            "seed": seed,
            "population": CAMPAIGN_POPULATION,
            "generations": CAMPAIGN_GENERATIONS,
            "cells": [{"model": m, "board": b} for m, b in CAMPAIGN_CELLS],
        })
        self.workdir = common.WORK / f"campaign-{seed}-{time.monotonic_ns()}"
        self.workdir.mkdir(parents=True)
        self.checkpoint = self.workdir / "campaign.json"

    def timed(self, seed: int):
        from repro.dse.campaign import run_campaign

        return run_campaign(self.spec, self.checkpoint, jobs=1)

    def inspect(self, seed: int, result) -> dict:
        from repro.core.cost.export import report_to_dict
        from repro.dse.campaign import campaign_status
        from repro.dse.space import CustomDesign

        expected = len(CAMPAIGN_CELLS) * CAMPAIGN_POPULATION * (CAMPAIGN_GENERATIONS + 1)
        fronts = [[_point(r) for _d, r in cell.front] for cell in result.cells]
        out = {
            "ops": result.total_evaluations,
            "checkpoint_kib": self.checkpoint.stat().st_size / 1024,
            "hypervolumes": [checks.hypervolume(front, checks.REFERENCE_COST_MIB[cell])
                             for front, cell in zip(fronts, CAMPAIGN_CELLS)],
            "problems": [],
            "accuracy": [],
        }
        if result.total_evaluations != expected:
            out["problems"].append(f"{result.total_evaluations} evaluations, expected "
                                   f"cells x population x rounds = {expected}")
        events = (self.workdir / "campaign.json.events").read_bytes().splitlines()
        out["problems"] += checks.event_log_problems(events)
        status = campaign_status(self.checkpoint)
        stored = json.loads(self.checkpoint.read_text())
        rng = random.Random(seed)
        first_report = None
        for index, ((model, board), cell, reloaded) in enumerate(
            zip(CAMPAIGN_CELLS, result.cells, status.cells)
        ):
            front_dicts = [report_to_dict(r) for _d, r in cell.front]
            first_report = first_report or front_dicts[0]
            out["problems"] += checks.equal_reports(
                f"cell {index} front reloaded from the checkpoint",
                [report_to_dict(r) for _d, r in reloaded.front], front_dicts)
            out["problems"] += checks.front_problems(fronts[index])
            population = stored["cells"][index]["population"]
            subset = rng.sample(population, min(CHECK_SUBSET // len(CAMPAIGN_CELLS), len(population)))
            designs = [d for d, _r in cell.front] + [CustomDesign.from_dict(e["design"]) for e in subset]
            problems, accuracy = _check_designs(model, board, designs,
                                                front_dicts + [e["report"] for e in subset])
            out["problems"] += problems
            out["accuracy"] += accuracy
        out["blind"] = checks.blind_controls(report=first_report, front=fronts[0], events=events)
        shutil.rmtree(self.workdir, ignore_errors=True)
        return out


WORKLOADS = {"fig10-sample": Fig10, "campaign": Campaign}


def _collect_counters(counters: dict) -> None:
    """Patch ``BatchEvaluator.close`` to add each evaluator's runtime and
    segment-cache counters to ``counters`` once, when it closes."""
    from repro.runtime.batch import BatchEvaluator

    original = BatchEvaluator.close
    seen = set()

    def close(self):
        if id(self) not in seen:
            seen.add(id(self))
            counters["submitted"] += self.totals.submitted
            counters["cache_hits"] += self.totals.cache_hits
            if self.segment_cache is not None:
                info = self.segment_cache.info()
                counters["seg_hits"] += info["hits"]
                counters["seg_misses"] += info["misses"]
                counters["block_evals"] += info["evaluations"]
        return original(self)

    BatchEvaluator.close = close


def main(argv) -> int:
    workload, seed, index, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    common.import_program()
    counters = {"submitted": 0, "cache_hits": 0, "seg_hits": 0, "seg_misses": 0, "block_evals": 0}
    tracer = None
    if mode == "traced":
        tracer = spans.Tracer()  # enabled through set-up, so resolution is seen
        tracer.install(spans.LAYERS)
        _collect_counters(counters)
    try:
        from repro.runtime.bench import clear_process_caches
    except ImportError as error:
        raise common.BenchError(f"cannot reset the process caches between passes: {error}")
    work = WORKLOADS[workload]()
    seed_k = pass_seed(seed, index)
    clear_process_caches()
    work.prepare(seed_k)
    _say({"ready": True})
    if mode == "setup":
        _say({"passes": []})
        return 0
    if tracer is not None:
        covered = spans.covered_ms(tracer.summary())
    start = time.perf_counter()
    result = work.timed(seed_k)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.enabled = False  # the checks below are not the workload
        covered = spans.covered_ms(tracer.summary()) - covered
    rss = common.peak_rss_mib()
    summary = work.inspect(seed_k, result)
    summary.update(elapsed=elapsed, rss_mib=rss, index=index)
    out = {"passes": [summary]}
    if tracer is not None:
        summary["other_ms"] = 1000 * elapsed - covered
        out["layers"] = tracer.summary()
        out["counters"] = counters
    _say(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
