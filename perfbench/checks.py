"""Output checks, written apart from the program, and their negative controls.

Every check takes plain data (tuples, dicts, lines) and returns a list of
problems, empty when the output is right. Each has a negative control: the
same check run on a deliberately corrupted copy of real output must report
a problem, or the check is blind and the run is marked incorrect.

Objective points are ``(benefit, cost)``: throughput in frames/s, higher is
better; on-chip buffer requirement in MiB, lower is better.
"""

from __future__ import annotations

import copy
import json
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

Point = Tuple[float, float]

#: Fixed hypervolume reference per (model, board): benefit 0 frames/s and
#: this buffer requirement in MiB. Each sits above every front member seen
#: while the benchmark was built, and it never moves with the front.
REFERENCE_COST_MIB: Dict[Tuple[str, str], float] = {
    ("resnet50", "zcu102"): 8.0,
    ("mobilenetv2", "zc706"): 6.0,
    ("xception", "vcu110"): 10.0,
}

#: Fixed hypervolume reference of each CNN of the served Table IV grid on
#: vcu108, in MiB: above the largest buffer requirement of its 30 designs.
GRID_REFERENCE_COST_MIB: Dict[str, float] = {
    "resnet152": 64.0,
    "resnet50": 64.0,
    "xception": 48.0,
    "densenet121": 20.0,
    "mobilenetv2": 12.0,
}


def dominates(a: Point, b: Point) -> bool:
    """``a`` is at least as good on both objectives and better on one."""
    return a[0] >= b[0] and a[1] <= b[1] and (a[0] > b[0] or a[1] < b[1])


def front_problems(front: Sequence[Point], others: Sequence[Point] = ()) -> List[str]:
    """The front is mutually non-dominated, and each point of ``others``
    (the evaluated designs left off the front) is dominated by a member."""
    problems = []
    for i, a in enumerate(front):
        for j, b in enumerate(front):
            if i != j and dominates(a, b):
                problems.append(f"front member {j} {b} is dominated by member {i} {a}")
                break
    for point in others:
        if not any(dominates(member, point) for member in front):
            problems.append(f"non-front design {point} is not dominated by the front")
    return problems


def hypervolume(points: Sequence[Point], reference_cost: float) -> float:
    """Area dominated by ``points`` above benefit 0 and below the fixed
    ``reference_cost``; points at or beyond the reference add nothing."""
    area = 0.0
    best_benefit = 0.0
    for benefit, cost in sorted(points, key=lambda p: (p[1], -p[0])):
        if cost >= reference_cost or benefit <= best_benefit:
            continue
        area += (reference_cost - cost) * (benefit - best_benefit)
        best_benefit = benefit
    return area


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def geometric_mean(values: Sequence[float]) -> float:
    if not values or min(values) <= 0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def equal_reports(
    label: str, produced: Sequence[Dict[str, Any]], expected: Sequence[Dict[str, Any]]
) -> List[str]:
    """Reports (``report_to_dict`` form) equal field for field."""
    if len(produced) != len(expected):
        return [f"{label}: {len(produced)} reports, expected {len(expected)}"]
    problems = []
    for index, (got, want) in enumerate(zip(produced, expected)):
        if got != want:
            keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            problems.append(f"{label}: report {index} differs in {keys[:4]}")
    return problems


def event_log_problems(lines: Sequence[bytes]) -> List[str]:
    """NDJSON events with seqs 1, 2, ... and a final ``campaign_done``."""
    problems = []
    last_type = None
    for number, line in enumerate(lines, start=1):
        try:
            event = json.loads(line)
        except ValueError:
            return [f"event line {number} is not JSON"]
        if event.get("seq") != number:
            problems.append(f"event line {number} has seq {event.get('seq')!r}")
            break
        last_type = event.get("type")
    if last_type != "campaign_done":
        problems.append(f"event log ends in {last_type!r}, not campaign_done")
    return problems


def accuracy_percent(reference: float, estimate: float) -> float:
    """Eq. 10 of the paper: 100 * (1 - |reference - estimate| / reference)."""
    return 100.0 * (1.0 - abs(reference - estimate) / reference)


def accuracy_rows(reference: Any, report: Dict[str, Any]) -> Dict[str, float]:
    """Eq. 10 accuracy of a report's buffers, latency and throughput (the
    Table IV rows) against a ``SynthesisSimulator`` result."""
    return {
        "buffers": accuracy_percent(reference.buffer_bytes, report["buffer_requirement_bytes"]),
        "latency": accuracy_percent(reference.latency_cycles, report["latency_cycles"]),
        "throughput": accuracy_percent(reference.throughput_fps, report["throughput_fps"]),
    }


# --- negative controls ---------------------------------------------------------


def perturbed_report(report: Dict[str, Any]) -> Dict[str, Any]:
    """A copy with one field nudged by one part in 10^9."""
    bad = copy.deepcopy(report)
    bad["latency_cycles"] = bad["latency_cycles"] * (1 + 1e-9) + 1e-9
    return bad


def with_dominated_point(front: Sequence[Point]) -> List[Point]:
    """The front plus a point that its best-throughput member dominates."""
    best = max(front)
    return list(front) + [(best[0] * 0.999, best[1] * 1.001 + 1e-9)]


def with_seq_gap(lines: Sequence[bytes]) -> List[bytes]:
    """The log with one interior event dropped."""
    keep = list(lines)
    del keep[len(keep) // 2]
    return keep


def blind_controls(
    report: Optional[Dict[str, Any]] = None,
    front: Optional[Sequence[Point]] = None,
    events: Optional[Sequence[bytes]] = None,
) -> List[str]:
    """Run each check on corrupted data; name every check that accepts it."""
    blind = []
    if report is not None and not equal_reports("control", [perturbed_report(report)], [report]):
        blind.append("report equality accepts a perturbed field")
    if front is not None and not front_problems(with_dominated_point(front)):
        blind.append("front check accepts a dominated point")
    if events is not None and not event_log_problems(with_seq_gap(events)):
        blind.append("event-log check accepts a seq gap")
    return blind
