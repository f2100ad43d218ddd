"""Output checks for the benchmark's workloads.

Each check returns a list of problems; an empty list means the output is
correct. A run with any problem counts as failed.
"""

import json
import math

# Emission drift a sweep may show against its reference report, percent
# (the repository's golden-report tolerance).
GOLDEN_TOLERANCE_PCT = 0.1


def check_bytes(output, reference, label):
    """The output must equal the reference byte for byte."""
    if output == reference:
        return []
    at = next(
        (i for i, (a, b) in enumerate(zip(output, reference)) if a != b),
        min(len(output), len(reference)),
    )
    return [f"{label}: differs from the reference at byte {at}"]


def check_sweep(text, expected, reference=None):
    """A `scenario run --json` report: `expected` scenarios, each with
    completed + unfinished = jobs and finite, positive emissions; with a
    `reference` ({name: emissions_g}), emissions within the golden
    tolerance of it."""
    try:
        reports = json.loads(text)
    except ValueError as e:
        return [f"report is not JSON: {e}"]
    if not isinstance(reports, list):
        return ["report is not a JSON array"]
    problems = []
    if len(reports) != expected:
        problems.append(f"{len(reports)} scenarios reported, {expected} planned")
    seen = set()
    for r in reports:
        name = r.get("name")
        if name in seen:
            problems.append(f"{name}: reported twice")
        seen.add(name)
        jobs, done, unfinished = r.get("jobs"), r.get("completed"), r.get("unfinished")
        if not jobs or done is None or unfinished is None or done + unfinished != jobs:
            problems.append(f"{name}: completed {done} + unfinished {unfinished} != jobs {jobs}")
        emissions = r.get("emissions_g")
        if not isinstance(emissions, (int, float)) or not math.isfinite(emissions) or emissions <= 0:
            problems.append(f"{name}: emissions {emissions!r} not finite and positive")
            continue
        if reference is not None:
            want = reference.get(name)
            if want is None:
                problems.append(f"{name}: not in the reference report")
            elif abs(emissions - want) / want * 100 > GOLDEN_TOLERANCE_PCT:
                problems.append(f"{name}: emissions {emissions} drift from reference {want}")
    if reference is not None:
        problems.extend(f"{name}: missing from the report" for name in sorted(set(reference) - seen))
    return problems


def emissions_by_name(text):
    """{name: emissions_g} of a `scenario run --json` report."""
    return {r["name"]: r["emissions_g"] for r in json.loads(text)}
