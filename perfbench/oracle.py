"""Output checks that recompute expected values without calling the
code under test.

VFLOPS is recomputed as ``sps * ranks * fps * (q / t) ** n`` and the
drop-extremes mean as the plain mean over a configuration's trials
minus the highest and lowest epochs-to-quality.  Simulator and roofline
outputs are checked against invariants of the model rather than
against current values, so a change of communication model does not
trip them.  Every check raises :class:`OracleError` on failure.
"""

import csv
import io
import json
import math
import xml.etree.ElementTree as ET

REL_TOL = 1e-9


class OracleError(Exception):
    """An output disagrees with the benchmark's own expectation."""


def _close(actual, expected, what: str, rel: float = REL_TOL) -> None:
    if not isinstance(actual, (int, float)) or not math.isclose(
            actual, expected, rel_tol=rel, abs_tol=0.0):
        raise OracleError(f"{what}: got {actual!r}, expected {expected!r}")


def _equal(actual, expected, what: str) -> None:
    if actual != expected:
        raise OracleError(f"{what}: got {actual!r}, expected {expected!r}")


def json_document(text: str):
    """The JSON document in a command's stdout.  Text lines that some
    commands print before the document are skipped."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        starts = [i for i in (text.find("\n["), text.find("\n{")) if i >= 0]
        if not starts:
            raise OracleError("stdout holds no JSON document") from None
        try:
            return json.loads(text[min(starts) + 1:])
        except json.JSONDecodeError as exc:
            raise OracleError(f"stdout JSON does not parse: {exc}") from None


def vflops(fact) -> float:
    flops = (fact.samples_per_second_per_rank * fact.num_ranks
             * fact.flops_per_sample)
    return flops * (fact.achieved_quality / fact.target_quality) ** fact.quality_exponent_n


def drop_extremes(facts):
    """(retained, highest, lowest) by (epochs_to_quality, run_id)."""
    ordered = sorted(facts, key=lambda f: (f.epochs_to_quality, f.run_id))
    return ordered[1:-1], ordered[-1], ordered[0]


def mean_vflops(facts) -> float:
    retained, _, _ = drop_extremes(facts)
    return sum(vflops(f) for f in retained) / len(retained)


def top_run_id(facts) -> str:
    return min(facts, key=lambda f: (-vflops(f), f.wall_time, f.run_id)).run_id


# -- read_shared --------------------------------------------------------

def check_rank(stdout: str, facts) -> None:
    rows = json_document(stdout)
    _equal(len(rows), len(facts), "rank row count")
    _equal(sum(1 for r in rows if not r["eligible"]),
           sum(1 for f in facts if f.planted), "rank ineligible count")
    top = top_run_id(facts)
    _equal(rows[0]["run_id"], top, "rank top run_id")
    _close(rows[0]["vflops"], vflops(next(f for f in facts if f.run_id == top)),
           "rank top vflops")


def check_validate(stdout: str, facts) -> None:
    entries = json_document(stdout)
    _equal(len(entries), len(facts), "validate entry count")
    flagged = {e["run_id"] for e in entries if e["violations"]}
    _equal(flagged, {f.run_id for f in facts if f.planted},
           "validate flagged run ids")
    for e in entries:
        if e["violations"] and not any(v["layer"] == 5 for v in e["violations"]):
            raise OracleError(f"validate: {e['run_id']} not flagged at layer 5")


def check_report(stdout: str, facts) -> None:
    doc = json_document(stdout)
    agg = doc["scores"]["aggregate"]
    retained, _, _ = drop_extremes(facts)
    _equal(sorted(agg["retained_run_ids"]), sorted(f.run_id for f in retained),
           "report retained run ids")
    _close(agg["mean"]["vflops"], mean_vflops(facts), "report mean vflops")
    _equal(doc["rule_audit"]["clean"], not any(f.planted for f in facts),
           "report rule audit clean")


def check_aggregate(stdout: str, facts) -> None:
    doc = json_document(stdout)
    _, highest, lowest = drop_extremes(facts)
    _equal(doc["runs"], len(facts), "aggregate run count")
    _equal(len(doc["retained"]), len(facts) - 2, "aggregate retained count")
    _equal(doc["dropped"], [highest.run_id, lowest.run_id], "aggregate dropped")
    _close(doc["mean_scores"]["vflops"], mean_vflops(facts),
           "aggregate mean vflops")


# -- write_distinct -----------------------------------------------------

def check_round_trip(stored: dict, expected: dict) -> None:
    """``stored`` maps run ids to the documents read back from disk."""
    _equal(sorted(stored), sorted(expected), "stored run ids")
    for run_id, doc in expected.items():
        if stored[run_id] != doc:
            raise OracleError(f"record {run_id} does not round-trip")


def check_duplicate_rejected(raised) -> None:
    """``raised`` is the exception the re-add raised, or None."""
    if raised is None:
        raise OracleError("re-adding a stored run_id was accepted")


def check_score(stdout: str, facts: dict) -> None:
    rows = json_document(stdout)
    _equal(sorted(r["run_id"] for r in rows), sorted(facts), "score run ids")
    for r in rows:
        _close(r["vflops"], vflops(facts[r["run_id"]]),
               f"score vflops of {r['run_id']}")


# -- simulate_sweep -----------------------------------------------------

def check_simulate(stdout: str, scenario, scales) -> None:
    """Invariants of the overlap model: the phase timeline splits the
    step's communication wall time, so with compute time ``c`` and
    active communication ``m = total - waits`` the step time implied by
    the throughput is ``alpha * max(c, m) + (1 - alpha) * (c + m)``,
    and the waits are ``(1 - alpha) * c``."""
    rows = json_document(stdout)
    _equal([r["scale"] for r in rows], list(scales), "simulate scales")
    a = scenario.alpha
    compute = (scenario.per_rank_batch * scenario.flops_per_sample
               / (scenario.peak_per_accelerator * scenario.compute_efficiency))
    for r in rows:
        what = f"simulate {scenario.path.name} scale {r['scale']}"
        phases = r["phase_timeline"]
        if not all(math.isfinite(v) and v >= 0 for v in phases.values()):
            raise OracleError(f"{what}: phase timeline {phases}")
        eff = r["efficiency"]
        if not (math.isfinite(eff) and eff > 0):
            raise OracleError(f"{what}: efficiency {eff!r}")
        waits = phases["wait_for_data"] + phases["wait_for_other_data"]
        _close(waits, (1.0 - a) * compute, f"{what}: waits", rel=1e-6)
        active = sum(phases.values()) - waits
        step = (scenario.per_rank_batch * r["scale"] * scenario.flops_per_sample
                / r["throughput_flops"])
        _close(step, a * max(compute, active) + (1.0 - a) * (compute + active),
               f"{what}: step time from timeline", rel=1e-6)


def check_roofline(csv_text: str, svg_text: str, peak_flops: float) -> None:
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if len(rows) < 2:
        raise OracleError("roofline CSV has fewer than two samples")
    coi = [float(r["coi"]) for r in rows]
    bound = [float(r["bound_flops"]) for r in rows]
    if any(b <= a for a, b in zip(coi, coi[1:])):
        raise OracleError("roofline COI grid is not increasing")
    if any(b < a for a, b in zip(bound, bound[1:])):
        raise OracleError("roofline bound is not monotone")
    if max(bound) > peak_flops * (1 + REL_TOL) or min(bound) <= 0:
        raise OracleError(f"roofline bound outside (0, peak {peak_flops:g}]")
    try:
        root = ET.fromstring(svg_text)
    except ET.ParseError as exc:
        raise OracleError(f"roofline SVG does not parse: {exc}") from None
    if not root.tag.endswith("svg"):
        raise OracleError(f"roofline SVG root is {root.tag!r}")
