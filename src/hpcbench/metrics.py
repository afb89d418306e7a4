"""Scoring formulas and measurement arithmetic.

The headline score is VFLOPS (valid FLOPS): sustained FLOPS multiplied
by a penalty coefficient ``(achieved_quality / target_quality) ** n``
that punishes missing the quality target and awards exceeding it.
VFLOPS per watt scores energy efficiency, and time-to-quality is the
auxiliary metric.  Sustained FLOPS itself is single-precision-equivalent
operations per second, computed as samples/s per rank x ranks x FLOPs
per sample.

Every function here is pure: same inputs give bit-identical outputs.
"""

from dataclasses import dataclass, field
from typing import Optional

from .core import JsonCodec, RunRecord
from .errors import (
    DegenerateComm,
    DegenerateTarget,
    EmptySample,
    InvalidPower,
    InvalidScaleOrder,
    SchemaError,
)
from .units import GIGA, MEGA

__all__ = [
    "Score",
    "penalty_coefficient",
    "vflops",
    "vflops_per_watt",
    "throughput_flops",
    "flops_per_sample_from_profile",
    "ProfileCheck",
    "check_profiled_flops_per_sample",
    "scaling_ratio",
    "parallel_efficiency",
    "score_run",
]


def penalty_coefficient(achieved: float, target: float, n: int) -> float:
    """Quality penalty ``(achieved / target) ** n``.

    Equals 1 when the target is met exactly, falls below 1 (down to 0)
    when quality is missed, and exceeds 1 as an award when quality beats
    the target; no cap is applied.  ``n`` sets the sensitivity: larger
    exponents punish the same shortfall harder.
    """
    if target == 0:
        raise DegenerateTarget("target quality must be positive")
    if achieved < 0:
        raise DegenerateTarget(f"achieved quality must be >= 0, got {achieved}")
    if not (isinstance(n, int) and n >= 1):
        raise DegenerateTarget(f"quality exponent must be an integer >= 1, got {n}")
    return (achieved / target) ** n


def vflops(flops: float, achieved: float, target: float, n: int) -> float:
    """Valid FLOPS: sustained FLOPS scaled by the quality penalty."""
    if flops < 0:
        raise SchemaError(f"flops must be non-negative, got {flops}")
    return flops * penalty_coefficient(achieved, target, n)


def vflops_per_watt(vflops_value: float, average_power: float) -> float:
    """Energy-efficiency score: valid FLOPS per watt of average power."""
    if average_power <= 0:
        raise InvalidPower(f"average power must be positive, got {average_power}")
    return vflops_value / average_power


def throughput_flops(samples_per_sec_per_rank: float, num_ranks: int,
                     flops_per_sample: float) -> float:
    """Sustained FLOPS as N x R x C.

    N is samples processed per second by each rank, R the number of
    ranks, C the FLOPs of work per sample.
    """
    if samples_per_sec_per_rank < 0 or num_ranks < 0 or flops_per_sample < 0:
        raise SchemaError("throughput factors must be non-negative")
    return samples_per_sec_per_rank * num_ranks * flops_per_sample


def flops_per_sample_from_profile(total_flops: float, sample_count: int) -> float:
    """Per-sample work from a profiled total over a sampled subset."""
    if sample_count < 1:
        raise EmptySample("sample_count must be >= 1")
    return total_flops / sample_count


@dataclass(frozen=True)
class ProfileCheck:
    """Computed vs declared per-sample work, with a mismatch flag."""

    computed: float
    declared: float
    consistent: bool
    relative_error: float


def check_profiled_flops_per_sample(total_flops: float, sample_count: int,
                                    declared: float,
                                    tolerance: float = 0.05) -> ProfileCheck:
    """Cross-check a declared FLOPs-per-sample figure against the profile.

    Published per-sample figures are sometimes rounded or simply wrong;
    this reports both values and flags the mismatch instead of guessing
    which one is intended.
    """
    computed = flops_per_sample_from_profile(total_flops, sample_count)
    if declared <= 0:
        raise EmptySample("declared flops per sample must be positive")
    rel = abs(computed - declared) / declared
    return ProfileCheck(computed=computed, declared=declared,
                        consistent=rel <= tolerance, relative_error=rel)


def scaling_ratio(comp_per_step: float, comm_per_step: int) -> float:
    """Compute/communication ratio in GFLOPs per million parameters.

    Characterizes how hard a workload is to scale out: per-step compute
    (FLOPs) divided by per-step gradient traffic (parameter count),
    expressed in the conventional GFLOPs/Mparams units.
    """
    if comm_per_step <= 0:
        raise DegenerateComm("comm_per_step must be positive")
    return (comp_per_step / GIGA) / (comm_per_step / MEGA)


def parallel_efficiency(baseline_throughput: float, baseline_scale: int,
                        throughput: float, scale: int) -> float:
    """Achieved throughput over linearly scaled baseline throughput."""
    if baseline_throughput <= 0 or baseline_scale <= 0:
        raise InvalidScaleOrder("baseline throughput and scale must be positive")
    if scale < baseline_scale:
        raise InvalidScaleOrder(
            f"scale {scale} must be >= baseline scale {baseline_scale}")
    return throughput / (baseline_throughput * scale / baseline_scale)


@dataclass(frozen=True)
class Score(JsonCodec):
    """Scores of one run: FLOPS, VFLOPS, optional VFLOPS/W, time, penalty.

    ``vflops_per_watt`` is present exactly when power was recorded.
    """

    flops: float
    vflops: float
    vflops_per_watt: Optional[float] = field(default=None, kw_only=True)
    time_to_quality: float
    penalty: float


def score_run(run: RunRecord) -> Score:
    """Compute the full score of one run record against its own workload;
    re-score with ``score_run(dataclasses.replace(run, workload=w))``."""
    wl = run.workload
    flops = throughput_flops(run.samples_per_second_per_rank, run.num_ranks,
                             wl.flops_per_sample)
    penalty = penalty_coefficient(run.achieved_quality, wl.target_quality.value,
                                  wl.quality_exponent_n)
    valid = flops * penalty
    per_watt = None
    if run.average_power is not None:
        per_watt = vflops_per_watt(valid, run.average_power)
    return Score(flops=flops, vflops=valid, time_to_quality=run.wall_time,
                 penalty=penalty, vflops_per_watt=per_watt)
