"""Exception taxonomy and process exit codes.

Every error raised by this package derives from :class:`BenchError` and
carries the exit code the command-line front end maps it to:
0 success, 1 internal error, 2 rule violations present, 3 bad input.
Every class that refuses a value the caller supplied derives from
:class:`SchemaError` and so exits 3; plain :class:`BenchError` (a locked
store, an incomplete report) exits 1.
"""

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VIOLATIONS = 2
EXIT_SCHEMA = 3


class BenchError(Exception):
    """Base class for all toolkit errors."""

    exit_code = EXIT_INTERNAL


class SchemaError(BenchError):
    """Input violates a structural or invariant constraint, or asks for
    something the procedure does not define."""

    exit_code = EXIT_SCHEMA


class ParseError(SchemaError):
    """A document is not syntactically valid JSON."""

    def __init__(self, message: str, path=None, line=None, offset=None):
        self.path = path
        self.line = line
        self.offset = offset
        where = ""
        if path is not None:
            where += f" in {path}"
        if line is not None:
            where += f" at line {line}, column {offset}"
        super().__init__(message + where)


class DuplicateRun(SchemaError):
    """Two run records share the same run_id."""


# -- core-model ---------------------------------------------------------

class MissingPrecision(SchemaError):
    """The accelerator declares no peak rate for the requested precision."""


# -- metrics ------------------------------------------------------------

class DegenerateTarget(SchemaError):
    """Target quality of zero cannot anchor a penalty ratio."""


class InvalidPower(SchemaError):
    """Average power must be strictly positive."""


class EmptySample(SchemaError):
    """Per-sample work is undefined for an empty sample set."""


class DegenerateComm(SchemaError):
    """Per-step parameter traffic of zero cannot anchor a scaling ratio."""


class InvalidScaleOrder(SchemaError):
    """Parallel efficiency needs scale >= baseline scale."""


# -- roofline -----------------------------------------------------------

class UnknownCeiling(SchemaError):
    """A named ceiling is not present in the model."""


class DegenerateBand(SchemaError):
    """Bandwidth must be strictly positive."""


class CeilingAbovePeak(SchemaError):
    """A computation ceiling may not exceed the peak compute rate."""


class IncompletePoint(SchemaError):
    """A run cannot be placed without per-step compute and traffic data."""


class InvalidTransform(SchemaError):
    """A what-if transform received an out-of-range factor."""


class NothingToPlot(SchemaError):
    """Plot export requires a model."""


# -- rules --------------------------------------------------------------

class IncomparableWorkloads(SchemaError):
    """Records reference different workloads and cannot be compared."""


class InvalidSchedule(SchemaError):
    """Warmup must finish before the schedule ends."""


class InsufficientRuns(SchemaError):
    """Fewer trials submitted than the workload's minimum run count."""

    def __init__(self, required: int, got: int):
        self.required = required
        self.got = got
        super().__init__(f"need at least {required} runs, got {got}")


class NotARepetition(SchemaError):
    """Trials with heterogeneous declarations are not repeat runs."""


class NotReplicable(SchemaError):
    """Aggregates from different workloads/systems cannot be cross-checked."""


# -- simulator ----------------------------------------------------------

class BatchShardError(SchemaError):
    """Global batch size does not shard evenly across the ranks."""


# -- reporting ----------------------------------------------------------

class IncompleteReport(BenchError):
    """A mandatory report section is missing."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__("missing report sections: " + ", ".join(self.missing))
