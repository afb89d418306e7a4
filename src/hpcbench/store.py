"""File-based results store and run-record ingestion.

Layout: one JSON document per run under ``root/<workload>/<run_id>.json``
plus an index rebuilt on demand; no database, diff-friendly.  Writes
take an advisory lock file at the store root; reads need no
coordination.
"""

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .core import RunRecord, loads
from .errors import BenchError, DuplicateRun, ParseError, SchemaError

__all__ = ["Diagnostic", "IngestResult", "ingest", "ResultsStore"]


@dataclass(frozen=True)
class Diagnostic:
    """One rejected document and the reason."""

    path: str
    error: str
    kind: str  # "parse" or "schema"

    def to_dict(self) -> dict:
        return {"path": self.path, "error": self.error, "kind": self.kind}


@dataclass(frozen=True)
class IngestResult:
    records: tuple
    diagnostics: tuple

    @property
    def clean(self) -> bool:
        return not self.diagnostics


def _json_files(path: Path) -> list[Path]:
    if path.is_dir():
        return sorted(p for p in path.rglob("*.json")
                      if not p.name.startswith("."))
    return [path]


def ingest(path, lenient: bool = False) -> IngestResult:
    """Parse run records from a file or directory tree.

    Every document is parsed in strict mode (unknown fields rejected
    unless ``lenient``) and validated against the run-record invariants.
    Bad documents become diagnostics instead of aborting the batch;
    duplicate run ids are rejected.

    Records whose ``system`` or ``workload`` sub-documents are identical
    share one (frozen) object, built and validated once per call.
    """
    records: list[RunRecord] = []
    diagnostics: list[Diagnostic] = []
    seen: dict[str, str] = {}
    intern: dict = {}
    for file in _json_files(Path(path)):
        try:
            record = loads(file.read_text(encoding="utf-8"), "run",
                           lenient=lenient, path=str(file), _intern=intern)
        except ParseError as exc:
            diagnostics.append(Diagnostic(str(file), str(exc), "parse"))
            continue
        except SchemaError as exc:
            diagnostics.append(Diagnostic(str(file), str(exc), "schema"))
            continue
        if record.run_id in seen:
            diagnostics.append(Diagnostic(
                str(file),
                f"duplicate run_id {record.run_id!r} (first seen in "
                f"{seen[record.run_id]})", "schema"))
            continue
        seen[record.run_id] = str(file)
        records.append(record)
    return IngestResult(records=tuple(records), diagnostics=tuple(diagnostics))


class ResultsStore:
    """Single-writer directory store of run records."""

    LOCK_NAME = ".lock"

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _lock_path(self) -> Path:
        return self.root / self.LOCK_NAME

    def _acquire_lock(self):
        # O_EXCL makes creation the atomic acquire; stale locks must be
        # removed by the operator.
        try:
            fd = os.open(self._lock_path(), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise BenchError(
                f"store {self.root} is locked by another writer "
                f"(remove {self._lock_path()} if stale)") from None
        os.close(fd)

    def _release_lock(self):
        try:
            os.unlink(self._lock_path())
        except FileNotFoundError:
            pass

    def path_for(self, run: RunRecord) -> Path:
        return self.root / run.workload.name / f"{run.run_id}.json"

    def add(self, run: RunRecord, overwrite: bool = False) -> Path:
        """Write one record; duplicate ids are rejected unless overwriting."""
        target = self.path_for(run)
        self._acquire_lock()
        try:
            if not overwrite and run.run_id in self.index():
                raise DuplicateRun(f"run_id {run.run_id!r} already stored")
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(json.dumps(run.to_dict(), indent=2) + "\n",
                              encoding="utf-8")
        finally:
            self._release_lock()
        return target

    def add_all(self, runs: Iterable[RunRecord]) -> None:
        for run in runs:
            self.add(run)

    def index(self) -> dict[str, Path]:
        """Rebuild the run_id -> path index from the tree."""
        idx: dict[str, Path] = {}
        for file in _json_files(self.root):
            try:
                doc = json.loads(file.read_text(encoding="utf-8"))
                run_id = doc["run_id"]
            except (json.JSONDecodeError, KeyError, TypeError):
                continue
            if run_id in idx:
                raise DuplicateRun(
                    f"run_id {run_id!r} appears in both {idx[run_id]} "
                    f"and {file}")
            idx[run_id] = file
        return idx

    INDEX_NAME = ".index.json"

    def write_index(self) -> Path:
        """Persist the rebuilt index; the file is derived, never
        authoritative, and is ignored by ingestion."""
        idx = {run_id: str(path.relative_to(self.root))
               for run_id, path in sorted(self.index().items())}
        target = self.root / self.INDEX_NAME
        target.write_text(json.dumps(idx, indent=2) + "\n", encoding="utf-8")
        return target

    def load(self, run_id: str, lenient: bool = False) -> RunRecord:
        idx = self.index()
        if run_id not in idx:
            raise SchemaError(f"no stored run with id {run_id!r}")
        return loads(idx[run_id].read_text(encoding="utf-8"), "run",
                     lenient=lenient, path=str(idx[run_id]))

    def load_all(self, workload: Optional[str] = None,
                 lenient: bool = False) -> IngestResult:
        """Ingest the whole store, optionally one workload subtree."""
        base = self.root / workload if workload else self.root
        if not base.exists():
            return IngestResult(records=(), diagnostics=())
        return ingest(base, lenient=lenient)
