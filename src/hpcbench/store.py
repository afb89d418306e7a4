"""File-based results store and run-record ingestion.

Layout: one JSON document per run under ``root/<workload>/<run_id>.json``;
no database, diff-friendly.  The layout is the key: ``add`` decides
whether a run id is already stored by probing for ``<run_id>.json`` in
every workload directory, so a write costs O(workload directories) and
reads no record.  ``index()`` is the content audit: it reads every
record, maps the ``run_id`` each one declares to its file and refuses
an id stored twice; ``load`` and ``write_index`` use it.

Run ids and workload names become path components, so both must match
``[A-Za-z0-9][A-Za-z0-9._-]*``.  Records are written to a hidden
temporary file beside the target, fsynced and renamed over it, so a
crash leaves the old record or the new one, never a truncated file.
Writes take an advisory lock file at the store root that names its
owner; reads need no coordination.
"""

import json
import os
import platform
import re
import time
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
        return sorted((p for p in path.rglob("*.json")
                       if not p.name.startswith(".")),
                      key=lambda p: p.parts)
    return [path]


# Compiled on first use through the ``re`` cache, not at import.
_SAFE_NAME = r"[A-Za-z0-9][A-Za-z0-9._-]*"


def _check_name(value: str, what: str) -> None:
    if not re.fullmatch(_SAFE_NAME, value):
        raise SchemaError(
            f"{what} {value!r} is not a safe path component "
            f"(allowed: {_SAFE_NAME})")


def _write_atomic(target: Path, text: str) -> None:
    """Replace ``target`` with ``text`` via a hidden, fsynced temporary
    file beside it; on failure the temporary file is removed.  The
    temporary name ``.<stem>.tmp`` is no longer than the target's, so
    any name that fits the file system as a record fits as its
    temporary file."""
    tmp = target.with_name(f".{target.stem}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
        # removed by the operator, helped by the owner written inside.
        try:
            fd = os.open(self._lock_path(), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                owner = self._lock_path().read_text(
                    encoding="utf-8", errors="replace").strip()
            except OSError:
                owner = ""
            held_by = f" ({owner})" if owner else ""
            raise BenchError(
                f"store {self.root} is locked by another writer{held_by} "
                f"(remove {self._lock_path()} if stale)") from None
        owner = (f"pid {os.getpid()} on {platform.node() or 'unknown host'} "
                 f"since {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}")
        try:
            os.write(fd, owner.encode("utf-8"))
        except OSError:
            self._release_lock()
            raise
        finally:
            os.close(fd)

    def _release_lock(self):
        try:
            os.unlink(self._lock_path())
        except FileNotFoundError:
            pass

    def path_for(self, run: RunRecord) -> Path:
        """``root/<workload>/<run_id>.json``; raises :class:`SchemaError`
        if either name is not a safe path component."""
        _check_name(run.workload.name, "workload name")
        _check_name(run.run_id, "run_id")
        return self.root / run.workload.name / f"{run.run_id}.json"

    def _stored(self, run_id: str) -> bool:
        name = f"{run_id}.json"
        with os.scandir(self.root) as entries:
            return any(not entry.name.startswith(".") and entry.is_dir()
                       and os.path.exists(os.path.join(entry.path, name))
                       for entry in entries)

    def add(self, run: RunRecord, overwrite: bool = False) -> Path:
        """Write one record; duplicate ids are rejected unless overwriting.

        A run id counts as stored when ``<run_id>.json`` exists in any
        workload directory, whoever wrote it; no record is read.  So a
        hand-placed file under another name is not seen here (``ingest``
        still reports it as a duplicate run_id), and a ``<run_id>.json``
        counts as stored even if it cannot be parsed.
        """
        target = self.path_for(run)
        self._acquire_lock()
        try:
            if not overwrite and self._stored(run.run_id):
                raise DuplicateRun(f"run_id {run.run_id!r} already stored")
            target.parent.mkdir(parents=True, exist_ok=True)
            _write_atomic(target, json.dumps(run.to_dict(), indent=2) + "\n")
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
        _write_atomic(target, json.dumps(idx, indent=2) + "\n")
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
