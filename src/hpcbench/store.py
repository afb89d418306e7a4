"""File-based results store and run-record ingestion.

Layout: one JSON document per run under ``root/<workload>/<run_id>.json``;
no database, diff-friendly.  The layout is the key: ``add`` decides
whether a run id is already stored by probing for ``<run_id>.json`` in
every workload directory, so a write costs O(workload directories) and
reads no record; ``load`` finds a record by the same probe.  ``index()``
is the content audit: it reads every record, maps the ``run_id`` each
one declares to its file and refuses an id stored twice;
``write_index`` uses it.

Run ids and workload names become path components, so both must match
``[A-Za-z0-9][A-Za-z0-9._-]*``.  Records are written to a hidden
temporary file beside the target, fsynced and renamed over it, so a
crash leaves the old record or the new one, never a truncated file.
Writes take an advisory lock file at the store root that names its
owner, once per ``add`` or once per ``add_all`` batch; reads need no
coordination.

Reads work on path strings and ``os`` calls.  Each argument of
``ingest`` goes through ``Path`` once, so ``./s/`` and ``s//`` are
spelled ``s`` in diagnostics; a directory is listed by one recursive
``os.scandir`` walk that sorts each directory's entries by name, which
is path-component order (``a/x.json`` before ``a-b/x.json``, as
``sorted(key=Path.parts)`` would put them, though ``-`` sorts before
``/`` as a string).  Each file is read by ``os.open``, ``os.read`` until
end of file and ``os.close``.
"""

import fnmatch
import operator
import os
import platform
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Optional

from .core import JsonCodec, RunRecord, _json_text, _parse_json, loads
from .errors import BenchError, DuplicateRun, ParseError, SchemaError

__all__ = ["Diagnostic", "IngestResult", "ingest", "ResultsStore"]


@dataclass(frozen=True)
class Diagnostic(JsonCodec):
    """One rejected document and the reason."""

    path: str
    error: str
    kind: str  # "parse" or "schema"


@dataclass(frozen=True)
class IngestResult:
    records: tuple
    diagnostics: tuple

    @property
    def clean(self) -> bool:
        return not self.diagnostics


_entry_name = operator.attrgetter("name")

#: Bytes asked of each ``os.read``; a stored record is a few KiB.
_READ_SIZE = 1 << 16


def _json_files(path: Path, stem_glob: Optional[str] = None) -> list[str]:
    """The ``.json`` files under ``path``, in path-component order,
    skipping any whose path below ``path`` has a hidden component
    (``.trash/r1.json``, ``.r1.tmp``).  Hidden directories are not
    descended into, nor are symbolic links to directories; symbolic
    links to files are listed.  A directory that cannot be listed is
    skipped, as ``os.walk`` skips it.  With ``stem_glob``, only the files
    whose name without ``.json`` matches it are listed.  A ``path`` that
    is not a directory is listed as itself."""
    top = str(path)
    if not os.path.isdir(top):
        return [top]
    found: list[str] = []

    def walk(prefix: str) -> None:
        try:
            with os.scandir(prefix or ".") as it:
                entries = sorted(it, key=_entry_name)
        except OSError:
            return
        for entry in entries:
            name = entry.name
            if name.startswith("."):
                continue
            try:
                is_dir = entry.is_dir()
            except OSError:
                is_dir = False
            if is_dir:
                if not entry.is_symlink():
                    walk(prefix + name + os.sep)
            elif name.endswith(".json") and (
                    stem_glob is None or fnmatch.fnmatch(name[:-5], stem_glob)):
                found.append(prefix + name)

    # Path(".") / "y" is spelled "y", not "./y".
    walk("" if top == "." else os.path.join(top, ""))
    return found


def _read(path) -> bytes:
    """The bytes of the file at ``path``: one ``os.open``, ``os.read``
    until end of file, one ``os.close``.  An error names the file as
    ``Path(path).read_bytes()`` would: ``./x.json`` is spelled
    ``x.json``, and a directory is "Is a directory"."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, _READ_SIZE):
                chunks.append(chunk)
        finally:
            os.close(fd)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(Path(path))) from None
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)


def _refuse_overwrite(outputs, inputs, shared: Optional[str] = None) -> None:
    """The one output rule: a command never writes over a file it reads,
    or writes one file twice.  ``outputs`` are the ``(writer, path)``
    pairs a command will write and ``inputs`` the ``(what, path)`` pairs
    it reads; a pair whose path is None or empty is skipped.  Before
    anything is written, an output that is an input, or that two outputs
    share, is a :class:`SchemaError` (``shared``, when given, is the
    message for the second case).

    An existing file is compared by ``(st_dev, st_ino)``, so a hard link,
    a symbolic link and a second spelling of one path are the same file;
    a path that names no file yet is compared by its resolved path.  Each
    path is stat'ed once and resolved at most once.  With no outputs,
    nothing is stat'ed."""
    outputs = [(writer, path) for writer, path in outputs if path]
    if not outputs:
        return

    def identity(path):
        try:
            st = os.stat(path)
        except OSError:
            # not Path.resolve(), which raises RuntimeError on a symlink loop
            return os.path.realpath(path)
        return st.st_dev, st.st_ino

    written = {}
    for writer, path in outputs:
        key = identity(path)
        if first := written.get(key):
            raise SchemaError(shared or f"{first} and {writer} both name "
                                        f"{path}; give each its own file")
        written[key] = writer
    for what, path in inputs:
        if path and (writer := written.get(identity(path))):
            raise SchemaError(f"{writer} would write over the {what} file "
                              f"{path}; give the output its own file")


# Compiled on first use through the ``re`` cache, not at import.
_SAFE_NAME = r"[A-Za-z0-9][A-Za-z0-9._-]*"


def _check_name(value: str, what: str) -> None:
    if not re.fullmatch(_SAFE_NAME, value):
        raise SchemaError(
            f"{what} {value!r} is not a safe path component "
            f"(allowed: {_SAFE_NAME})")


def _store_root(root) -> Path:
    """``Path(root)``; an empty ``root``, which ``Path`` would read as the
    working directory, is a :class:`SchemaError`."""
    if not os.fspath(root):
        raise SchemaError("store root is an empty path")
    return Path(root)


def _store_files(root, workload: Optional[str] = None,
                 select: Optional[str] = None) -> list[str]:
    """:func:`_json_files` of the store at ``root`` or of its ``workload``
    directory (none if it does not exist), ``select`` as ``stem_glob``.
    An empty ``root``, an unsafe ``workload`` and a ``workload`` directory
    that is a symbolic link (which a read of the whole store skips) are a
    :class:`SchemaError`."""
    tree = _store_root(root)
    if workload is not None:
        _check_name(workload, "workload name")
        tree = tree / workload
        if tree.is_symlink():
            raise SchemaError(f"workload directory {tree} is a symbolic link")
    return _json_files(tree, select) if tree.exists() else []


def _path_files(paths: Iterable) -> list[str]:
    """:func:`_json_files` of each of ``paths``, in the order given."""
    return [f for path in paths for f in _json_files(Path(path))]


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


def ingest(*paths, _listed: Iterable[str] = ()) -> IngestResult:
    """Parse run records from files or directory trees.

    Every document is parsed, with unknown fields rejected, and
    validated against the run-record invariants.
    Bad documents become diagnostics instead of aborting the batch.  One
    duplicate table spans all ``paths``, so a run id that arrives twice
    is a ``duplicate run_id`` diagnostic and the first copy is kept.
    ``system`` or ``workload`` sub-documents whose JSON text is
    byte-identical share one (frozen) object, parsed, built and
    validated once per call.  A ``declaration`` text whose layers hold
    scalars alone is parsed and validated once per call too, but every
    record gets its own copy, with its own layer dicts.  Each file is
    read once, as bytes; one that is not strict UTF-8 is a ``parse``
    diagnostic.

    ``_listed`` is private to ``load_all`` and the CLI: files that
    :func:`_store_files` or :func:`_path_files` listed, read as given and
    before ``paths``.
    """
    records: list[RunRecord] = []
    diagnostics: list[Diagnostic] = []
    seen: dict[str, str] = {}
    intern: dict = {}
    for name in chain(_listed, _path_files(paths)):
        try:
            record = loads(_read(name), "run", path=name,
                           _intern=intern)
        except ParseError as exc:
            diagnostics.append(Diagnostic(name, str(exc), "parse"))
            continue
        except SchemaError as exc:
            diagnostics.append(Diagnostic(name, str(exc), "schema"))
            continue
        if record.run_id in seen:
            diagnostics.append(Diagnostic(
                name,
                f"duplicate run_id {record.run_id!r} (first seen in "
                f"{seen[record.run_id]})", "schema"))
            continue
        seen[record.run_id] = name
        records.append(record)
    return IngestResult(records=tuple(records), diagnostics=tuple(diagnostics))


class ResultsStore:
    """Single-writer directory store of run records."""

    LOCK_NAME = ".lock"

    def __init__(self, root):
        self.root = _store_root(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._holding = False

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

    @contextmanager
    def _locked(self):
        """Hold the store lock; a use nested in another (each ``add`` of
        an ``add_all``) keeps the lock the outer one took."""
        if self._holding:
            yield
            return
        self._acquire_lock()
        self._holding = True
        try:
            yield
        finally:
            self._holding = False
            self._release_lock()

    def path_for(self, run: RunRecord) -> Path:
        """``root/<workload>/<run_id>.json``; raises :class:`SchemaError`
        if either name is not a safe path component."""
        _check_name(run.workload.name, "workload name")
        _check_name(run.run_id, "run_id")
        return self.root / run.workload.name / f"{run.run_id}.json"

    def _stored(self, run_id: str, skip: Optional[str] = None) -> list[Path]:
        """The files ``<run_id>.json`` in workload directories other than
        ``skip``."""
        name = f"{run_id}.json"
        with os.scandir(self.root) as entries:
            return sorted(Path(entry.path, name) for entry in entries
                          if not entry.name.startswith(".")
                          and entry.name != skip and entry.is_dir()
                          and os.path.exists(os.path.join(entry.path, name)))

    def add(self, run: RunRecord, overwrite: bool = False) -> Path:
        """Write one record; duplicate ids are rejected unless overwriting.

        A run id counts as stored when ``<run_id>.json`` exists in any
        workload directory, whoever wrote it; no record is read.  So a
        hand-placed file under another name is not seen here (``ingest``
        still reports it as a duplicate run_id), and a ``<run_id>.json``
        counts as stored even if it cannot be parsed.  ``overwrite``
        replaces the record in the run's own workload directory only: an
        id stored under another workload is still a duplicate.
        """
        target = self.path_for(run)
        with self._locked():
            if self._stored(run.run_id,
                            skip=run.workload.name if overwrite else None):
                raise DuplicateRun(f"run_id {run.run_id!r} already stored")
            target.parent.mkdir(parents=True, exist_ok=True)
            _write_atomic(target, _json_text(run.to_dict()) + "\n")
        return target

    def add_all(self, runs: Iterable[RunRecord]) -> None:
        """``add`` each run in order under one hold of the store lock.  At
        the first failure (a duplicate, say) the runs before it stay
        written and the lock is released."""
        with self._locked():
            for run in runs:
                self.add(run)

    def index(self) -> dict[str, Path]:
        """Rebuild the run_id -> path index from the tree."""
        idx: dict[str, Path] = {}
        for file in _json_files(self.root):
            try:
                run_id = _parse_json(_read(file))["run_id"]
            except (ParseError, KeyError, TypeError):
                continue
            if not isinstance(run_id, str):
                continue
            if run_id in idx:
                raise DuplicateRun(
                    f"run_id {run_id!r} appears in both {idx[run_id]} "
                    f"and {file}")
            idx[run_id] = Path(file)
        return idx

    INDEX_NAME = ".index.json"

    def write_index(self) -> Path:
        """Persist the rebuilt index; the file is derived, never
        authoritative, and is ignored by ingestion."""
        idx = {run_id: str(path.relative_to(self.root))
               for run_id, path in sorted(self.index().items())}
        target = self.root / self.INDEX_NAME
        _write_atomic(target, _json_text(idx) + "\n")
        return target

    def load(self, run_id: str) -> RunRecord:
        """Read the record stored as ``<workload>/<run_id>.json``, probing
        the workload directories the way ``add`` does; no other record
        is read.  The file must hold that run id."""
        _check_name(run_id, "run_id")
        found = self._stored(run_id)
        if not found:
            raise SchemaError(f"no stored run with id {run_id!r}")
        if len(found) > 1:
            raise DuplicateRun(f"run_id {run_id!r} appears in both "
                               f"{found[0]} and {found[1]}")
        record = loads(_read(found[0]), "run", path=str(found[0]))
        if record.run_id != run_id:
            raise SchemaError(f"{found[0]} holds run_id {record.run_id!r}, "
                              f"not {run_id!r}")
        return record

    def load_all(self, workload: Optional[str] = None) -> IngestResult:
        """Ingest the whole store, optionally one workload subtree."""
        return ingest(_listed=_store_files(self.root, workload))
