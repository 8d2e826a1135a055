"""On-disk deterministic result cache.

Because the simulator is deterministic, a job spec fully determines its
:class:`~repro.sim.stats.RunStats` — so results can be cached on disk
and replayed on any later run of the same spec.  Re-running the
experiment suite after an unrelated edit is then near-instant.

Layout (under ``.repro-cache/`` by default)::

    .repro-cache/
        ab/
            ab3f...e9.json      one result per file

Each file name is the SHA-256 of the *cache key document*: the job's
canonical spec plus the cost-model version and the package version.
Invalidation is therefore automatic and conservative:

- change any :class:`~repro.machine.params.MachineParams` field, the
  protocol, the workload kwargs, or the software implementation and the
  key changes (it hashes the canonical spec);
- bump ``COST_MODEL_VERSION`` after retuning handler costs and every
  cached result goes stale at once;
- release a new package version and likewise nothing old is reused.

Stale files are never *read*; they are garbage-collected lazily by
:meth:`ResultCache.prune` (or just delete the directory — it is purely
a cache).

Each file is one JSON object, encoded sorted-key and compact by the C
encoder: ``schema`` (:data:`CACHE_SCHEMA`), ``job`` (the canonical
spec) and ``stats``, the :meth:`~repro.sim.stats.RunStats.to_record`
form.  Schema 2's record stores each distinct handler-cost breakdown
once and every handler sample as one row that indexes it, where
schema 1 stored the full :meth:`~repro.sim.stats.RunStats.to_json_dict`
form, a breakdown dict per sample: the quick preset's 59 results take
1.7 MB instead of 14.0 MB.  The schema is part of the key document, so
a schema-1 file is never looked up, and :meth:`ResultCache.prune`
removes it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from typing import Callable, Dict, Optional


class _Expired(Exception):
    """Internal marker: a cache file exceeded the prune age limit."""

from repro.exec.jobs import SimJob, canonical_dict
from repro.sim.stats import RunStats

#: Bump when the cache file format itself changes.
CACHE_SCHEMA = "repro-exec-cache/2"

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: What reading a missing, torn or foreign cache file raises (a JSON
#: value of the wrong shape, like a list where an object belongs, raises
#: AttributeError).
_UNREADABLE = (OSError, ValueError, KeyError, TypeError, IndexError,
               AttributeError)


def cache_key(job: SimJob) -> str:
    """SHA-256 over (job spec, cost-model version, package version)."""
    return _key(canonical_dict(job))


def _key(job_doc: Dict[str, object]) -> str:
    """:func:`cache_key` of the job whose canonical dict is ``job_doc``."""
    doc = {
        "schema": CACHE_SCHEMA,
        "job": job_doc,
        "cost_model_version": _cost_model_version(),
        "package_version": _package_version(),
    }
    encoded = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


class ResultCache:
    """Maps job specs to cached :class:`RunStats` on disk."""

    def __init__(self, root: str = DEFAULT_CACHE_DIR) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Optional telemetry hook, called as ``on_event(kind, job)``
        #: with kind in {"hit", "miss", "put"} right after the counter
        #: update.  A pure side channel: it observes lookups, it cannot
        #: influence them (exceptions are swallowed), so cached bytes
        #: and cache keys are identical with or without a listener.
        self.on_event: Optional[Callable[[str, SimJob], None]] = None

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def path_for(self, job: SimJob) -> str:
        return self._path(cache_key(job))

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def get(self, job: SimJob) -> Optional[RunStats]:
        """Cached result of ``job``, or ``None``.

        A corrupt or truncated file (e.g. an interrupted write by an
        older, non-atomic writer) counts as a miss — the entry is simply
        recomputed and overwritten.  So does a parseable file of another
        schema.  The parsed document is freed before this method returns.
        """
        try:
            stats = self._load(self.path_for(job))
        except _UNREADABLE:
            self.misses += 1
            self._emit("miss", job)
            return None
        self.hits += 1
        self._emit("hit", job)
        return stats

    def _emit(self, kind: str, job: SimJob) -> None:
        if self.on_event is not None:
            try:
                self.on_event(kind, job)
            except Exception:  # noqa: BLE001 - telemetry never propagates
                pass

    def put(self, job: SimJob, stats: RunStats) -> str:
        """Store ``stats`` for ``job``; returns the file path.

        Concurrency-safe by compare-and-swap: the entry is staged in a
        temp file, then *linked* into place — an atomic create-if-absent,
        so when several writers race the same key (concurrent ``repro
        experiments`` sweeps sharing one ``--cache-dir``) exactly one
        publishes and the rest discard their staging file.
        First-writer-wins is correct here because the simulator is
        deterministic: every racer is holding the same bytes.  A
        pre-existing *unreadable* entry (interrupted write by an older,
        non-atomic writer) is replaced via atomic rename instead, as is
        the whole entry on filesystems without hard links.  A concurrent
        reader therefore only ever sees a complete entry.

        The entry is encoded in one ``json.dumps`` call (``json.dump``
        always takes the pure-Python encoder), and the document and its
        encoding are temporaries, freed before this method returns.
        """
        job_doc = canonical_dict(job)
        path = self._path(_key(job_doc))
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(
                    {"schema": CACHE_SCHEMA, "job": job_doc,
                     "stats": stats.to_record()},
                    sort_keys=True, separators=(",", ":")))
            try:
                os.link(tmp_path, path)
            except FileExistsError:
                if not self._readable(path):
                    os.replace(tmp_path, path)
            except OSError:
                os.replace(tmp_path, path)
        finally:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
        self.stores += 1
        self._emit("put", job)
        return path

    @staticmethod
    def _load(path: str) -> RunStats:
        """The result stored at ``path``; raises one of
        :data:`_UNREADABLE` if there is none to decode."""
        with open(path, "r", encoding="utf-8") as fh:
            return RunStats.from_record(json.load(fh)["stats"])

    @staticmethod
    def _readable(path: str) -> bool:
        """True when ``path`` holds an entry :meth:`get` can decode."""
        try:
            ResultCache._load(path)
            return True
        except _UNREADABLE:
            return False

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def prune(self, max_age: Optional[float] = None,
              dry_run: bool = False) -> int:
        """Delete stale cache entries; returns the number removed.

        An entry is stale when its key no longer matches its contents'
        spec under the *current* versions (i.e. it was written by an
        older cost model or package version) — or, when ``max_age`` is
        given, when its file is older than that many seconds (by
        modification time).  With ``dry_run`` nothing is deleted; the
        return value is the number that *would* be removed.
        """
        removed = 0
        if not os.path.isdir(self.root):
            return 0
        now = time.time()  # repro: allow-nondet(cache aging is wall-clock by definition; never reaches run output)
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(dirpath, name)
                stale = True
                try:
                    if max_age is not None \
                            and now - os.path.getmtime(path) > max_age:
                        raise _Expired
                    with open(path, "r", encoding="utf-8") as fh:
                        job_doc = json.load(fh).get("job", {})
                    stale = name != _key(job_doc) + ".json"
                except _UNREADABLE + (_Expired,):
                    stale = True
                if stale:
                    removed += 1
                    if not dry_run:
                        try:
                            os.unlink(path)
                        except OSError:
                            removed -= 1
        return removed


def _cost_model_version() -> int:
    from repro.core.software import costmodel

    return costmodel.COST_MODEL_VERSION


def _package_version() -> str:
    from repro import __version__

    return __version__
