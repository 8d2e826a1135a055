"""repro.exec — parallel experiment execution.

The experiment pipeline in three pieces:

- :mod:`repro.exec.jobs` — :class:`SimJob` specs, canonical job keys,
  and in-process execution of a single spec;
- :mod:`repro.exec.pool` — :class:`JobRunner`, the deduplicating,
  caching, optionally-multiprocess runner whose result maps are a pure
  function of the plan;
- :mod:`repro.exec.cache` — :class:`ResultCache`, the on-disk
  deterministic result store under ``.repro-cache/``.

Typical use::

    from repro.exec import JobRunner, ResultCache, make_job

    runner = JobRunner(jobs="auto", cache=ResultCache())
    results = runner.run([make_job(Water, protocol="DirnH5SNB"), ...])

Experiment drivers in :mod:`repro.analysis.experiments` accept a
``runner=`` argument and plan through this package; see
``docs/performance.md`` for the design notes.
"""

from repro.exec.cache import (
    CACHE_SCHEMA,
    DEFAULT_CACHE_DIR,
    ResultCache,
    cache_key,
)
from repro.exec.jobs import (
    SimJob,
    canonical_dict,
    canonical_json,
    execute_job,
    job_key,
    make_job,
)
from repro.exec.pool import (
    JobRunner,
    plan_unique,
    resolve_jobs,
)

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "JobRunner",
    "ResultCache",
    "SimJob",
    "cache_key",
    "canonical_dict",
    "canonical_json",
    "execute_job",
    "job_key",
    "make_job",
    "plan_unique",
    "resolve_jobs",
]
