"""repro.runtime — fault-tolerant, cached, parallel experiment orchestration.

The runtime layer turns every paper sweep (heatmap grids, trace
replays, sensitivity matrices) into a list of content-addressed
:class:`~repro.runtime.jobs.Job` objects executed by
:func:`~repro.runtime.executor.run_sweep`:

* :mod:`repro.runtime.jobs` — hashable job abstraction, stable spec
  fingerprints, hashlib-based seed derivation;
* :mod:`repro.runtime.cache` — content-addressed on-disk result cache
  (atomic JSON files) so interrupted sweeps resume where they stopped;
* :mod:`repro.runtime.executor` — streaming process-pool execution with
  per-cell timeouts, bounded retry, and partial-result return;
* :mod:`repro.runtime.progress` — live stderr progress line + JSONL
  machine-readable run log;
* :mod:`repro.runtime.context` — the :class:`RuntimeContext` value
  object the CLI threads through every experiment (no globals).

See ``docs/RUNTIME.md`` for the architecture and on-disk formats.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cache": ("DEFAULT_CACHE_DIR", "NullCache", "ResultCache", "open_cache"),
    ".context": ("RuntimeContext", "resolve"),
    ".executor": ("CellTimeout", "SweepResult", "run_sweep"),
    ".jobs": (
        "CODE_VERSION", "Job", "canonical", "fingerprint", "spec_job", "stable_seed",
    ),
    ".progress": ("ProgressReporter", "RunLog"),
})
