"""``repro.store`` — persistent, content-addressed analysis artifacts.

Every ``analyze``/``app`` invocation used to recompute the full record walk
from scratch, even for a byte-identical trace and configuration.  This
package makes analysis results durable and addressable:

* :mod:`repro.store.serialize` — versioned JSON serialization of the full
  :class:`~repro.core.report.AutoCheckReport` surface with an exact
  round-trip guarantee (``from_json(to_json(r)) == r``);
* :mod:`repro.store.digest` — trace content digests: read from the binary
  footer (computed once at write time), raw-bytes fallback for text
  traces, and a matching in-memory digest — all at zero record decodes;
* :mod:`repro.store.cache` — the on-disk store keyed by
  ``(trace digest, config fingerprint, schema version)``, with atomic
  writes, self-healing corrupted entries, and an eviction sweep behind the
  CLI ``gc`` verb;
* :mod:`repro.store.batch` — the ``analyze-batch`` frontend: fan a
  manifest of traces/apps across a process pool, reusing the store so warm
  fleet runs are near-instant.

Wired into the pipeline via
:attr:`repro.core.config.AutoCheckConfig.use_cache` (CLI: ``--cache``); a
hit skips the record walk entirely.  See ``docs/architecture.md`` for how
the store composes with the analysis engines.
"""

from repro.store.batch import (
    BatchEntry,
    BatchItemResult,
    BatchResult,
    ManifestError,
    analyze_app_cached,
    app_trace_path,
    ensure_app_trace,
    load_manifest,
    map_over_pool,
    run_batch,
)
from repro.store.cache import (
    ArtifactStore,
    GCStats,
    StoreError,
    StoreStats,
    artifact_key,
    config_fingerprint,
    default_cache_dir,
)
from repro.store.digest import (
    compute_trace_digest,
    digest_file_bytes,
)
from repro.store.serialize import (
    SCHEMA_VERSION,
    SerializationError,
    report_from_dict,
    report_from_json,
    report_to_dict,
    report_to_json,
)

__all__ = [
    "ArtifactStore",
    "BatchEntry",
    "BatchItemResult",
    "BatchResult",
    "GCStats",
    "ManifestError",
    "SCHEMA_VERSION",
    "SerializationError",
    "StoreError",
    "StoreStats",
    "analyze_app_cached",
    "app_trace_path",
    "artifact_key",
    "ensure_app_trace",
    "map_over_pool",
    "compute_trace_digest",
    "config_fingerprint",
    "default_cache_dir",
    "digest_file_bytes",
    "load_manifest",
    "report_from_dict",
    "report_from_json",
    "report_to_dict",
    "report_to_json",
    "run_batch",
]
