"""Content-addressed dataset cache: generate once, snapshot, reuse everywhere.

SP2Bench's methodology separates document generation and loading from query
time (Section V reports loading times per engine exactly because native
engines amortize the physical build into a reusable database).  The cache is
that amortization for the whole reproduction: a dataset is identified by a
key derived from the complete :class:`~repro.generator.config.GeneratorConfig`
plus the snapshot format version, and its fully built store snapshot lives
under ``~/.cache/sp2bench`` (override with ``$SP2B_CACHE_DIR`` or an explicit
cache directory).  :meth:`DatasetCache.resolve` either loads the snapshot
(cache hit — the fast path CI restores via ``actions/cache``) or generates
the document straight into a store, saves the snapshot, and returns it
(cache miss — paid at most once per machine and configuration).

Because the key covers every generator parameter, the snapshot format
version, *and* a digest of the generator source code, entries are
immutable: a config change, a format bump, or any edit to the generator
modules produces a new key, and stale files are simply never looked up
again (``repro cache clear`` removes them).  Generation is deterministic —
the output is a pure function of the configuration and the generator code —
so a cache entry built anywhere is valid everywhere the same code runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .generator.config import GeneratorConfig
from .generator.generator import DblpGenerator
from .obs import get_registry
from .store import IndexedStore
from .store.snapshot import (
    FORMAT_VERSION,
    SnapshotError,
    load_snapshot,
    read_snapshot_metadata,
    save_snapshot,
)

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "SP2B_CACHE_DIR"

# Dataset-cache telemetry (no-ops until the global registry is enabled).
_CACHE_HITS = get_registry().counter(
    "sp2b_dataset_cache_hits_total",
    "Dataset resolutions served from an existing snapshot.",
)
_CACHE_MISSES = get_registry().counter(
    "sp2b_dataset_cache_misses_total",
    "Dataset resolutions that generated (and snapshotted) the document.",
)


def default_cache_dir():
    """The dataset cache directory honouring ``$SP2B_CACHE_DIR`` / XDG."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "sp2bench"


_generator_digest_cache = None


def _generator_code_digest():
    """A digest over the source files that determine generated datasets.

    Folding this into every dataset key makes the cache sensitive to
    *behaviour* changes, not just configuration changes: editing any
    generator module — or the RDF data-model layer it emits through (term
    normalization, vocabulary URIs, N-Triples rules) — produces new keys,
    so CI's restored cache and local ``~/.cache/sp2bench`` entries can
    never hand back a dataset built by older code.  Conservative by design:
    a comment-only edit also invalidates, which merely costs one rebuild.
    """
    global _generator_digest_cache
    if _generator_digest_cache is None:
        from . import generator as generator_package
        from . import rdf as rdf_package

        digest = hashlib.sha256()
        for package in (generator_package, rdf_package):
            package_dir = Path(package.__file__).parent
            for source in sorted(package_dir.glob("*.py")):
                digest.update(package_dir.name.encode("utf-8"))
                digest.update(source.name.encode("utf-8"))
                digest.update(source.read_bytes())
        _generator_digest_cache = digest.hexdigest()[:16]
    return _generator_digest_cache


def dataset_key(config):
    """The content address of one dataset: config + format + code.

    The digest covers *every* field of the generator configuration (seed,
    limits, Erdoes parameters, ...), the snapshot format version, and a
    digest of the generator sources — any change that could alter the bytes
    on disk changes the key.  Either store family loads the one entry.  The
    human-readable prefix makes ``repro cache list`` legible.
    """
    payload = json.dumps(
        {
            "format": FORMAT_VERSION,
            "generator": asdict(config),
            "generator_code": _generator_code_digest(),
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
    if config.triple_limit is not None:
        label = f"{config.triple_limit}t"
    elif config.end_year is not None:
        label = f"y{config.end_year}"
    else:
        label = f"{config.default_triple_limit}t"
    return f"{label}-{digest}"


def combined_cache_key(configs):
    """One key covering a set of dataset configurations (for CI caching).

    ``repro cache key`` prints this so the CI workflow can key its
    ``actions/cache`` step on exactly the datasets the bench job will
    resolve; the ``v<format>`` prefix doubles as a coarse restore-keys
    fallback boundary.
    """
    keys = [dataset_key(config) for config in configs]
    digest = hashlib.sha256("\n".join(sorted(keys)).encode("utf-8")).hexdigest()[:16]
    return f"v{FORMAT_VERSION}-{digest}"


@dataclass
class ResolvedDataset:
    """The outcome of one :meth:`DatasetCache.resolve` call."""

    store: object
    path: Path
    key: str
    hit: bool
    elapsed: float
    #: The generator's ``statistics.as_dict()`` summary (from the snapshot
    #: metadata on a hit, from the fresh generator run on a miss).
    statistics: dict = field(default_factory=dict)
    #: Seconds the document's *generation* took — measured on a miss,
    #: recalled from the snapshot metadata on a hit, so reports of the
    #: paper's generation-time table stay truthful on warm caches.
    generation_time: float = 0.0


@dataclass
class CacheEntry:
    """One snapshot file in the cache, as listed by ``repro cache list``."""

    key: str
    path: Path
    size_bytes: int
    metadata: dict


class DatasetCache:
    """A directory of content-addressed dataset snapshots."""

    def __init__(self, root=None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, key):
        return self.root / f"{key}.sp2b"

    def resolve(self, config):
        """Return the built ``IndexedStore`` for ``config``, loading or
        building it.

        On a hit the snapshot is loaded (orders of magnitude cheaper than
        regenerating); a corrupt or version-mismatched file is discarded and
        rebuilt.  On a miss the document is generated straight into a fresh
        store, snapshotted atomically, and returned.
        """
        started = time.perf_counter()
        key = dataset_key(config)
        path = self.path_for(key)
        if path.exists():
            try:
                store = load_snapshot(path)
                metadata = read_snapshot_metadata(path)
                elapsed = time.perf_counter() - started
                _CACHE_HITS.inc()
                return ResolvedDataset(
                    store=store,
                    path=path,
                    key=key,
                    hit=True,
                    elapsed=elapsed,
                    statistics=metadata.get("statistics", {}),
                    generation_time=metadata.get("generation_seconds", elapsed),
                )
            except SnapshotError:
                path.unlink(missing_ok=True)
        _CACHE_MISSES.inc()
        generator = DblpGenerator(config)
        store = IndexedStore()
        # Time generation alone: key digests and any failed load of a
        # corrupt entry above are resolve overhead, not generation, and
        # this figure is persisted as the snapshot's generation_seconds.
        generation_started = time.perf_counter()
        generator.generate_into(store)
        generation_time = time.perf_counter() - generation_started
        statistics = generator.statistics.as_dict()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            save_snapshot(
                store,
                path,
                metadata={
                    "key": key,
                    "generator": asdict(config),
                    "statistics": statistics,
                    "generation_seconds": generation_time,
                },
            )
        except OSError:
            # Best-effort cache: an unwritable cache directory (read-only
            # HOME, full disk) must not fail the caller — the freshly built
            # store is in hand and the next run simply rebuilds.
            pass
        return ResolvedDataset(
            store=store,
            path=path,
            key=key,
            hit=False,
            elapsed=time.perf_counter() - started,
            statistics=statistics,
            generation_time=generation_time,
        )

    def remove(self, config):
        """Drop the entry for one configuration.  Returns True if it existed."""
        path = self.path_for(dataset_key(config))
        if path.exists():
            path.unlink()
            return True
        return False

    def entries(self):
        """All snapshot files currently in the cache, sorted by key."""
        if not self.root.is_dir():
            return []
        entries = []
        for path in sorted(self.root.glob("*.sp2b")):
            try:
                metadata = read_snapshot_metadata(path)
            except (SnapshotError, OSError):
                metadata = {}
            entries.append(CacheEntry(
                key=path.stem,
                path=path,
                size_bytes=path.stat().st_size,
                metadata=metadata,
            ))
        return entries

    def prune(self, keep_keys):
        """Delete every snapshot whose key is not in ``keep_keys``.

        Bounds cache growth in CI: the ``restore-keys`` fallback restores
        snapshots built under older code or configurations, and without
        pruning the post-job cache save would re-upload that ever-growing
        union under each new key.  Returns the number removed (orphaned
        ``*.sp2b.tmp.*`` writer leftovers are swept too).
        """
        keep = set(keep_keys)
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.sp2b"):
                if path.stem not in keep:
                    path.unlink(missing_ok=True)
                    removed += 1
            for path in self.root.glob("*.sp2b.tmp.*"):
                path.unlink(missing_ok=True)
        return removed

    def clear(self):
        """Delete every cached snapshot.  Returns the number removed.

        Also sweeps ``*.sp2b.tmp.*`` leftovers from writers that died before
        their atomic rename (they are invisible to :meth:`entries`).
        """
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.sp2b"):
                path.unlink()
                removed += 1
            for path in self.root.glob("*.sp2b.tmp.*"):
                path.unlink(missing_ok=True)
        return removed

    def __repr__(self):
        return f"DatasetCache(root={str(self.root)!r})"


def resolve_dataset(config=None, cache_dir=None, **overrides):
    """One-call convenience: resolve a dataset through a cache directory.

    ``config`` defaults to ``GeneratorConfig(**overrides)``; ``cache_dir``
    defaults to :func:`default_cache_dir`.
    """
    if config is None:
        config = GeneratorConfig(**overrides)
    return DatasetCache(cache_dir).resolve(config)
