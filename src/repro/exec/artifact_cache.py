"""Persistent, content-addressed artifact cache.

Functional traces and profiles are the expensive artifacts of every
experiment — regenerating them dominates wall-clock time.  The
in-memory :class:`~repro.experiments.runner.KeyedCache` only helps
within one process; this module adds an on-disk layer so repeated
invocations (and every worker of a parallel run) reuse them.

Entries are keyed on the *inputs* that produce them, never on the
products: the key is a SHA-256 over the format version, the benchmark
name, input set and scale, a digest of the source of every package
that turns those into a trace and a profile (the workload generator,
the ISA, the emulator, the profiler and the branch predictors), the
Python and numpy versions, and the profiler configuration fingerprint.
Computing it builds no program, generates no input memory and runs no
emulation, so a warm hit costs only the disk load.  A changed input
set, scale, profiler geometry, or an edit to any of that code produces
a different key — a miss — rather than a stale hit.  There is no
invalidation logic to get wrong.

On-disk format (one file per entry, named ``<key>.dmpart``)::

    MAGIC (8 bytes) | crc32(body) (4 bytes, little-endian) | body

where ``body`` is a pickle of a dict holding the compact trace's
column bytes and the :class:`~repro.profiling.profiler.ProfileData`.
A bad magic, short file, CRC mismatch, or unpickling error is treated
as corruption: the entry is dropped and the caller rebuilds — the
cache can never make a run fail, only make it faster.  All outcomes
are counted in the active metrics registry
(``cache_disk_{hits,misses,corrupt,writes}_total``).

The cache root defaults to ``~/.cache/dmp-repro`` and can be moved
with the ``REPRO_CACHE_DIR`` environment variable or the CLI's
``--cache-dir`` flag (:func:`set_cache_dir`); ``REPRO_CACHE_DISABLE=1``
turns the disk layer off entirely.
"""

import functools
import hashlib
import importlib
import os
import pickle
import struct
import sys
import tempfile
import zlib

from repro.emulator import Trace
from repro.obs.context import get_metrics

#: Bump when the on-disk body layout or the key material changes;
#: entries from older versions simply miss (the version is part of the
#: key).
FORMAT_VERSION = 2

#: File magic: identifies the format and its major version.
MAGIC = b"DMPART01"

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE_DISABLE = "REPRO_CACHE_DISABLE"
DEFAULT_CACHE_DIR = os.path.join("~", ".cache", "dmp-repro")

ENTRY_SUFFIX = ".dmpart"

#: Process-wide override installed by the CLI (``--cache-dir``) or by
#: tests; ``None`` defers to the environment / default.
_dir_override = None
_disabled_override = None


def set_cache_dir(path):
    """Override the cache root for this process (``None`` resets)."""
    global _dir_override
    _dir_override = path


def set_disabled(disabled):
    """Force the disk cache on/off for this process (``None`` resets)."""
    global _disabled_override
    _disabled_override = disabled


def cache_dir():
    """The active cache root (not necessarily created yet)."""
    if _dir_override is not None:
        return os.path.abspath(os.path.expanduser(_dir_override))
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return os.path.abspath(os.path.expanduser(env))
    return os.path.expanduser(DEFAULT_CACHE_DIR)


def enabled():
    """True when the disk layer should be consulted at all."""
    if _disabled_override is not None:
        return not _disabled_override
    return os.environ.get(ENV_CACHE_DISABLE, "") not in ("1", "true", "yes")


# -- keys ----------------------------------------------------------------


#: Packages whose source determines an entry's contents: the program
#: and its input (workloads, isa), and the trace and profile built
#: from them (emulator, profiling, branchpred).
SOURCE_PACKAGES = (
    "repro.workloads",
    "repro.isa",
    "repro.emulator",
    "repro.profiling",
    "repro.branchpred",
)


def source_digest(packages):
    """SHA-256 over the ``.py`` files of ``packages``.

    ``packages`` maps a label to a package directory; each file
    contributes its label-qualified relative path and its bytes.
    """
    digest = hashlib.sha256()
    for label, root in sorted(packages.items()):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                with open(path, "rb") as handle:
                    data = handle.read()
                relative = os.path.relpath(path, root).replace(os.sep, "/")
                digest.update(f"{label}/{relative}:{len(data)}\n".encode())
                digest.update(data)
    return digest.hexdigest()


def _package_dirs():
    return {
        name: os.path.dirname(importlib.import_module(name).__file__)
        for name in SOURCE_PACKAGES
    }


@functools.lru_cache(maxsize=None)
def _code_digest():
    """The once-per-process digest of the producing code and runtime."""
    import numpy

    runtime = f"py{sys.version_info[0]}.{sys.version_info[1]}"
    return "|".join((
        source_digest(_package_dirs()), runtime, f"numpy{numpy.__version__}",
    ))


def artifact_key(name, input_set, scale, profiler_fingerprint):
    """The key for one (benchmark, input set, scale, profiler config)."""
    material = "|".join((
        f"v{FORMAT_VERSION}",
        name,
        input_set,
        repr(scale),
        _code_digest(),
        profiler_fingerprint,
    ))
    return hashlib.sha256(material.encode()).hexdigest()


# -- load / store --------------------------------------------------------


def _entry_path(key):
    return os.path.join(cache_dir(), key + ENTRY_SUFFIX)


def load(key):
    """The cached ``(trace, profile)`` for ``key`` or ``None``.

    Corrupt or unreadable entries are removed and reported as a miss
    (plus ``cache_disk_corrupt_total``) so the caller rebuilds.
    """
    if not enabled():
        return None
    metrics = get_metrics()
    path = _entry_path(key)
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError:
        metrics.counter("cache_disk_misses_total").inc()
        return None
    try:
        entry = _decode(blob)
    except Exception as exc:
        _warn("corrupt artifact cache entry %s: %s — rebuilding",
              path, exc)
        metrics.counter("cache_disk_corrupt_total").inc()
        metrics.counter("cache_disk_misses_total").inc()
        try:
            os.remove(path)
        except OSError:
            pass
        return None
    metrics.counter("cache_disk_hits_total").inc()
    return entry


def _warn(message, *args):
    # logging loads only when a cache entry goes wrong.
    import logging

    logging.getLogger(__name__).warning(message, *args)


def store(key, trace, profile):
    """Write one entry atomically; failures are logged, never raised."""
    if not enabled():
        return None
    metrics = get_metrics()
    path = _entry_path(key)
    blob = _encode(trace, profile)
    try:
        os.makedirs(cache_dir(), exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=cache_dir(), suffix=ENTRY_SUFFIX + ".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise
    except OSError as exc:
        _warn("artifact cache write failed for %s: %s", path, exc)
        metrics.counter("cache_disk_write_errors_total").inc()
        return None
    metrics.counter("cache_disk_writes_total").inc()
    return path


def _encode(trace, profile):
    if not isinstance(trace, Trace):
        compact = Trace()
        for dyn in trace:
            compact.record(dyn.pc, dyn.next_pc, dyn.address)
        trace = compact
    pc_bytes, next_pc_bytes, address_bytes = trace.to_bytes()
    body = pickle.dumps({
        "format": FORMAT_VERSION,
        "pcs": pc_bytes,
        "next_pcs": next_pc_bytes,
        "addresses": address_bytes,
        "profile": profile,
    }, protocol=pickle.HIGHEST_PROTOCOL)
    return MAGIC + struct.pack("<I", zlib.crc32(body)) + body


def _decode(blob):
    header = len(MAGIC) + 4
    if len(blob) < header or blob[:len(MAGIC)] != MAGIC:
        raise ValueError("bad magic / truncated header")
    (crc,) = struct.unpack_from("<I", blob, len(MAGIC))
    body = blob[header:]
    if zlib.crc32(body) != crc:
        raise ValueError("checksum mismatch")
    payload = pickle.loads(body)
    if payload.get("format") != FORMAT_VERSION:
        raise ValueError(f"format version {payload.get('format')!r}")
    trace = Trace.from_bytes(
        payload["pcs"], payload["next_pcs"], payload["addresses"]
    )
    return trace, payload["profile"]


# -- maintenance ---------------------------------------------------------


def format_size(num_bytes):
    """Human-readable size: ``0 B``, ``512 B``, ``3.4 KiB``, ``1.2 MiB``."""
    if num_bytes < 1024:
        return f"{num_bytes} B"
    value = float(num_bytes)
    for unit in ("KiB", "MiB", "GiB", "TiB"):
        value /= 1024.0
        if value < 1024.0:
            return f"{value:.1f} {unit}"
    return f"{value:.1f} PiB"


def info():
    """Summary of the cache directory for ``python -m repro cache info``.

    The ``dir``/``enabled``/``entries``/``bytes``/``format_version``
    keys are a stable machine-readable contract; ``kinds`` adds
    per-kind entry/byte counts (``artifact`` entries plus any ``tmp``
    leftovers from interrupted writes).
    """
    root = cache_dir()
    entries = 0
    total_bytes = 0
    kinds = {}
    if os.path.isdir(root):
        for name in os.listdir(root):
            if name.endswith(ENTRY_SUFFIX):
                kind = "artifact"
            elif name.endswith(".tmp"):
                kind = "tmp"
            else:
                continue
            try:
                size = os.path.getsize(os.path.join(root, name))
            except OSError:
                size = 0
            bucket = kinds.setdefault(kind, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
            if kind == "artifact":
                entries += 1
                total_bytes += size
    return {
        "dir": root,
        "enabled": enabled(),
        "entries": entries,
        "bytes": total_bytes,
        "kinds": kinds,
        "format_version": FORMAT_VERSION,
    }


def clear():
    """Remove every cache entry; returns the number removed."""
    root = cache_dir()
    removed = 0
    if os.path.isdir(root):
        for name in os.listdir(root):
            if name.endswith(ENTRY_SUFFIX) or name.endswith(".tmp"):
                try:
                    os.remove(os.path.join(root, name))
                    removed += 1
                except OSError:
                    pass
    return removed
