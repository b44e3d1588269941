"""Pluggable campaign execution backends.

The scheduler (:mod:`repro.campaign.scheduler`) owns campaign *policy*
— retry budgets, backoff, quarantine, journaling — while a
:class:`Backend` owns the *mechanics* of running one cell attempt
somewhere and shipping its payload back.  The split follows the
``Pool``/``PrunPool`` shape of vusec's instrumentation-infra: the same
job stream runs locally or across machines behind one interface, on
workers that live across jobs.

Two backends ship here:

- :class:`LocalPoolBackend` — the default; up to ``jobs`` forked
  worker processes, each running many cells over a duplex pipe.  A
  worker is forked on first need and goes back to an idle list after
  each successful cell; a crash, a timeout or a failed attempt stops
  it, and the next launch forks a fresh one.  A worker's caches (the
  artifact LRU, the shared AnalysisManager, the simulator's run memo)
  warm up over the cells it runs, so a later cell of the same trace
  finds its baseline run in the memo;
- :class:`ShardedBackend` — a :class:`LocalPoolBackend` that *owns*
  only the cells whose content-hashed ID lands in its shard
  (``int(cell_id, 16) % shards == shard_index``).  N machines each run
  one shard of the same spec into their own shard journal
  (``journal.shard-I-of-N.jsonl``) and :func:`merge_journals`
  recombines them into the single ``journal.jsonl`` a single-box run
  would have produced — ``campaign report`` over the merged journal is
  byte-identical to the unsharded report, because the report renders
  only from (spec, results) and shard ownership is a pure partition of
  the cell-ID space.

A backend implements:

``owns(cell)``
    Does this backend instance execute this cell?  The scheduler skips
    cells it does not own (they are some other shard's work, not gaps).
``launch(fn, cell, attempt, trace=None)``
    Start one attempt (``trace`` is the optional distributed-trace
    propagation payload) on an idle worker, or a freshly forked one;
    returns a :class:`WorkerHandle`.  Workers inherit the environment,
    :envvar:`REPRO_SIM_ENGINE` included, so cells simulate with the
    engine the campaign process selected.
``wait(handles, timeout)``
    Block up to ``timeout`` seconds; return the handles with a result
    ready (liveness/timeout sweeps stay in the scheduler).
``collect(handle, retire=False)``
    Reap one finished/killed attempt and return the worker payload
    dict (or ``None`` for a crash, or when ``retire`` drops it).  The
    worker goes back to the idle list after a successful payload;
    otherwise (or with ``retire``) it is terminated and joined.
``alive(handle)`` / ``terminate(handles)``
    Liveness probe and end-of-run cleanup: ``terminate`` kills the
    given in-flight attempts, stops every idle worker and joins them
    all, so no worker outlives :meth:`Scheduler.run
    <repro.campaign.scheduler.Scheduler.run>`.
"""

import multiprocessing
import time
from multiprocessing.connection import wait as connection_wait

from repro.campaign.journal import JOURNAL_NAME
from repro.obs import tracectx
from repro.obs.context import run_fresh
from repro.obs.spans import span

#: Registered backend names (see :func:`make_backend`).
BACKENDS = ("local", "sharded")


def cell_usage(since=None):
    """CPU time and peak RSS of this worker process, for the journal.

    ``since`` is an earlier ``cell_usage()`` of the same process: the
    CPU seconds are then the difference across the cell, not the
    worker's running total.  ``max_rss_kb`` is always the worker's
    high-water mark, which covers every cell the worker ran so far.
    Returns None on platforms without :mod:`resource`.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover — POSIX-only module
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    user, system = usage.ru_utime, usage.ru_stime
    if since is not None:
        user -= since["user_seconds"]
        system -= since["system_seconds"]
    return {
        "user_seconds": round(user, 6),
        "system_seconds": round(system, 6),
        "max_rss_kb": int(usage.ru_maxrss),
    }


def _cell(fn, params):
    with span("cell"):
        return fn(params)


def _attempt(fn, params, trace):
    """Run one cell under fresh telemetry; returns its payload dict."""
    ctx = tracectx.TraceContext.from_propagation(
        trace, service="campaign-worker"
    )
    start = cell_usage()
    try:
        with tracectx.activate(ctx):
            result, snapshot = run_fresh(_cell, fn, params)
    except BaseException as exc:  # noqa: BLE001 — must reach the parent
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    return {
        "ok": True,
        "result": result,
        "telemetry": snapshot,
        "resources": cell_usage(since=start),
    }


def cell_worker(conn, fn, params, trace=None):
    """Run cells under fresh telemetry; ship each outcome over the pipe.

    The first cell comes from the fork arguments; every later one is a
    ``(params, trace)`` message on ``conn``, until EOF or ``None``.
    Each cell runs inside a ``cell`` span, so its stages nest under it
    exactly as in an engine worker, and its telemetry snapshot
    (:func:`~repro.obs.context.run_fresh`) rides in the payload.
    ``trace`` is an optional distributed-trace propagation payload
    (:meth:`~repro.obs.tracectx.TraceContext.propagation`); when
    present that span is parented to the scheduler's campaign span and
    spooled to the shared trace directory — so a 2-shard run merges
    into one cross-process timeline.  When absent (tracing off) nothing
    is spooled and the journal stays byte-identical.  A failed attempt
    ends the worker: the parent retires it.
    """
    import signal

    # Forked workers inherit the CLI's graceful-exit SIGTERM handler;
    # restore the default so a terminate() kills the worker silently
    # instead of raising through conn.send.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        while True:
            payload = _attempt(fn, params, trace)
            conn.send(payload)
            if not payload["ok"]:
                break
            message = conn.recv()
            if message is None:
                break
            params, trace = message
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # the parent went away or was interrupted; it reaps us
    finally:
        conn.close()


class WorkerHandle:
    """One cell attempt on one live worker process."""

    __slots__ = ("cell", "attempt", "process", "conn", "started")

    def __init__(self, cell, attempt, process, conn):
        self.cell = cell
        self.attempt = attempt
        self.process = process
        self.conn = conn
        self.started = time.monotonic()


def _stop(process, conn):
    """Terminate (if still running) and join one worker."""
    if process.is_alive():
        process.terminate()
    process.join()
    conn.close()


class LocalPoolBackend:
    """Reused forked workers on this machine (the default).

    The fork context buys crash isolation and hard timeout enforcement
    (a stuck worker is terminated, not abandoned); keeping a worker
    across cells saves the fork, and lets its caches serve the cells
    after its first.
    """

    name = "local"

    def __init__(self):
        self._ctx = multiprocessing.get_context("fork")
        #: ``(process, conn)`` of the workers waiting for a cell.
        self._idle = []

    def owns(self, cell):
        return True

    def journal_name(self):
        """The journal file this backend writes inside a campaign dir."""
        return JOURNAL_NAME

    def launch(self, fn, cell, attempt, trace=None):
        while self._idle:
            process, conn = self._idle.pop()
            try:
                if process.is_alive():
                    conn.send((cell.params, trace))
                    return WorkerHandle(cell, attempt, process, conn)
            except OSError:
                pass  # died while idle: fall through to a fresh fork
            _stop(process, conn)
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=cell_worker,
            args=(child_conn, fn, cell.params, trace),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return WorkerHandle(cell, attempt, process, parent_conn)

    def wait(self, handles, timeout):
        """Handles with a result payload ready, waiting up to timeout."""
        by_conn = {handle.conn: handle for handle in handles}
        ready = connection_wait(list(by_conn), timeout=timeout)
        return [by_conn[conn] for conn in ready]

    def alive(self, handle):
        return handle.process.is_alive()

    def collect(self, handle, retire=False):
        """Reap one attempt; returns its payload dict or ``None``.

        ``None`` means the worker died without shipping a payload (hard
        crash) — the scheduler classifies that via the exit code — or
        that ``retire`` (a blown timeout) dropped it.  A worker that
        shipped a successful payload goes back to the idle list; any
        other is stopped.
        """
        payload = None
        try:
            if not retire and handle.conn.poll():
                payload = handle.conn.recv()
        except (EOFError, OSError):
            pass  # died mid-send: a crash
        finally:
            if payload is not None and payload.get("ok") \
                    and handle.process.is_alive():
                self._idle.append((handle.process, handle.conn))
            else:
                _stop(handle.process, handle.conn)
        return payload

    def exitcode(self, handle):
        return handle.process.exitcode

    def terminate(self, handles):
        """Kill ``handles``' in-flight attempts, stop every idle worker,
        and join them all."""
        workers = [(handle.process, handle.conn) for handle in handles]
        for process, _ in workers:
            if process.is_alive():
                process.terminate()
        for _, conn in self._idle:
            # A clean exit, unlike SIGTERM, flushes the worker's stdio.
            try:
                conn.send(None)
            except OSError:
                pass  # already gone
        workers += self._idle
        self._idle = []
        for process, conn in workers:
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join()
            conn.close()


def shard_of(cell_id, shards):
    """The shard index a content-hashed cell ID belongs to.

    Pure function of the cell ID, so every machine computes the same
    partition without coordination — the same property that makes the
    journal's resume protocol location-independent.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return int(cell_id, 16) % shards


def shard_journal_name(index, count):
    """``journal.shard-I-of-N.jsonl`` inside a campaign directory."""
    return f"journal.shard-{index}-of-{count}.jsonl"


class ShardedBackend(LocalPoolBackend):
    """Run only this shard's partition of the spec's cells.

    ``shards`` machines each run ``ShardedBackend(shards, i)`` for
    their own ``i`` against the same spec; the partition is disjoint
    and complete by construction, so the union of the shard journals
    covers every cell exactly once.  Use :func:`merge_journals` (the
    ``campaign merge`` subcommand) to recombine.
    """

    name = "sharded"

    def __init__(self, shards, shard_index):
        super().__init__()
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if not 0 <= shard_index < shards:
            raise ValueError(
                f"shard index {shard_index} out of range for "
                f"{shards} shard(s)"
            )
        self.shards = shards
        self.shard_index = shard_index

    def owns(self, cell):
        return shard_of(cell.cell_id, self.shards) == self.shard_index

    def journal_name(self):
        return shard_journal_name(self.shard_index, self.shards)


def make_backend(name, shards=None, shard_index=None):
    """Build a backend by registered name (see :data:`BACKENDS`)."""
    if name == "local":
        return LocalPoolBackend()
    if name == "sharded":
        if shards is None or shard_index is None:
            raise ValueError(
                "sharded backend needs shards and shard_index"
            )
        return ShardedBackend(shards, shard_index)
    raise ValueError(
        f"unknown backend {name!r} (choose from {', '.join(BACKENDS)})"
    )
