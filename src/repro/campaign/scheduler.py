"""The fault-tolerant campaign scheduler.

The scheduler owns campaign *policy* — launch order, retry budgets,
backoff, quarantine, journaling — and delegates the *mechanics* of
running a cell attempt to a pluggable execution backend
(:mod:`repro.campaign.backends`).  Under the default
:class:`~repro.campaign.backends.LocalPoolBackend`, cells run in up to
``jobs`` forked worker processes that each serve many cells, which
buys three properties the plain
:class:`~concurrent.futures.ProcessPoolExecutor` cannot offer:

- **timeout enforcement** — a cell that exceeds its budget has its
  worker terminated, not merely abandoned;
- **crash isolation** — a worker that dies (segfault, ``os._exit``,
  OOM-kill) fails only its own cell; the scheduler keeps draining the
  rest of the sweep on freshly forked workers;
- **bounded retry + quarantine** — a failed cell is retried with
  exponential backoff up to ``max_attempts`` total attempts, then
  quarantined: journaled as an explicit gap that the report renders as
  such instead of the whole sweep dying at cell 400/500.  A cell that
  raised a :class:`~repro.errors.ReproError` (rejected inputs) fails
  the same way again, so its first failure quarantines it.

A crashed, timed-out or failed attempt retires its worker, so a retry
always starts in a fresh process.  Every transition is journaled
*before* the next action is taken, so a ``kill -9`` of the scheduler
itself loses at most the in-flight cells, which replay as pending.
Successful workers ship their telemetry snapshot back over the pipe
and the parent merges it into the active bundle (completion order),
alongside the campaign's own
``campaign_cells_{completed,retried,quarantined}_total`` counters and
``campaign.cell.*`` trace events.  :meth:`Scheduler.run` stops and
joins every worker before it returns, on every path, so their CPU time
lands in the parent's reaped-children usage and no process outlives
the run.
"""

import heapq
import time

from repro.campaign.backends import LocalPoolBackend
from repro.campaign.spec import resolve_cell_fn
from repro.obs import events, tracectx
from repro.obs.context import active, get_metrics, get_tracer

#: Total attempts (first try + retries) before a cell is quarantined.
DEFAULT_MAX_ATTEMPTS = 3

#: First-retry backoff in seconds; doubles per subsequent attempt.
DEFAULT_BACKOFF = 0.5

#: How long the scheduler sleeps waiting for worker events.
_POLL_SECONDS = 0.05


def _analysis_cache_stats(metrics_snapshot):
    """Per-cell analysis-cache counters, for the journal's reuse view."""

    def value(name):
        entry = metrics_snapshot.get(name)
        return int(entry["value"]) if entry else 0

    return {
        "analysis_hits": value("analysis_cache_hits_total"),
        "analysis_misses": value("analysis_cache_misses_total"),
    }


class Scheduler:
    """Drains a campaign's pending cells through an execution backend."""

    def __init__(self, spec, journal, jobs=1,
                 max_attempts=DEFAULT_MAX_ATTEMPTS,
                 backoff=DEFAULT_BACKOFF, cell_timeout=None,
                 backend=None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.spec = spec
        self.journal = journal
        self.jobs = jobs
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.cell_timeout = cell_timeout
        #: Execution backend (see :mod:`repro.campaign.backends`);
        #: the default is the local pool of reused forked workers.
        self.backend = backend if backend is not None \
            else LocalPoolBackend()
        self._fn = resolve_cell_fn(spec.cell)

    def run(self, state, max_cells=None):
        """Drain pending cells; returns a summary dict.

        ``state`` is the replayed :class:`~repro.campaign.journal.JournalState`
        (fresh campaigns pass an empty one); completed and quarantined
        cells are skipped, and prior failed attempts count toward the
        quarantine budget.  Cells the backend does not own (other
        shards' work) are skipped entirely — they are neither run nor
        counted as pending.  ``max_cells`` stops after that many cell
        completions this session (the deterministic stand-in for an
        interrupted run, used by tests and the CI smoke job).
        """
        pending = [
            cell for cell in state.pending_cells(self.spec)
            if self.backend.owns(cell)
        ]
        failures = dict(state.failures)
        results = dict(state.results)
        quarantined = set(state.quarantined)
        queue = list(pending)
        queue.reverse()  # pop() from the end == spec order
        retries = []     # heap of (ready_at, seq, cell)
        running = {}     # cell_id -> _Attempt
        session_completed = 0
        interrupted = False
        seq = 0

        def launch_allowed():
            if max_cells is None:
                return True
            return session_completed + len(running) < max_cells

        try:
            while queue or retries or running:
                now = time.monotonic()
                while retries and retries[0][0] <= now:
                    _, _, cell = heapq.heappop(retries)
                    queue.append(cell)
                while (queue and len(running) < self.jobs
                       and launch_allowed()):
                    cell = queue.pop()
                    attempt = failures.get(cell.cell_id, 0) + 1
                    running[cell.cell_id] = self._launch(cell, attempt)
                if not running:
                    if max_cells is not None \
                            and session_completed >= max_cells \
                            and (queue or retries):
                        interrupted = True
                        break
                    if queue:
                        continue
                    if retries:
                        time.sleep(
                            min(_POLL_SECONDS,
                                max(0.0, retries[0][0] - now))
                        )
                        continue
                    break
                for task in self._reap(running):
                    # Unsettled attempts stay in ``running``, so an
                    # exception while settling this one still
                    # terminates their workers.
                    del running[task.cell.cell_id]
                    outcome = self._settle(task)
                    if outcome["ok"]:
                        results[task.cell.cell_id] = outcome["result"]
                        session_completed += 1
                        continue
                    failures[task.cell.cell_id] = task.attempt
                    if outcome["deterministic"] \
                            or task.attempt >= self.max_attempts:
                        self._quarantine(task)
                        quarantined.add(task.cell.cell_id)
                    else:
                        get_metrics().counter(
                            "campaign_cells_retried_total"
                        ).inc()
                        delay = self.backoff * (2 ** (task.attempt - 1))
                        seq += 1
                        heapq.heappush(
                            retries,
                            (time.monotonic() + delay, seq, task.cell),
                        )
        except BaseException:
            interrupted = True
            raise
        finally:
            self.backend.terminate(running.values())
        return {
            "results": results,
            "failures": failures,
            "quarantined": quarantined,
            "session_completed": session_completed,
            "pending": len(queue) + len(retries),
            "interrupted": interrupted or bool(queue or retries),
        }

    # -- internals ----------------------------------------------------

    def _launch(self, cell, attempt):
        self.journal.cell_start(cell.cell_id, attempt)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(events.CampaignCellStart(
                campaign=self.spec.name, cell_id=cell.cell_id,
                label=cell.label(), attempt=attempt,
            ))
        ctx = tracectx.current()
        trace = None
        if ctx is not None:
            trace = ctx.propagation(
                attrs={"cell_id": cell.cell_id, "attempt": attempt}
            )
        return self.backend.launch(self._fn, cell, attempt, trace=trace)

    def _reap(self, running):
        """Attempts that finished, crashed, or timed out this tick."""
        done = self.backend.wait(running.values(), _POLL_SECONDS)
        now = time.monotonic()
        for task in running.values():
            if task in done:
                continue
            timed_out = (self.cell_timeout is not None
                         and now - task.started > self.cell_timeout)
            if timed_out or not self.backend.alive(task):
                done.append(task)
        return done

    def _settle(self, task):
        """Classify one finished attempt; journal and count it."""
        elapsed = time.monotonic() - task.started
        timed_out = (self.cell_timeout is not None
                     and elapsed > self.cell_timeout
                     and self.backend.alive(task))
        # A blown budget while the worker still ran retires it; any
        # payload it raced in on the way down is discarded.
        payload = self.backend.collect(task, retire=timed_out)

        cell_id = task.cell.cell_id
        if payload is not None and payload.get("ok"):
            snapshot = payload["telemetry"]
            active().merge(snapshot)
            result = payload["result"]
            # The ledger summary is a journal *annotation* (like the
            # cache counters), not part of the deterministic report
            # payload — pop it so resumed and fresh runs journal
            # byte-identical results.
            extras = result if isinstance(result, dict) else {}
            ledger_summary = extras.pop("ledger", None)
            self.journal.cell_finish(
                cell_id, task.attempt, elapsed, result,
                cache=_analysis_cache_stats(snapshot["metrics"]),
                ledger=ledger_summary,
                resources=payload.get("resources"),
            )
            get_metrics().counter("campaign_cells_completed_total").inc()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.emit(events.CampaignCellEnd(
                    campaign=self.spec.name, cell_id=cell_id,
                    attempt=task.attempt, seconds=elapsed,
                ))
            return {"ok": True, "result": payload["result"]}

        if timed_out:
            kind, error = "timeout", (
                f"cell exceeded {self.cell_timeout}s budget"
            )
        elif payload is not None:
            kind, error = "exception", payload.get("error", "unknown")
        else:
            kind, error = "crash", (
                f"worker died with exit code "
                f"{self.backend.exitcode(task)}"
            )
        self.journal.cell_fail(cell_id, task.attempt, kind, error, elapsed)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(events.CampaignCellFail(
                campaign=self.spec.name, cell_id=cell_id,
                attempt=task.attempt, kind=kind, error=error,
            ))
        return {"ok": False, "kind": kind, "error": error,
                "deterministic": kind == "exception"
                and payload.get("deterministic", False)}

    def _quarantine(self, task):
        self.journal.cell_quarantine(task.cell.cell_id, task.attempt)
        get_metrics().counter("campaign_cells_quarantined_total").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(events.CampaignCellQuarantined(
                campaign=self.spec.name, cell_id=task.cell.cell_id,
                attempts=task.attempt,
            ))
