"""The parallel experiment-execution engine (plan → execute → gather).

Every figure/table driver decomposes into independent *cells* — one
(benchmark, input set, configuration) simulation each.  A driver
*plans* by building a list of :class:`Job` objects around a
module-level cell function, *executes* them with :func:`execute`, and
*gathers* the results, which come back *in plan order* regardless of
completion order — so parallel runs are bit-identical to serial ones
by construction.

``jobs=1`` (the library default) runs the cells inline in the calling
process: no pool, no pickling, identical to the historical serial
path.  ``jobs>1`` fans out over a :class:`ProcessPoolExecutor`.  Each
worker job runs under fresh telemetry
(:func:`~repro.obs.context.run_isolated`); its snapshot travels back
with the result and is merged into the parent's active bundle in plan
order, so ``--metrics`` output and run manifests account for work done
in workers exactly as if it had run inline.

Workers are forked (the POSIX default), so they inherit the parent's
warm in-memory caches and any artifact-cache overrides; per-worker
cache reuse across that worker's jobs comes for free from the module
state in :mod:`repro.experiments.runner`.  Simulation is
deterministic, so plan-order gathering keeps parallel runs
reproducible.

Cell functions must be module-level (picklable) and depend only on
their arguments — which the experiment pipeline already guarantees:
artifact building and simulation are deterministic functions of
(benchmark, input set, scale, config).
"""

import os

from repro.obs import tracectx
from repro.obs.context import active, run_isolated
from repro.obs.spans import span


class JobError(RuntimeError):
    """A planned job failed in a worker.

    Carries the failing :attr:`Job.label` so a sweep that dies at cell
    400/500 says *which* cell, not just what the worker raised; the
    original exception is chained as ``__cause__``.
    """

    def __init__(self, label, cause):
        super().__init__(f"job {label!r} failed: {cause}")
        self.label = label


class Job:
    """One unit of work: a picklable callable plus its arguments."""

    __slots__ = ("fn", "args", "label")

    def __init__(self, fn, *args, label=None):
        self.fn = fn
        self.args = args
        self.label = label if label is not None else getattr(
            fn, "__name__", "job"
        )

    def run(self):
        return self.fn(*self.args)

    def __repr__(self):
        return f"Job({self.label}, args={self.args!r})"


def default_jobs():
    """The CLI default for ``--jobs``: one per available CPU."""
    return os.cpu_count() or 1


def resolve_jobs(jobs):
    """Normalize a ``jobs`` argument: ``None`` means serial (1)."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _cell(fn, args, attrs):
    with span("cell", attrs=attrs):
        return fn(*args)


def _run_job(fn, args, trace=None, label=None):
    """Worker-side wrapper: ``(result, telemetry snapshot)`` of one job.

    ``trace`` is an optional distributed-trace propagation payload
    (:meth:`~repro.obs.tracectx.TraceContext.propagation`): when
    present the job's ``cell`` span — and everything nested inside it —
    lands in the shared trace spool, parented to the span that was
    active in the parent when the plan was submitted.
    """
    ctx = tracectx.TraceContext.from_propagation(
        trace, service="exec-worker"
    )
    with tracectx.activate(ctx):
        return run_isolated(_cell, fn, args, {"job": label} if label else None)


def execute(jobs_list, jobs=None):
    """Run a planned list of :class:`Job` objects; gather in plan order.

    Returns the list of job results, ordered like ``jobs_list``.  With
    ``jobs`` <= 1 (or fewer than two jobs) everything runs inline under
    the caller's telemetry; otherwise a process pool of ``jobs``
    workers is used and worker telemetry snapshots are merged into the
    active registry/span tree, also in plan order.

    A failing job raises in the parent either way; on the pool path it
    is wrapped in :class:`JobError` with the failing job's label, the
    outstanding futures are cancelled so the pool drains instead of
    running the rest of the plan to completion, and *no* worker
    telemetry is merged — snapshots are folded into the parent's
    registry/span tree only once every job has succeeded, so ``--metrics``
    output never reports a half-gathered plan.
    """
    planned = list(jobs_list)
    workers = resolve_jobs(jobs)
    if workers <= 1 or len(planned) <= 1:
        results = []
        for job in planned:
            # Same ``cell`` span as the worker path, so serial and
            # parallel runs produce structurally identical span trees
            # (and spool one ``cell`` record per job under ``--trace-dir``).
            with span("cell", attrs={"job": job.label}):
                results.append(job.run())
        return results

    from concurrent.futures import ProcessPoolExecutor

    bundle = active()
    ctx = tracectx.current()
    trace = ctx.propagation() if ctx is not None else None
    payloads = []
    max_workers = min(workers, len(planned))
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = [
            pool.submit(_run_job, job.fn, job.args, trace, job.label)
            for job in planned
        ]
        try:
            for job, future in zip(planned, futures):
                try:
                    payloads.append(future.result())
                except Exception as exc:
                    raise JobError(job.label, exc) from exc
        except BaseException:
            for future in futures:
                future.cancel()
            raise
    results = []
    for result, snapshot in payloads:
        bundle.merge(snapshot)
        results.append(result)
    return results


def execute_starmap(fn, argtuples, jobs=None):
    """Shorthand: plan one :class:`Job` per argument tuple and execute."""
    return execute([Job(fn, *args) for args in argtuples], jobs=jobs)
