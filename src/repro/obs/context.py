"""The active telemetry context.

Experiment harnesses call deep into the stack (CLI → experiments →
runner → simulator), so telemetry is threaded implicitly: every
instrumented constructor defaults its ``tracer``/``metrics`` argument
to the *active* context here, and the CLI swaps a real tracer and a
fresh registry in with :func:`telemetry` for the duration of a run.

The defaults are a :data:`~repro.obs.tracer.NULL_TRACER` (tracing off,
one attribute check per guarded site) and a process-wide
:class:`~repro.obs.metrics.MetricsRegistry` (always on — counters are
cheap), plus a process-wide :class:`~repro.obs.spans.SpanTree`.
Explicit ``tracer=``/``metrics=`` constructor arguments win over the
context; :func:`~repro.obs.spans.span` always records into it.
"""

from contextlib import contextmanager

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTree
from repro.obs.tracer import NULL_TRACER


class Telemetry:
    """One bundle of tracer + metrics registry + span tree."""

    __slots__ = ("tracer", "metrics", "spans")

    def __init__(self, tracer=None, metrics=None, spans=None):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans = spans if spans is not None else SpanTree()


_ACTIVE = Telemetry()


def active():
    """The currently active :class:`Telemetry` bundle."""
    return _ACTIVE


def get_tracer():
    return _ACTIVE.tracer


def get_metrics():
    return _ACTIVE.metrics


def get_spans():
    return _ACTIVE.spans


@contextmanager
def telemetry(tracer=None, metrics=None, spans=None):
    """Install a telemetry bundle for the duration of the block.

    Omitted pieces are inherited from the surrounding context (not
    reset), so ``with telemetry(tracer=t):`` keeps the active registry.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = Telemetry(
        tracer=tracer if tracer is not None else previous.tracer,
        metrics=metrics if metrics is not None else previous.metrics,
        spans=spans if spans is not None else previous.spans,
    )
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
