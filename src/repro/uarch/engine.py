"""Simulation-engine selection (scalar vs vectorized batch replay).

One switch, the :envvar:`REPRO_SIM_ENGINE` environment variable, picks
the engine for every consumer — the experiment runner, campaigns,
``explain``/``profile``, the serving daemon, tests — all of which build
simulators through :func:`make_simulator`:

- unset or ``auto`` picks the vectorized engine whenever
  :func:`repro.uarch.vectorized.supports` says the replay is
  bit-identical for this (program, config); otherwise it silently
  falls back to the scalar engine;
- ``scalar`` always replays one trace row at a time;
- ``vectorized`` on an unsupported program raises
  :class:`~repro.errors.SimulationError`, as does any other value.

Forked figure workers, campaign cells and the daemon's request threads
inherit the environment, so no layer passes the choice along.  Both
engines produce bit-identical :class:`~repro.uarch.stats.SimStats`
(and ledger counters and trace events), so engine choice is purely a
throughput knob and is deliberately *not* part of any cache or cell
identity.
"""

import os

from repro.errors import SimulationError
from repro.uarch.config import ProcessorConfig
from repro.uarch.simulator import TimingSimulator
from repro.uarch.vectorized import VectorizedTimingSimulator, supports

#: Recognized engine names.
ENGINES = ("auto", "scalar", "vectorized")

#: The environment variable that selects the engine (same values).
ENV_SIM_ENGINE = "REPRO_SIM_ENGINE"


def requested_engine():
    """The engine :envvar:`REPRO_SIM_ENGINE` asks for (unset: ``auto``).

    Raises :class:`SimulationError` naming the allowed values for any
    other setting, so a typo cannot silently fall back to ``auto``.
    """
    requested = os.environ.get(ENV_SIM_ENGINE, "").strip().lower() \
        or "auto"
    if requested not in ENGINES:
        raise SimulationError(
            f"unknown sim engine {requested!r} in ${ENV_SIM_ENGINE} "
            f"(choose from {', '.join(ENGINES)})"
        )
    return requested


def resolve_engine(program, config=None):
    """Resolve the effective engine name (``"scalar"``/``"vectorized"``).

    Raises :class:`SimulationError` for an unknown name, or when
    ``vectorized`` is requested but unsupported for this
    (program, config).
    """
    requested = requested_engine()
    if requested == "scalar":
        return "scalar"
    ok, reason = supports(program, config or ProcessorConfig())
    if ok:
        return "vectorized"
    if requested == "vectorized":
        raise SimulationError(
            f"vectorized sim engine unavailable: {reason}"
        )
    return "scalar"


def make_simulator(program, config=None, annotation=None, **kwargs):
    """Build a simulator with the engine :func:`resolve_engine` picks.

    ``kwargs`` are forwarded to the simulator constructor
    (``collect_per_branch``, ``tracer``, ``metrics``, ``ledger``,
    ``profiler`` — plus ``window_size`` for the vectorized engine).
    """
    if resolve_engine(program, config) == "vectorized":
        cls = VectorizedTimingSimulator
    else:
        cls = TimingSimulator
    return cls(program, config=config, annotation=annotation, **kwargs)
