"""Reproduction of "Profile-assisted Compiler Support for Dynamic
Predication in Diverge-Merge Processors" (Kim, Joao, Mutlu, Patt — CGO 2007).

The package is organized bottom-up:

- :mod:`repro.isa` — a small RISC instruction set, programs, and an assembler.
- :mod:`repro.emulator` — functional (ISA-level) execution and tracing.
- :mod:`repro.cfg` — control-flow graphs, dominators, loops, path enumeration.
- :mod:`repro.branchpred` — branch predictors and the JRS confidence estimator.
- :mod:`repro.memory` — the cache hierarchy.
- :mod:`repro.profiling` — edge / branch-misprediction / loop profiling.
- :mod:`repro.uarch` — the cycle-level baseline and DMP timing simulator.
- :mod:`repro.core` — the paper's contribution: diverge-branch selection
  algorithms (Alg-exact, Alg-freq, short hammocks, return CFMs, diverge
  loops), the analytical cost-benefit model, and simple baseline algorithms.
- :mod:`repro.workloads` — the synthetic SPEC-like benchmark suite.
- :mod:`repro.experiments` — harnesses regenerating every paper table/figure.
- :mod:`repro.obs` — telemetry: metrics registry, structured event
  tracing, timed spans, and run manifests (docs/observability.md).
"""

from repro._version import __version__

__all__ = ["__version__"]
