"""The metrics registry: counters, gauges, and fixed-bucket histograms.

All instruments are cheap enough to stay always-on: a counter
increment is one attribute add, a histogram observation one bisect
over a short tuple.  Per-*instruction* work still belongs outside the
registry — the simulator aggregates into :class:`SimStats` in its hot
loop and folds the totals in here once per run.

Instruments are owned by a :class:`MetricsRegistry` and looked up by
name; repeated lookups return the same instrument, so call sites never
need to coordinate creation.  :meth:`MetricsRegistry.as_dict` takes a
JSON-ready snapshot (the run manifest embeds one), and
:meth:`MetricsRegistry.write_json` dumps it to disk for
``python -m repro ... --metrics OUT.json``.
"""

import json
import threading
from bisect import bisect_left

from repro.ioutil import ensure_parent


class Counter:
    """A monotonically increasing value (int or float)."""

    __slots__ = ("name", "help", "value", "_lock")

    kind = "counter"

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self.value = 0
        self._lock = threading.RLock()

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self.value += amount

    def as_dict(self):
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("name", "help", "value", "_lock")

    kind = "gauge"

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self.value = 0.0
        self._lock = threading.RLock()

    def set(self, value):
        with self._lock:
            self.value = value

    def inc(self, amount=1):
        with self._lock:
            self.value += amount

    def as_dict(self):
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket histogram with inclusive upper bounds.

    ``buckets`` is an increasing sequence of upper bounds; a value
    lands in the first bucket whose bound is >= the value (so a value
    exactly equal to a bound counts in that bound's bucket), and values
    above the last bound land in the overflow bucket.
    """

    __slots__ = ("name", "help", "bounds", "counts", "overflow",
                 "total", "sum", "_lock")

    kind = "histogram"

    def __init__(self, name, buckets, help=""):
        bounds = tuple(buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(
                f"histogram {name} buckets must be strictly increasing"
            )
        self.name = name
        self.help = help
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.overflow = 0
        self.total = 0
        self.sum = 0.0
        self._lock = threading.RLock()

    def observe(self, value):
        index = bisect_left(self.bounds, value)
        with self._lock:
            if index == len(self.bounds):
                self.overflow += 1
            else:
                self.counts[index] += 1
            self.total += 1
            self.sum += value

    @property
    def mean(self):
        if self.total == 0:
            return 0.0
        return self.sum / self.total

    def quantile(self, q):
        """Upper-bound estimate of the q-th quantile (0 <= q <= 1).

        Returns the inclusive upper bound of the bucket containing the
        q-th observation, ``float('inf')`` when it falls in the
        overflow bucket, and ``None`` for an empty histogram.  Bucket
        resolution bounds the error — good enough for the latency
        summaries ``/healthz`` and the benchmarks report.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            return None
        rank = q * self.total
        cumulative = 0
        for bound, count in zip(self.bounds, self.counts):
            cumulative += count
            if cumulative >= rank:
                return bound
        return float("inf")

    def as_dict(self):
        return {
            "kind": self.kind,
            "buckets": {
                str(bound): count
                for bound, count in zip(self.bounds, self.counts)
            },
            "overflow": self.overflow,
            "count": self.total,
            "sum": self.sum,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Named instruments, created on first lookup.

    Asking for an existing name with a different instrument kind (or
    different histogram buckets) is a programming error and raises.

    Explicitly thread-safe: one reentrant registry lock guards
    instrument creation, snapshotting, merging, and rendering, and
    every instrument the registry creates *shares* that lock for its
    own mutations — so concurrent serve-daemon request threads can
    increment counters while another thread renders ``/metrics``
    without torn reads, by design rather than by GIL accident.
    """

    def __init__(self):
        self._instruments = {}
        self._lock = threading.RLock()

    def counter(self, name, help=""):
        return self._get_or_create(name, Counter, help=help)

    def gauge(self, name, help=""):
        return self._get_or_create(name, Gauge, help=help)

    def histogram(self, name, buckets, help=""):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = Histogram(name, buckets, help=help)
                instrument._lock = self._lock
                self._instruments[name] = instrument
                return instrument
        if not isinstance(instrument, Histogram):
            raise TypeError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        if instrument.bounds != tuple(buckets):
            raise ValueError(
                f"histogram {name!r} already registered with different "
                f"buckets"
            )
        return instrument

    def _get_or_create(self, name, cls, help=""):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, help=help)
                instrument._lock = self._lock
                self._instruments[name] = instrument
                return instrument
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def get(self, name):
        """The instrument registered under ``name`` or ``None``."""
        return self._instruments.get(name)

    def names(self):
        return sorted(self._instruments)

    def as_dict(self):
        """JSON-ready snapshot of every instrument, sorted by name."""
        with self._lock:
            return {
                name: self._instruments[name].as_dict()
                for name in sorted(self._instruments)
            }

    def merge_snapshot(self, snapshot, helps=None):
        """Fold another registry's :meth:`as_dict` snapshot into this one.

        The parallel experiment engine runs jobs in worker processes,
        each under its own registry; the parent merges the returned
        snapshots so ``--metrics`` output and manifests reflect the
        whole run.  Counters add; gauges take the snapshot's value
        (last write wins, so merging in job order reproduces the serial
        result); histograms add bucket counts (creating the histogram
        here with the snapshot's bounds when absent).  ``helps`` maps
        names to the help texts of the instruments a merge creates
        (snapshots carry none).  Returns ``self`` for chaining.
        """
        helps = helps or {}
        with self._lock:
            for name, entry in snapshot.items():
                kind = entry.get("kind")
                help = helps.get(name, "")
                if kind == "counter":
                    self.counter(name, help).inc(entry.get("value", 0))
                elif kind == "gauge":
                    self.gauge(name, help).set(entry.get("value", 0))
                elif kind == "histogram":
                    buckets = entry.get("buckets", {})
                    bounds = tuple(
                        float(b) if "." in b else int(b) for b in buckets
                    )
                    histogram = self.histogram(name, bounds or (1,), help)
                    for index, count in enumerate(buckets.values()):
                        histogram.counts[index] += count
                    histogram.overflow += entry.get("overflow", 0)
                    histogram.total += entry.get("count", 0)
                    histogram.sum += entry.get("sum", 0.0)
                else:
                    raise ValueError(
                        f"snapshot entry {name!r} has unknown kind "
                        f"{kind!r}"
                    )
        return self

    def write_json(self, path):
        """Dump :meth:`as_dict` to ``path``; returns the path."""
        ensure_parent(path)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def render_openmetrics(self):
        """The registry as OpenMetrics text exposition.

        Counter names follow the registry's ``*_total`` convention; the
        family name drops the suffix and the sample restores it, so a
        scraper and :func:`parse_openmetrics` both see the registry
        name.  Histogram buckets are cumulative with inclusive upper
        bounds rendered as ``le=`` labels, plus the ``+Inf`` bucket,
        ``_count`` and ``_sum`` samples.  Ends with ``# EOF``.
        """
        with self._lock:
            return self._render_openmetrics_locked()

    def _render_openmetrics_locked(self):
        lines = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            kind = instrument.kind
            if kind == "counter":
                family = (
                    name[: -len("_total")]
                    if name.endswith("_total") else name
                )
            else:
                family = name
            lines.append(f"# TYPE {family} {kind}")
            if instrument.help:
                lines.append(
                    f"# HELP {family} {escape_help(instrument.help)}"
                )
            if kind == "counter":
                lines.append(f"{family}_total {instrument.value}")
            elif kind == "gauge":
                lines.append(f"{family} {instrument.value}")
            else:
                cumulative = 0
                for bound, count in zip(instrument.bounds,
                                        instrument.counts):
                    cumulative += count
                    lines.append(
                        f'{family}_bucket{{le="{bound}"}} {cumulative}'
                    )
                lines.append(
                    f'{family}_bucket{{le="+Inf"}} {instrument.total}'
                )
                lines.append(f"{family}_count {instrument.total}")
                lines.append(f"{family}_sum {instrument.sum}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def write_openmetrics(self, path):
        """Dump :meth:`render_openmetrics` to ``path``; returns the path."""
        ensure_parent(path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render_openmetrics())
        return path


def escape_help(text):
    """Escape a HELP string for the text exposition format.

    Backslashes and newlines must be escaped (``\\\\`` and ``\\n``) so a
    multi-line help string cannot break the line-oriented format —
    the OpenMetrics escaping rules for label values and help text.
    """
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def escape_label_value(text):
    """Escape a label value (adds ``\\"`` for embedded quotes)."""
    return escape_help(text).replace('"', '\\"')


def _parse_number(text):
    value = float(text)
    return int(value) if value.is_integer() else value


def parse_openmetrics(text):
    """Parse :meth:`MetricsRegistry.render_openmetrics` output.

    Returns a snapshot dict shaped like
    :meth:`MetricsRegistry.as_dict`, suitable for
    :meth:`MetricsRegistry.merge_snapshot` — the round-trip test pins
    ``merge_snapshot(parse_openmetrics(render_openmetrics()))`` as an
    exact identity.
    """
    kinds = {}
    raw = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line == "# EOF":
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            family, _, kind = rest.partition(" ")
            kinds[family] = kind
            continue
        if line.startswith("#"):
            continue
        sample, _, value = line.rpartition(" ")
        name, label = sample, None
        if "{" in sample:
            name, _, label_part = sample.partition("{")
            label = label_part.rstrip("}").partition("=")[2].strip('"')
        raw.setdefault(name, []).append((label, value))

    snapshot = {}
    for family, kind in kinds.items():
        if kind == "counter":
            samples = raw.get(f"{family}_total", [])
            snapshot[f"{family}_total"] = {
                "kind": "counter",
                "value": _parse_number(samples[0][1]) if samples else 0,
            }
        elif kind == "gauge":
            samples = raw.get(family, [])
            snapshot[family] = {
                "kind": "gauge",
                "value": _parse_number(samples[0][1]) if samples else 0,
            }
        elif kind == "histogram":
            buckets = {}
            previous = 0
            total = 0
            for label, value in raw.get(f"{family}_bucket", []):
                cumulative = _parse_number(value)
                if label == "+Inf":
                    total = cumulative
                    continue
                buckets[label] = cumulative - previous
                previous = cumulative
            count_samples = raw.get(f"{family}_count", [])
            if count_samples:
                total = _parse_number(count_samples[0][1])
            sum_samples = raw.get(f"{family}_sum", [])
            total_sum = (
                float(sum_samples[0][1]) if sum_samples else 0.0
            )
            overflow = total - previous
            snapshot[family] = {
                "kind": "histogram",
                "buckets": buckets,
                "overflow": overflow,
                "count": total,
                "sum": total_sum,
                "mean": (total_sum / total) if total else 0.0,
            }
        else:
            raise ValueError(
                f"unknown OpenMetrics type {kind!r} for {family!r}"
            )
    return snapshot
