"""Deterministic metrics layer for the partition service.

Three instrument kinds — :class:`Counter`, :class:`Gauge`, and
:class:`Histogram` — are grouped into labeled :class:`MetricFamily`
collections owned by a :class:`MetricsRegistry`.  The design goals are
the same as the tracer's (:mod:`repro.obs.tracer`):

* **Zero model cost.**  All bookkeeping is plain-Python arithmetic on
  values the instrumented code already holds (lifetime counters, stats
  dict deltas).  Nothing here touches :class:`~repro.em.disk.Disk` or
  the accountant, so emlint/sanitizer guarantees and every existing EM
  counter are unchanged — the differential tests assert byte- and
  counter-identity with metrics enabled vs. the no-op registry.
* **Determinism.**  Histograms use fixed bucket bounds (log-spaced over
  simulated-I/O cost by default) and *nearest-rank* quantiles computed
  from exact per-bucket counts, minima, maxima, and sums — no sampling,
  no wall-clock, no randomness.  The same workload always produces the
  same ``to_dict()`` payload, so benchmark outputs are reproducible and
  diffable.
* **One ambient scope.**  Service objects resolve the active registry
  via :func:`current_registry` at construction time and bind its
  instruments and its flight recorder (``registry.flight``, a
  :class:`~repro.obs.recorder.FlightRecorder`) once; outside a
  :func:`metrics_scope` block this yields the no-op
  :data:`NULL_REGISTRY`, so instrumentation costs nothing (a handful of
  no-op method calls) when telemetry is off.

Exports: :meth:`MetricsRegistry.to_dict` (JSON),
:meth:`MetricsRegistry.to_prometheus` (classic text exposition), and
:meth:`MetricsRegistry.render` (aligned table for the CLI).  None of
them includes the flight ring, which exports itself.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from math import ceil, inf
from typing import Iterator, Mapping, Sequence

from .recorder import FlightRecorder

__all__ = [
    "DEFAULT_IO_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "current_registry",
    "metrics_scope",
]

#: Default histogram bounds: 0 plus powers of two up to 2^20 — log-spaced
#: over simulated-I/O cost (block transfers), wide enough for every
#: workload the benchmarks run.  Values above the last bound land in the
#: implicit overflow bucket.
DEFAULT_IO_BUCKETS: tuple[float, ...] = (
    0.0,
    *(float(1 << e) for e in range(21)),
)


class Counter:
    """A monotonically non-decreasing count."""

    kind = "counter"

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self._value += amount

    def to_dict(self) -> dict:
        return {"value": _num(self._value)}


class Gauge:
    """A value that can go up and down (queue depths, drift, epochs)."""

    kind = "gauge"

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        self._value += amount

    def dec(self, amount: float = 1) -> None:
        self._value -= amount

    def to_dict(self) -> dict:
        return {"value": _num(self._value)}


class Histogram:
    """Fixed-bucket histogram with deterministic quantile estimates.

    ``buckets`` are the upper bounds (``le`` style: a value lands in the
    first bucket whose bound is ≥ it); an implicit overflow bucket
    catches values above the last bound.  Per bucket the histogram keeps
    the exact count, sum, minimum, and maximum, which makes
    :meth:`quantile` *exact* whenever the requested rank falls on a
    bucket holding a single distinct value (boundary values, single
    samples, constant buckets) and a linear interpolation between the
    bucket's observed min and max otherwise — never an extrapolation
    past data actually seen.
    """

    kind = "histogram"

    __slots__ = ("bounds", "_counts", "_sums", "_los", "_his")

    def __init__(self, buckets: Sequence[float] | None = None) -> None:
        bounds = tuple(
            float(b) for b in (DEFAULT_IO_BUCKETS if buckets is None else buckets)
        )
        if not bounds:
            raise ValueError("need at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = bounds
        n = len(bounds) + 1  # + overflow bucket
        self._counts = [0] * n
        self._sums = [0.0] * n
        self._los = [inf] * n
        self._his = [-inf] * n

    @property
    def count(self) -> int:
        return sum(self._counts)

    @property
    def sum(self) -> float:
        return sum(self._sums)

    @property
    def min(self) -> float:
        lo = min(self._los)
        return 0.0 if lo == inf else lo

    @property
    def max(self) -> float:
        hi = max(self._his)
        return 0.0 if hi == -inf else hi

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value``."""
        if count < 0:
            raise ValueError("observation count must be >= 0")
        if count == 0:
            return
        value = float(value)
        i = bisect_left(self.bounds, value)  # first bound >= value
        self._counts[i] += count
        self._sums[i] += value * count
        if value < self._los[i]:
            self._los[i] = value
        if value > self._his[i]:
            self._his[i] = value

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile with in-bucket interpolation.

        Exact at bucket boundaries, for single samples, and for buckets
        holding one distinct value; otherwise linear between the
        bucket's observed min and max.  Empty histogram -> 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        total = self.count
        if total == 0:
            return 0.0
        rank = max(1, ceil(q * total))  # 1-based nearest rank
        seen = 0
        for i, k in enumerate(self._counts):
            if k == 0:
                continue
            if rank <= seen + k:
                lo, hi = self._los[i], self._his[i]
                if k == 1 or lo == hi:
                    return lo
                pos = rank - seen  # 1..k within this bucket
                return lo + (hi - lo) * (pos - 1) / (k - 1)
            seen += k
        return self.max  # pragma: no cover - rank <= total always hits

    def merge(self, other: "Histogram") -> "Histogram":
        """Combine two histograms (same bounds) into a new one.

        Counts and sums add; minima and maxima combine by min/max — all
        associative and commutative, so merging is order-independent
        (the merge-associativity tests assert this).
        """
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        out = Histogram(self.bounds)
        for i in range(len(self._counts)):
            out._counts[i] = self._counts[i] + other._counts[i]
            out._sums[i] = self._sums[i] + other._sums[i]
            out._los[i] = min(self._los[i], other._los[i])
            out._his[i] = max(self._his[i], other._his[i])
        return out

    def to_dict(self) -> dict:
        filled = {
            ("+Inf" if i == len(self.bounds) else _num(self.bounds[i])): c
            for i, c in enumerate(self._counts)
            if c
        }
        return {
            "count": self.count,
            "sum": _num(self.sum),
            "min": _num(self.min),
            "max": _num(self.max),
            "p50": _num(self.quantile(0.50)),
            "p95": _num(self.quantile(0.95)),
            "p99": _num(self.quantile(0.99)),
            "buckets": filled,
        }


class MetricFamily:
    """All children of one metric name, keyed by label values."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self.buckets = buckets
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}

    def labels(self, **labels: object):
        """The child instrument for one label-value combination."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[n]) for n in self.label_names)
        child = self._children.get(key)
        if child is None:
            if self.kind == "counter":
                child = Counter()
            elif self.kind == "gauge":
                child = Gauge()
            else:
                child = Histogram(self.buckets)
            self._children[key] = child
        return child

    def to_dict(self) -> dict:
        children = {
            ",".join(f"{n}={v}" for n, v in zip(self.label_names, key)): c.to_dict()
            for key, c in sorted(self._children.items())
        }
        if self.label_names:
            return {"kind": self.kind, "help": self.help, "children": children}
        body = children.get("", {"value": 0})
        return {"kind": self.kind, "help": self.help, **body}


class MetricsRegistry:
    """Owns every metric family and the run's flight recorder;
    idempotent getters, three exporters."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        #: The run's structured service events (not part of the exports).
        self.flight = FlightRecorder()

    # -- getters -------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        buckets: Sequence[float] | None = None,
    ) -> MetricFamily:
        label_names = tuple(labels)
        bounds = tuple(float(b) for b in buckets) if buckets is not None else None
        fam = self._families.get(name)
        if fam is None:
            fam = MetricFamily(name, kind, help, label_names, bounds)
            self._families[name] = fam
            return fam
        if fam.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {fam.kind}"
            )
        if fam.label_names != label_names:
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{fam.label_names}, got {label_names}"
            )
        if kind == "histogram" and bounds is not None and fam.buckets != bounds:
            raise ValueError(
                f"histogram {name!r} already registered with different buckets"
            )
        if help and not fam.help:
            fam.help = help
        return fam

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()):
        """The counter family ``name`` (or its sole child when unlabeled)."""
        fam = self._family(name, "counter", help, labels)
        return fam if fam.label_names else fam.labels()

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()):
        """The gauge family ``name`` (or its sole child when unlabeled)."""
        fam = self._family(name, "gauge", help, labels)
        return fam if fam.label_names else fam.labels()

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ):
        """The histogram family ``name`` (or its sole child when unlabeled)."""
        fam = self._family(name, "histogram", help, labels, buckets)
        return fam if fam.label_names else fam.labels()

    # -- exporters -----------------------------------------------------
    def to_dict(self) -> dict:
        """Plain JSON-serializable snapshot of every family."""
        return {
            name: fam.to_dict() for name, fam in sorted(self._families.items())
        }

    def to_prometheus(self) -> str:
        """Classic Prometheus text exposition (histograms cumulative)."""
        lines: list[str] = []
        for name, fam in sorted(self._families.items()):
            if fam.help:
                lines.append(f"# HELP {name} {fam.help}")
            lines.append(f"# TYPE {name} {fam.kind}")
            for key, child in sorted(fam._children.items()):
                base = dict(zip(fam.label_names, key))
                if isinstance(child, Histogram):
                    cum = 0
                    for i, bound in enumerate((*child.bounds, inf)):
                        cum += child._counts[i]
                        le = "+Inf" if bound is inf else _fmt(bound)
                        lines.append(
                            f"{name}_bucket{_labels({**base, 'le': le})} {cum}"
                        )
                    lines.append(f"{name}_sum{_labels(base)} {_fmt(child.sum)}")
                    lines.append(f"{name}_count{_labels(base)} {child.count}")
                else:
                    lines.append(f"{name}{_labels(base)} {_fmt(child.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render(self) -> str:
        """Aligned human-readable table of every child instrument."""
        rows: list[tuple[str, str]] = []
        for name, fam in sorted(self._families.items()):
            for key, child in sorted(fam._children.items()):
                label = name + (
                    "{" + ",".join(
                        f"{n}={v}" for n, v in zip(fam.label_names, key)
                    ) + "}"
                    if fam.label_names
                    else ""
                )
                if isinstance(child, Histogram):
                    val = (
                        f"count={child.count} sum={_fmt(child.sum)} "
                        f"p50={_fmt(child.quantile(0.5))} "
                        f"p95={_fmt(child.quantile(0.95))} "
                        f"p99={_fmt(child.quantile(0.99))} "
                        f"max={_fmt(child.max)}"
                    )
                else:
                    val = _fmt(child.value)
                rows.append((label, val))
        if not rows:
            return "(no metrics recorded)"
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{k:<{width}} : {v}" for k, v in rows)


# -- no-op registry ----------------------------------------------------


class _NullInstrument:
    """Absorbs every instrument call; stands in for all three kinds
    and for the flight recorder."""

    kind = "null"
    value = 0.0
    count = 0
    sum = 0.0
    min = 0.0
    max = 0.0

    def labels(self, **labels: object) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, count: int = 1) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def record(self, kind: str, **fields: object) -> None:
        pass

    def to_dict(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """A registry whose every instrument is a shared no-op.

    The ambient default: service code instruments unconditionally, and
    outside a :func:`metrics_scope` block every call lands here and
    does nothing.
    """

    flight = _NULL_INSTRUMENT

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()):
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()):
        return _NULL_INSTRUMENT

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ):
        return _NULL_INSTRUMENT

    def to_dict(self) -> dict:
        return {}

    def to_prometheus(self) -> str:
        return ""

    def render(self) -> str:
        return "(no metrics recorded)"


#: Shared no-op registry returned by :func:`current_registry` by default.
NULL_REGISTRY = NullRegistry()

_ACTIVE: list[MetricsRegistry] = []


def current_registry() -> MetricsRegistry | NullRegistry:
    """The innermost active registry, or :data:`NULL_REGISTRY`."""
    return _ACTIVE[-1] if _ACTIVE else NULL_REGISTRY


@contextmanager
def metrics_scope(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Make ``registry`` (a fresh one by default) ambient for the body.

    The one ambient telemetry scope: service objects constructed inside
    the body bind their instruments and ``registry.flight`` to this
    registry; scopes nest (innermost wins) and always restore the
    previous registry on exit.
    """
    reg = MetricsRegistry() if registry is None else registry
    _ACTIVE.append(reg)
    try:
        yield reg
    finally:
        _ACTIVE.pop()


# -- formatting helpers ------------------------------------------------


def _num(x: float) -> int | float:
    """Collapse integral floats to ints for compact JSON."""
    return int(x) if float(x).is_integer() else x


def _fmt(x: float) -> str:
    v = _num(x)
    return str(v) if isinstance(v, int) else f"{v:g}"


def _labels(pairs: Mapping[str, str]) -> str:
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs.items())
    return "{" + body + "}"
