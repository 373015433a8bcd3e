"""In-memory span tracer that wraps mlc's public functions from outside the package.

A span records one call: its name, the span that caused it, the benchmark
phase and repetition it ran in, and its start and end on the monotonic clock.
Counts (rows, computed megabytes, stream requests) are recorded next to the
spans at the same call boundaries. Nothing is written while the run goes;
the caller dumps `Tracer.spans` and `Tracer.counts` when the run ends.

Wrappers are installed only for the duration of a traced pass
(`with tracer.installed(targets): ...`) and every patched attribute is put
back afterwards, so untraced passes run the original functions.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a root span
    name: str
    phase: str
    rep: int
    start: float
    end: float


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    `owner` is a module name; `attr` is a function name in it or
    `Class.__post_init__`. `name` is the metric prefix (`<module>.<function>`).
    `measure(args, result)` returns extra counts for one call. With
    `span=False` the wrapper only counts (for calls too cheap and numerous to
    be worth a span).
    """

    owner: str
    attr: str
    name: str
    measure: Callable[[tuple, object], dict[str, float]] | None = None
    span: bool = True


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, int, str], float] = defaultdict(float)
        self.phase = ""
        self.rep = 0
        self.active = False
        self.unobserved: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0

    # -- recording -------------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around the block when tracing is active."""
        if not self.active:
            yield
            return
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, self.phase, self.rep, start, end))

    def add(self, key: str, amount: float) -> None:
        if self.active:
            self.counts[(self.phase, self.rep, key)] += amount

    def wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if target.span:
                with tracer.span(target.name):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
                tracer.add(f"{target.name}.calls", 1)
            if target.measure is not None:
                try:
                    measured = target.measure(args, result)
                except Exception:  # a changed signature must not change the program's behaviour
                    measured = {"unmeasured": 1}
                for key, amount in measured.items():
                    tracer.add(f"{target.name}.{key}", amount)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / restore ---------------------------------------------------------

    @contextmanager
    def installed(self, targets: list[Target], package: str = "mlc") -> Iterator[None]:
        """Patch every attribute through which each target is reachable.

        A function imported by name (`from .model import save_params`) lives
        on as an attribute of the importing module, so every loaded module of
        `package` is searched for the original object and each hit patched.
        A target that no longer exists is listed in `unobserved`.
        """
        patches = self._patch(targets, package)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            for holder, attr, original in reversed(patches):
                setattr(holder, attr, original)

    def _patch(self, targets: list[Target], package: str) -> list[tuple[object, str, object]]:
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        patches: list[tuple[object, str, object]] = []
        for target in targets:
            owner = sys.modules.get(target.owner)
            if "." in target.attr:
                cls_name, method = target.attr.split(".", 1)
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(method) if isinstance(cls, type) else None
                sites = [(cls, method)] if callable(original) else []
            else:
                original = getattr(owner, target.attr, None)
                sites = [
                    (m, key) for m in modules for key, value in vars(m).items()
                    if callable(original) and value is original
                ]
            if not sites:
                if target.name not in self.unobserved:
                    self.unobserved.append(target.name)
                continue
            wrapper = self.wrap(target, original)
            for holder, attr in sites:
                patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        return patches


# -- analysis --------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children.

    Spans come from one thread and nest strictly, so direct children never
    overlap and their durations add.
    """
    child = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child[s.id] for s in spans}


def per_pass(spans: list[Span], counts: dict[tuple[str, int, str], float]) -> dict[tuple[str, int], dict[str, float]]:
    """(phase, rep) -> {"<name>.self_s", "<name>.wall_s", "<name>.calls", counts...}."""
    own = self_times(spans)
    out: dict[tuple[str, int], dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        row = out[(s.phase, s.rep)]
        row[f"{s.name}.self_s"] += own[s.id]
        row[f"{s.name}.wall_s"] += s.end - s.start
        row[f"{s.name}.calls"] += 1
    for (phase, rep, key), amount in counts.items():
        out[(phase, rep)][key] += amount
    return out


def one_pass(spans: list[Span], counts: dict[tuple[str, int, str], float]) -> dict[str, float]:
    """Per-layer totals of one pass through the workload.

    Each phase may repeat (several set-ups, several timed repetitions); a
    phase contributes the median over its repetitions of each key, and the
    phases add. A key missing from a repetition counts as 0 there.
    """
    passes = per_pass(spans, counts)
    phases: dict[str, list[dict[str, float]]] = defaultdict(list)
    for (phase, _rep), row in sorted(passes.items()):
        phases[phase].append(row)
    total: dict[str, float] = defaultdict(float)
    for rows in phases.values():
        keys = set().union(*rows)
        for key in keys:
            total[key] += statistics.median(row.get(key, 0.0) for row in rows)
    return dict(total)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as `statistics.quantiles(n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med
