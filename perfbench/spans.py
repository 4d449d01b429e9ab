"""In-memory span tracer that wraps the program's functions from outside.

No tracing code lives in the program: :class:`Tracer` replaces functions
and methods with timing wrappers at run time and puts the originals back
on :meth:`Tracer.uninstall`.  Each wrapper opens a span on entry and
closes it on exit; closed spans are folded into one :class:`Slot` per
span name, held in memory and reported once, when the run ends.

Self time is a span's duration minus the time its child spans covered.
Recursive entry points (``CnfBuilder.tseitin`` runs about a million
times per tournament analysis) are timed only at their outermost call:
while a span of some name is open, nested calls into any function
traced under that same name pass straight through.

Spans are recorded on the thread that created the tracer only.  Calls
made on other threads (``ShardedCommitLog.replay`` decodes shard files
on a thread pool) run unwrapped, so their time stays in the span that
waits for them.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time


class Slot:
    """Accumulated figures of every closed span of one name."""

    __slots__ = ("self_s", "calls", "depth", "durations")

    def __init__(self, keep_durations: bool = False) -> None:
        self.self_s = 0.0
        self.calls = 0
        self.depth = 0
        self.durations: list[float] | None = [] if keep_durations else None


class Tracer:
    """Wraps program entry points and aggregates their spans."""

    def __init__(self) -> None:
        self.slots: dict[str, Slot] = {}
        #: Exact event counts gathered by counting hooks (no timing).
        self.counts: dict[str, int] = {}
        # One [child seconds] cell per open span, innermost last.
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()

    # -- slots and figures ---------------------------------------------------

    def slot(self, name: str, keep_durations: bool = False) -> Slot:
        slot = self.slots.get(name)
        if slot is None:
            slot = self.slots[name] = Slot(keep_durations)
        elif keep_durations and slot.durations is None:
            slot.durations = []
        return slot

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def clear_durations(self) -> None:
        for slot in self.slots.values():
            if slot.durations is not None:
                slot.durations.clear()

    def figures(self) -> dict[str, float]:
        """Running totals: ``<span>.self_s`` and ``<span>.calls`` per span,
        and every count.  Differences of two snapshots give the figures
        of the work in between."""
        totals: dict[str, float] = dict(self.counts)
        for name, slot in self.slots.items():
            totals[name + ".self_s"] = slot.self_s
            totals[name + ".calls"] = slot.calls
        return totals

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn, keep_durations: bool = False):
        """``fn`` wrapped in a span of ``name`` (outermost calls only)."""
        slot = self.slot(name, keep_durations)
        stack = self._stack
        clock = time.perf_counter
        owner = self._thread
        thread = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if slot.depth or thread() != owner:
                return fn(*args, **kwargs)
            slot.depth = 1
            cell = [0.0]
            stack.append(cell)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                slot.depth = 0
                slot.self_s += elapsed - cell[0]
                slot.calls += 1
                if slot.durations is not None:
                    slot.durations.append(elapsed)
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def counter(self, name: str, fn):
        """``fn`` wrapped so each call bumps ``counts[name]``."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`uninstall`."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def trace_method(self, cls, attr: str, name: str, keep_durations=False):
        self.patch(cls, attr, self.span(name, cls.__dict__[attr], keep_durations))

    def trace_function(self, fn, name: str, keep_durations: bool = False):
        """Trace a module-level function under every name it is bound to.

        ``from module import fn`` copies the reference into the importing
        module, so every loaded ``repro`` module that holds ``fn`` gets
        the wrapper.  Raises ``LookupError`` when ``fn`` is bound under
        its own name in none of them: a layer that is renamed or moved
        fails the traced run instead of losing its spans.
        """
        wrapper = self.span(name, fn, keep_durations)
        defined = False
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapper)
                    defined = defined or (
                        module_name == fn.__module__ and attr == fn.__name__
                    )
        if not defined:
            raise LookupError(
                f"cannot trace {name}: {fn.__module__}.{fn.__name__} is not bound"
            )
        return wrapper

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]
