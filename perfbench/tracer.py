"""Span tracer that instruments the ``leakage`` package from outside.

``Tracer.install()`` replaces every public function, method and property
of the package's modules, plus a fixed set of ``numpy.linalg`` routines,
with timing wrappers; ``uninstall()`` puts the originals back.  The
package itself is never edited.

A function imported by name into another module (``from .dynamics import
run_leakage_experiment``) is a second binding of the same object, so every
``leakage.*`` module attribute that *is* a target gets the same wrapper.

Each call becomes a span named ``<module>.<qualname>`` (``leakage.`` dropped)
or ``numpy.linalg.<name>``.  Per span name the tracer keeps the call count,
total seconds and child seconds, so self time is total minus the time of
directly nested package spans.  A ``numpy.linalg`` span is a leaf counter and
is not subtracted: a function's self time includes the LAPACK calls it makes
itself, so the leakage kernel's SVDs count as ``run_leakage_experiment`` self
time.  The tracer also keeps the same figures per (span, caller),
where the caller is the innermost enclosing span of the package; that is
how an SVD is attributed to the leakage kernel or an operator norm to the
distance series.  Span stacks are per thread, so a threaded sweep nests
correctly; the aggregates are shared under a lock.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

PACKAGE = "leakage"
NUMPY_LINALG = ("svd", "eigh", "eigvalsh", "eigvals", "inv", "solve", "cond")


class Stat:
    __slots__ = ("calls", "s", "child_s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.s - self.child_s


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.by_caller: dict[tuple[str, str | None], Stat] = {}
        self.series_order = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            caller = next((f[0] for f in reversed(stack) if not f[0].startswith("numpy.")), None)
            frame = [name, 0.0]  # [span name, seconds spent in child spans]
            stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                stack.pop()
                if stack and not name.startswith("numpy."):
                    stack[-1][1] += elapsed
                self._record(name, caller, elapsed, frame[1])
            if name == "bloch_solver.solve_bloch_series":
                with self._lock:
                    self.series_order += result.order
            return result

        return wrapper

    def _record(self, name, caller, elapsed, child):
        with self._lock:
            for table, key in ((self.stats, name), (self.by_caller, (name, caller))):
                st = table.get(key)
                if st is None:
                    st = table[key] = Stat()
                st.calls += 1
                st.s += elapsed
                st.child_s += child

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def called_from(self, name: str, caller: str) -> Stat:
        return self.by_caller.get((name, caller)) or Stat()

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the package's public callables and ``numpy.linalg``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import numpy.linalg

        import leakage  # noqa: F401  (imports every submodule)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith(PACKAGE + ".") and m is not None]
        wrappers = {}
        for mod in modules:
            short = mod.__name__[len(PACKAGE) + 1:]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(obj, f"{short}.{attr}")
        for mod in [sys.modules[PACKAGE], *modules]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for fname in NUMPY_LINALG:
            self._patch(numpy.linalg, fname,
                        self.wrap(f"numpy.linalg.{fname}", getattr(numpy.linalg, fname)))

    def _install_class(self, cls, prefix):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, property):
                self._patch(cls, attr, property(self.wrap(name, obj.fget)))
            elif isinstance(obj, staticmethod):
                self._patch(cls, attr, staticmethod(self.wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self.wrap(name, obj))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
