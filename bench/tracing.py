"""Outside-in layer trace: wraps the names the modules import from each other.

No file of the library changes.  :class:`Tracer` replaces module attributes
(``aimdexit.reflected.l_down`` is the name ``reflected`` imported from
``scalefn``) with timing wrappers while it is active, and puts every
original back when it stops, so a run outside the ``with`` block is
untraced.

A span records only the outermost entry of nested calls with the same name.
Its self time is its duration minus the time of the spans it caused.
Counters (quadrature rounds, strip solves, digits, draws) are recorded at
the same boundaries.  State is per tracer; the call stack is per thread,
and the totals are guarded by a lock because ``mc_lst`` calls the RNG from
worker threads.
"""

from __future__ import annotations

import importlib
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Optional

import mpmath
import numpy

# by import path: the package re-exports the function ``evaluate`` under the
# name of its module
evaluate_mod, reflected, scalefn, drawup, simulator = (
    importlib.import_module(f"aimdexit.{name}")
    for name in ("evaluate", "reflected", "scalefn", "_drawup", "simulator"))

# the lru_caches whose hit counts are layer metrics: metric stem -> cache
CACHES = {
    "scalefn.k_tables": scalefn._k_tables,
    "scalefn.k_tables_mp": scalefn._k_tables_mp,
    "scalefn.c_tilde_mp": scalefn._c_tilde_escalated,
}


def cache_counts() -> Dict[str, int]:
    """Current hit and miss totals of :data:`CACHES`, as flat metric names."""
    out = {}
    for stem, fn in CACHES.items():
        info = fn.cache_info()
        out[f"{stem}.hits"] = info.hits
        out[f"{stem}.misses"] = info.misses
    return out


class Tracer:
    """Spans and counters; each ``with`` block is traced, and totals add up."""

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []  # (owner, attribute, original), in patch order

    # -- spans ------------------------------------------------------------

    def _frames(self) -> list:
        try:
            return self._local.frames
        except AttributeError:
            frames = self._local.frames = []
            return frames

    def _open(self, name: str):
        """Push span ``name``; None when it is already open on this thread."""
        frames = self._frames()
        for frame in frames:
            if frame[0] == name:
                return None
        frame = [name, 0.0, time.perf_counter()]  # name, child time, start
        frames.append(frame)
        return frame

    def _close(self, frame) -> None:
        elapsed = time.perf_counter() - frame[2]
        frames = self._frames()
        frames.pop()
        if frames:
            frames[-1][1] += elapsed
        name = frame[0]
        with self._lock:
            self.calls[name] += 1
            self.total_s[name] += elapsed
            self.self_s[name] += elapsed - frame[1]

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)`` timed as span ``name``."""
        frame = self._open(name)
        if frame is None:
            return fn(*args, **kwargs)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame)

    @contextmanager
    def span(self, name: str):
        """Time a block as span ``name``; nested entries of ``name`` pass through."""
        frame = self._open(name)
        try:
            yield
        finally:
            if frame is not None:
                self._close(frame)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts[name], value)

    def snapshot(self) -> dict:
        """Copies of the totals so far."""
        with self._lock:
            return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                    "total_s": dict(self.total_s), "counts": dict(self.counts)}

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _timed(self, name: str, fn: Callable,
               after: Optional[Callable] = None, diagnostics_at: Optional[int] = None):
        """Wrapper timing ``fn`` as span ``name``.

        With ``diagnostics_at``, a call that passes no diagnostics dict (by
        keyword, or positionally at that index) gets a fresh one, handed to
        ``after`` once the call returns.
        """
        def wrapper(*args, **kwargs):
            diag = None
            if diagnostics_at is not None:
                if len(args) > diagnostics_at:
                    diag = args[diagnostics_at]
                    if diag is None:
                        diag = {}
                        args = args[:diagnostics_at] + (diag,) + args[diagnostics_at + 1:]
                else:
                    diag = kwargs.get("diagnostics")
                    if diag is None:
                        diag = kwargs["diagnostics"] = {}
            out = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(diag if diagnostics_at is not None else out)
            return out
        return wrapper

    def _wrap_everywhere(self, name: str, fn_name: str, owners, **kw) -> None:
        """Wrap one function under every module name it is reachable by."""
        fn = getattr(owners[0], fn_name)
        wrapper = self._timed(name, fn, **kw)
        for owner in owners:
            self._patch(owner, fn_name, wrapper)

    def _mp_proxy(self) -> types.ModuleType:
        """A copy of the ``mpmath`` namespace whose ``workdps`` is a span."""
        proxy = types.ModuleType("mpmath")
        proxy.__dict__.update(vars(mpmath))
        real = mpmath.workdps

        @contextmanager
        def workdps(dps, *args, **kwargs):
            outermost = not any(f[0] == "scalefn.mp" for f in self._frames())
            with self.span("scalefn.mp"):
                if outermost:
                    self.maximum("scalefn.mp.max_dps", dps)
                with real(dps, *args, **kwargs):
                    yield
        proxy.workdps = workdps
        return proxy

    def _np_proxy(self) -> types.ModuleType:
        """A copy of the ``numpy`` namespace whose ``linalg.solve`` is a span."""
        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(vars(numpy.linalg))
        real = numpy.linalg.solve

        def solve(*args, **kwargs):
            c0 = time.process_time()
            out = self.call("drawup.linalg", real, *args, **kwargs)
            self.count("drawup.linalg.cpu_s", time.process_time() - c0)
            return out
        linalg.solve = solve
        proxy = types.ModuleType("numpy")
        proxy.__dict__.update(vars(numpy))
        proxy.linalg = linalg
        return proxy

    def start(self) -> "Tracer":
        ev, refl, sf, du, sim = evaluate_mod, reflected, scalefn, drawup, simulator
        self._cache0 = cache_counts()
        self._wrap_everywhere("reflected.hazard", "hazard", [refl])
        self._wrap_everywhere("reflected.l_down", "l_down", [refl])
        self._wrap_everywhere(
            "reflected.lst_drawdown", "lst_drawdown", [refl, ev], diagnostics_at=7,
            after=lambda d: self.count("reflected.drawdown.rounds",
                                       d.get("refinement_rounds", 0)))
        self._wrap_everywhere(
            "drawup.drawup_lst", "drawup_lst", [refl], diagnostics_at=9,
            after=lambda d: self.count("drawup.strip_solves", d.get("grid_levels", 0)))
        self._wrap_everywhere("scalefn.z_down", "z_down", [sf, ev, refl])
        self._wrap_everywhere("scalefn.log_k", "_log_k_from_b", [refl, sf])
        self._wrap_everywhere("drawup.z_up", "z_up", [du])
        self._patch(sf, "mp", self._mp_proxy())
        self._patch(du, "np", self._np_proxy())

        def draws(out):
            self.count("rng.draws", out.size)
        for fn_name in ("exponentials", "uniforms"):
            self._wrap_everywhere("rng", fn_name, [sim], after=draws)
        return self

    def stop(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        for key, value in cache_counts().items():
            self.counts[key] += value - self._cache0[key]

    def __enter__(self) -> "Tracer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
