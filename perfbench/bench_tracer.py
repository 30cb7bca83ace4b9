"""In-memory span tracer that wraps a package's functions at their attributes.

A span is the tuple ``(name, start_ns, end_ns, parent)``, where ``parent`` is
the index of the enclosing span in ``Tracer.spans`` or -1 for a root. Spans
are recorded only inside a root opened with ``Tracer.root``; a wrapped
function called outside every root runs straight through and leaves nothing.
Spans stay in memory until ``Tracer.write`` puts them in one file.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(idx)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    @contextmanager
    def root(self, name: str):
        """Open a span that turns recording on for the calls beneath it."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def install(self, targets, package: str) -> None:
        """Wrap each ``"module:attr"`` or ``"module:Class.attr"`` target.

        A module-level function is replaced under every name that binds it
        in any loaded module of ``package``, so names copied in with
        ``from .x import f`` are traced too. A class attribute is replaced
        on its class; classmethods and staticmethods keep their kind.
        """
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for target in targets:
            modname, qual = target.split(":")
            module = importlib.import_module(modname)
            name = modname.removeprefix(package + ".") + "." + qual
            owner_name, _, attr = qual.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = vars(owner)[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._patch(owner, attr, raw, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def uninstall(self) -> None:
        """Put back every attribute that install replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets, package: str):
        self.install(targets, package)
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """One line per span: index, parent, name, start and end in ns
        from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w") as f:
            f.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i}\t{parent}\t{name}\t{start - t0}\t{end - t0}\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
