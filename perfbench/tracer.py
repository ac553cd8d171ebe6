"""Outside-in span tracing.

A `Tracer` keeps one `Span` per wrapped call in memory: name, start, end,
the enclosing span, a tag inherited from the enclosing span, and optional
counts taken at the call boundary. `install` wraps functions at every
place a set of modules looks them up (module globals and dict registries
such as an optimizer table) and methods on their classes, so the traced
package itself is left unchanged; `Installation.remove` puts every
original back and checks that it did.

This module does not import the package it traces, so its tests can run
against small fake modules.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Callable


class Span:
    __slots__ = ("name", "start", "end", "parent", "tag", "inner", "counts")

    def __init__(self, name, start, end, parent, tag=None, inner=False, counts=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.tag = tag
        self.inner = inner
        self.counts = counts

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for single-threaded code."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, tag=None, inner: bool = False) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0:
            enclosing = self.spans[parent]
            if tag is None:
                tag = enclosing.tag
            inner = inner or enclosing.inner
        self.spans.append(Span(name, self.clock(), 0.0, parent, tag, inner))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, counts=None) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._stack.pop()
        span = self.spans[index]
        span.end = self.clock()
        span.counts = counts


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for child in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(child.start, span.start), min(child.end, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span.duration - covered)
    return out


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    """Indices of each span's direct children, in call order."""
    out: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent >= 0:
            out.setdefault(span.parent, []).append(i)
    return out


@dataclass(frozen=True)
class Boundary:
    """A traced layer boundary.

    `functions` are found by identity in the given modules' namespaces and
    in dicts held by those modules; `methods` are (class, attribute)
    pairs. `tag(args)` names the span and everything it calls; `count(args,
    kwargs, result)` stores counts on the span; `inner` marks the span and
    its descendants as inner-solver work.
    """

    name: str
    functions: tuple = ()
    methods: tuple = ()
    count: Callable | None = None
    tag: Callable | None = None
    inner: bool = False


def _wrap(tracer: Tracer, boundary: Boundary, fn):
    name, count, tag, inner = boundary.name, boundary.count, boundary.tag, boundary.inner

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name, tag(args) if tag is not None else None, inner)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index)
            raise
        tracer.close(index, count(args, kwargs, result) if count is not None else None)
        return result

    return wrapper


class _Site:
    """One lookup site: a module or class attribute, or a dict entry."""

    def __init__(self, owner, key, original):
        self.owner, self.key, self.original = owner, key, original

    def get(self):
        if isinstance(self.owner, dict):
            return self.owner[self.key]
        return vars(self.owner)[self.key]

    def set(self, value) -> None:
        if isinstance(self.owner, dict):
            self.owner[self.key] = value
        else:
            setattr(self.owner, self.key, value)


def _function_sites(fn, modules: list[ModuleType]) -> list[_Site]:
    sites = []
    for mod in modules:
        for key, value in vars(mod).items():
            if value is fn:
                sites.append(_Site(mod, key, fn))
            elif isinstance(value, dict) and not key.startswith("__"):
                sites.extend(_Site(value, k, fn) for k, v in value.items() if v is fn)
    return sites


class Installation:
    """Wrappers installed for a traced pass; `remove` restores the originals."""

    def __init__(self, tracer: Tracer, boundaries, modules: list[ModuleType]):
        self.sites: list[tuple[_Site, object]] = []
        self.unreached: list[str] = []
        for boundary in boundaries:
            found = []
            for fn in boundary.functions:
                sites = _function_sites(fn, modules)
                if not sites:
                    self.unreached.append(f"{boundary.name}: {fn.__qualname__}")
                found.append((fn, sites))
            for cls, attr in boundary.methods:
                fn = vars(cls)[attr]
                found.append((fn, [_Site(cls, attr, fn)]))
            for fn, sites in found:
                wrapper = _wrap(tracer, boundary, fn)
                for site in sites:
                    self.sites.append((site, wrapper))
        for site, wrapper in self.sites:
            site.set(wrapper)
        if self.unreached:
            self.remove()
            raise RuntimeError("no lookup site for " + ", ".join(self.unreached))

    def remove(self) -> None:
        for site, _ in reversed(self.sites):
            site.set(site.original)
        left = [f"{site.key}" for site, _ in self.sites if site.get() is not site.original]
        if left:
            raise RuntimeError("wrappers left in place: " + ", ".join(left))

    def installed(self) -> bool:
        return all(site.get() is wrapper for site, wrapper in self.sites)
