"""Span recording around calls that cross a layer boundary.

The traced run swaps the names a module calls across a layer boundary (for
example ``convpolar.channel.scl_decode_batch``) for wrappers that record one
span per call: name, start, end, parent span, thread, and for decoder calls
the frames, block length and list size they were given.  Spans stay in
memory; the benchmark writes them out when the run ends.  Nothing in the
library changes, and the untraced run installs no wrapper at all.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


def _decoder_size(args, kwargs):
    code, llrs, list_size = args[:3]
    return len(llrs), code.n, list_size


def _forced_size(args, kwargs):
    llrs = args[0]
    return len(llrs), llrs.shape[-1], 1


# (module, attribute path, span name, size extractor): every name the library
# calls across a layer boundary on the benchmark's paths.
PATCHES = (
    ("convpolar.channel", "scl_decode_batch", "decoder.scl_decode_batch", _decoder_size),
    ("convpolar.channel", "transmit", "channel.transmit", None),
    ("convpolar.channel", "trial_rng", "channel.trial_rng", None),
    ("convpolar.channel", "encode", "cvpt.encode", None),
    ("convpolar.construction", "forced_path_tables", "decoder.forced_path_tables", _forced_size),
    ("convpolar.construction", "transmit", "channel.transmit", None),
    ("convpolar.construction", "trial_rng", "channel.trial_rng", None),
    ("convpolar.construction", "encode", "cvpt.encode", None),
    ("convpolar.codespec", "CodeSpec.assemble", "codespec.assemble", None),
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    size: tuple[int, int, int] | None = None  # (frames, n, list size)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; parents follow the caller's stack.

    A span opened on a thread with no open span of its own (a worker of the
    ``run_fer`` thread pool) takes the innermost open span of the thread that
    created the tracer as its parent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, size=None, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident(), size)
            )

    def wrap(self, name, fn, size_of=None):
        def wrapper(*args, **kwargs):
            size = size_of(args, kwargs) if size_of else None
            return self.call(name, fn, *args, size=size, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def patched(self):
        """Install every wrapper in PATCHES, restoring the originals after.

        A missing name raises AttributeError at once, so a refactor that
        renames an import fails the traced run instead of zeroing a layer.
        """
        undo = []
        try:
            for module, path, name, size_of in PATCHES:
                *owner_path, attr = path.split(".")
                owner = importlib.import_module(module)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                setattr(owner, attr, self.wrap(name, original, size_of))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


class NullTracer:
    """The untraced run: calls go straight through."""

    @staticmethod
    def call(name, fn, *args, size=None, **kwargs):
        return fn(*args, **kwargs)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
