"""In-memory span tracer that wraps torusq's public functions from outside.

``Tracer.install`` rebinds each traced function in every ``torusq`` module
namespace that holds it, so calls between modules are traced too: ``cli``
binds ``dequantize`` directly, ``dequantize`` binds ``wigner_operator``, and
``sampled_to_json`` calls the module-global ``dumps``.  Spans are recorded
only while a job span is open, so the benchmark's own input generation and
checks stay out of the trace.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
import tracemalloc

ROOT = "bench.job"


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "peak_bytes", "_base", "_high")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.peak_bytes = None

    def as_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "job": self.job,
            "peak_bytes": self.peak_bytes,
        }


class Tracer:
    """Records spans of the traced functions, one tree per job."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list = []
        self.bytes_in = 0
        self.bytes_out = 0
        self.memory = False
        self._stack: list = []
        self._job = None
        self._restore: list = []

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap each "module.function" target in every torusq module binding it.

        Targets missing from their module are skipped, so the list survives
        refactors of the package's internals.  cli.main is always wrapped.
        The original bindings come back on exit.
        """
        self._install()
        try:
            yield self
        finally:
            for module, key, original in reversed(self._restore):
                setattr(module, key, original)
            self._restore.clear()

    def _install(self) -> None:
        modules = [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "torusq" or name.startswith("torusq."))
        ]
        for target in self.targets:
            module_name, attr = target.split(".")
            home = sys.modules.get(f"torusq.{module_name}")
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        cli = sys.modules["torusq.cli"]
        main = cli.main
        self._restore.append((cli, "main", main))
        cli.main = self._wrap(None, main)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._job is None:
                return fn(*args, **kwargs)
            # cli.main is named after its subcommand, so its self time is the
            # argument parsing and file I/O of that subcommand.
            span = tracer._enter(name or f"cli.{args[0][0]}")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if name == "serialize.dumps":
                tracer.bytes_out += len(result)
            elif name == "serialize.loads":
                tracer.bytes_in += len(args[0])
            return result

        return traced

    # -- spans --------------------------------------------------------------

    def _enter(self, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, parent, self._job)
        if self.memory:
            # tracemalloc keeps one global peak: fold it into the parent's
            # running high-water mark, then restart it for this span.
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                self.spans[parent]._high = max(self.spans[parent]._high, peak)
            span._base = current
            span._high = current
            tracemalloc.reset_peak()
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            high = max(span._high, peak)
            span.peak_bytes = high - span._base
            if span.parent is not None:
                parent = self.spans[span.parent]
                parent._high = max(parent._high, high)
            tracemalloc.reset_peak()

    def run_job(self, job_id, fn, *args):
        """Run fn(*args) inside a root span tagged job_id; return its result."""
        self._job = job_id
        span = self._enter(ROOT)
        try:
            return fn(*args)
        finally:
            self._exit(span)
            self._job = None

    def self_times(self) -> list:
        """Duration of each span minus the time its direct children cover."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own
