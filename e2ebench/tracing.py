"""Spans around calls into each layer's public functions.

The traced repetition installs a :class:`~repro.obs.prof.PhaseProfiler`
through the public ``repro.obs.use_profiler`` (so the kernels' own
``sample``/``screen``/``sweep``/``replay``/``serve``/``merge`` phases are
timed), and :class:`LayerTracer` rebinds a handful of public functions
in every loaded ``repro`` module to wrappers that open a span of their
own. Each wrapper also opens a phase on the profiler in effect at the
call, so a planner call made inside a kernel's ``replay`` phase bills
its time to ``plan`` and not to ``replay``: the self times of kernel
phases and of wrapped layers partition the covered wall time.

Nothing here enables ``Telemetry`` (which switches the serve and
Monte-Carlo kernels to their event walks) or ``tracemalloc``; either
would measure a different program.
"""

import contextlib
import sys
import time

from repro.layouts import recovery
from repro.obs import ambient_profiler
from repro.schemes import build_scheme_layout
from repro.sim import columnar, serve

#: Layer name -> the public function whose calls it times.
LAYER_CALLS = {
    "layout.build": build_scheme_layout,
    "tables": serve.build_serve_tables,
    "plan": recovery.plan_recovery,
    "oracle": recovery.is_recoverable,
}


class LayerTracer:
    """Record ``[name, start_s, end_s, parent]`` spans for wrapped calls.

    Spans are kept in memory; ``parent`` is the index of the enclosing
    span or ``-1``. Use as a context manager: entering rebinds the
    functions in :data:`LAYER_CALLS` (and ``LifecycleTables.build``)
    wherever a ``repro`` module holds them, leaving restores them.
    """

    def __init__(self):
        self.spans = []
        self._open = []
        self._patched = []

    def span(self, name):
        """Context manager recording one span nested in the open one."""
        return _Span(self, name)

    @contextlib.contextmanager
    def phase(self, name):
        """A span that is also a phase of the profiler in effect."""
        with self.span(name), ambient_profiler().phase(name):
            yield

    def wrap(self, name, fn):
        """A wrapper around *fn* that times each call as phase *name*."""

        def traced(*args, **kwargs):
            with self.phase(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for name, fn in LAYER_CALLS.items():
            replacement = self.wrap(name, fn)
            for module in _repro_modules():
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, replacement)
        tables_cls = columnar.LifecycleTables
        original = tables_cls.__dict__["build"]
        traced_build = self.wrap("tables", original.__func__)
        self._patched.append((tables_cls, "build", original))
        tables_cls.build = classmethod(traced_build)
        return self

    def __exit__(self, *exc_info):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)
        return False


class _Span:
    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer, name):
        self._tracer = tracer
        self._record = [name, 0.0, 0.0, -1]

    def __enter__(self):
        tracer = self._tracer
        if tracer._open:
            self._record[3] = tracer._open[-1]
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self._record)
        self._record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self._record[2] = time.perf_counter()
        self._tracer._open.pop()
        return False


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
