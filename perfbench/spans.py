"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``.  To split a traced run by layer it
wraps public boundary methods at class level (:data:`BOUNDARIES`) and
opens spans around its own calls into the offline layers.  Each span
keeps its layer, start, end, parent and the id of the task it belongs
to; a layer's self time is its span time minus what its child spans
cover.  Re-entering the layer already on top of the stack opens no new
span, so ``calls`` counts layer entries and nested same-layer calls are
plain self time.

Spans stay in memory.  :meth:`Recorder.chrome_trace` writes them out as
Chrome trace-event JSON once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["BOUNDARIES", "EXECUTION_LAYERS", "Recorder", "NULL"]

#: (module, class, methods, layer).  ``"*"`` wraps every public plain
#: function the class defines plus item access; a class of ``None``
#: wraps module-level functions.
BOUNDARIES: List[Tuple[str, Optional[str], Tuple[str, ...], str]] = [
    ("repro.workflow.runner", "WorkflowRunner", ("run",), "workflow"),
    ("repro.workflow.dscheduler", "DataflowRunner", ("run",), "workflow"),
    ("repro.mapper.mapper", "DataSemanticMapper", ("task",), "workflow"),
    ("repro.mapper.mapper", None, ("map_characteristics",), "mapper.join"),
    ("repro.mapper.mapper", "TaskContext", ("open",), "vol"),
    ("repro.vol.objects", "VolFile", ("*",), "vol"),
    ("repro.vol.objects", "VolGroup", ("*",), "vol"),
    ("repro.vol.objects", "VolDataset", ("*",), "vol"),
    ("repro.hdf5.file", "H5File", ("__init__", "flush", "close"), "hdf5"),
    ("repro.hdf5.group", "Group",
     ("__getitem__", "__contains__", "get", "keys", "create_group",
      "require_group", "create_dataset"), "hdf5"),
    ("repro.hdf5.dataset", "Dataset", ("read", "write", "resize"), "hdf5"),
    ("repro.vfd.tracing", "TracingVFD", ("read", "write"), "vfd"),
    ("repro.vfd.tracing", "VfdTracer", ("on_io",), "vfd.record"),
    ("repro.posix.simfs", "SimFS", ("pread", "pwrite", "open", "close"),
     "posix"),
    ("repro.storage.blockstore", "BlockStore", ("read", "write"), "storage"),
    ("repro.storage.devices", "StorageDevice", ("read_cost", "write_cost"),
     "storage"),
]

#: Layers that only run inside input staging and ``runner.run``: their
#: self times add up to the traced time of the two.
EXECUTION_LAYERS = ("workflow", "vol", "hdf5", "vfd", "vfd.record", "posix",
                    "storage", "mapper.join")

_ITEM_ACCESS = ("__getitem__", "__setitem__", "__contains__")


class Recorder:
    """Span stack, per-layer self time and call counts, kept spans."""

    def __init__(self, keep_spans: int = 200_000) -> None:
        self.keep_spans = keep_spans
        #: Open spans: [layer, start_ns, child_ns, span index, task id].
        self._stack: List[list] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Closed spans: (layer, label, start_ns, end_ns, parent, task id).
        self.spans: List[Tuple[str, str, int, int, int, int]] = []
        self._next_task = 0
        self._installed: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _enter(self, layer: str, label: str, new_task: bool) -> None:
        stack = self._stack
        if new_task or not stack:
            self._next_task += 1
            task = self._next_task
        else:
            task = stack[-1][4]
        index = -1
        if len(self.spans) < self.keep_spans:
            index = len(self.spans)
            parent = stack[-1][3] if stack else -1
            self.spans.append((layer, label, 0, 0, parent, task))
        stack.append([layer, time.perf_counter_ns(), 0, index, task])

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        layer, start, child, index, task = self._stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            _, label, _, _, parent, _ = self.spans[index]
            self.spans[index] = (layer, label, start, end, parent, task)

    @contextmanager
    def span(self, layer: str, label: Optional[str] = None,
             new_task: bool = False) -> Iterator[None]:
        self._enter(layer, label or layer, new_task)
        try:
            yield
        finally:
            self._exit()

    def record(self, layer: str, label: str, start_ns: int,
               end_ns: int) -> None:
        """Add a finished root span, for work that overlaps other spans
        instead of nesting in them (concurrent requests)."""
        self._next_task += 1
        self.self_ns[layer] += end_ns - start_ns
        self.calls[layer] += 1
        if len(self.spans) < self.keep_spans:
            self.spans.append((layer, label, start_ns, end_ns, -1,
                               self._next_task))

    def _wrap(self, fn, layer: str, label: str, new_task: bool):
        enter, exit_, stack = self._enter, self._exit, self._stack

        if new_task:
            # A context-manager factory (mapper.task): the span covers the
            # ``with`` body and starts a new task id.
            @functools.wraps(fn)
            def task_span(*args, **kwargs):
                return _TaskScope(fn(*args, **kwargs), enter, exit_, layer,
                                  label)
            return task_span

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            enter(layer, label, False)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
        return span

    # -- class-level wrapping ----------------------------------------------
    def install(self) -> None:
        """Wrap every boundary in :data:`BOUNDARIES` (idempotent)."""
        if self._installed:
            return
        for module, cls_name, methods, layer in BOUNDARIES:
            owner = importlib.import_module(module)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            if methods == ("*",):
                methods = tuple(
                    name for name, value in vars(owner).items()
                    if callable(value) and not isinstance(value, type)
                    and (not name.startswith("_") or name in _ITEM_ACCESS))
            for name in methods:
                original = vars(owner).get(name)
                if original is None or not callable(original):
                    continue
                label = f"{cls_name or module}.{name}"
                wrapped = self._wrap(original, layer, label,
                                     new_task=(name == "task"))
                self._installed.append((owner, name, original))
                setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    # -- results -----------------------------------------------------------
    def take(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self seconds and calls per layer since the last take."""
        self_s = {k: v / 1e9 for k, v in self.self_ns.items()}
        calls = dict(self.calls)
        self.self_ns.clear()
        self.calls.clear()
        return self_s, calls

    def chrome_trace(self, path: str) -> None:
        """Write the kept spans as Chrome trace-event JSON."""
        events = []
        origin = min((s[2] for s in self.spans if s[3]), default=0)
        for index, (layer, label, start, end, parent, task) in \
                enumerate(self.spans):
            if end == 0:  # still open when the run ended
                continue
            events.append({
                "name": label, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                "args": {"task": task, "span": index, "parent": parent},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class _TaskScope:
    """Context manager around ``mapper.task(...)`` that records one
    ``workflow`` span with a fresh task id."""

    __slots__ = ("_cm", "_enter", "_exit", "_layer", "_label")

    def __init__(self, cm, enter, exit_, layer, label) -> None:
        self._cm, self._enter, self._exit = cm, enter, exit_
        self._layer, self._label = layer, label

    def __enter__(self):
        self._enter(self._layer, self._label, True)
        try:
            return self._cm.__enter__()
        except BaseException:
            self._exit()
            raise

    def __exit__(self, *exc):
        try:
            return self._cm.__exit__(*exc)
        finally:
            self._exit()


class _NullRecorder:
    """Stand-in for untraced runs: spans cost one call."""

    def span(self, layer: str, label: Optional[str] = None,
             new_task: bool = False):
        return nullcontext()


NULL = _NullRecorder()
