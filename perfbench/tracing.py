"""Outside-in layer tracing: spans around each layer's public calls.

The wrappers live here and are installed on the program's classes only
for a traced run, then removed; nothing under ``src/`` knows about
them, and untraced runs execute the program unpatched.  Each span
records its call site, host start and end (``perf_counter_ns``), the
span that was open when it began, and a tag: the user for an admission
(``LoginListener.login``) and the batch index for an SMP batch
(``SmpComplex.run_jobs``).  A layer's self time is its spans' time
minus the time of the spans they directly contain.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

#: (layer, module, owner, public calls).  ``owner`` None means module
#: functions.  ``hw.smp`` includes the CPU interpreter and the
#: associative-memory probes, which have no public call of their own.
LAYER_CALLS = [
    ("hw.smp", "repro.hw.smp", "SmpComplex", ["run_jobs"]),
    ("vm.page_control", "repro.vm.page_control", "PageControl",
     ["service_sync"]),
    ("kernel.gates", "repro.kernel.gates", "GateTable", ["call"]),
    ("security.reference_monitor", "repro.security.reference_monitor",
     "ReferenceMonitor", ["check"]),
    ("security.audit", "repro.security.audit", "AuditLog", ["log"]),
    ("obs.meters", "repro.obs.meters", "Meters",
     ["note_gate", "note_execution", "note_cpu_slice"]),
    ("obs.timeline", "repro.obs.timeline", "TimelineSampler", ["poll"]),
    ("obs.health", "repro.obs.health", "HealthMonitor", ["observe"]),
    ("user.login", "repro.user.login", "LoginListener", ["login"]),
    ("user.search_rules", "repro.user.search_rules", "UserSearchRules",
     ["resolve", "resolve_dir", "initiate_path"]),
    ("workloads.driver", "repro.workloads.driver", "WorkloadDriver",
     ["run"]),
    ("workloads.driver", "repro.workloads.driver", None,
     ["generate_population"]),
    ("init", "repro.system", "MulticsSystem", ["boot"]),
    ("kernel.services", "repro.kernel.services", "KernelServices",
     ["__init__", "register_user"]),
]

LAYERS = list(dict.fromkeys(layer for layer, *_ in LAYER_CALLS))


class LayerTracer:
    """Keeps spans in memory while installed; see the module docstring."""

    def __init__(self) -> None:
        #: Call sites: index -> (layer, "Owner.method").
        self.sites: list[tuple[str, str]] = []
        #: Spans: (site, start_ns, end_ns, parent span or -1, tag).
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._batches = 0

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, owner, names in LAYER_CALLS:
            module = importlib.import_module(module_name)
            target = getattr(module, owner) if owner else module
            for name in names:
                original = vars(target)[name]
                self.sites.append((layer, f"{owner or module_name}.{name}"))
                wrapped = self._wrap(len(self.sites) - 1, original,
                                     self._tagger(owner, name))
                setattr(target, name, wrapped)
                self._patches.append((target, name, original))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def _tagger(self, owner, name):
        if (owner, name) == ("LoginListener", "login"):
            return lambda args: {"user": args[1]}
        if (owner, name) == ("SmpComplex", "run_jobs"):
            def batch(_args):
                self._batches += 1
                return {"batch": self._batches - 1}
            return batch
        return None

    def _wrap(self, site: int, fn, tagger):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            tag = tagger(args) if tagger is not None else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (site, start, end, parent, tag)

        return functools.update_wrapper(traced, fn)

    # -- reading ---------------------------------------------------------

    def layer_times(self) -> dict[str, dict]:
        """Per layer: self seconds, inclusive seconds and call count."""
        child_ns = [0] * len(self.spans)
        for site, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table = {layer: {"self_ns": 0, "incl_ns": 0, "calls": 0}
                 for layer in LAYERS}
        for sid, (site, start, end, _, _) in enumerate(self.spans):
            row = table[self.sites[site][0]]
            row["self_ns"] += end - start - child_ns[sid]
            row["incl_ns"] += end - start
            row["calls"] += 1
        return {
            layer: {"self_s": row["self_ns"] / 1e9,
                    "incl_s": row["incl_ns"] / 1e9,
                    "calls": row["calls"]}
            for layer, row in table.items()
        }

    def write_chrome_trace(self, path, title: str) -> None:
        """The spans as Chrome trace-event JSON (Perfetto), one lane,
        timed from the first span's start."""
        origin_ns = self.spans[0][1]
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": title}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "host thread"}},
        ]
        for sid, (site, start, end, parent, tag) in enumerate(self.spans):
            layer, call = self.sites[site]
            args = {"span": sid, "parent": parent}
            if tag:
                args.update(tag)
            events.append({
                "name": call, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin_ns) / 1000,
                "dur": (end - start) / 1000, "args": args,
            })
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out,
                      separators=(",", ":"))
