"""Counting timers around fatflat's public functions, for the traced run.

``Tracer.install`` wraps every public function and public method of the
package's modules, and rebinds each name another module imported (such as
``flow.christoffel`` or ``cylinder.max_plane_curvature``) to the same
wrapper.  Each wrapper counts calls and adds up inclusive and self time;
self time is the call's duration minus the time of the wrapped calls made
inside it.  Spans (name, parent, start, end) are kept in memory for the
first ``SPANS_PER_NAME`` calls of each name, so that hot leaf functions
cannot fill memory, and are written out by ``write`` when the run ends.
Nothing is wrapped until ``install`` is called.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("profiles", "geometry", "flow", "cylinder", "arith", "flats",
           "cli", "rng", "dualnum")
# report-all sub-suites: cli._run_<name>, timed as cli.<name>
SUBSUITES = ("verify_profile", "verify_curvature", "holonomy", "closing_scan",
             "eigen_obstruction", "ff_lemma", "flats_hausdorff",
             "flats_translation", "flats_thicken")
SPANS_PER_NAME = 1000


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counters: defaultdict = defaultdict(float)
        self.spans: list = []
        self._stack: list = []
        self._active: Counter = Counter()
        self._patches: list = []

    def timed(self, name, fn, after=None):
        """Wrap ``fn`` as a counted, timed span called ``name``.  ``after``
        sees (args, kwargs, result) and may add to ``counters``."""
        stack, spans, perf = self._stack, self.spans, time.perf_counter
        calls, total, self_time = self.calls, self.total, self.self_time
        active = self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = stack[-1] if stack else None
            parent = outer[1] if outer is not None else -1
            record = calls[name] < SPANS_PER_NAME
            if record:
                sid = len(spans)
                spans.append(None)
            frame = [0.0, sid if record else parent]
            stack.append(frame)
            active[name] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                if outer is not None:
                    outer[0] += dur
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[0]
                if record:
                    spans[sid] = (name, parent, t0, t1)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        mods = {m: importlib.import_module(f"fatflat.{m}") for m in MODULES}
        wrappers = {}
        hooks = {"flats.union_volume": self._count_samples}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrappers[obj] = self.timed(name, obj, hooks.get(name))
                elif inspect.isclass(obj):
                    for meth_name, meth in list(vars(obj).items()):
                        if (not meth_name.startswith("_")
                                and inspect.isfunction(meth)):
                            self._patch(obj, meth_name, self.timed(
                                f"{short}.{attr}.{meth_name}", meth))
        # every module-level binding of a wrapped function, imports included
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for sub in SUBSUITES:
            fn = getattr(mods["cli"], f"_run_{sub}")
            self._patch(mods["cli"], f"_run_{sub}", self.timed(f"cli.{sub}", fn))
        step_count = mods["flow"]._step_count
        self._patch(mods["flow"], "_step_count", self.timed(
            "flow._step_count", step_count, self._count_steps))
        self._patch(np.linalg, "eigvalsh", self._eigvalsh(np.linalg.eigvalsh))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def _count_steps(self, args, kwargs, result):
        self.counters["flow.rk4_steps"] += result[0]

    def _count_samples(self, args, kwargs, result):
        self.counters["flats.union_volume.samples"] += result.samples

    def _eigvalsh(self, original):
        counters, active = self.counters, self._active

        def eigvalsh(*args, **kwargs):
            if active["flow.riccati_expansion"]:
                counters["flow.eigvalsh_fallbacks"] += 1
            return original(*args, **kwargs)

        return eigvalsh

    def snapshot(self) -> dict:
        """Cumulative totals: <name>.calls, <name>.s, <name>.self_s, counters."""
        out = dict(self.counters)
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        return out

    def write(self, path):
        """Spans as JSON lines, then one line of cumulative totals."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, (name, parent, t0, t1) in enumerate(self.spans):
                handle.write(json.dumps({"id": sid, "parent": parent,
                                         "name": name, "start": t0,
                                         "end": t1}) + "\n")
            handle.write(json.dumps({"totals": self.snapshot()}) + "\n")
