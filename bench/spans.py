"""Per-layer spans recorded from outside the program.

`Tracer.install()` wraps the public functions of each bihomcheck module.  The
modules import each other's functions by name (`from .exactlin import
compose`), so a wrapper is bound under every name, and in every module-level
dict, that holds the original.  Methods are wrapped on their class.

Each call becomes a span (name, parent, start, end) kept in memory.  Span
stacks are thread-local; trials that `cli._run_trials` hands to its worker
pool start their stack from the span that submitted them, so their time is
charged to the right layer.  A span's self time is its duration minus the part
of it covered by its child spans.  Work the tracer does to compute counts runs
inside a `trace.counting` span, so it is not charged to any layer.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, attribute path, span name).  A dotted attribute is a method.
TARGETS = [
    ("exactlin", "compose", "exactlin.compose"),
    ("exactlin", "compose_all", "exactlin.compose_all"),
    ("exactlin", "kron", "exactlin.kron"),
    ("exactlin", "kron_all", "exactlin.kron_all"),
    ("exactlin", "invert", "exactlin.invert"),
    ("exactlin", "solve_linear", "exactlin.solve_linear"),
    ("exactlin", "DenseMap.first_difference", "exactlin.first_difference"),
    ("exactlin", "DenseMap.power", "exactlin.power"),
    ("exactlin", "DenseMap.from_flat", "exactlin.from_flat"),
    ("combinat", "Permutation.matrix", "combinat.Permutation.matrix"),
    ("coherence", "coherence_map", "coherence.coherence_map"),
    ("coherence", "xi_map", "coherence.xi_map"),
    ("coherence", "nprod", "coherence.nprod"),
    ("coherence", "check_exponent_identities", "coherence.check_exponent_identities"),
    ("coherence", "check_lax_figure", "coherence.check_lax_figure"),
    ("coherence", "check_duoidal_figure", "coherence.check_duoidal_figure"),
    ("coherence", "random_lax_instance", "coherence.random_lax_instance"),
    ("coherence", "random_duoidal_instance", "coherence.random_duoidal_instance"),
    ("coherence", "random_double_seq", "coherence.random_double_seq"),
    ("structures", "check_semigroup", "structures.check_semigroup"),
    ("structures", "check_cosemigroup", "structures.check_cosemigroup"),
    ("structures", "check_monoid", "structures.check_monoid"),
    ("structures", "check_comonoid", "structures.check_comonoid"),
    ("structures", "check_bisemigroup", "structures.check_bisemigroup"),
    ("structures", "check_bimonoid", "structures.check_bimonoid"),
    ("structures", "check_module", "structures.check_module"),
    ("structures", "check_comodule", "structures.check_comodule"),
    ("structures", "check_hopf_module", "structures.check_hopf_module"),
    ("structures", "check_generalized_coassoc", "structures.check_generalized_coassoc"),
    ("structures", "check_generalized_assoc", "structures.check_generalized_assoc"),
    ("structures", "delta_n", "structures.delta_n"),
    ("structures", "mu_n", "structures.mu_n"),
    ("twist", "antipode_solve", "twist.antipode_solve"),
    ("twist", "untwist", "twist.untwist"),
    ("twist", "yau_twist", "twist.yau_twist"),
    ("report", "compare_entry", "report.compare_entry"),
    ("report", "make_report", "report.make_report"),
    ("cli", "main", "cli.main"),
    ("cli", "load_instance", "cli.load_instance"),
    ("cli", "save_instance", "cli.save_instance"),
]
COUNTING = "trace.counting"


# Counts recorded at each boundary: name -> fn(args, kwargs, result) -> ((count, value), ...).
def _compose_counts(args, kwargs, result):
    f, g = args[0]._a, args[1]._a
    macs = f.shape[0] * f.shape[1] * g.shape[1]
    useful = int(np.dot(np.count_nonzero(f, axis=0).astype(np.int64),
                        np.count_nonzero(g, axis=1).astype(np.int64)))
    return ("macs", macs), ("useful_macs", useful)


def _first_difference_counts(args, kwargs, result):
    rows, cols = args[0].dst_dim, args[0].src_dim
    scanned = rows * cols if result is None else result[0] * cols + result[1] + 1
    return ("entries_scanned", scanned),


COUNTS = {
    "exactlin.compose": _compose_counts,
    "exactlin.kron": lambda args, kwargs, r: (("out_entries", r.dst_dim * r.src_dim),),
    "exactlin.first_difference": _first_difference_counts,
    "exactlin.solve_linear": lambda args, kwargs, r: (
        ("unknowns", args[1] if len(args) > 1 else kwargs["unknowns"]),),
    "exactlin.from_flat": lambda args, kwargs, r: (("entries", r.dst_dim * r.src_dim),),
    "combinat.Permutation.matrix": lambda args, kwargs, r: (("dense_bytes", r._a.nbytes),),
}


class Tracer:
    """Records spans and counts for the wrapped functions while installed.

    A finished span is a tuple (id, name, parent id, start, end, thread,
    counts).  Tuples of plain values are not tracked by the garbage
    collector, so a long trace does not slow the collections between
    requests.  The `trace.counting` span after a counted call carries its
    counts as (name of the counted span, ((count, value), ...)).
    """

    def __init__(self):
        self._local = threading.local()
        self._bindings = None
        self._ids = itertools.count(1)  # next() on a count is atomic
        # list.append is atomic, so worker threads can share the list.
        self.spans = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [None]
        return stack

    def _wrap(self, name, fn):
        counter = COUNTS.get(name)
        spans, ids, clock = self.spans, self._ids, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid, parent, thread = next(ids), stack[-1], threading.get_ident()
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, parent, start, end, thread, None))
            if counter is not None:
                began = clock()
                counts = counter(args, kwargs, result)
                spans.append((next(ids), COUNTING, parent, began, clock(), thread,
                              (name, counts)))
            return result

        traced.__wrapped__ = fn
        return traced

    def _pool_wrapper(self, run_trials):
        tracer = self

        def traced_run_trials(trials, fn):
            parent = tracer._stack()[-1]

            def trial(index):
                saved = getattr(tracer._local, "stack", None)
                tracer._local.stack = [parent]
                try:
                    return fn(index)
                finally:
                    tracer._local.stack = saved

            return run_trials(trials, trial)

        return traced_run_trials

    # -- installing --------------------------------------------------------

    def _plan(self):
        """Every (namespace, key, original, wrapper) to bind, found once."""
        plan = []

        def rebind(original, wrapper):
            for modname, module in list(sys.modules.items()):
                if modname != "bihomcheck" and not modname.startswith("bihomcheck."):
                    continue
                space = vars(module)
                for key, value in space.items():
                    if value is original:
                        plan.append((space, key, original, wrapper))
                    elif isinstance(value, dict) and key != "__builtins__":
                        plan.extend((value, k, original, wrapper)
                                    for k, v in value.items() if v is original)

        for modname, attr, name in TARGETS:
            module = importlib.import_module(f"bihomcheck.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                plan.append((cls, meth, raw, wrapped))
            else:
                original = getattr(module, attr)
                rebind(original, self._wrap(name, original))
        cli = importlib.import_module("bihomcheck.cli")
        rebind(cli._run_trials, self._pool_wrapper(cli._run_trials))
        return plan

    def _apply(self, which: int):
        for target, key, *values in self._bindings:
            if isinstance(target, type):
                setattr(target, key, values[which])
            else:
                target[key] = values[which]

    def install(self):
        if self._bindings is None:
            self._bindings = self._plan()
        self._apply(1)

    def uninstall(self):
        self._apply(0)

    # -- results -----------------------------------------------------------

    def totals(self):
        """Calls per span name and summed counts per (span name, count)."""
        calls, counts = defaultdict(int), defaultdict(int)
        for _, name, _, _, _, _, counted in self.spans:
            calls[name] += 1
            if counted is not None:
                for key, value in counted[1]:
                    counts[counted[0], key] += value
        calls.pop(COUNTING, None)
        return dict(calls), dict(counts)

    def self_times(self):
        """Self seconds per span name, and seconds when threads overlapped.

        A span's self time is its duration minus the part its child spans
        cover.  Trials on the worker pool run side by side under one parent,
        so an instant shared by k innermost spans gives each 1/k of it; the
        self times then add up to the time covered by root spans.
        """
        names = {s[0]: s[1] for s in self.spans}
        parents = {s[0]: s[2] for s in self.spans}
        ends = {s[0]: s[4] for s in self.spans}
        # Ends sort before starts at equal times; children precede parents.
        events = sorted([(s[3], 1, s[0]) for s in self.spans]
                        + [(s[4], 0, s[0]) for s in self.spans],
                        key=lambda e: (e[0], e[1]))
        open_children = defaultdict(int)
        leaves = set()
        self_s = defaultdict(float)
        overlap, prev = 0.0, None
        for t, starts, sid in events:
            if leaves and t > prev:
                share = (t - prev) / len(leaves)
                for leaf in leaves:
                    self_s[names[leaf]] += share
                if len(leaves) > 1:
                    overlap += t - prev
            prev = t
            parent = parents[sid]
            if starts:
                if open_children[sid] == 0:
                    leaves.add(sid)
                if parent is not None:
                    open_children[parent] += 1
                    leaves.discard(parent)
            else:
                leaves.discard(sid)
                if parent is not None:
                    open_children[parent] -= 1
                    if open_children[parent] == 0 and ends[parent] > t:
                        leaves.add(parent)
        return dict(self_s), overlap

    def write(self, path: str):
        """Write the spans as tab-separated text, one line per span."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tparent\tthread\tname\tstart_s\tend_s\n")
            for sid, name, parent, start, end, thread, _ in self.spans:
                fh.write(f"{sid}\t{parent or 0}\t{thread}\t{name}\t{start:.9f}\t{end:.9f}\n")
