"""In-memory span tracing around lrsketch's public functions.

`Tracer.install()` replaces each target function with a wrapper that
records one span per call: (id, name, start, end, parent id, run id,
thread id, measure). It patches every lrsketch module attribute bound to
the original function, so names other modules imported with
`from .x import y` are traced too. `uninstall()` restores the originals.
Nothing under src/ is modified on disk, and nothing is written until the
caller dumps `spans` at the end of the run.

Only functions called at most ~10^4 times per run are targets; the
per-op tape methods are deliberately left alone.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict


def _tape_nodes(args, kwargs, result):
    return len(result[1])


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# (module, attribute, measure) for every traced function. The span name is
# "<module>.<attribute>", e.g. "autodiff.Tape.backward_values".
TARGETS = (
    ("linalg", "reference_svd", None),
    ("linalg", "best_rank_k", None),
    ("linalg", "matmul", None),
    ("sketch", "apply_sketch", None),
    ("sketch", "scatter_rows", None),
    ("scw", "scw_approximate", None),
    ("autodiff", "Tape.backward_values", None),
    ("diffsvd", "scw_forward_with_tape", _tape_nodes),
    ("diffsvd", "backward", None),
    ("diffsvd", "scw_power_loss", None),
    ("trainer", "train", None),
    ("evalbench", "generate_dataset", None),
    ("evalbench", "normalize_top_singular", None),
    ("evalbench", "optimal_loss", None),
    ("formats", "save_dmat", _file_bytes),
    ("formats", "load_dmat", _file_bytes),
    ("formats", "save_sketch", _file_bytes),
    ("formats", "load_sketch", _file_bytes),
    ("seeding", "derived_seed", None),
    ("cli", "cmd_gen_data", None),
    ("cli", "cmd_train", None),
    ("cli", "cmd_eval", None),
)

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "run", "thread", "measure")
PACKAGE = "lrsketch"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)  # atomic under the GIL
            stack.append(sid)
            value = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = measure(args, kwargs, result)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer.run_id,
                                     threading.get_ident(), value))

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod_name, attr, measure in TARGETS:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, measure))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def summarize(spans) -> dict:
    """Per (run id, span name): calls, total seconds, self seconds, measure sum.

    Self time is a span's duration minus the durations of its direct
    children (children of one span run on its thread, so they never
    overlap each other).
    """
    child_time: dict = defaultdict(float)
    for sid, name, t0, t1, parent, run, tid, value in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    out: dict = defaultdict(lambda: defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "measure": 0}))
    for sid, name, t0, t1, parent, run, tid, value in spans:
        rec = out[run][name]
        rec["calls"] += 1
        rec["total_s"] += t1 - t0
        rec["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
        if value is not None:
            rec["measure"] += value
    return out


def ancestors(spans) -> dict:
    """Span id -> set of ancestor span names."""
    by_id = {s[0]: s for s in spans}
    memo: dict = {}

    def names(sid):
        if sid in memo:
            return memo[sid]
        parent = by_id[sid][4]
        result = frozenset() if parent is None else names(parent) | {by_id[parent][1]}
        memo[sid] = result
        return result

    for s in sorted(spans, key=lambda s: s[0]):
        names(s[0])
    return memo
