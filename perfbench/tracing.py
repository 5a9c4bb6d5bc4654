"""Spans around the library's public functions, installed from outside.

A :class:`Tracer` wraps each traced function and puts the wrapper at every
``so2frames`` module attribute that holds the original, so callers that
imported the name (``model.to_local``), look it up lazily
(``so2ops.so2_ffn``) or go through the module (``ad.backward``) all reach
it.  The library itself is unchanged, and nothing is wrapped in untraced
runs.

Spans are kept in memory as ``(name id, start, end, parent index, op id)``
and only inside an op; :meth:`Tracer.write` dumps them at exit.  Self time
is a span's duration minus the time covered by its direct children.  Work
the tracer does for counting (walking the autodiff tape, reading file
sizes) runs in hidden ``trace.hook`` spans, so it is charged to no layer.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, function) pairs; the span name is "module.function".
SPANS = (
    ("graph", "build_graph"),
    ("model", "prepare_graph"),
    ("frames", "frame_from_direction"),
    ("frames", "wigner_d"),
    ("frames", "to_local"),
    ("frames", "from_local"),
    ("model", "predict"),
    ("model", "forward"),
    ("model", "message_pass"),
    ("model", "equivariant_layernorm_so3"),
    ("model", "node_update_so2tp"),
    ("model", "offdiag_update"),
    ("model", "init_params"),
    ("model", "adam_step"),
    ("model", "fit_demo"),
    ("so2ops", "so2_linear"),
    ("so2ops", "so2_gate"),
    ("so2ops", "so2_layernorm"),
    ("so2ops", "so2_tp_contract"),
    ("so2ops", "so2_ffn"),
    ("cg", "expansion"),
    ("autodiff", "backward"),
    ("autodiff", "exact_sum"),
    ("autodiff", "paste_blocks"),
    ("hamiltonian", "assemble"),
    ("hamiltonian", "metrics"),
    ("hamiltonian", "generalized_eigensolve"),
    ("hamiltonian", "write_matrix"),
    ("hamiltonian", "read_matrix"),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in SPANS)

# Counts per op, except autodiff.tape_nodes, which is per backward call.
COUNTS = {
    "graph.edges": "edges/op",
    "counter.frame_rotation": "mul/op",
    "counter.so2_linear": "mul/op",
    "counter.so2_tp": "mul/op",
    "autodiff.tape_nodes": "nodes/step",
    "hamiltonian.io_bytes": "B/op",
}

HOOK = "trace.hook"
PACKAGE = "so2frames"


def _path_arg(args, kwargs):
    return kwargs["path"] if "path" in kwargs else args[0]


def _tape_size(out) -> int:
    """Var nodes reachable from ``out`` through ``parents``."""
    from so2frames import autodiff
    seen = set()
    stack = [out]
    while stack:
        node = stack.pop()
        if id(node) in seen or not isinstance(node, autodiff.Var):
            continue
        seen.add(id(node))
        stack.extend(node.parents)
    return len(seen)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.names = list(SPAN_NAMES) + [HOOK]
        self.hook_id = len(self.names) - 1
        self.spans: list = []
        self.stack: list[int] = []
        self.op = None
        self.ops = 0
        self.counts = dict.fromkeys(COUNTS, 0)
        self.op_counts = dict.fromkeys(COUNTS, 0)
        self.backward_calls = 0
        self.absent: list[str] = []
        self.problems: list[str] = []
        self._by_shape: dict = {}
        self._installed: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        hooks = {
            "graph.build_graph": (None, self._count_edges),
            "autodiff.backward": (self._count_tape, None),
            "hamiltonian.write_matrix": (None, self._count_bytes),
            "hamiltonian.read_matrix": (self._count_bytes, None),
        }
        for sid, (mod_name, fn_name) in enumerate(SPANS):
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.absent.append(SPAN_NAMES[sid])
                continue
            pre, post = hooks.get(SPAN_NAMES[sid], (None, None))
            wrapper = self._wrap(sid, original, pre, post)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, sid, fn, pre, post):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if pre is not None:
                self._hook(pre, args, kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (sid, start, end, parent, self.op)
            if post is not None:
                self._hook(post, args, kwargs, result)
            return result

        return wrapper

    def _hook(self, fn, *hook_args):
        parent = self.stack[-1] if self.stack else -1
        start = time.perf_counter()
        fn(*hook_args)
        self.spans.append((self.hook_id, start, time.perf_counter(), parent, self.op))

    def _count_edges(self, args, kwargs, graph):
        self.op_counts["graph.edges"] += len(graph.edges)

    def _count_tape(self, args, kwargs):
        self.op_counts["autodiff.tape_nodes"] += _tape_size(args[0] if args else kwargs["out"])
        self.backward_calls += 1

    def _count_bytes(self, args, kwargs, result=None):
        self.op_counts["hamiltonian.io_bytes"] += os.path.getsize(_path_arg(args, kwargs))

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.op_counts = dict.fromkeys(COUNTS, 0)

    def end_op(self, shape, counter=None) -> None:
        """Close the op.  Ops of equal ``shape`` must have equal counts
        (``OpCounter`` ones included); a mismatch is kept in ``problems``."""
        self.op = None
        self.ops += 1
        if counter is not None:
            for kernel, n in counter.counts.items():
                if f"counter.{kernel}" in self.op_counts:
                    self.op_counts[f"counter.{kernel}"] += n
        for name, n in self.op_counts.items():
            self.counts[name] += n
        first = self._by_shape.setdefault(shape, self.op_counts)
        if first != self.op_counts:
            self.problems.append(f"counts differ between ops of shape {shape}: "
                                 f"{first} vs {self.op_counts}")

    # -- results ------------------------------------------------------------

    def per_op(self) -> dict[str, tuple[float, str]]:
        """``<span>.calls`` and ``<span>.self_ms`` per op, plus the counts."""
        child = [0.0] * len(self.spans)
        for sid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for idx, (sid, start, end, _, _) in enumerate(self.spans):
            calls[sid] += 1
            self_s[sid] += end - start - child[idx]
        ops = max(self.ops, 1)
        out = {}
        for sid, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = (calls[sid] / ops, "calls/op")
            out[f"{name}.self_ms"] = (1e3 * self_s[sid] / ops, "ms/op")
        for name, unit in COUNTS.items():
            base = self.backward_calls if name == "autodiff.tape_nodes" else self.ops
            out[name] = (self.counts[name] / base if base else 0, unit)
        return out

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "op"]
        doc["names"] = self.names
        doc["absent"] = self.absent
        doc["spans"] = [(sid, round(start - self._t0, 9), round(end - self._t0, 9), parent, op)
                        for sid, start, end, parent, op in self.spans]
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
