"""Layer tracing from outside the program.

The tracer replaces public functions of hglearn's modules with wrappers
that record a span per call, and restores the originals afterwards. Every
module-level name bound to a wrapped function is replaced, so calls made
through `from .x import f` bindings are traced too; classes are traced
through their constructor. Spans are kept in memory and written out when the
run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, public name) pairs the benchmark traces, in report order.
TARGETS = (
    ("data", "build_fused_hypergraph"),
    ("data", "load_dataset"),
    ("data", "save_dataset"),
    ("hypergraph", "knn_neighbor_lists"),
    ("hypergraph", "propagation_operator"),
    ("hypergraph", "Hypergraph"),
    ("prompt", "build_prompt_structure"),
    ("prompt", "insert_prompt"),
    ("model", "hgnn_forward_operator"),
    ("autodiff", "forward_backward"),
    ("autodiff", "adamw_step"),
    ("pretrain", "pretrain"),
    ("metrics", "evaluate_logits"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
)

TAPE_COUNTERS = (
    ("autodiff.tape_nodes", "count"),
    ("autodiff.matmul_gflop", "GFLOP"),
    ("autodiff.backward_gflop", "GFLOP"),
    ("autodiff.backward_useful_gflop", "GFLOP"),
)


def layer_metric_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for module, fn in TARGETS:
        base = f"{module}.{fn}"
        names += [(f"{base}.s", "s"), (f"{base}.self_s", "s"), (f"{base}.calls", "count")]
    names += list(TAPE_COUNTERS)
    names += [("trace.overhead_s", "s"), ("trace.hook_s", "s")]
    return names


def tape_counts(root) -> dict:
    """Nodes and matmul work of the expression graph below a scalar loss.

    The backward pass gives every node on the tape a gradient, so each
    matmul node of an (m x k) by (k x n) product costs 2mkn forward and
    2mkn per operand backward. A backward product is useful when its operand
    has a trainable parameter among its ancestors.
    """
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node.parents if id(p) not in seen)
    needs = {}
    fwd = bwd = useful = 0
    for node in order:
        param = node.param
        needs[id(node)] = (param is not None and param.trainable) or any(
            needs[id(p)] for p in node.parents
        )
        if node.op == "matmul":
            a, b = node.parents
            m, k = a.value.shape
            flops = 2 * m * k * b.value.shape[1]
            fwd += flops
            bwd += 2 * flops
            useful += flops * (needs[id(a)] + needs[id(b)])
    return {
        "autodiff.tape_nodes": len(order),
        "autodiff.matmul_gflop": fwd / 1e9,
        "autodiff.backward_gflop": bwd / 1e9,
        "autodiff.backward_useful_gflop": useful / 1e9,
    }


class Tracer:
    """Span recorder that wraps hglearn's public functions while installed."""

    def __init__(self):
        self.spans = []  # [id, parent id or -1, name, start, end]
        self._open = []
        self._restore = []
        self.absent = []
        self.tape = defaultdict(float)
        self.tape_by_command = defaultdict(lambda: defaultdict(float))
        self.command_ids = set()
        # (masked logits, masked labels, reported bacc, reported auc) per evaluate_logits call
        self.evaluations = []
        self.hook_s = 0.0  # time inside the tape and evaluation hooks

    def _wrap(self, name, fn, before=None, after=None):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                mark = clock()
                before(args, kwargs)
                self.hook_s += clock() - mark
            sid = len(spans)
            span = [sid, open_spans[-1] if open_spans else -1, name, 0.0, 0.0]
            spans.append(span)
            open_spans.append(sid)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                open_spans.pop()
            if after is not None:
                mark = clock()
                after(args, kwargs, result)
                self.hook_s += clock() - mark
            return result

        return traced

    @contextlib.contextmanager
    def command(self, name):
        """A span for one benchmark step; layer spans inside it nest under it."""
        sid = len(self.spans)
        span = [sid, self._open[-1] if self._open else -1, name, time.perf_counter(), 0.0]
        self.spans.append(span)
        self.command_ids.add(sid)
        self._open.append(sid)
        try:
            yield
        finally:
            span[4] = time.perf_counter()
            self._open.pop()

    def _count_tape(self, args, kwargs):
        loss = args[0] if args else kwargs["loss"]
        command = self.spans[self._open[0]][2] if self._open else ""
        for key, value in tape_counts(loss).items():
            self.tape[key] += value
            self.tape_by_command[command][key] += value

    def _keep_evaluation(self, args, kwargs, report):
        logits, labels, mask = args
        m = np.asarray(mask, dtype=bool).reshape(-1)
        self.evaluations.append(
            (np.array(logits, dtype=np.float64)[m], np.asarray(labels).reshape(-1)[m].copy(),
             report.bacc, report.auc)
        )

    def install(self):
        hooks = {
            "autodiff.forward_backward": (self._count_tape, None),
            "metrics.evaluate_logits": (None, self._keep_evaluation),
        }
        for module_name, fn_name in TARGETS:
            name = f"{module_name}.{fn_name}"
            try:
                module = importlib.import_module(f"hglearn.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, fn_name, None)
            if original is None:
                self.absent.append(name)
                continue
            before, after = hooks.get(name, (None, None))
            if isinstance(original, type):
                init = original.__dict__.get("__init__")
                if init is None:
                    self.absent.append(name)
                    continue
                original.__init__ = self._wrap(name, init, before, after)
                self._restore.append((original, "__init__", init))
                continue
            traced = self._wrap(name, original, before, after)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "hglearn" or mod_name.startswith("hglearn.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_totals(self) -> dict:
        """Per traced name: total time, self time (children excluded), calls."""
        return self._totals(lambda sid: "")[""]

    def command_totals(self) -> dict:
        """layer_totals split by the benchmark step each span ran under."""
        root = {}
        for sid, parent, *_ in self.spans:
            root[sid] = sid if parent < 0 else root[parent]
        return self._totals(lambda sid: self.spans[root[sid]][2])

    def _totals(self, group) -> dict:
        child = [0.0] * len(self.spans)
        for sid, parent, _name, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}))
        for sid, _parent, name, start, end in self.spans:
            if sid in self.command_ids:
                continue
            entry = totals[group(sid)][name]
            entry["s"] += end - start
            entry["self_s"] += end - start - child[sid]
            entry["calls"] += 1
        return totals

    def write_spans(self, path):
        """Spans as JSON lines: id, parent, name, start, end (seconds)."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
