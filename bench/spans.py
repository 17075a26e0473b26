"""Outside-in span and counter recording for the spherereg benchmark.

``install`` replaces the layer functions listed in ``SPANS`` (and the
counter-only functions in ``COUNTERS``) with wrappers that record a span
``(name, start, end, parent, op)`` around each call.  Nothing under
``src/`` changes: a function imported by name into another module is
replaced at every binding site, and methods are replaced on their class.
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

MODULES = ("mesh", "autodiff", "optim", "conv", "warp", "crf", "metrics",
           "pipeline", "cli")

REGISTER = frozenset({"register-o4", "register-o5"})
TRAIN = frozenset({"train-o4"})
ALL = REGISTER | TRAIN

# (module, attribute path, workloads on which the span must fire)
SPANS = (
    ("warp", "locate_warped_faces", REGISTER),
    ("warp", "resample_tensor", REGISTER),
    ("warp", "upsample_deformation_tensor", REGISTER),
    ("warp", "soft_deform_tensor", REGISTER),
    ("warp", "compose", REGISTER),
    ("warp", "resample_moving", REGISTER),
    ("warp", "write_def", REGISTER),
    ("autodiff", "Tensor.backward", ALL),
    ("conv", "RegistrationNet.logits", ALL),
    ("conv", "MoNetLayer.forward", ALL),
    ("crf", "crf_forward_tensor", ALL),
    ("optim", "ParamStore.adam_step", ALL),
    ("optim", "read_gmw", REGISTER),
    ("optim", "write_gmw", ALL),
    ("metrics", "total_loss", ALL),
    ("metrics", "distortion_stats", REGISTER),
    ("metrics", "metrics_report", REGISTER),
    ("pipeline", "StageModel.refine", REGISTER),
    ("pipeline", "StageModel.register", ALL),
    ("pipeline", "StageModel.pair_loss", TRAIN),
    ("pipeline", "register_pair", REGISTER),
    ("pipeline", "train_stage", TRAIN),
    ("pipeline", "warp_pairs", TRAIN),
    ("pipeline", "generate_synthetic_pair", ALL),
    ("mesh", "read_sfm", ALL),
    ("mesh", "write_sfm", REGISTER),
    ("mesh", "barycentric_map", REGISTER),
    ("cli", "main", ALL),
)

REFINE = "pipeline.StageModel.refine"
ADAM = "optim.ParamStore.adam_step"


def _count_locate(rec, args):
    queries, endpoints = len(args["queries"]), len(args["endpoints"])
    rec.sums["warp.locate_warped_faces.queries"] += queries
    # bytes of the dense queries @ endpoints.T product, computed, not measured
    key = "warp.locate_warped_faces.dense_bytes"
    rec.maxima[key] = max(rec.maxima.get(key, 0), queries * endpoints * 8)


def _count_gather(rec, args):
    rec.sums["autodiff.gather.calls"] += 1
    rec.sums["autodiff.gather.rows"] += int(np.size(args["index"]))


def _count_meanfield(rec, args):
    rec.sums["crf.iterations"] += 1


# counters recorded around a call; a name also in SPANS gets a span too
COUNTERS = {
    ("warp", "locate_warped_faces"): _count_locate,
    ("autodiff", "gather"): _count_gather,
    ("crf", "meanfield_step"): _count_meanfield,
}

COUNTER_NAMES = ("warp.locate_warped_faces.queries",
                 "warp.locate_warped_faces.dense_bytes",
                 "autodiff.gather.calls", "autodiff.gather.rows",
                 "crf.iterations")


def span_names():
    return [f"{module}.{path}" for module, path, _ in SPANS]


class Recorder:
    """Spans and counters of one traced pass, kept in memory.

    Nothing is recorded outside ``operation``.  In a ``shallow`` operation
    (input generation) only the outermost span is kept, and no counters,
    so that work the benchmark does to make inputs stays out of the layer
    totals.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.sums = Counter()
        self.maxima = {}
        self.op = None
        self.shallow = False
        self.stack = []

    @contextmanager
    def operation(self, op_id, shallow=False):
        self.op, self.shallow = op_id, shallow
        try:
            yield
        finally:
            self.op, self.shallow = None, False

    def _skip(self):
        return self.op is None or (self.shallow and self.stack)

    def wrap(self, fn, name, count=None, span=True):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._skip():
                return fn(*args, **kwargs)
            if count is not None and not self.shallow:
                count(self, signature.bind(*args, **kwargs).arguments)
            if not span:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append([name, 0.0, 0.0, parent, self.op])
            self.stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index][1:3] = [start, end]

        return traced


def install(rec: Recorder):
    """Wrap every SPANS and COUNTERS target; returns the undo list."""
    modules = [importlib.import_module(f"spherereg.{m}") for m in MODULES]
    spanned = {(m, p) for m, p, _ in SPANS}
    plan = [(m, p, COUNTERS.get((m, p)), True) for m, p, _ in SPANS]
    plan += [(m, p, count, False) for (m, p), count in COUNTERS.items()
             if (m, p) not in spanned]
    undo = []
    for module, path, count, span in plan:
        owner = importlib.import_module(f"spherereg.{module}")
        name = f"{module}.{path}"
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, rec.wrap(original, name, count, span))
            undo.append((owner, attr, original))
            continue
        original = getattr(owner, path)
        wrapper = rec.wrap(original, name, count, span)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def layer_metrics(rec: Recorder) -> dict:
    """Per-span calls, inclusive seconds and self seconds, plus counters.

    Self time is a span's duration minus the time its child spans cover.
    """
    spans = rec.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    calls, total, self_s = Counter(), Counter(), Counter()
    steps = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[i]
        if name == ADAM and parent is not None and spans[parent][0] == REFINE:
            steps += 1
    out = {}
    for name in span_names():
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name]
        out[f"{name}.self_s"] = self_s[name]
    for key in COUNTER_NAMES:
        out[key] = rec.maxima.get(key, rec.sums[key])
    out["pipeline.refine.steps"] = steps
    return out


def missing_spans(rec: Recorder, workload: str):
    """Spans mapped to ``workload`` that never fired (a stale binding)."""
    fired = {name for name, *_ in rec.spans}
    return [f"{m}.{p}" for m, p, on in SPANS
            if workload in on and f"{m}.{p}" not in fired]

