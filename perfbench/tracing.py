"""Span tracing around the public functions of fckan, from outside the package.

``Tracer.install`` replaces the public functions of ``fckan.tensor``,
``fckan.kernels``, ``fckan.training``, ``fckan.models`` and ``fckan.data``
with wrappers that record a span per call: name, start, end, parent span
and the id of the training step or inference batch being run. Every
binding of the same function in any ``fckan`` module is replaced, since the
modules import each other's functions by name. Each tensor op's backward
closure is wrapped when the op records it on the tape, so forward and
backward get separate spans. Counts of elements and tape nodes are taken
in the same wrappers, each inside a span of its own (COUNT_SPAN) that no
metric reports: its time is taken out of the enclosing spans' self and
inclusive times. ``uninstall`` puts the originals back.

Spans are kept in memory. Only calls made while ``phase`` is set are
recorded, so the benchmark's own checks, which also call the program, stay
out of the figures. Per-layer metrics are derived at the end: self time (a
span's duration minus that of its direct children) per operation, except
where the metric table says inclusive or per call.
"""

import sys
import time
from collections import defaultdict

import numpy as np

# (metric, unit, better, span, how); how is "self" (self ms per operation),
# "incl" (inclusive ms per operation), "count" (a counter per operation),
# "call_s" (inclusive seconds per call, set-up phase), "setup_count" (a
# counter per set-up repetition), or "ratio" (numerator, denominator counters)
METRICS = [
    ("tensor.apply_unary.fwd_ms", "ms", "lower", "tensor.apply_unary.fwd", "self"),
    ("tensor.apply_unary.bwd_ms", "ms", "lower", "tensor.apply_unary.bwd", "self"),
    ("kernels.unary_values_ms", "ms", "lower", "kernels.unary_values", "self"),
    ("kernels.unary_derivs_ms", "ms", "lower", "kernels.unary_derivs", "self"),
    ("kernels.unary_elements", "count", "lower", "unary_elements", "count"),
    ("tensor.basis_expand.fwd_ms", "ms", "lower", "tensor.basis_expand.fwd", "self"),
    ("tensor.basis_expand.bwd_ms", "ms", "lower", "tensor.basis_expand.bwd", "self"),
    ("kernels.bspline_values_ms", "ms", "lower", "kernels.bspline_values", "self"),
    ("kernels.bspline_derivs_ms", "ms", "lower", "kernels.bspline_derivs", "self"),
    ("kernels.rbf_values_ms", "ms", "lower", "kernels.rbf_values", "self"),
    ("kernels.rbf_derivs_ms", "ms", "lower", "kernels.rbf_derivs", "self"),
    ("kernels.bspline_elements", "count", "lower", "bspline_elements", "count"),
    ("kernels.rbf_elements", "count", "lower", "rbf_elements", "count"),
    ("kernels.bspline_nonzero_frac", "fraction", "higher",
     ("bspline_nonzero", "bspline_elements"), "ratio"),
    ("tensor.matmul.fwd_ms", "ms", "lower", "tensor.matmul.fwd", "self"),
    ("tensor.matmul.bwd_ms", "ms", "lower", "tensor.matmul.bwd", "self"),
    ("tensor.layer_norm.fwd_ms", "ms", "lower", "tensor.layer_norm.fwd", "self"),
    ("tensor.layer_norm.bwd_ms", "ms", "lower", "tensor.layer_norm.bwd", "self"),
    ("tensor.elementwise.fwd_ms", "ms", "lower", "tensor.elementwise.fwd", "self"),
    ("tensor.elementwise.bwd_ms", "ms", "lower", "tensor.elementwise.bwd", "self"),
    ("tensor.silu.fwd_ms", "ms", "lower", "tensor.silu.fwd", "self"),
    ("tensor.silu.bwd_ms", "ms", "lower", "tensor.silu.bwd", "self"),
    ("tensor.repeat_rows.fwd_ms", "ms", "lower", "tensor.repeat_rows.fwd", "self"),
    ("tensor.repeat_rows.bwd_ms", "ms", "lower", "tensor.repeat_rows.bwd", "self"),
    ("tensor.softmax_cross_entropy.fwd_ms", "ms", "lower", "tensor.softmax_cross_entropy.fwd", "self"),
    ("tensor.softmax_cross_entropy.bwd_ms", "ms", "lower", "tensor.softmax_cross_entropy.bwd", "self"),
    ("tensor.Tape.backward_ms", "ms", "lower", "tensor.Tape.backward", "self"),
    ("tensor.tape_nodes", "count", "lower", "tape_nodes", "count"),
    ("training.AdamW.step_ms", "ms", "lower", "training.AdamW.step", "self"),
    ("training.AdamW.zero_grad_ms", "ms", "lower", "training.AdamW.zero_grad", "self"),
    ("training.evaluate_ms", "ms", "lower", "training.evaluate", "self"),
    ("training.classification_metrics_ms", "ms", "lower", "training.classification_metrics", "self"),
    ("models.forward_ms", "ms", "lower", "models.forward", "incl"),
    ("data.batch_iter_ms", "ms", "lower", "data.batch_iter", "self"),
    ("data.load_dataset_s", "s", "lower", "data.load_dataset", "call_s"),
    ("data.idx_bytes", "bytes", "lower", "idx_bytes", "setup_count"),
    ("models.build_model_s", "s", "lower", "models.build_model", "call_s"),
    ("models.load_model_s", "s", "lower", "models.load_model", "call_s"),
]

COUNT_SPAN = "tracer.count"  # the tracer's own counting, reported nowhere

TENSOR_OPS = ("matmul", "apply_unary", "silu", "elementwise", "layer_norm",
              "softmax_cross_entropy", "basis_expand", "repeat_rows")


def _count_unary(tracer, args, out):
    tracer.add("unary_elements", args[1].size)


def _count_bspline(tracer, args, out):
    tracer.add("bspline_elements", out.size)
    tracer.add("bspline_nonzero", int(np.count_nonzero(out)))


def _count_rbf(tracer, args, out):
    tracer.add("rbf_elements", out.size)


def _count_nodes(tracer, args, out):
    tracer.add("tape_nodes", len(args[0]))


def _count_idx(tracer, args, out):
    tracer.add("idx_bytes", len(args[0]))


class Tracer:
    """In-memory spans and counters for one benchmark run."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, op id, phase]
        self.spans = []
        self.stack = []
        self.phase = None  # None (not recording), "setup" or "timed"
        self.op_id = 0
        self.counts = defaultdict(int)  # (phase, counter name) -> value
        self._patched = []

    # -- recording ----------------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, self.phase])
        self.stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end()
            if counter is not None:
                tracer.begin(COUNT_SPAN)
                try:
                    counter(tracer, args, out)
                finally:
                    tracer.end()
            return out

        return traced

    def add(self, name, n):
        self.counts[(self.phase, name)] += n

    # -- installation -------------------------------------------------------

    def _replace(self, module, attr, new):
        """Point every fckan binding of module.attr at ``new``."""
        old = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("fckan"):
                continue
            for key, value in list(vars(mod).items()):
                if value is old:
                    self._patched.append((mod, key, old))
                    setattr(mod, key, new)

    def _replace_method(self, cls, attr, new):
        self._patched.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, new)

    def install(self):
        from fckan import data, kernels, models, tensor, training

        for op in TENSOR_OPS:
            self._replace(tensor, op, self.wrap(f"tensor.{op}.fwd", getattr(tensor, op)))
        self._replace_method(tensor.Tape, "record", self._traced_record(tensor.Tape.record))
        self._replace_method(tensor.Tape, "backward", self.wrap(
            "tensor.Tape.backward", tensor.Tape.backward, _count_nodes))
        for name in ("unary_values", "unary_derivs"):
            self._replace(kernels, name, self.wrap(f"kernels.{name}", getattr(kernels, name), _count_unary))
        for name in ("bspline_values", "bspline_derivs"):
            self._replace(kernels, name, self.wrap(f"kernels.{name}", getattr(kernels, name), _count_bspline))
        for name in ("rbf_values", "rbf_derivs"):
            self._replace(kernels, name, self.wrap(f"kernels.{name}", getattr(kernels, name), _count_rbf))
        for name in ("train_model", "evaluate", "classification_metrics"):
            self._replace(training, name, self.wrap(f"training.{name}", getattr(training, name)))
        for name in ("step", "zero_grad"):
            self._replace_method(training.AdamW, name, self.wrap(
                f"training.AdamW.{name}", getattr(training.AdamW, name)))
        for name in ("build_model", "load_model"):
            self._replace(models, name, self.wrap(f"models.{name}", getattr(models, name)))
        self._replace_method(models.Model, "forward", self._traced_forward(models.Model.forward))
        self._replace(data, "load_dataset", self.wrap("data.load_dataset", data.load_dataset))
        self._replace(data, "parse_idx", self.wrap("data.parse_idx", data.parse_idx, _count_idx))
        self._replace(data, "batch_iter", self._traced_batch_iter(data.batch_iter))

    def uninstall(self):
        for obj, attr, old in reversed(self._patched):
            setattr(obj, attr, old)
        self._patched.clear()

    def _traced_record(self, record):
        tracer = self

        def traced(tape, output, inputs, backward_fn):
            if tracer.phase is not None and tracer.stack:
                op = tracer.spans[tracer.stack[-1]][0]  # the tensor op emitting this node
                if op.endswith(".fwd"):
                    backward_fn = tracer.wrap(op[:-4] + ".bwd", backward_fn)
            return record(tape, output, inputs, backward_fn)

        return traced

    def _traced_forward(self, forward):
        tracer = self
        wrapped = self.wrap("models.forward", forward)

        def traced(model, X, tape=None):
            if tape is None and tracer.phase is not None:
                tracer.op_id += 1  # an inference batch
            return wrapped(model, X, tape)

        return traced

    def _traced_batch_iter(self, batch_iter):
        tracer = self

        def traced(*args, **kwargs):
            gen = batch_iter(*args, **kwargs)
            while True:
                if tracer.phase is None:
                    item = next(gen, None)
                else:
                    tracer.begin("data.batch_iter")
                    try:
                        item = next(gen, None)
                    finally:
                        tracer.end()
                if item is None:
                    return
                tracer.op_id += 1  # a training step
                yield item

        return traced

    # -- results ------------------------------------------------------------

    def totals(self):
        """{(phase, span name): [self s, inclusive s, calls]}.

        Inclusive times leave out the COUNT_SPAN spans inside them.
        """
        child = [0.0] * len(self.spans)
        hidden = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
            if name == COUNT_SPAN:
                while parent >= 0:
                    hidden[parent] += end - start
                    parent = self.spans[parent][3]
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _, _, phase) in enumerate(self.spans):
            t = out[(phase, name)]
            t[0] += end - start - child[i]
            t[1] += end - start - hidden[i]
            t[2] += 1
        return out

    def metrics(self, ops, setup_reps):
        """Per-layer metric values: ``ops`` timed operations, ``setup_reps`` set-ups."""
        totals = self.totals()
        out = {}
        for name, unit, _, key, how in METRICS:
            if how == "self":
                value = 1e3 * totals[("timed", key)][0] / ops
            elif how == "incl":
                value = 1e3 * totals[("timed", key)][1] / ops
            elif how == "count":
                value = self.counts[("timed", key)] / ops
            elif how == "setup_count":
                value = self.counts[("setup", key)] / setup_reps
            elif how == "call_s":
                incl, calls = totals[("setup", key)][1], totals[("setup", key)][2]
                value = incl / calls if calls else 0.0
            else:  # ratio
                den = self.counts[("timed", key[1])]
                value = self.counts[("timed", key[0])] / den if den else 0.0
            out[name] = {"value": value, "unit": unit}
        return out
