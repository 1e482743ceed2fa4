"""Timing probes installed from outside the library.

Two probes, both installed by replacing a function in the namespace where
its caller looks it up and restored afterwards:

* ``OpClock`` timestamps every call of one function (the workload's
  repeated operation) and is cheap enough for the untraced run.
* ``Tracer`` wraps every public boundary of every layer, records one span
  (name, start, end, parent) per call in memory, and turns the spans into
  per-layer self times and counts when the run ends.

A layer's self time is a span's duration minus the time its child spans
cover.  Nested calls into the same layer (``predict`` calling
``predict_proba`` calling ``logits``) collapse into the outermost span, so
each layer is counted once per call from another layer.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from malrobust import attacks, cli, data, defenses, evaluation, nn

GRAD_METHODS = ("input_gradients", "logit_cot_input_gradients")
VIEW_METHODS = ("predict_proba", "predict", "logits", "loss") + GRAD_METHODS
REPORTED_ATTACKS = ("grosse", "bga", "bca", "pgd_l1", "pgd_l2", "pgd_linf",
                    "pgd_adam", "ead", "fgsm", "mimicry")
CLI_STAGES = ("gen", "train", "attack", "evaluate", "report")


class Patcher:
    """Replace attributes and put the originals back."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def undo(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


OP_START, OP_END, CUT = 0, 1, 2  # kinds of OpClock events


class OpClock:
    """Times every call of one function, pass by pass.

    A pass's timeline is cut into segments at the start and end of each
    call of the function (an operation), at each call of a ``cuts``
    function, at each boundary and at each span edge.  Passes repeat
    identical work, so the fastest time of each segment over the passes is
    its cost with the least interference from other load on the machine.
    On a shared host that load comes in spells of seconds with short fast
    gaps between them, so short segments and many short passes are what
    let each part of a pass meet a fast gap.  An operation's time is the
    sum of the fastest times of the segments inside its call.
    """

    def __init__(self, owner, attr, cuts=()):
        self.owner, self.attr = owner, attr
        self.cuts = tuple(cuts)  # (owner, attr) of functions whose calls cut
        self.passes = []   # per pass: (segment durations, kind of event starting each)
        self._events = []  # (time, kind) of the current pass

    @contextmanager
    def installed(self):
        """Time one pass, which ends when the context exits."""
        events = self._events = [(time.perf_counter(), CUT)]

        def operation(original):
            def timed(*args, **kwargs):
                events.append((time.perf_counter(), OP_START))
                try:
                    return original(*args, **kwargs)
                finally:
                    events.append((time.perf_counter(), OP_END))
            return timed

        def cutting(original):
            def timed(*args, **kwargs):
                events.append((time.perf_counter(), CUT))
                return original(*args, **kwargs)
            return timed

        patcher = Patcher()
        patcher.set(self.owner, self.attr, operation(vars(self.owner)[self.attr]))
        for owner, attr in self.cuts:
            patcher.set(owner, attr, cutting(vars(owner)[attr]))
        try:
            yield self
        finally:
            self.boundary()
            patcher.undo()
            times, kinds = zip(*events)
            self.passes.append((np.diff(times), np.array(kinds[:-1])))

    def boundary(self):
        self._events.append((time.perf_counter(), CUT))

    @contextmanager
    def span(self, name):
        self.boundary()
        try:
            yield
        finally:
            self.boundary()

    def fastest(self):
        """Each segment's fastest duration over the passes, and the time of
        each operation as the sum of the fastest segments inside it."""
        kinds = self.passes[0][1]
        if any(not np.array_equal(k, kinds) for _, k in self.passes):
            raise RuntimeError("passes differ in their sequence of operations")
        segments = np.min([d for d, _ in self.passes], axis=0)
        op_id = np.cumsum(kinds == OP_START) - 1
        inside = np.cumsum((kinds == OP_START).astype(int) - (kinds == OP_END)) > 0
        ops = np.bincount(op_id[inside], weights=segments[inside],
                          minlength=int(op_id[-1]) + 1)
        return segments, ops


class Tracer:
    """In-memory span recorder over the library's layer boundaries."""

    def __init__(self):
        self.names = []           # span name per name id
        self._ids = {}
        self.spans = []           # [name id, start, end, parent, is_grad]
        self.stack = []
        self.counts = Counter()
        self.runs = []            # [attack name, steps, success] per run_single
        self.passes = 0
        self.paused = False
        self.ensemble_depth = 0
        self._patcher = Patcher()

    # ------------------------------------------------------------ recording

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name, is_grad=False):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([self._name_id(name), time.perf_counter(), 0.0,
                           parent, is_grad])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def current(self):
        return self.names[self.spans[self.stack[-1]][0]] if self.stack else None

    def boundary(self):
        """Operation boundaries matter only to ``OpClock``."""

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def probe(self):
        """Run measurement code outside every layer's self time."""
        idx = self._open("trace.probe")
        self.paused = True
        try:
            yield
        finally:
            self.paused = False
            self._close(idx)

    def wrap(self, name, fn, *, is_grad=False, collapse=True, rows=None,
             after=None, when=None):
        """Wrapper that records ``fn`` as a span of ``name``.

        ``name`` may be a callable of the call arguments; ``when`` may veto
        the span; ``rows`` is the position of an argument whose row count is
        summed; ``after`` gets the result and runs inside a probe span.
        """
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            if (collapse and tracer.current() == span_name) or \
                    (when is not None and not when(tracer)):
                return fn(*args, **kwargs)
            idx = tracer._open(span_name, is_grad)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if rows is not None:
                x = args[rows]
                tracer.counts[span_name + ".rows"] += x.shape[0] if np.ndim(x) == 2 else 1
            if after is not None:
                with tracer.probe():
                    after(tracer, span_name, args, kwargs, out)
            return out

        return traced

    # ------------------------------------------------------------ install

    def _patch(self, name, owners_attrs, count=None, **kw):
        for owner, attr in owners_attrs:
            fn = vars(owner)[attr]
            if count is not None and attr in GRAD_METHODS:
                fn = count(fn)
            self._patcher.set(owner, attr, self.wrap(
                name, fn, is_grad=attr in GRAD_METHODS, **kw))

    def _ensemble_grads(self, fn):
        def counted(*args, **kwargs):
            self.counts["ensemble.grads"] += 1
            self.ensemble_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.ensemble_depth -= 1
        return counted

    def _member_grads(self, fn):
        def counted(*args, **kwargs):
            if self.ensemble_depth:
                self.counts["ensemble.member_grads"] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self):
        H, E, M = defenses.HardenedClassifier, defenses.EnsembleClassifier, nn.MlpClassifier
        p = self._patch
        p("nn.input_grad", [(M, a) for a in GRAD_METHODS], rows=1)
        p("nn.forward", [(M, a) for a in ("logits", "predict_proba", "predict")])
        p("nn.adam", [(m, "adam_step") for m in (nn, attacks, defenses)])
        p("nn.dense_stack", [(nn.DenseStack, a) for a in ("forward", "forward_cached", "backward")])
        p("nn.train_supervised", [(nn, "train_supervised"), (evaluation, "train_supervised")])
        p("data.project", [(m, "project_to_m") for m in (data, attacks, defenses)], rows=1)
        p("data.io", [(data, a) for a in ("read_sparse", "write_sparse", "read_policy",
                                          "write_policy")], after=_count_bytes("data.io"))
        p("defenses.inner_max", [(defenses, "inner_maximize")], after=_inner_max_gain)
        p("defenses.train", [(defenses, "train_hardened"), (evaluation, "train_hardened")])
        p("defenses.view", [(E, a) for a in VIEW_METHODS], count=self._ensemble_grads)
        p("defenses.view", [(H, a) for a in VIEW_METHODS], count=self._member_grads)
        p("attacks.suite", [(m, "run_attack_suite") for m in (attacks, cli, evaluation)])
        p(lambda args: "attacks." + args[4].name, [(attacks, "run_single")], after=_record_run)
        p("attacks.grey_judge", [(attacks, "_misclassified")], when=_in_suite)
        p("attacks.grey_judge", [(attacks, "_outcome")], when=_in_suite, after=_judge_result)
        p("evaluation", [(evaluation, a) for a in ("evaluate_models", "train_defense",
                                                   "train_surrogate", "select_attack_pool",
                                                   "report_table")])
        p("cli.checkpoint", [(nn, "save_model"), (nn, "load_model"),
                             (defenses, "save_hardened"), (defenses, "load_hardened"),
                             (defenses, "save_ensemble"), (defenses, "load_ensemble")],
          collapse=False, after=_count_bytes("cli.checkpoint"))
        try:
            yield self
        finally:
            self._patcher.undo()

    # ------------------------------------------------------------ results

    def arrays(self):
        if not self.spans:
            return (np.zeros(0, int), np.zeros(0), np.zeros(0), np.zeros(0, int),
                    np.zeros(0, bool))
        name_id, start, end, parent, is_grad = (np.asarray(c) for c in zip(*self.spans))
        return (name_id.astype(int), start.astype(float), end.astype(float),
                parent.astype(int), is_grad.astype(bool))

    def write(self, path):
        """Write every span as columns of an .npz file."""
        name_id, start, end, parent, is_grad = self.arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.asarray(self.names), name_id=name_id,
                 start=start, end=end, parent=parent, is_grad=is_grad)

    def layer_metrics(self) -> dict:
        """Per-layer self times and counts, per traced pass."""
        name_id, start, end, parent, is_grad = self.arrays()
        k = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur)) if len(dur) else dur
        self_time = dur - child
        self_by_name = np.bincount(name_id, weights=self_time, minlength=k)
        total_by_name = np.bincount(name_id, weights=dur, minlength=k)
        calls_by_name = np.bincount(name_id, minlength=k)
        n = max(self.passes, 1)

        def self_s(name):
            return float(self_by_name[self._ids[name]]) / n if name in self._ids else 0.0

        def total_s(name):
            return float(total_by_name[self._ids[name]]) / n if name in self._ids else 0.0

        def calls(name):
            return int(calls_by_name[self._ids[name]]) if name in self._ids else 0

        def ratio(a, b):
            return float(a) / b if b else 0.0

        c = self.counts
        m = {}
        for layer in ("nn.input_grad", "data.project"):
            m[f"{layer}.calls"] = calls(layer) / n
            m[f"{layer}.rows_per_call"] = ratio(c[f"{layer}.rows"], calls(layer))
            m[f"{layer}.self_s"] = self_s(layer)
        m["nn.forward.calls"] = calls("nn.forward") / n
        m["nn.forward.self_s"] = self_s("nn.forward")
        m["nn.forwards_per_grad"] = ratio(calls("nn.forward"), calls("nn.input_grad"))
        m["nn.adam.calls"] = calls("nn.adam") / n
        m["nn.adam.self_s"] = self_s("nn.adam")
        m["nn.dense_stack.self_s"] = self_s("nn.dense_stack")
        m["nn.train_supervised.self_s"] = self_s("nn.train_supervised")
        m["data.io.self_s"] = self_s("data.io")
        m["data.io.bytes"] = c["data.io.bytes"] / n
        m["defenses.inner_max.calls"] = calls("defenses.inner_max") / n
        m["defenses.inner_max.self_s"] = self_s("defenses.inner_max")
        m["defenses.inner_max.loss_gain"] = ratio(c["inner_max.gain_sum"],
                                                  calls("defenses.inner_max"))
        m["defenses.inner_max.flips_per_example"] = ratio(c["inner_max.flips"],
                                                          c["inner_max.rows"])
        m["defenses.train.self_s"] = self_s("defenses.train")
        m["defenses.view.self_s"] = self_s("defenses.view")
        m["defenses.ensemble.member_grads_per_grad"] = ratio(c["ensemble.member_grads"],
                                                             c["ensemble.grads"])
        m["attacks.suite.self_s"] = self_s("attacks.suite")
        m["attacks.grey_judge.self_s"] = self_s("attacks.grey_judge")
        grad_child = is_grad & has_parent
        grads_under = np.bincount(name_id[parent[grad_child]], minlength=k) \
            if grad_child.any() else np.zeros(k, int)
        runs = {}
        for attack, steps, success in self.runs:
            r = runs.setdefault(attack, [0, 0, 0])
            r[0] += 1
            r[1] += steps
            r[2] += int(success)
        for attack in REPORTED_ATTACKS:
            span_name = "attacks." + attack
            count, steps, successes = runs.get(attack, (0, 0, 0))
            grads = int(grads_under[self._ids[span_name]]) if span_name in self._ids else 0
            m[f"{span_name}.self_s"] = self_s(span_name)
            m[f"{span_name}.steps_per_example"] = ratio(steps, count)
            m[f"{span_name}.grad_evals_per_step"] = ratio(grads, steps)
            m[f"{span_name}.success"] = ratio(successes, count)
        m["evaluation.self_s"] = self_s("evaluation")
        for stage in CLI_STAGES:
            m[f"cli.{stage}_s"] = total_s(f"cli.{stage}")
        m["cli.checkpoint.self_s"] = self_s("cli.checkpoint")
        m["cli.checkpoint.bytes"] = c["cli.checkpoint.bytes"] / n
        return m


# -------------------------------------------------------------- hooks

def _rows(x):
    return np.atleast_2d(np.asarray(x)).shape[0]


def _count_bytes(layer):
    def after(tracer, name, args, kwargs, out):
        path = out if isinstance(out, str) else args[0]
        tracer.counts[f"{layer}.bytes"] += os.path.getsize(path)
    return after


def _inner_max_gain(tracer, name, args, kwargs, out):
    """Loss on the rounded adversarial batch minus loss on the clean batch."""
    model, X, y = args[0], args[1], args[2]
    X_adv = out[0]
    gain = float(np.mean(model.loss(X_adv, y)) - np.mean(model.loss(X, y)))
    tracer.counts["inner_max.gain_sum"] += gain
    tracer.counts["inner_max.flips"] += int(np.count_nonzero(X_adv != X))
    tracer.counts["inner_max.rows"] += _rows(X)


def _in_suite(tracer):
    return tracer.current() == "attacks.suite"


def _record_run(tracer, name, args, kwargs, out):
    tracer.runs.append([name.split(".", 1)[1], out.steps_used, out.success])


def _judge_result(tracer, name, args, kwargs, out):
    # grey-box: the suite re-judges the surrogate's output on the victim
    tracer.runs[-1][2] = out.success
