"""Spans at readmit's layer boundaries, recorded from outside the package.

Only traced runs import this module. ``install`` replaces, through module
attributes, the public functions one layer calls in another, and
``TracedEncoder`` honours the encoder contract (``dim`` plus
``__call__(tokens)``) around a real encoder. Spans (name, start, end,
parent) stay in memory until the run ends.

A span's self time is its duration minus the part of it that its child
spans cover. Spans opened on a worker thread with no open span of its own
take the main thread's innermost open span as parent.
"""

import functools
import threading
import time
from contextlib import contextmanager

import numpy as np

from readmit import classifiers, neural, textproc
from readmit.classifiers import TrainedClassifier

NAME, START, END, PARENT, THREAD, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stacks = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident

    @contextmanager
    def span(self, name, **attrs):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            parents = stack or self._stacks.get(self._main) or [-1]
            index = len(self.spans)
            record = [name, 0.0, 0.0, parents[-1], tid, attrs]
            self.spans.append(record)
            stack.append(index)
        record[START] = time.perf_counter()
        try:
            yield attrs
        finally:
            record[END] = time.perf_counter()
            with self._lock:
                stack.pop()


class TracedEncoder:
    """Encoder wrapper: one ``neural.encode`` span per sentence."""

    def __init__(self, inner, tracer):
        self.inner = inner
        self.dim = inner.dim
        self._tracer = tracer

    def __call__(self, tokens):
        with self._tracer.span("neural.encode", key=hash(tuple(tokens))):
            return self.inner(tokens)


def install(tracer):
    """Wrap the cross-layer entry points; returns a function undoing it."""
    def wrap(owner, attr, name, describe):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as attrs:
                out = original(*args, **kwargs)
                attrs.update(describe(args, out))
            return out
        setattr(owner, attr, traced)
        return owner, attr, original

    def predicted(args, probs):
        model = args[0]
        rows = probs.reshape(-1, probs.shape[-1])
        out = {"rows": rows.shape[0]}
        if model.spec.output_kind == "sigmoid":  # the topic model
            out["tagged"] = int(np.any(rows >= 0.5, axis=1).sum())
        return out

    undo = [
        wrap(textproc, "split_sentences", "textproc.split_sentences",
             lambda a, out: {"sentences": len(out)}),
        wrap(neural, "train_mlp", "neural.train_mlp", lambda a, out: {"epochs": out.epochs_run}),
        wrap(neural, "predict", "neural.predict", predicted),
        wrap(classifiers, "train", "classifiers.train", lambda a, out: {"kind": a[0].kind}),
        wrap(classifiers, "importances", "classifiers.importances",
             lambda a, out: {"kind": a[0].spec.kind}),
        wrap(TrainedClassifier, "predict_proba", "classifiers.predict_proba",
             lambda a, out: {"kind": a[0].spec.kind}),
    ]

    def restore():
        for owner, attr, original in undo:
            setattr(owner, attr, original)
    return restore


# ------------------------------------------------------------- derivation

def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


class SpanTree:
    """The spans under one root, with durations and self times."""

    def __init__(self, spans, root):
        self.spans = spans
        self.root = root
        children = {}
        for i in range(root + 1, len(spans)):
            children.setdefault(spans[i][PARENT], []).append(i)
        members, todo = [], [root]
        while todo:
            i = todo.pop()
            members.append(i)
            todo.extend(children.get(i, ()))
        self.members = sorted(members)
        self.children = children
        self.dur = {i: spans[i][END] - spans[i][START] for i in self.members}
        self.self_time = {
            i: self.dur[i] - _covered([(spans[c][START], spans[c][END])
                                       for c in children.get(i, ())])
            for i in self.members
        }
        # time counted twice because sibling spans ran at once on two threads
        self.concurrent = sum(
            sum(self.dur[c] for c in kids) - _covered([(spans[c][START], spans[c][END])
                                                       for c in kids])
            for p, kids in children.items() if p in self.dur)

    def named(self, name):
        return [i for i in self.members if self.spans[i][NAME] == name]

    def under(self, ancestor, name):
        """Spans called ``name`` inside the span ``ancestor``."""
        found, todo = [], list(self.children.get(ancestor, ()))
        while todo:
            i = todo.pop()
            if self.spans[i][NAME] == name:
                found.append(i)
            todo.extend(self.children.get(i, ()))
        return found

    def total(self, indices, key=None):
        if key is None:
            return float(sum(self.dur[i] for i in indices))
        return float(sum(self.spans[i][ATTRS].get(key, 0) for i in indices))

    def self_by_layer(self):
        """Self seconds per layer, the layer being a span name's first part."""
        out = {}
        for i in self.members:
            layer = self.spans[i][NAME].split(".")[0]
            out[layer] = out.get(layer, 0.0) + self.self_time[i]
        return out


def _ratio(num, den):
    return float(num / den) if den else 0.0


def pass_metrics(t: SpanTree, kinds, workers: int) -> dict:
    """Per-layer metrics of one traced pass."""
    m = {}

    loads = t.named("corpus.load")
    notes = t.total(loads, "notes")
    m["corpus.load_s"] = t.total(loads)
    m["corpus.notes"] = notes
    m["corpus.chars_per_note"] = _ratio(t.total(loads, "chars"), notes)

    splits = t.named("textproc.split_sentences")
    sentences = t.total(splits, "sentences")
    m["textproc.split_s"] = t.total(splits)
    m["textproc.split_calls"] = float(len(splits))
    m["textproc.sentences"] = sentences
    m["textproc.us_per_sentence"] = _ratio(1e6 * m["textproc.split_s"], sentences)

    for role, stage in (("topic", "domains.train_topic_model"),
                        ("sentiment", "domains.train_sentiment_models")):
        fits = [i for s in t.named(stage) for i in t.under(s, "neural.train_mlp")]
        epochs = t.total(fits, "epochs")
        m[f"neural.train_s.{role}"] = t.total(fits)
        m[f"neural.epochs.{role}"] = epochs
        m[f"neural.ms_per_epoch.{role}"] = _ratio(1e3 * t.total(fits), epochs)

    predicts = t.named("neural.predict")
    m["neural.predict_s"] = t.total(predicts)
    m["neural.predict_calls"] = float(len(predicts))
    m["neural.predict_rows"] = t.total(predicts, "rows")

    encodes = t.named("neural.encode")
    m["neural.encode_s"] = t.total(encodes)
    m["neural.encode_calls"] = float(len(encodes))
    m["neural.unique_sentence_ratio"] = _ratio(
        len({t.spans[i][ATTRS]["key"] for i in encodes}), len(encodes))
    m["neural.save_load_s"] = t.total(t.named("neural.save_load"))

    for stage, span in (("weak_label", "domains.weak_label"), ("summarize", "domains.summarize")):
        found = t.named(span)
        m[f"domains.{stage}_s"] = t.total(found)
        m[f"domains.{stage}_self_s"] = float(sum(t.self_time[i] for i in found))
    topic_calls = [i for s in t.named("domains.summarize") for i in t.under(s, "neural.predict")
                   if "tagged" in t.spans[i][ATTRS]]
    m["domains.tagged_fraction"] = _ratio(t.total(topic_calls, "tagged"),
                                          t.total(topic_calls, "rows"))

    for stage in ("build", "encode", "csv"):
        m[f"features.{stage}_s"] = t.total(t.named(f"features.{stage}"))

    by_kind = {}
    for name in ("classifiers.train", "classifiers.predict_proba", "classifiers.importances"):
        for i in t.named(name):
            by_kind.setdefault((name, t.spans[i][ATTRS]["kind"]), []).append(i)
    for k in kinds:
        fits = by_kind.get(("classifiers.train", k), [])
        m[f"classifiers.fit_s.{k}"] = t.total(fits)
        m[f"classifiers.fits.{k}"] = float(len(fits))
        m[f"classifiers.ms_per_fit.{k}"] = _ratio(1e3 * t.total(fits), len(fits))
        m[f"classifiers.predict_s.{k}"] = t.total(by_kind.get(("classifiers.predict_proba", k), []))
        m[f"classifiers.importance_s.{k}"] = t.total(
            by_kind.get(("classifiers.importances", k), []))

    ablations = t.named("evaluate.ablation")
    for k in kinds:
        m[f"evaluate.ablation_s.{k}"] = t.total(
            [i for i in ablations if t.spans[i][ATTRS]["kind"] == k])
    m["evaluate.runs"] = float(sum(len(t.under(i, "classifiers.train")) for i in ablations))
    rfes = t.named("evaluate.rfe")
    rfe_s = t.total(rfes)
    m["evaluate.rfe_s"] = rfe_s
    m["evaluate.rfe_fits"] = float(sum(len(t.under(i, "classifiers.train")) for i in rfes))
    m["evaluate.rfe_fits_per_s"] = _ratio(m["evaluate.rfe_fits"], rfe_s)
    # classifier calls made straight from evaluate (not nested in another one)
    busy = sum(t.dur[c] for r in rfes for c in t.children.get(r, ())
               if t.spans[c][NAME].startswith("classifiers."))
    m["evaluate.worker_busy_ratio"] = _ratio(busy, rfe_s * workers)
    return m


def setup_metrics(tree: SpanTree) -> dict:
    return {
        "syngen.generate_s": tree.total(tree.named("syngen.generate")),
        "syngen.sentiment_seed_s": tree.total(tree.named("syngen.sentiment_seed")),
        "corpus.write_s": tree.total(tree.named("corpus.write")),
    }


def spans_rows(tracer: Tracer):
    """Spans as JSON-ready rows [name, start, end, parent, thread]."""
    t0 = tracer.spans[0][START] if tracer.spans else 0.0
    return [[s[NAME], round(s[START] - t0, 7), round(s[END] - t0, 7), s[PARENT], s[THREAD]]
            for s in tracer.spans]
