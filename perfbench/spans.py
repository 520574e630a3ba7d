"""Spans and counters recorded around calls into the package's layers.

The package itself carries no instrumentation. ``Instrumentation`` wraps the
public functions and methods of each layer from the outside, records one
span per call (name, start, end, parent, round) and a few counters taken at
the same boundaries, and restores the originals when it is removed, so
untraced rounds run the unmodified code.

Functions are re-bound by identity in every loaded ``metacomment`` module,
which also catches ``from .x import y`` copies and renames such as
``train as train_classifier``.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    """In-memory span list plus named counters."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, round]
        self.counters = defaultdict(float)
        self.samples = defaultdict(list)
        self.round = "setup"
        self._stack = []

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent, self.round]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    def add(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def summary(self, rounds_only: bool = False) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, rnd) in enumerate(self.spans):
            if rounds_only and rnd == "setup":
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["incl_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return dict(out)

    def outermost(self, names) -> tuple:
        """(seconds, count) of spans named in names with no such ancestor."""
        names = set(names)
        total, count = 0.0, 0
        for name, start, end, parent, _ in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
                count += 1
        return total, count

    def classify_latencies(self) -> list:
        """Per-comment seconds of the classify command's loop: from the start
        of a comment's assembly to the end of its two-step decision."""
        started = {}
        latencies = []
        for name, start, end, parent, _ in self.spans:
            if parent < 0 or self.spans[parent][0] != "cli.main":
                continue
            if name == "features.assemble":
                started[parent] = start
            elif name == "evaluation.two_step_classify" and parent in started:
                latencies.append(end - started.pop(parent))
        return latencies

    def dump(self, path, rnd) -> None:
        """Write the summary and the spans of one round as JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        spans = [[index[n], start, end, parent]
                 for n, start, end, parent, r in self.spans if r == rnd]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": self.summary(), "counters": dict(self.counters),
                       "round": rnd, "names": names, "spans": spans}, fh)


def _wrap(tracer: Tracer, name: str, fn, hook=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        record = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(record)
        if hook is not None:
            # counter work is a child span of its own, so no layer pays for it
            inner = tracer.open("trace.hook")
            try:
                hook(tracer, args, kwargs, result, record[2] - record[1])
            finally:
                tracer.close(inner)
        return result
    return traced


class _TimedPattern:
    """A compiled keyword pattern whose findall is recorded as a span."""

    def __init__(self, pattern: re.Pattern, tracer: Tracer):
        self._pattern = pattern
        self._tracer = tracer

    def findall(self, text):
        record = self._tracer.open("features.regex")
        try:
            return self._pattern.findall(text)
        finally:
            self._tracer.close(record)

    def __getattr__(self, attr):
        return getattr(self._pattern, attr)


# -- counters taken at the boundaries ------------------------------------------

def _loaded(tracer, args, kwargs, result, seconds):
    tracer.add("corpus.comments", len(result))


def _positions(corpus, vocab, epochs: int) -> int:
    return epochs * sum(1 for ts in corpus for t in ts.tokens if t in vocab)


def _word_trained(tracer, args, kwargs, result, seconds):
    corpus, params = args[0], args[1]
    kind = params.method
    tracer.add(f"embeddings.{kind}_positions", _positions(corpus, result.vocab,
                                                         params.epochs))
    tracer.add(f"embeddings.{kind}_s", seconds)


def _doc_trained(tracer, args, kwargs, result, seconds):
    corpus, params = args[0], args[1]
    tracer.add("embeddings.dm_positions",
               _positions(corpus, result.word_model.vocab, params.epochs))
    tracer.add("embeddings.dm_s", seconds)


def _matrix_built(tracer, args, kwargs, result, seconds):
    tracer.add("features.matrices")
    tracer.add("features.matrix_columns", result.shape[1])
    tracer.add("features.matrix_cells", result.size)
    tracer.add("features.matrix_nonzero", int((result != 0.0).sum()))
    tracer.samples["features.matrix_mb"].append(result.nbytes / 1e6)


def _classifier_trained(tracer, args, kwargs, result, seconds):
    if result.kind != "linear_svm":
        return
    tracer.add("classifiers.svm_fits")
    tracer.add("classifiers.svm_s", seconds)
    tracer.add("classifiers.svm_epochs", len(result.inner.objective_history))
    tracer.add("classifiers.svm_unconverged", 0 if result.inner.converged else 1)


def _decided(tracer, args, kwargs, result, seconds):
    tracer.add("classifiers.decision_rows", len(result))


def _cross_validated(tracer, args, kwargs, result, seconds):
    tracer.add("evaluation.folds", len(result.fold_metrics))


def _cnn_trained(tracer, args, kwargs, result, seconds):
    model, sequences = args[0], args[1]
    config = args[3] if len(args) > 3 else kwargs.get("config") or model.config
    n = len(sequences)
    tracer.add("neural.batches", config.epochs * -(-n // config.batch_size))
    cells = sum(len(s) for s in sequences)
    tracer.add("neural.positions", cells)
    tracer.add("neural.padding", sum(int((s == 0).sum()) for s in sequences))


# (module, owner, attribute, span name, hook); owner None means the module
# itself. One entry per public boundary of a layer.
TARGETS = (
    ("corpus", None, "load_dataset", "corpus.load_dataset", _loaded),
    ("corpus", None, "save_dataset", "corpus.save_dataset", None),
    ("textprep", None, "preprocess", "textprep.preprocess", None),
    ("embeddings", None, "train_word_embeddings", "embeddings.train_word",
     _word_trained),
    ("embeddings", None, "train_doc_embeddings", "embeddings.train_doc",
     _doc_trained),
    ("embeddings", "WordEmbeddingModel", "save", "embeddings.word_save", None),
    ("embeddings", "WordEmbeddingModel", "load", "embeddings.word_load", None),
    ("embeddings", "WordEmbeddingModel", "most_similar", "embeddings.most_similar",
     None),
    ("embeddings", "DocEmbeddingModel", "save", "embeddings.doc_save", None),
    ("embeddings", "DocEmbeddingModel", "load", "embeddings.doc_load", None),
    ("embeddings", "DocEmbeddingModel", "infer", "embeddings.infer", None),
    ("features", "FeatureExtractor", "assemble", "features.assemble", None),
    ("features", None, "tfidf_fit", "features.tfidf_fit", None),
    ("features", None, "tfidf_transform", "features.tfidf", None),
    ("features", None, "text_stats_features", "features.text_stats", None),
    ("features", None, "semantic_features", "features.semantic", None),
    ("features", None, "metadata_features", "features.metadata", None),
    ("features", None, "class_vectors", "features.class_vectors", None),
    ("features", None, "enrich_keywords", "features.enrich_keywords", None),
    ("features", None, "build_matrix", "features.build_matrix", _matrix_built),
    ("features", None, "anova_f_matrix", "features.anova", None),
    ("classifiers", None, "train", "classifiers.train", _classifier_trained),
    ("classifiers", None, "calibrate", "classifiers.calibrate", None),
    ("classifiers", "TrainedModel", "decision_values", "classifiers.decide",
     _decided),
    ("classifiers", None, "save_model", "classifiers.save_model", None),
    ("classifiers", None, "load_model", "classifiers.load_model", None),
    ("evaluation", None, "cross_validate", "evaluation.cross_validate",
     _cross_validated),
    ("evaluation", None, "stratified_k_fold", "evaluation.stratified_k_fold", None),
    ("evaluation", None, "two_step_classify", "evaluation.two_step_classify", None),
    ("evaluation", None, "write_score_table", "evaluation.write_score_table", None),
    ("neural", None, "build", "neural.build", None),
    ("neural", None, "train", "neural.train", _cnn_trained),
    ("neural", None, "forward", "neural.forward", None),
    ("pipeline", "FeaturePipeline", "_fit_extractor", "features.fit_extractor", None),
    ("pipeline", "FeaturePipeline", "fit", "pipeline.feature_fit", None),
    ("pipeline", "FeaturePipeline", "predict", "pipeline.feature_predict", None),
    ("pipeline", "TwoStepClassifier", "fit", "pipeline.two_step_fit", None),
    ("pipeline", "CnnPipeline", "fit", "pipeline.cnn_fit", None),
    ("pipeline", "CnnPipeline", "predict", "pipeline.cnn_predict", None),
    ("pipeline", None, "build_keyword_sets", "pipeline.build_keyword_sets", None),
    ("pipeline", None, "save_extractor", "pipeline.save_extractor", None),
    ("pipeline", None, "load_extractor", "pipeline.load_extractor", None),
)


class Instrumentation:
    """Installs traced wrappers for TARGETS; ``remove`` restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "metacomment" or n.startswith("metacomment.")]
        for module_name, owner, attr, span, hook in TARGETS:
            module = sys.modules[f"metacomment.{module_name}"]
            if owner is None:
                self._rebind_function(modules, getattr(module, attr),
                                      _wrap(self.tracer, span, getattr(module, attr),
                                            hook))
            else:
                self._patch_method(getattr(module, owner), attr, span, hook)
        self._patch_patterns(sys.modules["metacomment.features"], modules)

    def _rebind_function(self, modules, original, replacement) -> None:
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, replacement)
                    self._undo.append((module, name, original))

    def _patch_method(self, cls, attr, span, hook) -> None:
        original = inspect.getattr_static(cls, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(_wrap(self.tracer, span, original.__func__, hook))
        else:
            replacement = _wrap(self.tracer, span, original, hook)
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, original))

    def _patch_patterns(self, features, modules) -> None:
        compile_pattern = features.compile_keyword_pattern
        tracer = self.tracer

        def timed_compile(*args, **kwargs):
            return _TimedPattern(compile_pattern(*args, **kwargs), tracer)

        self._rebind_function(modules, compile_pattern, timed_compile)

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
