"""Benchmark command: embed, evaluate and classify workloads.

    python3 perfbench/run.py --workload {embed,evaluate,classify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The package is imported from that
checkout's ``src/``; without it the command fails before measuring. Each
run generates its inputs from ``--seed`` (see gen.py), sets up several
times and reports the median set-up time, then repeats whole rounds of the
workload's operations for ``--seconds`` seconds. Reference passes
(reference.py) run untimed before every set-up and operation, and every
reported time is scaled by the run's reference pace, so that a shared host's
changes of speed cancel out. Every operation's outputs are checked against
the benchmark's own computations; an operation whose check fails counts as
failed. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured on
unmodified code. With ``--trace 1`` untraced and traced rounds alternate;
the traced ones wrap every layer's public functions (spans.py) and give the
per-layer metrics plus the tracing overhead against the untraced rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread: the workloads are single-process and --jobs 1, and a
# fixed thread count keeps timings comparable across machines with more cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import reference  # noqa: E402

SETUPS = 3
PROGRAM_SEED = "1"
BETA = 0.5
THRESHOLD = 0.8

MIN_COUNT = 3
_EMBEDDING = ["--dim", "32", "--window", "2", "--min-count", str(MIN_COUNT),
              "--negative", "5", "--seed", PROGRAM_SEED, "--jobs", "1"]
# embed workload: the three training calls
EMBED_ARGS = _EMBEDDING + ["--epochs", "2"]
# evaluate/classify set-up: the CNN route needs word vectors trained this far
# (at 6 epochs it falls to the all-positive baseline on some seeds)
SETUP_WORD_ARGS = _EMBEDDING + ["--epochs", "10", "--lr", "0.05"]
SETUP_DOC_ARGS = _EMBEDDING + ["--epochs", "2"]
SVM_PARAMS = "C=0.5,tolerance=0.001,max_epochs=500"
CV_FOLDS = 5
# At learning rate 0.01 the CNN fell below the all-positive baseline on some
# seeds; at 0.003 for 25 epochs it beat it on each of seeds 1-20.
CNN_CONFIG = dict(max_len=40, n_filters=16, kernel_size=3, dense_units=16,
                  batch_size=32, epochs=25, learning_rate=0.003, seed=5)

N_EMBED = 300        # embed corpus
N_LABELED = 240      # evaluate/classify training set, also the embedding corpus
N_CNN = 600          # CNN route's labeled set (80 % fit, 20 % held out)
N_UNSEEN = 100       # classify input, fresh ids

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "round_s": "s",
    "quality": "score",
}

PER_LAYER = {
    "corpus.load_us_per_comment": "us",
    "textprep.preprocess_us_per_comment": "us",
    "embeddings.cbow_us_per_position": "us",
    "embeddings.skipgram_us_per_position": "us",
    "embeddings.dm_us_per_position": "us",
    "embeddings.infer_ms_per_comment": "ms",
    "embeddings.infer_calls": "count",
    "embeddings.save_ms": "ms",
    "embeddings.load_ms": "ms",
    "features.assemble_us_per_comment": "us",
    "features.assemble_calls": "count",
    "features.regex_us_per_comment": "us",
    "features.tfidf_us_per_comment": "us",
    "features.text_stats_us_per_comment": "us",
    "features.semantic_us_per_comment": "us",
    "features.metadata_us_per_comment": "us",
    "features.fit_extractor_ms": "ms",
    "features.build_matrix_ms": "ms",
    "features.registry_columns": "count",
    "features.matrix_mb": "MB",
    "features.matrix_nonzero_share": "share",
    "classifiers.svm_fit_ms": "ms",
    "classifiers.svm_epochs_per_fit": "count",
    "classifiers.svm_unconverged_fits": "count",
    "classifiers.predict_us_per_comment": "us",
    "classifiers.calibrate_ms": "ms",
    "evaluation.fold_s": "s",
    "evaluation.two_step_classify_us": "us",
    "neural.train_ms_per_batch": "ms",
    "neural.forward_ms_per_batch": "ms",
    "neural.padding_share": "share",
    "neural.holdout_f05": "score",
    "pipeline.feature_fit_s": "s",
    "pipeline.two_step_fit_s": "s",
    "pipeline.cnn_fit_s": "s",
    "pipeline.classify_ms_p50": "ms",
    "pipeline.classify_ms_p99": "ms",
    "pipeline.classify_samples": "count",
    "cli.self_s": "s",
    "trace.round_s": "s",
    "trace.untraced_round_s": "s",
    "trace.overhead_share": "share",
    "trace.reference_ms": "ms",
}


TIME_UNITS = ("s", "ms", "us")


class CheckFailed(Exception):
    """An operation's output disagrees with the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- independent computations -------------------------------------------------

def f_beta_from_counts(tp: int, fp: int, fn: int, beta: float = BETA) -> float:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    b2 = beta * beta
    return (1 + b2) * p * r / (b2 * p + r) if b2 * p + r else 0.0


def confusion(pairs) -> tuple:
    """(tp, fp, fn) of (predicted, true) pairs."""
    tp = fp = fn = 0
    for predicted, true in pairs:
        tp += bool(predicted and true)
        fp += bool(predicted and not true)
        fn += bool(true and not predicted)
    return tp, fp, fn


def all_positive_baseline(prevalence: float, beta: float = BETA) -> float:
    """F_beta of labelling every comment positive: P = prevalence, R = 1."""
    return f_beta_from_counts(prevalence, 1.0 - prevalence, 0.0, beta)


def min_count_tally(data: gen.Generated) -> dict:
    """Token counts after the stop-word filter, kept at MIN_COUNT or more."""
    counts = {}
    for tokens in data.tokens.values():
        for token in tokens:
            if token not in gen.STOP_WORDS:
                counts[token] = counts.get(token, 0) + 1
    return {t: c for t, c in counts.items() if c >= MIN_COUNT}


def labels_of(data: gen.Generated, target: str) -> list:
    return [1 if target in data.labels[r["id"]] else 0 for r in data.records]


def read_vectors(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        n, d = (int(x) for x in fh.readline().split())
        rows = {}
        for line in fh:
            key, *values = line.rstrip("\n").split(" ")
            rows[key] = [float(v) for v in values]
    require(len(rows) == n, f"{path.name}: header says {n} rows, found {len(rows)}")
    require(all(len(v) == d for v in rows.values()), f"{path.name}: ragged rows")
    require(all(math.isfinite(x) for v in rows.values() for x in v),
            f"{path.name}: non-finite value")
    return rows


def cosine(u, v) -> float:
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return dot / (nu * nv) if nu and nv else 0.0


def check_word_model(prefix: Path, tally: dict) -> dict:
    """Vocabulary and counts equal the tally; vectors finite. Returns .vec rows."""
    with open(prefix.with_suffix(".meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    require(meta["counts"] == tally,
            f"{prefix.parent.name}: vocabulary/counts differ from the min-count tally "
            f"({len(meta['counts'])} vs {len(tally)} tokens)")
    vec = read_vectors(prefix.with_suffix(".vec"))
    out = read_vectors(prefix.with_suffix(".out"))
    require(set(vec) == set(tally) == set(out), f"{prefix.parent.name}: vector keys")
    return vec


def check_doc_model(prefix: Path, data: gen.Generated, tally: dict) -> dict:
    vec = check_word_model(prefix, tally)
    docs = read_vectors(prefix.with_suffix(".docs"))
    require(set(docs) == set(data.tokens) and len(docs) == len(data.tokens),
            "doc model: not one vector per comment")
    with open(prefix.with_suffix(".docs.meta.json"), encoding="utf-8") as fh:
        flagged = set(json.load(fh)["flagged_ids"])
    all_oov = {cid for cid, tokens in data.tokens.items()
               if not any(t in tally for t in tokens)}
    require(data.all_oov <= all_oov, "generator's all-OOV comments have known tokens")
    require(flagged == all_oov,
            f"doc model flags {len(flagged)} comments, {len(all_oov)} are all-OOV")
    require(all(not any(docs[cid]) for cid in all_oov),
            "all-OOV comments must have zero vectors")
    return vec


def planted_similarity(vec: dict) -> float:
    """Cosine of the planted pair after removing the mean vector: trained word
    vectors share a common direction that makes any two words look alike."""
    a, b = gen.PLANTED_PAIR
    require(a in vec and b in vec, "planted pair missing from the vocabulary")
    n = len(vec)
    mean = [sum(column) / n for column in zip(*vec.values())]
    return cosine([x - m for x, m in zip(vec[a], mean)],
                  [x - m for x, m in zip(vec[b], mean)])


def check_scores(path: Path, y: list, k: int) -> tuple:
    """Checks one evaluate scores.csv; returns its pooled (tp, fp, fn)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = {row["fold"]: row for row in csv.DictReader(fh)}
    counts = {name: {key: int(rows[name][key]) for key in ("tp", "fp", "fn", "tn")}
              for name in [str(i) for i in range(k)] + ["pooled"]}
    f = {}
    for name, c in counts.items():
        f[name] = f_beta_from_counts(c["tp"], c["fp"], c["fn"])
        require(abs(f[name] - float(rows[name]["f_beta"])) <= 1e-9,
                f"fold {name}: F {rows[name]['f_beta']} != recomputed {f[name]}")
    mean_f = sum(f[str(i)] for i in range(k)) / k
    require(abs(mean_f - float(rows["mean"]["f_beta"])) <= 1e-9, "fold-mean F")
    n, positives = len(y), sum(y)
    pooled = counts.pop("pooled")
    require(sum(pooled.values()) == n, f"pooled counts sum to {sum(pooled.values())}")
    require(pooled["tp"] + pooled["fn"] == positives, "pooled positives")
    for size, (a, b) in ((positives, ("tp", "fn")), (n - positives, ("fp", "tn"))):
        sizes = [c[a] + c[b] for c in counts.values()]
        require(sum(sizes) == size and max(sizes) - min(sizes) <= 1,
                f"fold sizes {sizes} are not stratified")
    base = all_positive_baseline(positives / n)
    require(mean_f > base and f["pooled"] > base,
            f"F {mean_f:.3f}/{f['pooled']:.3f} does not beat the baseline {base:.3f}")
    return pooled["tp"], pooled["fp"], pooled["fn"]


def stratified_holdout(y: list, share: float, seed: int):
    rng = random.Random(seed)
    test = []
    for cls in (0, 1):
        members = [i for i, v in enumerate(y) if v == cls]
        rng.shuffle(members)
        test.extend(members[:round(share * len(members))])
    test = sorted(test)
    held = set(test)
    return [i for i in range(len(y)) if i not in held], test


# -- running the program ------------------------------------------------------

class Runner:
    """Calls the command-line entry point in-process, optionally traced."""

    def __init__(self, cli_main):
        self.cli_main = cli_main
        self.tracer = None

    def cli(self, *argv) -> None:
        record = self.tracer.open("cli.main") if self.tracer else None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli_main([str(a) for a in argv])
        finally:
            if record is not None:
                self.tracer.close(record)
        require(rc == 0, f"metacomment {argv[0]} exited with {rc}")


class Workload:
    """Set-up and rounds of one workload; each round is a fixed list of ops."""

    # Extra set-ups timed before every round. A set-up of a few milliseconds
    # timed only at the start samples one moment of a host whose speed
    # drifts; spread over the run, the set-ups see what the rounds see.
    setups_per_round = 0

    def __init__(self, seed: int, runner: Runner):
        self.seed = seed
        self.runner = runner

    def setup(self, directory: Path) -> None:
        raise NotImplementedError

    def operations(self, directory: Path) -> list:
        """(name, run, check) triples. run() calls the program and is timed;
        check(result) verifies its outputs and returns a value for quality()."""
        raise NotImplementedError

    def quality(self, values: list) -> float:
        """F_0.5 over the summed (tp, fp, fn) of a round's decisions."""
        return f_beta_from_counts(*(sum(v[i] for v in values) for i in range(3)))


class Embed(Workload):
    """Three train-embeddings calls on an unlabeled corpus."""

    setups_per_round = 10

    def quality(self, values: list) -> float:
        """Mean planted-pair similarity of the three models."""
        return statistics.fmean(values)

    def setup(self, directory):
        self.data = gen.Generator(self.seed).dataset("e", N_EMBED)
        self.corpus = directory / "corpus.jsonl"
        self.data.write(self.corpus, with_labels=False)
        self.tally = min_count_tally(self.data)

    def operations(self, directory):
        def train(out, *kind):
            return lambda: self.runner.cli("train-embeddings", "--input", self.corpus,
                                           *kind, "--out", out, *EMBED_ARGS)

        def check_word(out):
            return lambda _: planted_similarity(check_word_model(out / "model",
                                                                 self.tally))

        def check_doc(_):
            return planted_similarity(check_doc_model(directory / "dm/model",
                                                      self.data, self.tally))

        ops = []
        for method in ("cbow", "skipgram"):
            out = directory / method
            ops.append((method, train(out, "--kind", "word", "--method", method),
                        check_word(out)))
        ops.append(("dm", train(directory / "dm", "--kind", "doc"), check_doc))
        return ops


class Labeled(Workload):
    """Shared set-up of evaluate and classify: labeled set plus embeddings."""

    def setup(self, directory):
        g = gen.Generator(self.seed)
        self.labeled = g.dataset("c", N_LABELED)
        self.cnn_set = g.dataset("n", N_CNN)
        self.unseen = g.dataset("u", N_UNSEEN)
        self.paths = {}
        for name, data, labels in (("labeled", self.labeled, True),
                                   ("corpus", self.labeled, False),
                                   ("cnn", self.cnn_set, True),
                                   ("unseen", self.unseen, False)):
            self.paths[name] = directory / f"{name}.jsonl"
            data.write(self.paths[name], with_labels=labels)
        self.word_model = directory / "word" / "model"
        self.doc_model = directory / "doc" / "model"
        self.runner.cli("train-embeddings", "--input", self.paths["corpus"],
                        "--kind", "word", "--method", "cbow",
                        "--out", self.word_model.parent, *SETUP_WORD_ARGS)
        self.runner.cli("train-embeddings", "--input", self.paths["corpus"],
                        "--kind", "doc", "--out", self.doc_model.parent,
                        *SETUP_DOC_ARGS)
        self.holdout = stratified_holdout(labels_of(self.cnn_set, "Meta"), 0.2,
                                          self.seed)


class Evaluate(Labeled):
    """Four evaluate calls (Meta and each addressee) plus the CNN route."""

    def operations(self, directory):
        def evaluate(target, out):
            return lambda: self.runner.cli(
                "evaluate", "--input", self.paths["labeled"], "--target", target,
                "-k", CV_FOLDS, "--params", SVM_PARAMS,
                "--word-model", self.word_model, "--doc-model", self.doc_model,
                "--seed", PROGRAM_SEED, "--jobs", "1", "--out", out)

        def check(target, out):
            return lambda _: check_scores(out / "scores.csv",
                                          labels_of(self.labeled, target), CV_FOLDS)

        ops = []
        for target in ("Meta", "Media", "Journalist", "Moderator"):
            out = directory / f"eval_{target}"
            ops.append((target, evaluate(target, out), check(target, out)))
        ops.append(("cnn", self.cnn, self.check_cnn))
        return ops

    def cnn(self) -> list:
        """The CNN route has no command: fit and predict through CnnPipeline."""
        from metacomment.corpus import load_dataset
        from metacomment.embeddings import WordEmbeddingModel
        from metacomment.neural import CnnConfig
        from metacomment.pipeline import CnnPipeline

        entries = list(load_dataset(self.paths["cnn"]))
        y = labels_of(self.cnn_set, "Meta")
        train, test = self.holdout
        word_model = WordEmbeddingModel.load(self.word_model)
        cnn = CnnPipeline(word_model, CnnConfig(**CNN_CONFIG), seed=CNN_CONFIG["seed"])
        cnn.fit([entries[i] for i in train], [y[i] for i in train])
        return cnn.predict([entries[i] for i in test])

    def check_cnn(self, predicted) -> tuple:
        test = self.holdout[1]
        predicted = [int(p) for p in predicted]
        require(len(predicted) == len(test) and set(predicted) <= {0, 1},
                "CNN predictions")
        y = labels_of(self.cnn_set, "Meta")
        truth = [y[i] for i in test]
        counts = confusion(zip(predicted, truth))
        f = f_beta_from_counts(*counts)
        base = all_positive_baseline(sum(truth) / len(truth))
        require(f > base, f"CNN F {f:.3f} does not beat the baseline {base:.3f}")
        self.cnn_f05 = f
        return counts


class Classify(Labeled):
    """train --two-step on the labeled set, then classify unseen comments."""

    def operations(self, directory):
        models = directory / "two_step"
        out = directory / "classified"

        def train():
            self.runner.cli("train", "--input", self.paths["labeled"], "--two-step",
                            "--params", SVM_PARAMS, "--threshold", THRESHOLD,
                            "--word-model", self.word_model,
                            "--doc-model", self.doc_model,
                            "--seed", PROGRAM_SEED, "--jobs", "1", "--out", models)

        def check_train(_):
            for name in ("extractor", "meta", "addressee_media", "addressee_journalist",
                         "addressee_moderator"):
                require((models / f"{name}.json").is_file(), f"train wrote no {name}")

        def classify():
            self.runner.cli("classify", "--input", self.paths["unseen"],
                            "--models", models, "--doc-model", self.doc_model,
                            "--threshold", THRESHOLD, "--seed", PROGRAM_SEED,
                            "--jobs", "1", "--out", out)

        return [("train", train, check_train),
                ("classify", classify,
                 lambda _: self.check_classified(out / "classified.jsonl"))]

    def check_classified(self, path: Path) -> tuple:
        """Checks classified.jsonl; returns (tp, fp, fn) over the Meta and the
        three addressee decisions of every comment."""
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        ids = [line["id"] for line in lines]
        expected = [r["id"] for r in self.unseen.records]
        require(sorted(ids) == sorted(expected) and len(set(ids)) == len(ids),
                "classify must write one line per input id")
        meta_pairs, addressee_pairs = [], []
        for line in lines:
            truth = self.unseen.labels[line["id"]]
            meta_pairs.append((line["is_meta"], "Meta" in truth))
            addressee_pairs.extend((label in line["addressees"], label in truth)
                                   for label in gen.ADDRESSEES)
            if not line["is_meta"]:
                require(line["addressees"] == [] and line["confidences"] == {},
                        f"{line['id']}: non-meta line with addressees or confidences")
            for value in line["confidences"].values():
                require(0.0 <= value <= 1.0, f"{line['id']}: confidence {value}")
            for label in line["addressees"]:
                require(line["confidences"].get(label, -1.0) > THRESHOLD,
                        f"{line['id']}: {label} listed at or below the threshold")
        meta = confusion(meta_pairs)
        f = f_beta_from_counts(*meta)
        base = all_positive_baseline(sum(t for _, t in meta_pairs) / len(meta_pairs))
        require(f > base, f"classify F {f:.3f} does not beat the baseline {base:.3f}")
        return tuple(a + b for a, b in zip(meta, confusion(addressee_pairs)))


WORKLOADS = {"embed": Embed, "evaluate": Evaluate, "classify": Classify}


# -- measuring ------------------------------------------------------------------

def run_round(workload: Workload, directory: Path, between) -> tuple:
    """Runs every operation once, calling between() untimed before each:
    (program seconds, operations, failures, check values)."""
    directory.mkdir()
    seconds = 0.0
    failures = 0
    values = []
    operations = workload.operations(directory)
    gc.collect()
    for name, run, check in operations:
        between()
        try:
            t0 = perf_counter()
            result = run()
            seconds += perf_counter() - t0
            value = check(result)
        except CheckFailed as exc:
            print(f"check failed: {name}: {exc}", file=sys.stderr)
            failures += 1
            continue
        except Exception:  # a crashing operation counts as failed; keep measuring
            print(f"operation failed: {name}", file=sys.stderr)
            traceback.print_exc()
            failures += 1
            continue
        if value is not None:
            values.append(value)
    shutil.rmtree(directory)
    return seconds, len(operations), failures, values


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer, traced_rounds: int, walls: dict) -> dict:
    every = tracer.summary()
    rounds = tracer.summary(rounds_only=True)
    counter = tracer.counters

    def incl(name):
        return every.get(name, {}).get("incl_s", 0.0)

    def calls(name, summary=every):
        return summary.get(name, {}).get("calls", 0)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    def per_call(name, scale):
        return ratio(incl(name), calls(name), scale)

    def outermost(names, scale):
        total, count = tracer.outermost(names)
        return ratio(total, count, scale)

    untraced = statistics.median(walls[False])
    traced = statistics.median(walls[True])
    latencies = tracer.classify_latencies()
    return {
        "corpus.load_us_per_comment": ratio(incl("corpus.load_dataset"),
                                            counter["corpus.comments"], 1e6),
        "textprep.preprocess_us_per_comment": per_call("textprep.preprocess", 1e6),
        "embeddings.cbow_us_per_position": ratio(counter["embeddings.cbow_s"],
                                                 counter["embeddings.cbow_positions"], 1e6),
        "embeddings.skipgram_us_per_position": ratio(
            counter["embeddings.skipgram_s"], counter["embeddings.skipgram_positions"],
            1e6),
        "embeddings.dm_us_per_position": ratio(counter["embeddings.dm_s"],
                                               counter["embeddings.dm_positions"], 1e6),
        "embeddings.infer_ms_per_comment": per_call("embeddings.infer", 1e3),
        "embeddings.infer_calls": ratio(calls("embeddings.infer", rounds), traced_rounds),
        "embeddings.save_ms": outermost(("embeddings.word_save", "embeddings.doc_save"),
                                        1e3),
        "embeddings.load_ms": outermost(("embeddings.word_load", "embeddings.doc_load"),
                                        1e3),
        "features.assemble_us_per_comment": per_call("features.assemble", 1e6),
        "features.assemble_calls": ratio(calls("features.assemble", rounds),
                                         traced_rounds),
        "features.regex_us_per_comment": ratio(incl("features.regex"),
                                               calls("features.assemble"), 1e6),
        "features.tfidf_us_per_comment": per_call("features.tfidf", 1e6),
        "features.text_stats_us_per_comment": per_call("features.text_stats", 1e6),
        "features.semantic_us_per_comment": per_call("features.semantic", 1e6),
        "features.metadata_us_per_comment": per_call("features.metadata", 1e6),
        "features.fit_extractor_ms": per_call("features.fit_extractor", 1e3),
        "features.build_matrix_ms": per_call("features.build_matrix", 1e3),
        "features.registry_columns": ratio(counter["features.matrix_columns"],
                                           counter["features.matrices"]),
        "features.matrix_mb": max(tracer.samples["features.matrix_mb"], default=0.0),
        "features.matrix_nonzero_share": ratio(counter["features.matrix_nonzero"],
                                               counter["features.matrix_cells"]),
        "classifiers.svm_fit_ms": ratio(counter["classifiers.svm_s"],
                                        counter["classifiers.svm_fits"], 1e3),
        "classifiers.svm_epochs_per_fit": ratio(counter["classifiers.svm_epochs"],
                                                counter["classifiers.svm_fits"]),
        "classifiers.svm_unconverged_fits": ratio(counter["classifiers.svm_unconverged"],
                                                  traced_rounds),
        "classifiers.predict_us_per_comment": ratio(
            incl("classifiers.decide"), counter["classifiers.decision_rows"], 1e6),
        "classifiers.calibrate_ms": per_call("classifiers.calibrate", 1e3),
        "evaluation.fold_s": ratio(incl("evaluation.cross_validate"),
                                   counter["evaluation.folds"]),
        "evaluation.two_step_classify_us": per_call("evaluation.two_step_classify", 1e6),
        "neural.train_ms_per_batch": ratio(incl("neural.train"),
                                           counter["neural.batches"], 1e3),
        "neural.forward_ms_per_batch": per_call("neural.forward", 1e3),
        "neural.padding_share": ratio(counter["neural.padding"],
                                      counter["neural.positions"]),
        "pipeline.feature_fit_s": per_call("pipeline.feature_fit", 1.0),
        "pipeline.two_step_fit_s": per_call("pipeline.two_step_fit", 1.0),
        "pipeline.cnn_fit_s": per_call("pipeline.cnn_fit", 1.0),
        "pipeline.classify_ms_p50": 1e3 * percentile(latencies, 0.50),
        "pipeline.classify_ms_p99": 1e3 * percentile(latencies, 0.99),
        "pipeline.classify_samples": len(latencies),
        "cli.self_s": ratio(every.get("cli.main", {}).get("self_s", 0.0),
                            calls("cli.main")),
        "trace.round_s": traced,
        "trace.untraced_round_s": untraced,
        "trace.overhead_share": traced / untraced - 1.0,
    }


def measure(args, cli_main, work: Path) -> dict:
    from spans import Instrumentation, Tracer

    runner = Runner(cli_main)
    tracer = Tracer() if args.trace else None
    instrumentation = Instrumentation(tracer) if tracer else None

    @contextlib.contextmanager
    def traced(on: bool):
        if not on:
            yield
            return
        runner.tracer = tracer
        instrumentation.install()
        try:
            yield
        finally:
            instrumentation.remove()
            runner.tracer = None

    pace = reference.Pace()
    setups = []
    walls = {False: [], True: []}

    def timed_setup(on: bool = False):
        candidate = WORKLOADS[args.workload](args.seed, runner)
        directory = work / f"setup{len(setups)}"
        directory.mkdir()
        gc.collect()  # every set-up starts from the same heap
        with traced(on):
            t0 = perf_counter()
            candidate.setup(directory)
            setups.append(perf_counter() - t0)
        return candidate, directory

    pace.sample()
    workload, _ = timed_setup(bool(tracer))
    for _ in range(SETUPS - 1):
        pace.sample()
        timed_setup()

    qualities = []
    attempted = failed = 0
    deadline = perf_counter() + args.seconds
    n = 0
    while True:
        if workload.setups_per_round:
            pace.sample()
        for _ in range(workload.setups_per_round):
            shutil.rmtree(timed_setup()[1])
        on = bool(tracer) and n % 2 == 1
        if on:
            tracer.round = last_traced = n
        with traced(on):
            seconds, ops, failures, values = run_round(workload, work / f"round{n}",
                                                       pace.sample)
        walls[on].append(seconds)
        attempted += ops
        failed += failures
        if values:
            qualities.append(workload.quality(values))
        n += 1
        if perf_counter() >= deadline and (not tracer or walls[True]):
            break

    scale = pace.scale()
    print(json.dumps({"workload": args.workload, "seed": args.seed, "scale": scale,
                      "reference_ms": 1e3 * statistics.median(pace.passes),
                      "passes": len(pace.passes), "setups_s": setups,
                      "untraced_rounds_s": walls[False],
                      "traced_rounds_s": walls[True]}), file=sys.stderr)
    if tracer:
        tracer.dump(HERE / "out" / f"trace_{args.workload}.json", last_traced)
        values = layer_metrics(tracer, len(walls[True]), walls)
        # times in reference-host seconds, like the end-to-end ones
        values = {name: value * scale if PER_LAYER[name] in TIME_UNITS else value
                  for name, value in values.items()}
        values["trace.reference_ms"] = 1e3 * statistics.median(pace.passes)
        # the CNN's own F_0.5, which quality pools with the SVM decisions
        values["neural.holdout_f05"] = getattr(workload, "cnn_f05", 0.0)
        units = PER_LAYER
    else:
        values = {
            "setup_s": scale * statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "round_s": scale * statistics.median(walls[False]),
            "quality": statistics.median(qualities) if qualities else 0.0,
        }
        units = END_TO_END
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "metacomment"
    if not (package / "cli.py").is_file():
        print(f"error: {package} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import metacomment
    from metacomment.cli import main as cli_main
    if Path(metacomment.__file__).resolve().parent != package.resolve():
        print(f"error: imported metacomment from {metacomment.__file__}, "
              f"not from {package}", file=sys.stderr)
        return 2

    (HERE / "out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "out"))
    try:
        result = measure(args, cli_main, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
