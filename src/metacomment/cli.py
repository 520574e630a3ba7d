"""Command-line interface.

Every subcommand that writes results also writes a manifest (arguments,
seeds, input hashes, tool version) into the output directory, and all
randomness flows from --seed via purpose-derived sub-seeds, so reruns with
the same manifest reproduce byte-identical outputs; runs are serial.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .classifiers import KINDS, save_model
from .corpus import (
    ADDRESSEE_LABELS,
    CLASS_ORDER,
    DatasetError,
    dataset_stats,
    load_dataset,
    save_dataset,
)
from .embeddings import (
    DocEmbeddingModel,
    WordEmbeddingModel,
    WordTrainingParams,
    train_doc_embeddings,
    train_word_embeddings,
)
from .evaluation import (
    GridSpec,
    Metrics,
    binary_labels,
    cross_dataset_eval,
    cross_validate,
    grid_search,
    labelled,
    write_score_table,
)
from .features import (
    anova_f_matrix,
    enrich_keywords,
    export_sparse_matrix,
    load_keywords,
    select_k_best,
)
from .files import hash_file, read_json, write_json
from .pipeline import (
    FeaturePipeline,
    TwoStepClassifier,
    build_keyword_sets,
    check_select_k,
    feature_cache,
    save_extractor,
)
from .sampling import (
    export_batch,
    load_coded_csv,
    merge_annotations,
    sample_by_pattern,
    sample_by_similarity,
    sample_random,
)
from .seeds import derive_seed
from .textprep import load_stopwords, preprocess

logger = logging.getLogger("metacomment")

KNOWN_ERRORS = (DatasetError, ValueError, OSError)

# comments per feature matrix in `classify`: memory stays at this many rows
# of registry columns however long the input is
CLASSIFY_CHUNK = 256


def _write_manifest(out_dir: Path, args: argparse.Namespace, inputs) -> None:
    manifest = {
        "tool": "metacomment",
        "version": __version__,
        "command": args.command,
        "arguments": {k: (str(v) if isinstance(v, Path) else v)
                      for k, v in sorted(vars(args).items()) if k != "func"},
        "input_hashes": {str(p): hash_file(p) for p in inputs if Path(p).is_file()},
    }
    write_json(out_dir / "manifest.json", manifest, indent=2)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _stopwords(args):
    return load_stopwords(args.stopwords) if args.stopwords else None


def _features(args):
    """The command's one FeatureCache, of --word-model, --doc-model,
    --keywords-dir and --stopwords: each file is read once per command."""
    word_model = WordEmbeddingModel.load(args.word_model) if args.word_model else None
    doc_model = DocEmbeddingModel.load(args.doc_model) if args.doc_model else None
    return feature_cache(word_model, doc_model, _keyword_seeds(args), _stopwords(args))


def _fitted_extractor(args, ds):
    """The feature extractor of the command's models, keywords and stop words,
    fitted on ds without a classifier, and the FeatureCache of ds it filled."""
    cache = _features(args)
    return FeaturePipeline(cache)._fit_extractor(list(ds)), cache


def _parse_kv_params(raw: str) -> dict:
    """Parse 'C=0.5,max_epochs=100' with JSON value coercion."""
    params = {}
    if not raw:
        return params
    for piece in raw.split(","):
        key, _, value = piece.partition("=")
        if not key or not value:
            raise ValueError(f"invalid parameter setting {piece!r}")
        try:
            params[key.strip()] = json.loads(value)
        except json.JSONDecodeError:
            params[key.strip()] = value
    return params


def _embedding_params(args, purpose: str) -> WordTrainingParams:
    return WordTrainingParams(
        dim=args.dim, window=args.window, min_count=args.min_count,
        epochs=args.epochs, method=args.method,
        negative_samples=args.negative, initial_lr=args.lr,
        seed=derive_seed(args.seed, purpose))


def _pipeline_from_args(args, features, seed, params=None,
                        select_k=None) -> FeaturePipeline:
    return FeaturePipeline(
        features, classifier=args.classifier,
        classifier_params=params if params is not None
        else _parse_kv_params(getattr(args, "params", "")),
        select_k=select_k if select_k is not None else _select_k(args),
        with_calibration=getattr(args, "calibrate", False), seed=seed)


def _keyword_seeds(args):
    if args.keywords_dir:
        base = Path(args.keywords_dir)
        return {label: load_keywords(base / f"{label.lower()}.txt")
                for label in ADDRESSEE_LABELS}
    return None


def _select_k(args):
    try:
        value = int(args.select_k)
    except ValueError:
        value = args.select_k
    return check_select_k(value, "--select-k")


def _check_beta(value, name: str = "--beta"):
    """value if it is a finite number above 0, not a bool; else ValueError naming `name`."""
    if type(value) in (int, float) and 0 < value < float("inf"):
        return value
    raise ValueError(f"{name} must be a finite number above 0, got {value!r}")


def _classes(args) -> tuple:
    """--classes as labels (Meta and the addressees without it); ValueError
    naming the flag for a label that is not a class or is repeated."""
    classes = tuple(args.classes.split(",")) if args.classes else ("Meta",) + ADDRESSEE_LABELS
    unknown = [cls for cls in classes if cls not in CLASS_ORDER]
    if unknown:
        raise ValueError(f"--classes: unknown label {unknown[0]!r}, "
                         f"choose from {', '.join(CLASS_ORDER)}")
    repeated = [cls for i, cls in enumerate(classes) if cls in classes[:i]]
    if repeated:
        raise ValueError(f"--classes: label {repeated[0]!r} is given more than once")
    return classes


def _check_threshold(value: float) -> None:
    if not 0 <= value <= 1:
        raise ValueError(f"--threshold must be a number from 0 to 1, got {value!r}")


def _metrics_dict(metrics: Metrics) -> dict:
    return {"precision": metrics.precision, "recall": metrics.recall,
            "f_beta": metrics.f_beta, "beta": metrics.beta,
            "tp": metrics.tp, "fp": metrics.fp, "fn": metrics.fn, "tn": metrics.tn}


# -- subcommands ---------------------------------------------------------------

def cmd_ingest(args) -> int:
    ds = load_dataset(args.input, args.tag)
    out = _out_dir(args)
    save_dataset(ds, out / "dataset.jsonl")
    write_json(out / "stats.json", asdict(dataset_stats(ds)), indent=2)
    _write_manifest(out, args, [args.input])
    print(f"ingested {len(ds)} comments from {args.input}")
    return 0


def cmd_stats(args) -> int:
    report = dataset_stats(load_dataset(args.input))
    print(report.format_text())
    if args.out:
        out = _out_dir(args)
        write_json(out / "stats.json", asdict(report), indent=2)
        _write_manifest(out, args, [args.input])
    return 0


def cmd_train_embeddings(args) -> int:
    ds = load_dataset(args.input)
    streams = [preprocess(c, remove_stopwords=True, stopwords=_stopwords(args))
               for c in ds.comments()]
    out = _out_dir(args)
    params = _embedding_params(args, f"embeddings:{args.kind}")
    if args.kind == "word":
        model = train_word_embeddings(streams, params)
        model.save(out / "model")
        print(f"trained word embeddings: {len(model)} tokens, dim {model.dim}")
    else:
        model = train_doc_embeddings(streams, params)
        model.save(out / "model")
        print(f"trained comment embeddings: {len(model.doc_vectors)} comments, "
              f"dim {model.dim}")
    _write_manifest(out, args, [args.input])
    return 0


def cmd_neighbors(args) -> int:
    model = WordEmbeddingModel.load(args.model)
    for token, similarity in model.most_similar(args.word, args.top):
        print(f"{token}\t{similarity:.4f}")
    return 0


def cmd_enrich_keywords(args) -> int:
    model = WordEmbeddingModel.load(args.model)
    seeds = load_keywords(args.seeds)
    ks = enrich_keywords(seeds, model, top_n=args.top_n, min_sim=args.min_sim)
    for token in ks.enriched:
        flag = "\t# no-embedding" if token in ks.missing else ""
        print(f"{token}{flag}")
    if args.out:
        out = _out_dir(args)
        with open(out / "enriched.txt", "w", encoding="utf-8", newline="\n") as fh:
            for token in ks.enriched:
                fh.write(token + "\n")
        _write_manifest(out, args, [args.seeds])
    return 0


def cmd_features(args) -> int:
    ds = load_dataset(args.input)
    extractor, cache = _fitted_extractor(args, ds)
    X = extractor.matrix(ds.comments(), cache)
    out = _out_dir(args)
    export_sparse_matrix(X, extractor.registry, out / "features.txt")
    save_extractor(extractor, out / "extractor.json")
    labels = {c.id: sorted(ls.labels, key=CLASS_ORDER.index) for c, ls in ds}
    write_json(out / "labels.json", labels, indent=2)
    _write_manifest(out, args, [args.input])
    print(f"exported {X.shape[0]} feature vectors over {len(extractor.registry)} features")
    return 0


def cmd_train(args) -> int:
    _check_threshold(args.threshold)
    if args.two_step and args.target is not None:
        raise ValueError(f"--target {args.target}: the two-step gate is always Meta; "
                         "--two-step takes no --target")
    args.target = args.target or "Meta"
    ds = load_dataset(args.input)
    entries = list(ds)
    pipeline = _pipeline_from_args(args, _features(args),
                                   derive_seed(args.seed, "train"))
    # each route fits before --out is made, so a failed fit writes nothing
    if args.two_step:
        # rejects --select-k and --calibrate
        classifier = TwoStepClassifier.fit(pipeline, entries, threshold=args.threshold)
        out = _out_dir(args)
        classifier.save(out)
        print(f"trained two-step classifier on {len(entries)} comments")
    else:
        y = binary_labels(ds, args.target)
        with labelled(args.target):
            pipeline.fit(entries, y)
        out = _out_dir(args)
        save_extractor(pipeline.extractor, out / "extractor.json")
        save_model(pipeline.model, out / "model.json")
        accuracy = float((pipeline.predict(entries) == y).mean())
        print(f"trained {args.classifier} for {args.target}: "
              f"training accuracy {accuracy:.3f}")
    _write_manifest(out, args, [args.input])
    return 0


def cmd_evaluate(args) -> int:
    _check_beta(args.beta)
    ds = load_dataset(args.input)
    features = _features(args)
    entries = list(ds)
    y = binary_labels(ds, args.target)
    with labelled(args.target):
        result = cross_validate(lambda seed: _pipeline_from_args(args, features, seed),
                                entries, y, k=args.k, seed=args.seed, beta=args.beta)
    print(f"{args.target}: mean precision {result.mean.precision:.4f} "
          f"recall {result.mean.recall:.4f} F_{args.beta} {result.mean.f_beta:.4f}")
    if args.out:
        out = _out_dir(args)
        rows = [{"fold": i, **_metrics_dict(m)}
                for i, m in enumerate(result.fold_metrics)]
        rows.append({"fold": "mean", "precision": result.mean.precision,
                     "recall": result.mean.recall, "f_beta": result.mean.f_beta,
                     "beta": args.beta})
        rows.append({"fold": "pooled", **_metrics_dict(result.pooled)})
        write_score_table(rows, out / "scores.csv")
        write_json(out / "metrics.json", {
            "dataset": str(args.input), "target": args.target,
            "mean": {"precision": result.mean.precision, "recall": result.mean.recall,
                     "f_beta": result.mean.f_beta, "beta": args.beta},
            "pooled": _metrics_dict(result.pooled)}, indent=2)
        _write_manifest(out, args, [args.input])
    return 0


def cmd_grid_search(args) -> int:
    ds = load_dataset(args.input)
    raw = read_json(args.grid)
    params = raw.get("params", {})
    if not isinstance(params, dict) or not all(
            isinstance(values, list) and values for values in params.values()):
        raise ValueError(f"{args.grid}: \"params\" must map each hyperparameter "
                         f"to a non-empty list of values")
    counts = raw.get("feature_counts", ["all"])
    if not isinstance(counts, list) or not counts:
        raise ValueError(f"{args.grid}: \"feature_counts\" must be a non-empty list")
    # a grid file's "beta" replaces --beta
    beta = _check_beta(raw.get("beta", _check_beta(args.beta)), f"{args.grid}: \"beta\"")
    grid = GridSpec(params=params, beta=beta, feature_counts=tuple(
        check_select_k(k, f"{args.grid}: each \"feature_counts\" value") for k in counts))
    features = _features(args)
    entries = list(ds)
    y = binary_labels(ds, args.target)

    def factory(combo, seed):
        params = {k: v for k, v in combo.items() if k != "select_k"}
        return _pipeline_from_args(args, features, seed,
                                   params=params, select_k=combo["select_k"])

    for combo in grid.combinations():
        factory(combo, args.seed)  # a bad value fails before any fold is fit
    with labelled(args.target):
        result = grid_search(factory, grid, entries, y, k=args.k, seed=args.seed)
    print(f"best configuration: {result.best_params} "
          f"(F_{grid.beta} = {result.best_score:.4f})")
    out = _out_dir(args)
    write_score_table(result.rows, out / "scores.csv")
    write_json(out / "best.json", {"params": result.best_params,
                                   "score": result.best_score, "beta": grid.beta},
               indent=2)
    _write_manifest(out, args, [args.input, args.grid])
    return 0


def cmd_cross_eval(args) -> int:
    _check_beta(args.beta)
    classes = _classes(args)
    train_ds = load_dataset(args.train, "train")
    test_ds = load_dataset(args.test, "test")
    features = _features(args)
    results = cross_dataset_eval(
        train_ds, test_ds, lambda seed: _pipeline_from_args(args, features, seed),
        classes=classes, beta=args.beta, seed=args.seed)
    for cls, metrics in results.items():
        print(f"{cls}: precision {metrics.precision:.4f} recall {metrics.recall:.4f} "
              f"F_{args.beta} {metrics.f_beta:.4f}")
    if args.out:
        out = _out_dir(args)
        write_json(out / "metrics.json", {
            "train": str(args.train), "test": str(args.test),
            "classes": {cls: _metrics_dict(m) for cls, m in results.items()}}, indent=2)
        rows = [{"class": cls, **_metrics_dict(m)} for cls, m in results.items()]
        write_score_table(rows, out / "scores.csv")
        _write_manifest(out, args, [args.train, args.test])
    return 0


def cmd_classify(args) -> int:
    _check_threshold(args.threshold)
    ds = load_dataset(args.input)
    models_dir = Path(args.models)
    doc_model = DocEmbeddingModel.load(args.doc_model) if args.doc_model else None
    classifier = TwoStepClassifier.load(models_dir, doc_model=doc_model,
                                        threshold=args.threshold)
    out = _out_dir(args)
    results_path = out / "classified.jsonl"
    comments = list(ds.comments())
    with open(results_path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(comments), CLASSIFY_CHUNK):
            chunk = comments[start:start + CLASSIFY_CHUNK]
            for comment, result in zip(chunk, classifier.classify_many(chunk)):
                fh.write(json.dumps({
                    "id": comment.id,
                    "is_meta": result.is_meta,
                    "addressees": list(result.addressees),
                    "confidences": {k: round(v, 6)
                                    for k, v in sorted(result.confidences.items())},
                }, ensure_ascii=False) + "\n")
    _write_manifest(out, args,
                    [args.input, *TwoStepClassifier.files(models_dir).values()])
    print(f"classified {len(ds)} comments -> {results_path}")
    return 0


def cmd_rank_features(args) -> int:
    if args.top < 1:
        raise ValueError(f"--top must be an integer >= 1, got {args.top}")
    classes = _classes(args)
    ds = load_dataset(args.input)
    extractor, cache = _fitted_extractor(args, ds)
    X = extractor.matrix(ds.comments(), cache)
    ranking = {}
    for cls in classes:
        y = binary_labels(ds, cls)
        if len(np.unique(y)) < 2:
            logger.warning("class %s missing from dataset; skipped", cls)
            continue
        scores = anova_f_matrix(X, y)
        ranking[cls] = [(extractor.registry[i], scores[i])
                        for i in select_k_best(scores, min(args.top, len(scores)))]
        print(f"-- {cls}")
        for name, score in ranking[cls]:
            shown = "inf" if np.isinf(score) else f"{score:.1f}"
            print(f"{name}\t{shown}")
    if args.out:
        out = _out_dir(args)
        write_json(out / "ranking.json", {
            cls: [{"feature": n, "f_value": (None if np.isinf(s) else s)}
                  for n, s in rows]
            for cls, rows in ranking.items()}, indent=2)
        _write_manifest(out, args, [args.input])
    return 0


def cmd_sample(args) -> int:
    if args.method == "similarity":
        for flag, value in (("--word-model", args.word_model), ("--doc-model", args.doc_model)):
            if value is None:
                raise ValueError(f"sample --method similarity needs {flag}")
    ds = load_dataset(args.input)
    word_model = WordEmbeddingModel.load(args.word_model) if args.word_model else None
    seeds = _keyword_seeds(args) or None
    keyword_sets = build_keyword_sets(word_model, seeds) if args.method != "random" \
        else {}
    if args.method == "pattern":
        batch = sample_by_pattern(ds, keyword_sets[args.label], args.n,
                                  batch_id=args.batch_id)
    elif args.method == "similarity":
        doc_model = DocEmbeddingModel.load(args.doc_model)
        batch = sample_by_similarity(ds, keyword_sets[args.label], word_model,
                                     doc_model, n=args.n, batch_id=args.batch_id,
                                     stopwords=_stopwords(args))
    else:
        batch = sample_random(ds, args.n, seed=derive_seed(args.seed, "sample"),
                              batch_id=args.batch_id)
    out = _out_dir(args)
    export_batch(batch, out / f"{args.batch_id}.csv")
    _write_manifest(out, args, [args.input])
    print(f"sampled {len(batch)} comments -> {out / (args.batch_id + '.csv')}")
    return 0


def cmd_merge(args) -> int:
    ds = load_dataset(args.input)
    coded = []
    for path in args.coded:
        coded.extend(load_coded_csv(path))
    merged, flagged = merge_annotations(ds, coded, policy=args.policy)
    out = _out_dir(args)
    save_dataset(merged, out / "dataset.jsonl")
    write_json(out / "flagged.json", list(flagged), indent=2)
    _write_manifest(out, args, [args.input, *args.coded])
    print(f"merged {len(coded)} coder entries; {len(flagged)} flagged")
    return 0


def cmd_report(args) -> int:
    lines = []
    header = f"{'run':<28}{'class':<12}{'precision':>10}{'recall':>10}{'F':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for path in args.metrics:
        data = read_json(path)
        run = Path(path).parent.name or str(path)
        if "classes" in data:
            for cls, metrics in data["classes"].items():
                lines.append(f"{run:<28}{cls:<12}{metrics['precision']:>10.3f}"
                             f"{metrics['recall']:>10.3f}{metrics['f_beta']:>8.3f}")
        else:
            mean = data["mean"]
            lines.append(f"{run:<28}{data.get('target', ''):<12}"
                         f"{mean['precision']:>10.3f}{mean['recall']:>10.3f}"
                         f"{mean['f_beta']:>8.3f}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        out = _out_dir(args)
        (out / "report.txt").write_text(text + "\n", encoding="utf-8")
        _write_manifest(out, args, list(args.metrics))
    return 0


# -- parser ----------------------------------------------------------------------

def _add_common(parser, out_required=False):
    parser.add_argument("--jobs", type=int, default=1, choices=(1,),
                        help="runs are serial, so only 1 is accepted; the flag is "
                             "kept so that existing command lines still parse")
    parser.add_argument("--out", required=out_required, help="output directory")


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=0, help="master random seed")


def _add_stopwords(parser):
    parser.add_argument("--stopwords", default=None,
                        help="stop-word file overriding the shipped German list")


def _add_model_flags(parser):
    _add_stopwords(parser)
    parser.add_argument("--word-model", default=None,
                        help="word embedding model prefix")
    parser.add_argument("--doc-model", default=None,
                        help="comment embedding model prefix")
    parser.add_argument("--keywords-dir", default=None,
                        help="directory with media/journalist/moderator.txt")


def _add_classifier_flags(parser):
    parser.add_argument("--classifier", default="linear_svm", choices=KINDS)
    parser.add_argument("--params", default="",
                        help="classifier hyperparameters, e.g. C=0.5,max_epochs=200")
    parser.add_argument("--select-k", default="all",
                        help="keep only the k best features by ANOVA F ('all' or int)")


def _add_scoring_flags(parser, out_required=False):
    _add_classifier_flags(parser)
    parser.add_argument("--beta", type=float, default=0.5,
                        help="F_beta weighting (default 0.5, precision-heavy)")
    _add_model_flags(parser)
    _add_seed(parser)
    _add_common(parser, out_required=out_required)


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching anywhere: "--seed" must not be read as "--seeds"
    parser = argparse.ArgumentParser(
        prog="metacomment",
        description="Identify and classify meta-comments in news-site user comments.",
        allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("ingest", help="validate and canonicalize a dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--tag", default=None)
    _add_common(p, out_required=True)
    p.set_defaults(func=cmd_ingest)

    p = add_parser("stats", help="corpus statistics report")
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    p = add_parser("train-embeddings", help="train word or comment embeddings")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=("word", "doc"), default="word")
    p.add_argument("--dim", type=int, default=300)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--min-count", type=int, default=50)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--method", choices=("cbow", "skipgram"), default="cbow")
    p.add_argument("--negative", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.025)
    _add_stopwords(p)
    _add_seed(p)
    _add_common(p, out_required=True)
    p.set_defaults(func=cmd_train_embeddings)

    p = add_parser("neighbors", help="nearest neighbors of a word")
    p.add_argument("--model", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_neighbors)

    p = add_parser("enrich-keywords", help="extend seed keywords via embeddings")
    p.add_argument("--model", required=True)
    p.add_argument("--seeds", required=True, help="seed keyword file")
    p.add_argument("--top-n", type=int, default=10)
    p.add_argument("--min-sim", type=float, default=0.6)
    _add_common(p)
    p.set_defaults(func=cmd_enrich_keywords)

    p = add_parser("features", help="export the feature matrix")
    p.add_argument("--input", required=True)
    _add_model_flags(p)
    _add_common(p, out_required=True)
    p.set_defaults(func=cmd_features)

    p = add_parser("train", help="train classifiers")
    p.add_argument("--input", required=True)
    p.add_argument("--target", default=None, choices=CLASS_ORDER,
                   help="positive label for one-vs-all (default Meta; "
                        "--two-step rejects it)")
    p.add_argument("--two-step", action="store_true",
                   help="train the meta gate plus all addressee models")
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--calibrate", action="store_true",
                   help="fit a confidence sigmoid on an internal holdout "
                        "(single-target training; --two-step rejects it)")
    _add_classifier_flags(p)
    _add_model_flags(p)
    _add_seed(p)
    _add_common(p, out_required=True)
    p.set_defaults(func=cmd_train)

    p = add_parser("evaluate", help="stratified k-fold cross-validation")
    p.add_argument("--input", required=True)
    p.add_argument("--target", default="Meta", choices=CLASS_ORDER)
    p.add_argument("-k", type=int, default=10)
    _add_scoring_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = add_parser("grid-search", help="hyperparameter grid search")
    p.add_argument("--input", required=True)
    p.add_argument("--target", default="Meta", choices=CLASS_ORDER)
    p.add_argument("--grid", required=True, help="JSON grid specification")
    p.add_argument("-k", type=int, default=3)
    _add_scoring_flags(p, out_required=True)
    p.set_defaults(func=cmd_grid_search)

    p = add_parser("cross-eval", help="train on one dataset, test on another")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--classes", default=None, help="comma-separated label list")
    _add_scoring_flags(p)
    p.set_defaults(func=cmd_cross_eval)

    p = add_parser("classify", help="two-step classification of comments")
    p.add_argument("--input", required=True)
    p.add_argument("--models", required=True, help="directory from train --two-step")
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--doc-model", default=None)
    _add_seed(p)
    _add_common(p, out_required=True)
    p.set_defaults(func=cmd_classify)

    p = add_parser("rank-features", help="ANOVA F-value feature ranking")
    p.add_argument("--input", required=True)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--classes", default=None)
    _add_model_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_rank_features)

    p = add_parser("sample", help="sample annotation candidates")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=("pattern", "similarity", "random"),
                   required=True)
    p.add_argument("--label", default="Media",
                   choices=ADDRESSEE_LABELS)
    p.add_argument("-n", type=int, default=100)
    p.add_argument("--batch-id", default="batch")
    _add_model_flags(p)
    _add_seed(p)
    _add_common(p, out_required=True)
    p.set_defaults(func=cmd_sample)

    p = add_parser("merge", help="merge coded annotation batches")
    p.add_argument("--input", required=True)
    p.add_argument("--coded", nargs="+", required=True)
    p.add_argument("--policy", choices=("majority-with-third-coder", "strict"),
                   default="majority-with-third-coder")
    _add_common(p, out_required=True)
    p.set_defaults(func=cmd_merge)

    p = add_parser("report", help="summary table over metrics.json files")
    p.add_argument("--metrics", nargs="+", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: parse_args leaves it
    unchanged, so every main call reads its arguments with the same one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # a no-op once the root logger has a handler; the level is set on every call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except KNOWN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
