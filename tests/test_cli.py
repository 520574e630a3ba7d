import argparse
import ast
import base64
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metacomment
from metacomment import cli, features, sampling, textprep
from metacomment.cli import main
from metacomment.corpus import LabeledDataset, load_dataset, save_dataset
from metacomment.embeddings import DocEmbeddingModel
from metacomment.files import decode_floats, encode_floats, write_json
from metacomment.pipeline import FeaturePipeline, TwoStepClassifier, load_extractor

from conftest import as_v1_model
from synthdata import CLASS_KEYWORDS, generate_comment_dataset


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset file plus a word embedding model trained through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    ds = generate_comment_dataset(0, n_per_class=25, n_nonmeta=75)
    dataset_path = root / "dataset.jsonl"
    save_dataset(ds, dataset_path)
    rc = main(["train-embeddings", "--input", str(dataset_path),
               "--kind", "word", "--dim", "16", "--window", "5",
               "--min-count", "2", "--epochs", "30", "--lr", "0.05",
               "--out", str(root / "emb")])
    assert rc == 0
    return {"root": root, "dataset": dataset_path,
            "word_model": root / "emb" / "model"}


class TestIngestAndStats:
    def test_ingest_roundtrip(self, workspace, tmp_path, capsys):
        out = tmp_path / "ingested"
        rc = main(["ingest", "--input", str(workspace["dataset"]),
                   "--out", str(out)])
        assert rc == 0
        assert (out / "dataset.jsonl").is_file()
        assert (out / "manifest.json").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert manifest["input_hashes"]
        reloaded = load_dataset(out / "dataset.jsonl")
        assert len(reloaded) == 150

    def test_ingest_rejects_malformed(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "1", "text": "x.", "timestamp": "never"}\n')
        rc = main(["ingest", "--input", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ['"text": 5', '"text": "x.", "position": "3"'])
    def test_stats_rejects_wrong_field_type(self, tmp_path, capsys, field):
        bad = tmp_path / "types.jsonl"
        bad.write_text('{"id": "a", "text": "ok.", "timestamp": "2020-01-01T00:00"}\n'
                       f'{{"id": "b", {field}, "timestamp": "2020-01-01T00:00"}}\n')
        assert main(["stats", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "Traceback" not in err

    def test_stats_rejects_bytes_that_are_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "latin1.jsonl"
        bad.write_bytes('{"id": "a", "text": "ok.", "timestamp": "2020-01-01T00:00"}\n'
                        '{"id": "b", "text": "Grüße.", "timestamp": "2020-01-01T00:00"}\n'
                        .encode("latin-1"))
        assert main(["stats", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: line 2, byte 24: 0xfc is not UTF-8" in err, err
        assert "Traceback" not in err

    def test_stats_prints_counts(self, workspace, capsys):
        rc = main(["stats", "--input", str(workspace["dataset"])])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Meta: 75" in text
        assert "NonMeta: 75" in text


    def test_one_parser_serves_commands_in_turn(self, workspace, tmp_path, capsys,
                                                monkeypatch):
        # main builds its parser once per process and parses each command
        # line afresh with it
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        stats = ["stats", "--input", str(workspace["dataset"])]
        assert main(stats) == 0
        first = capsys.readouterr().out
        out = tmp_path / "ingested"
        assert main(["ingest", "--input", str(workspace["dataset"]),
                     "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["command"] == "ingest"
        assert len(load_dataset(out / "dataset.jsonl")) == 150
        assert capsys.readouterr().out.startswith("ingested 150 comments")
        assert main(stats) == 0
        assert capsys.readouterr().out == first
        assert "Meta: 75" in first
        assert builds == [1]

    def test_verbose_applies_to_every_call_in_a_process(self, workspace, tmp_path, caplog):
        # the process already has a logging handler after its first command;
        # --verbose still shows the SVM fit's DEBUG line, and a later plain
        # call shows no DEBUG line again
        assert main(["stats", "--input", str(workspace["dataset"])]) == 0
        train = ["train", "--input", str(workspace["dataset"]), "--out"]
        caplog.clear()
        assert main(["--verbose", *train, str(tmp_path / "verbose")]) == 0
        assert any(r.levelno == logging.DEBUG and r.getMessage().startswith("linear SVM:")
                   for r in caplog.records)
        caplog.clear()
        assert main([*train, str(tmp_path / "plain")]) == 0
        assert not [r for r in caplog.records if r.levelno == logging.DEBUG]


class TestEmbeddingCommands:
    def test_neighbors_lists_pool_member(self, workspace, capsys):
        rc = main(["neighbors", "--model", str(workspace["word_model"]),
                   "--word", "sysop", "--top", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        names = [line.split("\t")[0] for line in lines]
        assert set(names) & {"zensur", "zensiert", "moderation", "moderator"}

    def test_neighbors_oov_fails(self, workspace, capsys):
        rc = main(["neighbors", "--model", str(workspace["word_model"]),
                   "--word", "nichtda"])
        assert rc == 2

    @pytest.mark.parametrize("keys", [("counts",), ("params", "window")])
    def test_neighbors_rejects_meta_missing_a_key(self, workspace, tmp_path, capsys, keys):
        model = tmp_path / "emb"
        shutil.copytree(workspace["word_model"].parent, model)
        path = model / "model.meta.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        parent = data if len(keys) == 1 else data[keys[0]]
        del parent[keys[-1]]
        path.write_text(json.dumps(data), encoding="utf-8")
        rc = main(["neighbors", "--model", str(model / "model"), "--word", "sysop"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"model.meta.json: missing key {keys[-1]!r}" in err and "Traceback" not in err

    def test_neighbors_rejects_meta_that_is_not_an_object(self, workspace, tmp_path, capsys):
        model = tmp_path / "emb"
        shutil.copytree(workspace["word_model"].parent, model)
        (model / "model.meta.json").write_text("[]", encoding="utf-8")
        rc = main(["neighbors", "--model", str(model / "model"), "--word", "sysop"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "model.meta.json: the top-level JSON value is not an object" in err
        assert "Traceback" not in err

    def test_enrich_keywords(self, workspace, tmp_path, capsys):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("sysop\nfehltoken\n", encoding="utf-8")
        rc = main(["enrich-keywords", "--model", str(workspace["word_model"]),
                   "--seeds", str(seeds), "--top-n", "3", "--min-sim", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sysop" in out
        assert "no-embedding" in out

    def test_lr_below_the_floor_names_the_flag(self, workspace, tmp_path, capsys):
        out = tmp_path / "emb"
        rc = main(["train-embeddings", "--input", str(workspace["dataset"]),
                   "--min-count", "2", "--lr", "0.00005", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "initial_lr (--lr) must be at least the floor final_lr = 0.0001, " \
               "got 5e-05" in err, err
        assert not out.exists()


class TestJobsFlag:
    def _train_args(self, workspace, out, jobs):
        return ["train-embeddings", "--input", str(workspace["dataset"]),
                "--kind", "word", "--dim", "8", "--min-count", "2", "--epochs", "1",
                "--jobs", jobs, "--out", str(out)]

    def test_jobs_above_one_is_usage_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "emb"
        with pytest.raises(SystemExit) as exc:
            main(self._train_args(workspace, out, "2"))
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_one_still_runs(self, workspace, tmp_path):
        out = tmp_path / "emb"
        assert main(self._train_args(workspace, out, "1")) == 0
        assert (out / "model.vec").is_file()


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as spreadsheets and some editors
    write one, reads as nothing: a command gives the plain file's outputs."""

    @staticmethod
    def _same_outputs(tmp_path, capsys, name, text, argv, outputs=()):
        """argv(file, out) run once on text in a plain file and once with a
        byte-order mark; both exit 0 with the same stdout and outputs files."""
        runs = []
        for encoding in ("utf-8", "utf-8-sig"):
            directory = tmp_path / encoding
            directory.mkdir()
            (directory / name).write_text(text, encoding=encoding)
            out = directory / "out"
            assert main(argv(str(directory / name), str(out))) == 0
            runs.append((capsys.readouterr().out.replace(str(directory), ""),
                         [(out / output).read_bytes() for output in outputs]))
        assert runs[0] == runs[1]

    def test_stopwords(self, workspace, tmp_path, capsys):
        # sysop, a Moderator keyword of the synthetic set, drops out of tf-idf
        self._same_outputs(tmp_path, capsys, "stop.txt", "sysop\nder\n",
                           lambda path, out: ["features", "--input",
                                              str(workspace["dataset"]),
                                              "--stopwords", path, "--out", out],
                           ["features.txt", "features.txt.names"])

    def test_keyword_seeds(self, workspace, tmp_path, capsys):
        self._same_outputs(tmp_path, capsys, "seeds.txt", "sysop\nfehltoken\n",
                           lambda path, out: ["enrich-keywords", "--model",
                                              str(workspace["word_model"]),
                                              "--seeds", path, "--top-n", "3",
                                              "--min-sim", "0.1"])

    def test_dataset(self, workspace, tmp_path, capsys):
        self._same_outputs(tmp_path, capsys, "dataset.jsonl",
                           workspace["dataset"].read_text(encoding="utf-8"),
                           lambda path, out: ["stats", "--input", path, "--out", out],
                           ["stats.json"])

    def test_coded_batch(self, workspace, tmp_path, capsys):
        ids = [comment.id for comment in load_dataset(workspace["dataset"]).comments()]
        text = "# labels: Meta\n" + ",".join(sampling._CSV_COLUMNS) + "\n" + "".join(
            f"b,{comment_id},,text,random,,Meta\n" for comment_id in ids[:3])
        self._same_outputs(tmp_path, capsys, "coded.csv", text,
                           lambda path, out: ["merge", "--input",
                                              str(workspace["dataset"]),
                                              "--coded", path, "--out", out],
                           ["dataset.jsonl", "flagged.json"])

    def test_grid_file(self, workspace, tmp_path, capsys):
        grid = {"params": {"C": [0.5], "max_epochs": [60]}, "feature_counts": [5, "all"]}
        self._same_outputs(tmp_path, capsys, "grid.json", json.dumps(grid),
                           lambda path, out: ["grid-search", "--input",
                                              str(workspace["dataset"]),
                                              "--grid", path, "-k", "3", "--out", out],
                           ["scores.csv", "best.json"])


def _args_read_by_function():
    """{name: the args attributes it reads} for every function of cli.py,
    read from its syntax tree. An attribute counts when the function, or a
    cli.py function it calls, reads args.<name> or getattr(args, "<name>")."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    direct, callees = {}, {}
    for name, fn in functions.items():
        nodes = list(ast.walk(fn))
        calls = [n for n in nodes if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
        direct[name] = {n.attr for n in nodes if isinstance(n, ast.Attribute)
                        and isinstance(n.value, ast.Name) and n.value.id == "args"}
        direct[name] |= {c.args[1].value for c in calls if c.func.id == "getattr"
                         and isinstance(c.args[0], ast.Name) and c.args[0].id == "args"}
        callees[name] = {c.func.id for c in calls if c.func.id in functions}

    def reads(name, seen):
        found = set(direct[name])
        for callee in callees[name] - seen:
            found |= reads(callee, seen | {callee})
        return found

    return {name: reads(name, {name}) for name in functions}


class TestUnreadFlags:
    """Commands accept only the flags they read."""

    def test_classify_stopwords_is_usage_error(self, workspace, models_dir, tmp_path,
                                               capsys):
        # classify takes its stop words from the model directory's extractor.json
        out = tmp_path / "classified"
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("der\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--input", str(workspace["dataset"]),
                  "--models", str(models_dir), "--stopwords", str(stopwords),
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "--stopwords" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,unread", [
        (["ingest", "--input", "d", "--out", "o"], ("seed", "stopwords")),
        (["stats", "--input", "d"], ("seed", "stopwords")),
        (["enrich-keywords", "--model", "m", "--seeds", "s"], ("seed", "stopwords")),
        (["features", "--input", "d", "--out", "o"], ("seed",)),
        (["rank-features", "--input", "d"], ("seed",)),
        (["merge", "--input", "d", "--coded", "c", "--out", "o"], ("seed", "stopwords")),
        (["report", "--metrics", "m"], ("seed", "stopwords")),
    ])
    def test_unread_flags_are_not_defined(self, argv, unread):
        args = cli.build_parser().parse_args(argv)
        assert not any(hasattr(args, name) for name in unread)

    def test_every_defined_flag_is_read(self):
        reads = _args_read_by_function()
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        unread = {}
        for command, parser in subparsers.choices.items():
            defined = {a.dest for a in parser._actions
                       if not isinstance(a, argparse._HelpAction)}
            # kept so that existing command lines still parse
            kept = {"jobs", "seed"} if command == "classify" else {"jobs"}
            unread[command] = sorted(
                defined - reads[parser.get_default("func").__name__] - kept)
        assert not any(unread.values()), unread

    @pytest.mark.parametrize("flags", [["--classifier", "knn"], ["--params", "C=0.0001"],
                                       ["--select-k", "5"]])
    def test_classifier_flags_change_evaluate_scores(self, workspace, tmp_path, flags):
        # a flag that is read but overridden passes the syntax check above
        def scores(name, *extra):
            out = tmp_path / name
            assert main(["evaluate", "--input", str(workspace["dataset"]), "-k", "3",
                         *extra, "--out", str(out)]) == 0
            return (out / "scores.csv").read_bytes()

        assert scores("flagged", *flags) != scores("default")

    @pytest.mark.parametrize("flag", [["--params", "C=1"], ["--select-k", "5"]])
    def test_grid_search_takes_no_tuning_flag(self, workspace, tmp_path, capsys, flag):
        # the grid file's params and feature_counts set both
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"params": {"C": [1.0]}}), encoding="utf-8")
        out = tmp_path / "grid_out"
        with pytest.raises(SystemExit) as exc:
            main(["grid-search", "--input", str(workspace["dataset"]), "--grid", str(grid),
                  *flag, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["train", "--input", "d", "--out", "o"],
                                      ["evaluate", "--input", "d"],
                                      ["cross-eval", "--train", "d", "--test", "t"]])
    def test_tuning_flags_still_parse(self, argv):
        args = cli.build_parser().parse_args([*argv, "--params", "C=1", "--select-k", "5"])
        assert (args.params, args.select_k) == ("C=1", "5")

    @pytest.mark.parametrize("argv,flag", [
        # an old command line's --seed is not read as --seeds
        (["enrich-keywords", "--model", "m", "--seeds", "s.txt", "--seed", "3"], "--seed"),
        (["enrich-keywords", "--model", "m", "--seeds", "s.txt", "--top", "3"], "--top"),
        (["--verb", "stats", "--input", "d"], "--verb"),
    ])
    def test_flag_prefixes_are_usage_errors(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestFeatureExport:
    def test_export_and_reproducibility(self, workspace, tmp_path):
        args = ["features", "--input", str(workspace["dataset"]),
                "--word-model", str(workspace["word_model"])]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "features.txt").read_bytes() \
            == (out_b / "features.txt").read_bytes()
        names = (out_a / "features.txt.names").read_text().splitlines()
        header = (out_a / "features.txt").read_text().splitlines()[0]
        n_rows, n_cols = map(int, header.split())
        assert n_rows == 150
        assert n_cols == len(names)
        assert "regex_media_matches" in names
        # every other line is a 'row col value' triplet of plain numbers
        for line in (out_a / "features.txt").read_text().splitlines()[1:]:
            row, col, value = line.split()
            assert 0 <= int(row) < n_rows and 0 <= int(col) < n_cols
            assert float(value) != 0.0

    def test_triplets_read_back_to_the_matrix(self, workspace, tmp_path):
        out = tmp_path / "features"
        assert main(["features", "--input", str(workspace["dataset"]),
                     "--word-model", str(workspace["word_model"]),
                     "--out", str(out)]) == 0
        lines = (out / "features.txt").read_text().splitlines()
        n_rows, n_cols = map(int, lines[0].split())
        X = np.zeros((n_rows, n_cols))
        for line in lines[1:]:
            row, col, value = line.split()
            X[int(row), int(col)] = float(value)
        extractor = load_extractor(out / "extractor.json")
        names = (out / "features.txt.names").read_text().splitlines()
        assert tuple(names) == extractor.registry
        comments = load_dataset(workspace["dataset"]).comments()
        assert np.array_equal(X, extractor.matrix(comments).toarray())


def _two_step_args(workspace, out):
    return ["train", "--input", str(workspace["dataset"]), "--two-step",
            "--classifier", "linear_svm",
            "--params", "C=0.5,tolerance=0.001,max_epochs=100",
            "--word-model", str(workspace["word_model"]), "--out", str(out)]


@pytest.fixture(scope="module")
def models_dir(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("models")
    assert main(_two_step_args(workspace, out)) == 0
    return out


@pytest.fixture(scope="module")
def payload_models(workspace, tmp_path_factory):
    """Two-step directories of a decision tree, a random forest, AdaBoost and k-NN."""
    root = tmp_path_factory.mktemp("payloads")
    for kind, params in (("decision_tree", ""), ("random_forest", "n_trees=5"),
                         ("adaboost", "n_rounds=5"), ("knn", "")):
        assert main(["train", "--input", str(workspace["dataset"]), "--two-step",
                     "--classifier", kind, "--params", params,
                     "--word-model", str(workspace["word_model"]),
                     "--out", str(root / kind)]) == 0
    return root


@pytest.fixture(scope="module")
def semantic_models(workspace, tmp_path_factory):
    """A doc model, and a two-step directory trained with it."""
    root = tmp_path_factory.mktemp("semantic")
    assert main(["train-embeddings", "--input", str(workspace["dataset"]),
                 "--kind", "doc", "--dim", "8", "--window", "3", "--min-count", "2",
                 "--epochs", "3", "--out", str(root / "doc")]) == 0
    assert main(_two_step_args(workspace, root / "models")
                + ["--doc-model", str(root / "doc" / "model")]) == 0
    return {"doc": root / "doc", "models": root / "models"}


MODEL_FILES = ("meta.json", "addressee_media.json", "addressee_journalist.json",
               "addressee_moderator.json")


def _edit(keys, fn):
    """An edit of a JSON file's data that replaces data[k1][k2]... (keys or
    list indices) with fn of it."""
    def edit(data):
        for key in keys[:-1]:
            data = data[key]
        data[keys[-1]] = fn(data[keys[-1]])
    return edit


def _set(keys, value):
    return _edit(keys, lambda _: value)


def _edit_array(outer, key, fn):
    """An _edit that stores fn(the model array at outer.key) in the form the
    file holds it: a JSON list or an encoded array."""
    def stored(value):
        if isinstance(value, list):
            return fn(np.array(value)).tolist()
        return encode_floats(fn(decode_floats(value)))
    return _edit((outer, key), stored)


def _cut_all(data):
    # every array one entry short: they agree, the extractor's width does not
    for outer, key in (("standardizer", "mean"), ("standardizer", "std"), ("payload", "w")):
        _edit_array(outer, key, lambda a: a[:-1])(data)


def _longer_registry(data):
    mean = data["standardizer"]["mean"]
    width = len(mean) if isinstance(mean, list) else mean["shape"][0]
    data["registry"] = [f"f{i}" for i in range(width + 1)]


def _as_float32(value):
    w = decode_floats(value).astype("<f4")
    return {**value, "dtype": "<f4", "base64": base64.b64encode(w.tobytes()).decode("ascii")}


_BOTH = ("metacomment-model/1", "metacomment-model/2")

# (case, formats, file, edit, key the error names)
MODEL_REJECTIONS = [
    ("w holds a string", _BOTH[:1], "meta.json", _set(("payload", "w", 3), "0.5"),
     "'payload.w'"),
    ("w is float32", _BOTH[1:], "meta.json", _edit(("payload", "w"), _as_float32),
     "'payload.w'"),
    ("nan in mean", _BOTH, "meta.json",
     _edit_array("standardizer", "mean", lambda a: np.where(np.arange(len(a)) == 5, np.nan, a)),
     "'standardizer.mean'"),
    ("w one short", _BOTH, "meta.json", _edit_array("payload", "w", lambda a: a[:-1]),
     "'payload.w'"),
    ("std one short", _BOTH, "addressee_media.json",
     _edit_array("standardizer", "std", lambda a: a[:-1]), "'standardizer.std'"),
    ("registry one longer", _BOTH, "meta.json", _longer_registry, "'registry'"),
    ("narrower than the extractor", _BOTH, "meta.json", _cut_all, "extractor's registry"),
    ("b is a string", _BOTH, "addressee_journalist.json", _set(("payload", "b"), "0.5"),
     "'payload.b'"),
    ("calibration is one number", _BOTH, "addressee_moderator.json",
     _set(("calibration",), [-1.5]), "'calibration'"),
    ("calibration is not finite", _BOTH, "addressee_moderator.json",
     _set(("calibration", 1), float("inf")), "'calibration'"),
    ("invalid base64", _BOTH[1:], "meta.json", _set(("payload", "w", "base64"), "AAAA!AAA"),
     "'payload.w'"),
    ("byte count off the shape", _BOTH[1:], "addressee_media.json",
     _edit(("payload", "w", "shape"), lambda shape: [shape[0] + 1]), "'payload.w'"),
    ("payload is a list", _BOTH, "meta.json", _set(("payload",), [1]), "'payload'"),
    ("standardizer is a list", _BOTH, "meta.json", _set(("standardizer",), [1]),
     "'standardizer'"),
    ("hyperparams is a list", _BOTH, "meta.json", _set(("hyperparams",), [1]),
     "'hyperparams'"),
    ("registry is a number", _BOTH, "meta.json", _set(("registry",), 7), "'registry'"),
    ("objective history is a number", _BOTH, "meta.json",
     _set(("payload", "objective_history"), 5), "'payload.objective_history'"),
]


def _first_leaf(node):
    while "p" not in node:
        node = node["l"]
    return node


# (case, classifier, edit of its meta.json, key the error names)
PAYLOAD_REJECTIONS = [
    ("feature below 0", "decision_tree", _set(("payload", "tree", "f"), -1),
     "'payload.tree.f'"),
    ("feature past the width", "decision_tree", _set(("payload", "tree", "f"), 1_000_000),
     "'payload.tree.f'"),
    ("threshold not finite", "decision_tree", _set(("payload", "tree", "t"), float("nan")),
     "'payload.tree.t'"),
    ("leaf p is a string", "decision_tree",
     lambda data: _first_leaf(data["payload"]["tree"]).update(p="0.5"), ".p' must be"),
    ("tree is a number", "decision_tree", _set(("payload", "tree"), 3), "'payload.tree'"),
    ("node is a list", "decision_tree", _set(("payload", "tree", "l"), [1]),
     "'payload.tree.l'"),
    ("no trees", "random_forest", _set(("payload", "trees"), []), "'payload.trees'"),
    ("trees is a number", "random_forest", _set(("payload", "trees"), 5), "'payload.trees'"),
    ("no stumps", "adaboost", _set(("payload", "stumps"), []), "'payload.stumps'"),
    ("alpha is NaN", "adaboost", _set(("payload", "stumps", 0, 0), float("nan")),
     "'payload.stumps[0][0]'"),
    ("alpha is a string", "adaboost", _set(("payload", "stumps", 0, 0), "x"),
     "'payload.stumps[0][0]'"),
    ("alpha is a bool", "adaboost", _set(("payload", "stumps", 0, 0), True),
     "'payload.stumps[0][0]'"),
    ("stump without a tree", "adaboost", _set(("payload", "stumps", 0), [1.0]),
     "'payload.stumps[0]'"),
    ("a label short", "knn", _edit(("payload", "y"), lambda y: y[:-1]), "'payload.y'"),
    ("a label of 2", "knn", _edit(("payload", "y"), lambda y: [2] + y[1:]), "'payload.y'"),
]


def _assert_classify_rejects(workspace, models, path, key, capsys, *flags):
    out = models.parent / "classified"
    rc = main(["classify", "--input", str(workspace["dataset"]), "--models", str(models),
               *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert f"{path}: " in err and key in err, err
    assert "Traceback" not in err
    assert not (out / "classified.jsonl").exists()


class TestTrainAndClassify:
    def test_two_step_artifacts(self, models_dir):
        assert (models_dir / "meta.json").is_file()
        assert (models_dir / "extractor.json").is_file()
        for label in ("media", "journalist", "moderator"):
            assert (models_dir / f"addressee_{label}.json").is_file()

    def test_classify_writes_jsonl(self, workspace, models_dir, tmp_path, capsys):
        out = tmp_path / "classified"
        rc = main(["classify", "--input", str(workspace["dataset"]),
                   "--models", str(models_dir), "--threshold", "0.8",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "classified.jsonl").read_text().splitlines()
        assert len(lines) == 150
        records = [json.loads(line) for line in lines]
        assert all(set(r) == {"id", "is_meta", "addressees", "confidences"}
                   for r in records)
        flagged = [r for r in records if r["is_meta"]]
        assert flagged
        assert any(r["addressees"] for r in flagged)
        gated = [r for r in records if not r["is_meta"]]
        assert all(r["addressees"] == [] and r["confidences"] == {} for r in gated)

    def test_classify_manifest_hashes_every_model_file(self, workspace, models_dir,
                                                       tmp_path):
        out = tmp_path / "classified"
        assert main(["classify", "--input", str(workspace["dataset"]),
                     "--models", str(models_dir), "--out", str(out)]) == 0
        hashes = json.loads((out / "manifest.json").read_text())["input_hashes"]
        assert sorted(Path(p).name for p in hashes) == [
            "addressee_journalist.json", "addressee_media.json",
            "addressee_moderator.json", "dataset.jsonl", "extractor.json", "meta.json"]

    def test_classify_lines_match_loaded_classifier(self, workspace, models_dir,
                                                    tmp_path):
        out = tmp_path / "classified"
        assert main(["classify", "--input", str(workspace["dataset"]),
                     "--models", str(models_dir), "--threshold", "0.7",
                     "--out", str(out)]) == 0
        classifier = TwoStepClassifier.load(models_dir, None)
        comments = list(load_dataset(workspace["dataset"]).comments())
        lines = (out / "classified.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(comments)
        for line, comment, result in zip(lines, comments,
                                         classifier.classify_many(comments, 0.7)):
            assert line == json.dumps({
                "id": comment.id,
                "is_meta": result.is_meta,
                "addressees": list(result.addressees),
                "confidences": {k: round(v, 6)
                                for k, v in sorted(result.confidences.items())},
            }, ensure_ascii=False)

    def test_classify_rejects_extractor_of_another_run(self, workspace, models_dir,
                                                       tmp_path, capsys):
        keywords = tmp_path / "keywords"
        keywords.mkdir()
        for label in ("media", "journalist", "moderator"):
            (keywords / f"{label}.txt").write_text(f"{label}\n", encoding="utf-8")
        other = tmp_path / "other"
        assert main(_two_step_args(workspace, other)
                    + ["--keywords-dir", str(keywords)]) == 0
        shutil.copy(models_dir / "extractor.json", other / "extractor.json")
        out = tmp_path / "classified"
        rc = main(["classify", "--input", str(workspace["dataset"]),
                   "--models", str(other), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "meta.json" in err and "registry hash" in err
        assert not (out / "classified.jsonl").exists()

    @pytest.mark.parametrize("flags", [["--select-k", "10"], ["--calibrate"]])
    def test_two_step_rejects_selection_and_calibration(self, workspace, tmp_path,
                                                        capsys, flags):
        out = tmp_path / "models"
        assert main(_two_step_args(workspace, out) + flags) == 2
        assert "two-step" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["80", "nan", "-1", "inf"])
    @pytest.mark.parametrize("command", ["classify", "train"])
    def test_rejects_threshold_out_of_range(self, workspace, models_dir, tmp_path, capsys,
                                            monkeypatch, command, value):
        argv = ["classify", "--input", str(workspace["dataset"]),
                "--models", str(models_dir)] if command == "classify" \
            else _two_step_args(workspace, tmp_path / "out")[:-2]  # no --out
        _assert_rejected_before_any_fit(
            [*argv, "--threshold", value], None,
            f"--threshold must be a number from 0 to 1, got {float(value)!r}",
            tmp_path, capsys, monkeypatch)

    def test_classify_needs_doc_model_for_class_vectors(self, workspace, models_dir,
                                                        tmp_path, capsys):
        models = tmp_path / "models"
        shutil.copytree(models_dir, models)
        path = models / "extractor.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["class_vectors"] = [{"label": "Meta", "vector": [1.0, 0.0]}]
        path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "classified"
        rc = main(["classify", "--input", str(workspace["dataset"]),
                   "--models", str(models), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "class vectors" in err and "Traceback" not in err
        assert not (out / "classified.jsonl").exists()

    def test_classify_rejects_doc_model_of_another_dimension(self, workspace,
                                                             semantic_models, tmp_path,
                                                             capsys):
        # the models were trained with a dim-8 doc model
        docs, out = tmp_path / "doc4", tmp_path / "classified"
        assert main(["train-embeddings", "--input", str(workspace["dataset"]),
                     "--kind", "doc", "--dim", "4", "--window", "3", "--min-count", "2",
                     "--epochs", "1", "--out", str(docs)]) == 0
        rc = main(["classify", "--input", str(workspace["dataset"]),
                   "--models", str(semantic_models["models"]),
                   "--doc-model", str(docs / "model"), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert (f"{semantic_models['models'] / 'extractor.json'}: class vectors of "
                "dimension 8 given with a doc model of dimension 4") in err
        assert "Traceback" not in err
        assert not (out / "classified.jsonl").exists()

    @pytest.mark.parametrize("name,key,value", [
        ("extractor.json", "keyword_sets", None),
        ("meta.json", "kind", None),
        ("addressee_media.json", "standardizer", None),
        ("model.docs.meta.json", "inference_params", None),
        ("meta.json", "format", "metacomment-model/0"),
        ("meta.json", "kind", "svm"),
    ])
    def test_classify_rejects_model_file_missing_a_key(self, workspace, semantic_models,
                                                     tmp_path, capsys, name, key, value):
        # a key removed, or a wrong format tag, in any file classify reads
        models, docs = tmp_path / "models", tmp_path / "doc"
        shutil.copytree(semantic_models["models"], models)
        shutil.copytree(semantic_models["doc"], docs)
        path = (docs if name.startswith("model.") else models) / name
        data = json.loads(path.read_text(encoding="utf-8"))
        if value is None:
            del data[key]
        else:
            data[key] = value
        path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "classified"
        rc = main(["classify", "--input", str(workspace["dataset"]), "--models", str(models),
                   "--doc-model", str(docs / "model"), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert name in err and repr(value or key) in err
        assert "Traceback" not in err
        assert not (out / "classified.jsonl").exists()

    @pytest.mark.parametrize("key", ["objective_history", "converged"])
    def test_classify_rejects_svm_payload_missing_a_key(self, workspace, models_dir,
                                                        tmp_path, capsys, key):
        models = tmp_path / "models"
        shutil.copytree(models_dir, models)
        path = models / "addressee_moderator.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        del data["payload"][key]
        path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "classified"
        rc = main(["classify", "--input", str(workspace["dataset"]),
                   "--models", str(models), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"addressee_moderator.json: missing key {key!r}" in err
        assert "Traceback" not in err
        assert not (out / "classified.jsonl").exists()

    @pytest.mark.parametrize("fmt,name,edit,key", [
        pytest.param(fmt, name, edit, key, id=f"{case}-{fmt[-2:]}")
        for case, formats, name, edit, key in MODEL_REJECTIONS for fmt in formats])
    def test_classify_rejects_model_arrays(self, workspace, models_dir, tmp_path, capsys,
                                           fmt, name, edit, key):
        models = tmp_path / "models"
        shutil.copytree(models_dir, models)
        path = models / name
        data = json.loads(path.read_text(encoding="utf-8"))
        data = as_v1_model(data) if fmt == _BOTH[0] else data
        edit(data)
        path.write_text(json.dumps(data), encoding="utf-8")
        _assert_classify_rejects(workspace, models, path, key, capsys)

    @pytest.mark.parametrize("kind,edit,key", [
        pytest.param(kind, edit, key, id=case)
        for case, kind, edit, key in PAYLOAD_REJECTIONS])
    def test_classify_rejects_model_payloads(self, workspace, payload_models, tmp_path,
                                             capsys, kind, edit, key):
        models = tmp_path / "models"
        shutil.copytree(payload_models / kind, models)
        path = models / "meta.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        edit(data)
        path.write_text(json.dumps(data), encoding="utf-8")
        _assert_classify_rejects(workspace, models, path, key, capsys)

    @pytest.mark.parametrize("edit,key", [
        (_edit(("tfidf", "document_frequencies"), lambda v: v[:-1]),
         "'tfidf.document_frequencies'"),
        (_set(("tfidf", "document_frequencies", 2), "3"), "'tfidf.document_frequencies'"),
        (_set(("tfidf", "document_frequencies", 2), 2 ** 70), "'tfidf.document_frequencies'"),
        (_set(("tfidf", "n_docs"), "150"), "'tfidf.n_docs'"),
        (_set(("class_vectors", 1, "vector", 2), "0.5"), "'class_vectors[1].vector'"),
        (_set(("keyword_sets",), [1]), "'keyword_sets'"),
        (_set(("tfidf",), [1]), "'tfidf'"),
        (_set(("class_vectors",), {"a": 1}), "'class_vectors'"),
    ], ids=["frequencies one short", "frequency is a string", "frequency above n_docs",
            "n_docs is a string", "vector holds a string", "keyword sets is a list",
            "tfidf is a list", "class vectors is an object"])
    def test_classify_rejects_extractor_numbers(self, workspace, semantic_models, tmp_path,
                                                capsys, edit, key):
        models = tmp_path / "models"
        shutil.copytree(semantic_models["models"], models)
        path = models / "extractor.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        edit(data)
        path.write_text(json.dumps(data), encoding="utf-8")
        _assert_classify_rejects(workspace, models, path, key, capsys,
                                 "--doc-model", str(semantic_models["doc"] / "model"))

    def test_classify_reads_v1_model_files_the_same(self, workspace, models_dir, tmp_path):
        # the directory as earlier versions wrote it: arrays as JSON lists
        old = tmp_path / "v1"
        shutil.copytree(models_dir, old)
        for name in MODEL_FILES:
            data = json.loads((old / name).read_text(encoding="utf-8"))
            assert data["format"] == "metacomment-model/2"
            write_json(old / name, as_v1_model(data))
        new_clf = TwoStepClassifier.load(models_dir, None)
        old_clf = TwoStepClassifier.load(old, None)
        for new_m, old_m in zip([new_clf.meta_model, *new_clf.addressee_models.values()],
                                [old_clf.meta_model, *old_clf.addressee_models.values()]):
            for new_a, old_a in ((new_m.standardizer.mean, old_m.standardizer.mean),
                                 (new_m.standardizer.std, old_m.standardizer.std),
                                 (new_m.inner.w, old_m.inner.w)):
                assert new_a.tobytes() == old_a.tobytes()
            assert (new_m.inner.b, new_m.calibration) == (old_m.inner.b, old_m.calibration)
        outputs = []
        for models in (models_dir, old):
            out = tmp_path / f"classified_{models.name}"
            assert main(["classify", "--input", str(workspace["dataset"]),
                         "--models", str(models), "--out", str(out)]) == 0
            outputs.append((out / "classified.jsonl").read_bytes())
        assert outputs[0] == outputs[1]

    def test_classify_infers_once_per_chunk(self, semantic_models, tmp_path,
                                            monkeypatch):
        # a two-step directory with the semantic group, and unseen comments
        models, doc_model = semantic_models["models"], semantic_models["doc"]
        unseen = tmp_path / "unseen.jsonl"
        save_dataset(generate_comment_dataset(1, n_per_class=3, n_nonmeta=4,
                                              source_tag="unseen"), unseen)
        calls = {"infer_many": [], "infer": 0}
        infer_many = DocEmbeddingModel.infer_many

        def spy_many(self, streams):
            calls["infer_many"].append(len(streams))
            return infer_many(self, streams)

        def spy_one(self, ts):
            calls["infer"] += 1
            return infer_many(self, [ts])

        monkeypatch.setattr(DocEmbeddingModel, "infer_many", spy_many)
        monkeypatch.setattr(DocEmbeddingModel, "infer", spy_one)
        monkeypatch.setattr(cli, "CLASSIFY_CHUNK", 5)
        out = tmp_path / "classified"
        assert main(["classify", "--input", str(unseen), "--models", str(models),
                     "--doc-model", str(doc_model / "model"), "--out", str(out)]) == 0
        assert len((out / "classified.jsonl").read_text().splitlines()) == 13
        assert calls == {"infer_many": [5, 5, 3], "infer": 0}

    def test_two_step_artifacts_independent_of_hash_seed(self, workspace, tmp_path):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(metacomment.__file__).parents[1]))
        runs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"hashseed{hash_seed}"
            runs.append((out, subprocess.Popen(
                [sys.executable, "-m", "metacomment.cli",
                 *_two_step_args(workspace, out)],
                env={**env, "PYTHONHASHSEED": hash_seed})))
        for _, process in runs:
            assert process.wait(timeout=600) == 0
        (a, _), (b, _) = runs
        names = sorted(p.name for p in a.glob("*.json") if p.name != "manifest.json")
        assert len(names) == 5
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        for name in MODEL_FILES:
            assert json.loads((a / name).read_text())["format"] == "metacomment-model/2"

    @pytest.mark.parametrize("classifier,params,message", [
        ("linear_svm", "foo=1", "unknown linear_svm hyperparameter 'foo'"),
        ("linear_svm", "C=abc", "C must be positive, got 'abc'"),
        ("linear_svm", "max_epochs=2.5", "max_epochs must be an integer >= 1, got 2.5"),
        ("random_forest", "n_trees=0", "n_trees must be an integer >= 1, got 0"),
        ("adaboost", "n_rounds=0", "n_rounds must be an integer >= 1, got 0"),
        ("knn", "k=0", "k must be an integer >= 1, got 0"),
        ("decision_tree", "max_depth=true", "max_depth must be an integer >= 1, got True"),
        ("adaboost", "seed=1", "unknown adaboost hyperparameter 'seed'"),
    ])
    def test_train_rejects_bad_hyperparameter(self, workspace, tmp_path, capsys,
                                              classifier, params, message):
        out = tmp_path / "single"
        rc = main(["train", "--input", str(workspace["dataset"]),
                   "--classifier", classifier, "--params", params, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_single_target_train_fits_before_writing(self, tmp_path, capsys):
        dataset = tmp_path / "meta_only.jsonl"
        save_dataset(generate_comment_dataset(0, n_per_class=5, n_nonmeta=0), dataset)
        out = tmp_path / "single"
        rc = main(["train", "--input", str(dataset), "--target", "NonMeta",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "training labels must contain both classes" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_single_target_train(self, workspace, tmp_path, capsys):
        out = tmp_path / "single"
        rc = main(["train", "--input", str(workspace["dataset"]),
                   "--target", "Moderator", "--classifier", "decision_tree",
                   "--word-model", str(workspace["word_model"]),
                   "--out", str(out)])
        assert rc == 0
        assert (out / "model.json").is_file()
        assert "training accuracy" in capsys.readouterr().out


class TestTooFewMembers:
    @pytest.fixture(scope="class")
    def three_moderators(self, tmp_path_factory):
        """40 comments, 3 of them addressed to the moderators."""
        ds = generate_comment_dataset(0, n_per_class=6, n_nonmeta=25)
        moderators = [i for i, (_, labels) in enumerate(ds) if "Moderator" in labels]
        dataset = tmp_path_factory.mktemp("few") / "dataset.jsonl"
        save_dataset(LabeledDataset([e for i, e in enumerate(ds) if i not in moderators[3:]]),
                     dataset)
        return dataset

    @pytest.mark.parametrize("argv, needs", [
        (["evaluate", "--target", "Moderator", "-k", "5"], "5-fold cross-validation"),
        (["train", "--target", "Moderator", "--calibrate"], "the calibration holdout"),
        (["train", "--two-step"], "the calibration holdout"),
    ])
    def test_error_names_the_label_and_what_needs_the_members(self, three_moderators,
                                                              tmp_path, capsys, argv, needs):
        assert len(load_dataset(three_moderators)) == 40
        out = tmp_path / "out"
        rc = main([*argv, "--input", str(three_moderators), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: Moderator: 3 positive examples; {needs} needs at least 5 of each " \
            "class" in err
        assert "Traceback" not in err and not out.exists()


class TestEvaluateAndGrid:
    def test_evaluate_writes_scores(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval"
        rc = main(["evaluate", "--input", str(workspace["dataset"]),
                   "--target", "Meta", "-k", "4",
                   "--params", "C=0.5,tolerance=0.001,max_epochs=60",
                   "--word-model", str(workspace["word_model"]),
                   "--out", str(out)])
        assert rc == 0
        assert "mean precision" in capsys.readouterr().out
        lines = (out / "scores.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 + 2  # header, folds, mean, pooled
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["mean"]["f_beta"] > 0.8

    def test_grid_search_two_point(self, workspace, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "params": {"C": [0.5, 1.0], "tolerance": [0.001], "max_epochs": [60]},
            "feature_counts": ["all"]}), encoding="utf-8")
        out = tmp_path / "grid_out"
        rc = main(["grid-search", "--input", str(workspace["dataset"]),
                   "--target", "Meta", "--grid", str(grid), "-k", "3",
                   "--word-model", str(workspace["word_model"]),
                   "--out", str(out)])
        assert rc == 0
        rows = (out / "scores.csv").read_text().splitlines()
        mean_rows = [r for r in rows if ",mean," in r or r.endswith(",mean")
                     or ",mean" in r]
        assert len([r for r in rows[1:] if "mean" in r]) == 2
        best = json.loads((out / "best.json").read_text())
        assert best["params"]["C"] in (0.5, 1.0)

    def test_cross_eval(self, workspace, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        save_dataset(generate_comment_dataset(9, n_per_class=20, n_nonmeta=60,
                                              source_tag="other"), other)
        out = tmp_path / "xeval"
        rc = main(["cross-eval", "--train", str(workspace["dataset"]),
                   "--test", str(other), "--classes", "Meta",
                   "--params", "C=0.5,tolerance=0.001,max_epochs=60",
                   "--word-model", str(workspace["word_model"]),
                   "--out", str(out)])
        assert rc == 0
        assert "Meta: precision" in capsys.readouterr().out
        metrics = json.loads((out / "metrics.json").read_text())
        assert "Meta" in metrics["classes"]

    def test_cross_eval_rejects_shared_ids(self, workspace, tmp_path, capsys):
        out = tmp_path / "xeval"
        rc = main(["cross-eval", "--train", str(workspace["dataset"]),
                   "--test", str(workspace["dataset"]), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "150 comment ids are in both the training and the test dataset" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,grid,message", [
        (["evaluate", "--select-k", "0"], None,
         "--select-k must be 'all' or an integer >= 1, got 0"),
        (["evaluate", "--select-k", "-5"], None,
         "--select-k must be 'all' or an integer >= 1, got -5"),
        (["evaluate", "--select-k", "some"], None,
         "--select-k must be 'all' or an integer >= 1, got 'some'"),
        (["train", "--select-k", "0"], None,
         "--select-k must be 'all' or an integer >= 1, got 0"),
        (["grid-search"], {"params": {}, "feature_counts": "all"},
         "grid.json: \"feature_counts\" must be a non-empty list"),
        (["grid-search"], {"params": {}, "feature_counts": []},
         "grid.json: \"feature_counts\" must be a non-empty list"),
        (["grid-search"], {"params": {}, "feature_counts": ["all", 0]},
         "grid.json: each \"feature_counts\" value must be 'all' or an integer >= 1, "
         "got 0"),
        (["grid-search"], {"params": {}, "feature_counts": [True]},
         "grid.json: each \"feature_counts\" value must be 'all' or an integer >= 1, "
         "got True"),
    ])
    def test_rejects_feature_count_before_any_fit(self, workspace, tmp_path, capsys,
                                                   monkeypatch, argv, grid, message):
        _assert_rejected_before_any_fit(
            [*argv, "--input", str(workspace["dataset"])], grid, message,
            tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("argv,grid,message", [
        (["evaluate", "--beta", "nan"], None,
         "--beta must be a finite number above 0, got nan"),
        (["evaluate", "--beta", "-1"], None,
         "--beta must be a finite number above 0, got -1.0"),
        (["evaluate", "--beta", "0"], None,
         "--beta must be a finite number above 0, got 0.0"),
        (["cross-eval", "--beta", "inf"], None,
         "--beta must be a finite number above 0, got inf"),
        (["grid-search", "--beta", "nan"], {"params": {}},
         "--beta must be a finite number above 0, got nan"),
        (["grid-search"], {"params": {}, "beta": "x"},
         "grid.json: \"beta\" must be a finite number above 0, got 'x'"),
        (["grid-search"], {"params": {}, "beta": True},
         "grid.json: \"beta\" must be a finite number above 0, got True"),
        (["grid-search"], {"params": {}, "beta": -1},
         "grid.json: \"beta\" must be a finite number above 0, got -1"),
    ])
    def test_rejects_beta_before_any_fit(self, workspace, tmp_path, capsys, monkeypatch,
                                         argv, grid, message):
        data = str(workspace["dataset"])
        inputs = ["--train", data, "--test", data] if argv[0] == "cross-eval" \
            else ["--input", data]
        _assert_rejected_before_any_fit([*argv, *inputs], grid, message,
                                        tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("command", ["train", "evaluate", "grid-search"])
    def test_unknown_target_is_usage_error(self, workspace, tmp_path, capsys, command):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", str(workspace["dataset"]), "--target", "Medai",
                  *(["--grid", "grid.json"] if command == "grid-search" else []),
                  "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--target: invalid choice: 'Medai'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cross-eval", "rank-features"])
    def test_rejects_unknown_class_before_any_fit(self, workspace, tmp_path, capsys,
                                                  monkeypatch, command):
        data = str(workspace["dataset"])
        inputs = ["--train", data, "--test", data] if command == "cross-eval" \
            else ["--input", data]
        _assert_rejected_before_any_fit(
            [command, *inputs, "--classes", "Meta,Medai"], None,
            "--classes: unknown label 'Medai', choose from "
            "Media, Journalist, Moderator, Meta, NonMeta", tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("target", ["NonMeta", "Meta"])
    def test_two_step_rejects_target(self, workspace, tmp_path, capsys, monkeypatch,
                                     target):
        _assert_rejected_before_any_fit(
            ["train", "--input", str(workspace["dataset"]), "--two-step",
             "--target", target], None,
            f"--target {target}: the two-step gate is always Meta", tmp_path, capsys,
            monkeypatch)

    @pytest.mark.parametrize("command", ["cross-eval", "rank-features"])
    def test_rejects_repeated_class_before_reading_data(self, workspace, tmp_path, capsys,
                                                        monkeypatch, command):
        reads = []
        monkeypatch.setattr(cli, "load_dataset", lambda *a: reads.append(a))
        data = str(workspace["dataset"])
        inputs = ["--train", data, "--test", data] if command == "cross-eval" \
            else ["--input", data]
        _assert_rejected_before_any_fit(
            [command, *inputs, "--classes", "Media,Meta,Media"], None,
            "--classes: label 'Media' is given more than once", tmp_path, capsys,
            monkeypatch)
        assert reads == []

    def test_evaluate_reads_word_lists_once(self, workspace, tmp_path, monkeypatch):
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("und\nder\ndie\n", encoding="utf-8")
        keywords = tmp_path / "keywords"
        keywords.mkdir()
        for label, words in CLASS_KEYWORDS.items():
            (keywords / f"{label.lower()}.txt").write_text("\n".join(words),
                                                           encoding="utf-8")
        reads = []
        for module in (features, textprep):
            read_lines = module.read_lines
            monkeypatch.setattr(module, "read_lines",
                                lambda path, read=read_lines: reads.append(Path(path))
                                or read(path))
        rc = main(["evaluate", "--input", str(workspace["dataset"]), "-k", "5",
                   "--params", "C=0.5,tolerance=0.001,max_epochs=40",
                   "--stopwords", str(stopwords), "--keywords-dir", str(keywords)])
        assert rc == 0
        given = [path for path in reads if tmp_path in path.parents]  # not shipped lists
        assert sorted(given) == sorted([stopwords, *keywords.iterdir()])

    def test_report_renders_table(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval2"
        main(["evaluate", "--input", str(workspace["dataset"]), "--target", "Meta",
              "-k", "3", "--params", "C=0.5,tolerance=0.001,max_epochs=40",
              "--word-model", str(workspace["word_model"]), "--out", str(out)])
        capsys.readouterr()
        rc = main(["report", "--metrics", str(out / "metrics.json")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "precision" in text
        assert "Meta" in text


def _assert_rejected_before_any_fit(argv, grid, message, tmp_path, capsys, monkeypatch):
    """argv, with --grid naming a file of grid when it is given, exits 2 with
    message before fitting any extractor or writing to its --out."""
    fits = []
    monkeypatch.setattr(FeaturePipeline, "_fit_extractor",
                        lambda self, entries: fits.append(entries))
    if grid is not None:
        (tmp_path / "grid.json").write_text(json.dumps(grid), encoding="utf-8")
        argv = argv + ["--grid", str(tmp_path / "grid.json")]
    out = tmp_path / "out"
    rc = main([*argv, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert fits == [] and not out.exists()


class TestRejectedJsonFiles:
    @pytest.mark.parametrize("grid,classifier,message", [
        ([1], "linear_svm", "grid.json: the top-level JSON value is not an object"),
        ({"params": {"C": 0.5}}, "linear_svm", "grid.json: \"params\" must map"),
        ({"params": {"C": []}}, "linear_svm", "grid.json: \"params\" must map"),
        ({"params": {"n_trees": [5, 0]}}, "random_forest",
         "n_trees must be an integer >= 1, got 0"),
    ])
    def test_grid_search_rejects_grid_file(self, workspace, tmp_path, capsys, grid,
                                           classifier, message):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid), encoding="utf-8")
        out = tmp_path / "grid_out"
        rc = main(["grid-search", "--input", str(workspace["dataset"]), "--grid", str(path),
                   "--classifier", classifier, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (out / "scores.csv").exists()

    def test_report_rejects_metrics_that_are_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert main(["report", "--metrics", str(path)]) == 2
        err = capsys.readouterr().err
        assert "metrics.json: the top-level JSON value is not an object" in err
        assert "Traceback" not in err


class TestRankFeatures:
    def test_class_missing_from_the_data_is_skipped(self, tmp_path, caplog):
        dataset = tmp_path / "meta_only.jsonl"
        save_dataset(generate_comment_dataset(0, n_per_class=5, n_nonmeta=0), dataset)
        out = tmp_path / "rank"
        rc = main(["rank-features", "--input", str(dataset), "--classes", "NonMeta,Media",
                   "--out", str(out)])
        assert rc == 0
        assert "class NonMeta missing from dataset; skipped" in caplog.text
        assert list(json.loads((out / "ranking.json").read_text())) == ["Media"]

    @pytest.mark.parametrize("top", ["0", "-2"])
    def test_rejects_top_below_one_before_reading_data(self, workspace, tmp_path, capsys,
                                                       monkeypatch, top):
        reads = []
        monkeypatch.setattr(cli, "load_dataset", lambda *a: reads.append(a))
        out = tmp_path / "rank"
        rc = main(["rank-features", "--input", str(workspace["dataset"]), "--top", top,
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"--top must be an integer >= 1, got {top}" in err
        assert "Traceback" not in err
        assert reads == [] and not out.exists()

    def test_table_per_class(self, workspace, tmp_path, capsys):
        out = tmp_path / "rank"
        rc = main(["rank-features", "--input", str(workspace["dataset"]),
                   "--top", "10", "--word-model", str(workspace["word_model"]),
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        for cls in ("Meta", "Media", "Journalist", "Moderator"):
            assert f"-- {cls}" in text
        ranking = json.loads((out / "ranking.json").read_text())
        assert len(ranking["Moderator"]) == 10
        top_moderator = ranking["Moderator"][0]["feature"]
        assert "moderator" in top_moderator or "sysop" in top_moderator \
            or "zensur" in top_moderator


class TestSampleAndMerge:
    @pytest.mark.parametrize("missing", ["--word-model", "--doc-model"])
    def test_similarity_sample_needs_both_models(self, workspace, semantic_models,
                                                 tmp_path, capsys, monkeypatch, missing):
        models = {"--word-model": str(workspace["word_model"]),
                  "--doc-model": str(semantic_models["doc"] / "model")}
        del models[missing]
        reads = []
        monkeypatch.setattr(cli, "load_dataset", lambda *args: reads.append(args))
        out = tmp_path / "sampled"
        rc = main(["sample", "--input", str(workspace["dataset"]), "--method", "similarity",
                   *(part for flag in models.items() for part in flag), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"sample --method similarity needs {missing}" in err
        assert "Traceback" not in err
        assert reads == [] and not out.exists()

    def test_pattern_sample(self, workspace, tmp_path):
        out = tmp_path / "sampled"
        rc = main(["sample", "--input", str(workspace["dataset"]),
                   "--method", "pattern", "--label", "Moderator", "-n", "5",
                   "--word-model", str(workspace["word_model"]),
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "batch.csv").read_text().splitlines()
        assert lines[0].startswith("# labels:")
        assert len(lines) == 2 + 5  # comment, header, rows

    def test_random_sample_and_merge(self, workspace, tmp_path):
        out = tmp_path / "rand"
        rc = main(["sample", "--input", str(workspace["dataset"]),
                   "--method", "random", "-n", "4", "--batch-id", "r1",
                   "--out", str(out)])
        assert rc == 0
        batch_csv = out / "r1.csv"
        text = batch_csv.read_text(encoding="utf-8")
        filled = text.replace("random,,", "random,,Meta", 3)
        coded = tmp_path / "coded.csv"
        coded.write_text(filled, encoding="utf-8")
        merge_out = tmp_path / "merged"
        rc = main(["merge", "--input", str(workspace["dataset"]),
                   "--coded", str(coded), str(coded), str(coded),
                   "--out", str(merge_out)])
        assert rc == 0
        assert (merge_out / "dataset.jsonl").is_file()
        assert json.loads((merge_out / "flagged.json").read_text()) == []

    @pytest.mark.parametrize("header,row,encoding,where", [
        ("batch_id,id,title,text,provenance,score,label", "b,{id},,grüße,random,,Meta",
         "utf-8", "line 2: the header has no 'comment_id' column"),
        (",".join(sampling._CSV_COLUMNS), "b,{id},,grüße,random,,Bogus", "utf-8",
         "line 6: unknown labels: ['Bogus']"),
        (",".join(sampling._CSV_COLUMNS), "b,{id},,grüße,random,,Meta", "latin-1",
         "line 6, byte {byte}: 0xfc is not UTF-8"),
        (",".join(sampling._CSV_COLUMNS), "b,ghost,,grüße,random,,Meta", "utf-8",
         "line 6: unknown comment id 'ghost'"),
        (",".join(sampling._CSV_COLUMNS), "b", "utf-8",
         "line 6: 'comment_id' is missing, the row ends before that column"),
    ], ids=["no comment_id column", "unknown label", "not UTF-8", "unknown id",
            "row cut short"])
    def test_merge_rejects_coded_file(self, workspace, tmp_path, capsys, header, row,
                                      encoding, where):
        ids = [comment.id for comment in load_dataset(workspace["dataset"]).comments()]
        coded = tmp_path / "coded.csv"
        # the fourth row spans lines 4 and 5, so the sixth line holds the fifth row
        coded.write_bytes(f"# labels: Meta\n{header}\n"
                          f"b,{ids[0]},,eins,random,,Meta\n"
                          f'b,{ids[1]},,"zwei\nZeilen",random,,Meta\n'
                          f"{row.format(id=ids[2])}\n".encode(encoding))
        out = tmp_path / "merged"
        rc = main(["merge", "--input", str(workspace["dataset"]), "--coded", str(coded),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, err
        byte = len(f"b,{ids[2]},,gr") + 1  # the ü
        assert f"{coded}: {where.format(byte=byte)}" in err, err
        assert "Traceback" not in err
        assert not out.exists()
