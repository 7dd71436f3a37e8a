import filecmp
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candgen import artifact, cli, pooling, retrieval, synthetic
from candgen.cli import _read_results_tsv, _write_results_tsv, build_parser, main
from candgen.encoder import EncoderConfig, load_checkpoint
from candgen.training import TrainConfig
from index_files import index_with_header, split_index


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("toy")
    world = synthetic.make_toy_world(10, 20, seed=0)
    paths = {
        "entities": str(base / "entities.jsonl"),
        "mentions": str(base / "mentions.jsonl"),
        "documents": str(base / "documents.jsonl"),
        "types": str(base / "types.tsv"),
        "base": base,
    }
    synthetic.write_world_files(
        world, paths["entities"], paths["mentions"], paths["documents"], paths["types"]
    )
    return paths


TINY = ["--dim", "8", "--layers", "1", "--heads", "2", "--ff-dim", "16",
        "--max-len", "16", "--epochs", "2", "--lr", "1e-3"]


def run(args):
    assert main(args) == 0


@pytest.fixture(scope="module")
def pipeline(toy_files, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    vocab = str(out / "toy")
    run(["train-bpe", "--input", toy_files["entities"], toy_files["documents"],
         "--vocab-size", "300", "--out", vocab])
    model = str(out / "model")
    run(["train", "--entities", toy_files["entities"], "--mentions", toy_files["mentions"],
         "--documents", toy_files["documents"], "--vocab", vocab, "--out", model,
         "--pooling", "avg", *TINY])
    index = str(out / "index")
    run(["embed", "--entities", toy_files["entities"], "--vocab", vocab,
         "--checkpoint", os.path.join(model, "entity.ckpt"), "--pooling", "avg",
         "--out", index])
    results = str(out / "results.tsv")
    run(["retrieve", "--index", index, "--checkpoint", os.path.join(model, "mention.ckpt"),
         "--mentions", toy_files["mentions"], "--documents", toy_files["documents"],
         "--vocab", vocab, "--metric", "dot", "--k", "5", "--pooling", "avg",
         "--out", results])
    return dict(out=out, vocab=vocab, model=model, index=index, results=results)


def test_pipeline_artifacts_exist(pipeline):
    assert os.path.exists(pipeline["vocab"] + ".vocab")
    assert os.path.exists(pipeline["index"] + ".mat")
    assert os.path.exists(os.path.join(pipeline["model"], "train.log"))
    assert os.path.exists(pipeline["results"] + ".manifest")


@pytest.mark.parametrize("subcommand", ["train", "experiment"])
def test_model_and_training_flags_default_to_the_configs(subcommand):
    args = build_parser().parse_args([subcommand, "--entities", "e", "--mentions", "m",
                                      "--vocab", "v", "--entity-types", "t", "--out", "o"])
    assert EncoderConfig(dim=args.dim, layers=args.layers, heads=args.heads,
                         ff_dim=args.ff_dim, max_len=args.max_len, vocab_size=1) == \
        EncoderConfig(vocab_size=1)
    assert TrainConfig(batch_size=args.batch_size, epochs=args.epochs, learning_rate=args.lr,
                       weight_decay=args.weight_decay, seed=args.seed) == TrainConfig()
    if subcommand == "train":
        assert args.pooling == EncoderConfig.pooling_kind


def test_each_manifest_records_its_subcommand_once(pipeline, toy_files, tmp_path):
    run(["eval", "--results", pipeline["results"], "--mentions", toy_files["mentions"],
         "--ks", "1,5", "--out", str(tmp_path / "eval")])
    assert _experiment(toy_files, tmp_path, "--entity-types", toy_files["types"],
                       "--k", "3") == 0
    manifests = {
        "train-bpe": pipeline["vocab"] + ".manifest",
        "train": os.path.join(pipeline["model"], "manifest"),
        "embed": pipeline["index"] + ".manifest",
        "retrieve": pipeline["results"] + ".manifest",
        "eval": tmp_path / "eval.manifest",
        "experiment": tmp_path / "exp" / "manifest",
    }
    for subcommand, path in manifests.items():
        lines = Path(path).read_text().splitlines()
        assert [line for line in lines if line.startswith("subcommand=")] == \
            [f"subcommand={subcommand}"], path


def test_eval_matches_module_oracle(pipeline, toy_files):
    out = str(pipeline["out"] / "eval")
    run(["eval", "--results", pipeline["results"], "--mentions", toy_files["mentions"],
         "--ks", "1,5", "--out", out])
    kv = {}
    with open(out + ".report") as f:
        for line in f:
            key, value = line.rstrip("\n").split("\t")
            kv[key] = value

    # independent oracle: recompute from the raw results file
    from candgen.cli import _read_results_tsv
    from candgen.corpus import load_mentions
    from candgen.evaluation import accuracy_at_k

    results = _read_results_tsv(pipeline["results"])
    gold = {m.mention_id: m.gold_entity_id for m in load_mentions(toy_files["mentions"])}
    for k in (1, 5):
        assert float(kv[f"accuracy@{k}"]) == pytest.approx(
            accuracy_at_k(results, gold, k), abs=1e-6
        )


def test_eval_rejects_results_missing_gold_mentions(pipeline, toy_files, capsys):
    partial = str(pipeline["out"] / "partial.tsv")
    with open(pipeline["results"]) as f:
        rows = f.read().splitlines()
    first = rows[0].split("\t")[0]
    with open(partial, "w") as f:
        f.write("\n".join(r for r in rows if r.split("\t")[0] == first) + "\n")
    code = main(["eval", "--results", partial, "--mentions", toy_files["mentions"],
                 "--ks", "1,5", "--out", str(pipeline["out"] / "partial")])
    assert code == 1
    assert "no rows for 19 of the 20 mentions" in capsys.readouterr().err
    assert not os.path.exists(str(pipeline["out"] / "partial.report"))


def test_retrieve_smaller_k_is_prefix(pipeline, toy_files):
    out50 = str(pipeline["out"] / "r5.tsv")
    out64 = str(pipeline["out"] / "r8.tsv")
    common = ["retrieve", "--index", pipeline["index"],
              "--checkpoint", os.path.join(pipeline["model"], "mention.ckpt"),
              "--mentions", toy_files["mentions"], "--documents", toy_files["documents"],
              "--vocab", pipeline["vocab"], "--metric", "dot", "--pooling", "avg"]
    run(common + ["--k", "5", "--out", out50])
    run(common + ["--k", "8", "--out", out64])
    with open(out50) as f:
        small = f.read().splitlines()
    with open(out64) as f:
        large = f.read().splitlines()
    small_by_mention = {}
    for line in small:
        small_by_mention.setdefault(line.split("\t")[0], []).append(line)
    large_by_mention = {}
    for line in large:
        large_by_mention.setdefault(line.split("\t")[0], []).append(line)
    for mid, rows in small_by_mention.items():
        assert large_by_mention[mid][: len(rows)] == rows


def test_k_larger_than_world_rejected(pipeline, toy_files, capsys):
    code = main(["retrieve", "--index", pipeline["index"],
                 "--checkpoint", os.path.join(pipeline["model"], "mention.ckpt"),
                 "--mentions", toy_files["mentions"], "--documents", toy_files["documents"],
                 "--vocab", pipeline["vocab"], "--k", "999",
                 "--out", str(pipeline["out"] / "x.tsv")])
    assert code != 0


def test_retrieve_rejects_index_of_other_pooling(pipeline, toy_files, capsys):
    out = str(pipeline["out"] / "cls.tsv")
    code = main(["retrieve", "--index", pipeline["index"],
                 "--checkpoint", os.path.join(pipeline["model"], "mention.ckpt"),
                 "--mentions", toy_files["mentions"], "--documents", toy_files["documents"],
                 "--vocab", pipeline["vocab"], "--k", "5", "--pooling", "cls",
                 "--out", out])
    assert code == 1
    err = capsys.readouterr().err
    assert "'avg'" in err and "--pooling cls" in err
    assert not os.path.exists(out)


def test_retrieve_takes_the_pooling_from_the_index(pipeline, toy_files, tmp_path):
    """``pipeline``'s index is avg; without --pooling, retrieve uses it and
    records it, as if --pooling avg had been given."""
    explicit, implied = tmp_path / "explicit.tsv", tmp_path / "implied.tsv"
    argv = _retrieve_argv(pipeline, toy_files, toy_files["mentions"], "dot", explicit)
    run(argv)
    i = argv.index("--pooling")
    run(argv[:i] + argv[i + 2 : -1] + [str(implied)])
    assert implied.read_bytes() == explicit.read_bytes()
    manifest = Path(f"{implied}.manifest").read_text().splitlines()
    assert "pooling=avg" in manifest


def test_os_errors_are_reported_not_raised(pipeline, toy_files, tmp_path, capsys):
    """A directory where a file is expected, read or written, is an error
    message and exit 1, like a missing file."""
    assert main(_retrieve_argv(pipeline, toy_files, toy_files["mentions"], "dot",
                               tmp_path)) == 1
    assert "error: " in capsys.readouterr().err
    assert _eval(tmp_path, toy_files, tmp_path / "eval") == 1
    assert str(tmp_path) in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "eval.report")


@pytest.mark.parametrize("bad_id", ["e\tx", "e\rx", "e\nx", "e\ud800"])
def test_retrieve_refuses_an_index_id_it_cannot_write(pipeline, toy_files, tmp_path, capsys,
                                                      bad_id):
    """An index file whose header holds an id that the results file could
    not hold: retrieve names the id, exits 1 and writes nothing."""
    with open(pipeline["index"] + ".mat", "rb") as f:
        header, body = split_index(f.read())
    header["ids"][3] = bad_id
    prefix, out = str(tmp_path / "odd"), tmp_path / "results.tsv"
    with open(prefix + ".mat", "wb") as f:
        f.write(index_with_header(header, body))
    argv = _retrieve_argv(pipeline, toy_files, toy_files["mentions"], "dot", out)
    argv[argv.index("--index") + 1] = prefix
    argv[argv.index("--k") + 1] = str(len(header["ids"]))  # every id is written
    assert main(argv) == 1
    assert repr(bad_id) in capsys.readouterr().err
    assert not out.exists() and not os.path.exists(f"{out}.manifest")


_ODD_IDS = (st.sampled_from(["", "é\u4e2d", "\x85", "\u2028", "\x0b", "a b"])
            | st.text(st.characters(codec="utf-8", exclude_characters="\t\r\n"), max_size=4))
_ODD_SCORES = st.sampled_from([-0.0, 5e-324, 2.5e-310, 1e308, -1e308]) | st.floats(allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(
    st.tuples(_ODD_IDS, st.lists(st.tuples(_ODD_IDS, _ODD_SCORES), min_size=1, max_size=4)),
    max_size=4, unique_by=lambda row: row[0],
))
def test_results_tsv_round_trip(tmp_path_factory, rows):
    """What retrieve writes, eval reads back: the same ids in the same rank
    order, and each score as its 12-significant-digit text parses. The ids
    are any that the corpus reader and the index accept."""
    path = tmp_path_factory.mktemp("results") / "results.tsv"
    results = [retrieval.RetrievalResult(mid, cands) for mid, cands in rows]
    _write_results_tsv(results, path)
    assert [(r.mention_id, [(eid, s.hex()) for eid, s in r.candidates])
            for r in _read_results_tsv(path)] == [
        (mid, [(eid, float(f"{s:.12g}").hex()) for eid, s in cands]) for mid, cands in rows
    ]


def test_retrieve_rejects_truncated_checkpoint(pipeline, toy_files, capsys):
    cut = str(pipeline["out"] / "cut.ckpt")
    with open(os.path.join(pipeline["model"], "mention.ckpt"), "rb") as f:
        raw = f.read()
    with open(cut, "wb") as f:
        f.write(raw[:-8])
    out = str(pipeline["out"] / "cut.tsv")
    code = main(["retrieve", "--index", pipeline["index"], "--checkpoint", cut,
                 "--mentions", toy_files["mentions"], "--documents", toy_files["documents"],
                 "--vocab", pipeline["vocab"], "--k", "5", "--pooling", "avg", "--out", out])
    assert code == 1
    assert cut in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.fixture(scope="module")
def typed(toy_files, tmp_path_factory):
    """A types-on model and index with cls pooling."""
    out = tmp_path_factory.mktemp("typed")
    vocab, model, index = (str(out / name) for name in ("v", "model", "index"))
    types = ["--entity-types", toy_files["types"], "--pooling", "cls"]
    run(["train-bpe", "--input", toy_files["entities"], toy_files["documents"],
         "--vocab-size", "300", "--out", vocab])
    run(["train", "--entities", toy_files["entities"], "--mentions", toy_files["mentions"],
         "--documents", toy_files["documents"], "--vocab", vocab, "--out", model,
         *types, *TINY])
    run(["embed", "--entities", toy_files["entities"], "--vocab", vocab,
         "--checkpoint", os.path.join(model, "entity.ckpt"), *types, "--out", index])
    retrieve = ["retrieve", "--index", index,
                "--checkpoint", os.path.join(model, "mention.ckpt"),
                "--mentions", toy_files["mentions"], "--documents", toy_files["documents"],
                "--vocab", vocab, "--pooling", "cls"]
    return dict(index=index, retrieve=retrieve, types=toy_files["types"], vocab=vocab,
                model=model)


def test_eval_report_states_only_what_it_knows(toy_files, typed, tmp_path):
    """A types-on run: the report carries no pooling or entity-type line,
    which no caller ever filled in (they read '' and 'false' on every run)."""
    results, report = str(tmp_path / "results.tsv"), str(tmp_path / "eval")
    run(typed["retrieve"] + ["--entity-types", typed["types"], "--metric", "cosine",
                             "--k", "5", "--out", results])
    run(["eval", "--results", results, "--mentions", toy_files["mentions"], "--ks", "1,5",
         "--metric", "cosine", "--out", report])
    with open(report + ".report") as f:
        keys = [line.split("\t")[0] for line in f.read().splitlines()]
    assert keys[:4] == ["mention_count", "metric", "accuracy@1", "accuracy@5"]
    assert not {"pooling", "entity_type"} & set(keys)
    with open(typed["index"] + ".mat", "rb") as f:
        header, _ = split_index(f.read())
    assert sorted(header) == ["ids", "pooling", "use_entity_type", "width"]
    assert (header["pooling"], header["use_entity_type"]) == ("cls", True)


def test_retrieve_rejects_index_of_other_type_mode(typed, tmp_path, capsys):
    out = str(tmp_path / "results.tsv")
    code = main(typed["retrieve"] + ["--k", "5", "--out", out])
    assert code == 1
    err = capsys.readouterr().err
    assert "entity types on" in err and "--entity-types off" in err
    assert not os.path.exists(out)


def _embed_argv(vocab, checkpoint, toy_files, out, *flags):
    return ["embed", "--entities", toy_files["entities"], "--vocab", vocab,
            "--checkpoint", checkpoint, "--out", str(out), *flags]


def test_embed_refuses_pooling_other_than_the_checkpoints(typed, toy_files, tmp_path, capsys):
    checkpoint = os.path.join(typed["model"], "entity.ckpt")
    code = main(_embed_argv(typed["vocab"], checkpoint, toy_files, tmp_path / "index",
                            "--pooling", "avg", "--entity-types", typed["types"]))
    assert code == 1
    err = capsys.readouterr().err
    assert f"checkpoint {checkpoint} was built with pooling 'cls'" in err
    assert "embed was given --pooling avg" in err
    assert not os.listdir(tmp_path)


def test_embed_refuses_types_on_a_types_off_checkpoint(pipeline, toy_files, tmp_path, capsys):
    checkpoint = os.path.join(pipeline["model"], "entity.ckpt")
    code = main(_embed_argv(pipeline["vocab"], checkpoint, toy_files, tmp_path / "index",
                            "--entity-types", toy_files["types"]))
    assert code == 1
    err = capsys.readouterr().err
    assert f"checkpoint {checkpoint} was built with entity types off" in err
    assert f"embed was given --entity-types {toy_files['types']}" in err
    assert not os.listdir(tmp_path)


def test_retrieve_refuses_a_checkpoint_of_other_pooling_than_the_index(
    typed, toy_files, tmp_path, capsys
):
    """Without --pooling, the mention checkpoint must still agree with the
    index: here a cls checkpoint meets an avg index, types on for both."""
    index = replace(retrieval.load_index(typed["index"]), pooling_kind="avg")
    avg_index, out = str(tmp_path / "avg"), tmp_path / "results.tsv"
    retrieval.save_index(index, avg_index)
    checkpoint = os.path.join(typed["model"], "mention.ckpt")
    code = main(["retrieve", "--index", avg_index, "--checkpoint", checkpoint,
                 "--mentions", toy_files["mentions"], "--documents", toy_files["documents"],
                 "--vocab", typed["vocab"], "--entity-types", typed["types"], "--k", "5",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert (f"checkpoint {checkpoint} was built with pooling 'cls', "
            f"but index {avg_index} was built with pooling 'avg'") in err
    assert sorted(os.listdir(tmp_path)) == ["avg.mat"]


def test_embed_takes_the_pooling_from_the_checkpoint(pipeline, toy_files, tmp_path):
    """``pipeline``'s checkpoint is avg; embed without --pooling writes the
    index that --pooling avg wrote, and records the pooling."""
    checkpoint = os.path.join(pipeline["model"], "entity.ckpt")
    run(_embed_argv(pipeline["vocab"], checkpoint, toy_files, tmp_path / "index"))
    assert (tmp_path / "index.mat").read_bytes() == Path(pipeline["index"] + ".mat").read_bytes()
    assert "pooling=avg" in Path(f"{tmp_path}/index.manifest").read_text().splitlines()


def test_eval_refuses_k_beyond_the_results(toy_files, typed, tmp_path, capsys):
    results, report = str(tmp_path / "results.tsv"), str(tmp_path / "eval")
    run(typed["retrieve"] + ["--entity-types", typed["types"], "--k", "3", "--out", results])
    code = main(["eval", "--results", results, "--mentions", toy_files["mentions"],
                 "--ks", "1,10", "--out", report])
    assert code == 1
    assert "fewer than K=10" in capsys.readouterr().err
    assert not os.path.exists(report + ".report")


def test_missing_input_file_fails(tmp_path):
    code = main(["train-bpe", "--input", str(tmp_path / "absent.txt"),
                 "--vocab-size", "100", "--out", str(tmp_path / "v")])
    assert code != 0


def test_config_file_with_flag_override(toy_files, tmp_path):
    args = tmp_path / "run.args"
    args.write_text("# a comment line\n--vocab-size 120\n  --out " + str(tmp_path / "v") + "\n")
    run(["train-bpe", "--input", toy_files["entities"], "@" + str(args),
         "--vocab-size", "140"])  # a flag after the file wins
    with open(str(tmp_path / "v") + ".vocab") as f:
        n_tokens = sum(1 for _ in f)
    assert n_tokens == 140


def test_missing_args_file_is_named(tmp_path, capsys):
    absent = str(tmp_path / "absent.args")
    with pytest.raises(SystemExit) as exc:
        main(["train-bpe", "@" + absent])
    assert exc.value.code != 0
    assert absent in capsys.readouterr().err


def _eval(results, toy_files, out, *flags):
    return main(["eval", "--results", str(results), "--mentions", toy_files["mentions"],
                 "--ks", "1,4", "--out", str(out), *flags])


@pytest.mark.parametrize("change, message", [
    (lambda rows: rows + rows, "ranks of mention 'm000' are not 1..10"),
    (lambda rows: [r for r in rows if r.split("\t")[1] != "3"],
     "ranks of mention 'm000' are not 1..4"),
    (lambda rows: rows[:2] + [rows[2].replace("\t3\t", "\tthird\t")] + rows[3:],
     "results.tsv:3: invalid literal for int()"),
    (lambda rows: rows[:4] + [rows[4].rsplit("\t", 1)[0] + "\tnan?"] + rows[5:],
     "results.tsv:5: could not convert"),
], ids=["repeated_ranks", "missing_rank", "bad_rank", "bad_score"])
def test_eval_refuses_malformed_ranks(pipeline, toy_files, tmp_path, capsys, change, message):
    with open(pipeline["results"]) as f:
        rows = f.read().splitlines()
    assert rows[0].startswith("m000\t1\t")
    results = tmp_path / "results.tsv"
    results.write_text("\n".join(change(rows)) + "\n")
    assert _eval(results, toy_files, tmp_path / "eval") == 1
    err = capsys.readouterr().err
    assert message in err and str(results) in err
    assert not os.path.exists(tmp_path / "eval.report")


def test_eval_takes_the_metric_from_the_results_manifest(pipeline, toy_files, tmp_path, capsys):
    """``pipeline`` retrieved with --metric dot; the report says so without
    the flag, and eval refuses a flag that says otherwise."""
    assert _eval(pipeline["results"], toy_files, tmp_path / "plain") == 0
    assert "metric\tdot" in (tmp_path / "plain.report").read_text().splitlines()
    assert _eval(pipeline["results"], toy_files, tmp_path / "other", "--metric", "cosine") == 1
    err = capsys.readouterr().err
    assert "metric dot" in err and "--metric cosine" in err
    assert not os.path.exists(tmp_path / "other.report")
    bare = tmp_path / "bare.tsv"  # no manifest beside it: --metric is taken as given
    bare.write_text(Path(pipeline["results"]).read_text())
    assert _eval(bare, toy_files, tmp_path / "bare", "--metric", "cosine") == 0
    assert "metric\tcosine" in (tmp_path / "bare.report").read_text().splitlines()


def _retrieve_argv(pipeline, toy_files, mentions, metric, out):
    return ["retrieve", "--index", pipeline["index"],
            "--checkpoint", os.path.join(pipeline["model"], "mention.ckpt"),
            "--mentions", str(mentions), "--documents", toy_files["documents"],
            "--vocab", pipeline["vocab"], "--metric", metric, "--k", "5", "--pooling", "avg",
            "--out", str(out)]


def test_eval_refuses_a_manifest_of_other_results(pipeline, toy_files, tmp_path, capsys):
    """Cosine results copied over dot results keep the dot manifest; eval
    must not report them as dot."""
    dot, cosine = tmp_path / "dot.tsv", tmp_path / "cosine.tsv"
    run(_retrieve_argv(pipeline, toy_files, toy_files["mentions"], "dot", dot))
    run(_retrieve_argv(pipeline, toy_files, toy_files["mentions"], "cosine", cosine))
    assert dot.read_bytes() != cosine.read_bytes()
    dot.write_bytes(cosine.read_bytes())
    assert _eval(dot, toy_files, tmp_path / "eval") == 1
    err = capsys.readouterr().err
    assert f"{dot}.manifest does not describe {dot}" in err
    assert not os.path.exists(tmp_path / "eval.report")


def test_retrieve_digests_the_index_it_read(pipeline, toy_files, tmp_path, monkeypatch):
    """retrieve reads its index once: the manifest's digest of the .mat file
    is taken from the bytes load_index read, not from a second read, and it
    is the file's SHA-256."""
    mat, sha256 = pipeline["index"] + ".mat", cli._sha256

    def no_second_read(path):
        if str(path) == mat:
            raise AssertionError(f"{path} was read again for its digest")
        return sha256(path)

    monkeypatch.setattr(cli, "_sha256", no_second_read)
    out, threads = tmp_path / "results.tsv", threading.active_count()
    run(_retrieve_argv(pipeline, toy_files, toy_files["mentions"], "dot", out))
    assert threading.active_count() == threads
    want = hashlib.sha256(Path(mat).read_bytes()).hexdigest()
    assert f"sha256:{mat}={want}" in Path(f"{out}.manifest").read_text().splitlines()


class _SlowSha256:
    """hashlib.sha256 that takes a while over each update, so that a helper
    thread left unjoined would still be running when retrieve returns."""

    def __init__(self, data=b""):
        self._sha = hashlib.sha256(data)

    def update(self, data):
        time.sleep(0.2)
        self._sha.update(data)

    def hexdigest(self):
        return self._sha.hexdigest()


@pytest.mark.parametrize("case", ["non_finite_row", "truncated", "other_pooling"])
def test_a_refused_retrieve_leaves_no_thread(pipeline, toy_files, tmp_path, capsys,
                                             monkeypatch, case):
    """A retrieve refused for its index, or for a flag after the index was
    read, exits 1 with its message, and no digest thread outlives it."""
    monkeypatch.setattr(artifact, "hashlib", SimpleNamespace(sha256=_SlowSha256))
    index = retrieval.load_index(pipeline["index"])
    prefix, out = str(tmp_path / case), tmp_path / "results.tsv"
    argv = _retrieve_argv(pipeline, toy_files, toy_files["mentions"], "dot", out)
    argv[argv.index("--index") + 1] = prefix
    n, width = index.matrix.shape
    if case == "non_finite_row":
        matrix = index.matrix.copy()
        matrix[3, 1] = np.inf
        header = {"ids": index.entity_ids, "pooling": index.pooling_kind,
                  "use_entity_type": index.use_entity_type, "width": width}
        artifact.write(prefix + ".mat", retrieval._INDEX_MAGIC, header, matrix)
        message = f"error: {prefix}.mat: non-finite embedding row"
    else:
        retrieval.save_index(index, prefix)
        if case == "truncated":
            with open(prefix + ".mat", "r+b") as f:
                f.truncate(os.path.getsize(prefix + ".mat") - 8)
            message = (f"error: {prefix}.mat: header promises {n * width} float64 values "
                       f"({8 * n * width} bytes) but the body holds {8 * n * width - 8} bytes")
        else:
            argv[argv.index("--pooling") + 1] = "cls"
            message = (f"error: index {prefix} was built with pooling 'avg', "
                       "but retrieve was given --pooling cls")
    threads = threading.active_count()
    assert main(argv) == 1
    assert threading.active_count() == threads
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists() and not os.path.exists(f"{out}.manifest")


def test_retrieve_of_no_mentions_writes_empty_results(pipeline, toy_files, tmp_path):
    none, out = tmp_path / "none.jsonl", tmp_path / "results.tsv"
    none.write_text("")
    run(_retrieve_argv(pipeline, toy_files, none, "dot", out))
    assert out.read_text() == ""
    assert os.path.exists(f"{out}.manifest")


@pytest.mark.parametrize("flags, message", [
    (["--epochs", "0"], "epochs must be >= 1"),
    (["--weight-decay", "-5"], "weight_decay must not be negative"),
    (["--lr", "nan"], "learning_rate must be finite"),
    (["--lr", "inf"], "learning_rate must be finite"),
    (["--weight-decay", "nan"], "weight_decay must be finite"),
    (["--weight-decay", "inf"], "weight_decay must be finite"),
])
def test_train_rejects_senseless_settings(toy_files, pipeline, tmp_path, capsys, flags, message):
    model = str(tmp_path / "model")
    code = main(["train", "--entities", toy_files["entities"], "--mentions", toy_files["mentions"],
                 "--documents", toy_files["documents"], "--vocab", pipeline["vocab"],
                 "--out", model, *TINY, *flags])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(model)


def test_artifact_grid_reruns_are_byte_identical(tmp_path):
    """Two runs of tools/artifact_grid.py: a vocabulary, 12 training cells
    (6 poolings x types off/on) with their index of three encoder chunks,
    36 result files and reports, and a 2-seed experiment grid, all
    byte-identical."""
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    runs = [
        subprocess.Popen([sys.executable, str(root / "tools" / "artifact_grid.py"),
                          str(tmp_path / name)], env={**os.environ, "PYTHONPATH": pythonpath},
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        for name in ("a", "b")
    ]
    for proc in runs:
        _, err = proc.communicate()
        assert proc.returncode == 0, err.decode()
    files = {
        name: sorted(p.relative_to(tmp_path / name)
                     for p in (tmp_path / name).rglob("*") if p.is_file())
        for name in ("a", "b")
    }
    assert files["a"] == files["b"] and len(files["a"]) == 261
    for rel in files["a"]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel
    for kind in pooling.ALL_KINDS:  # each cell's checkpoints record its pooling and type mode
        for arm in ("off", "on"):
            for tower in ("entity", "mention"):
                cfg, _ = load_checkpoint(tmp_path / "a" / f"{kind}-{arm}" / f"{tower}.ckpt")
                assert (cfg.pooling_kind, cfg.use_entity_type) == (kind, arm == "on")

    # tools/grid_diff.py passes a tree compared with itself, and fails one
    # whose vocabulary swaps two merge rules, or whose results swap two ranks
    grid_diff = [sys.executable, str(root / "tools" / "grid_diff.py"), str(tmp_path / "a")]
    same = subprocess.run([*grid_diff, str(tmp_path / "a")], capture_output=True, text=True)
    assert same.returncode == 0 and "largest |score difference| 0\n" in same.stdout, same.stdout
    merges = tmp_path / "b" / "vocab.merges"
    lines = merges.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0], lines[1] = lines[1], lines[0]
    merges.write_text("".join(lines), encoding="utf-8")
    reordered = subprocess.run([*grid_diff, str(tmp_path / "b")], capture_output=True, text=True)
    assert reordered.returncode == 1, reordered.stdout
    assert "vocab.merges: bytes differ" in reordered.stdout
    swapped = tmp_path / "b" / "cls-off" / "dot.tsv"
    rows = [line.split("\t") for line in swapped.read_text().splitlines(keepends=True)]
    rows[0][1], rows[1][1] = rows[1][1], rows[0][1]
    swapped.write_text("".join("\t".join(row) for row in rows))
    other = subprocess.run([*grid_diff, str(tmp_path / "b")], capture_output=True, text=True)
    assert other.returncode == 1, other.stdout
    assert "cls-off/dot.tsv: ids or ranks differ" in other.stdout


def test_same_seed_reruns_are_byte_identical(toy_files, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        vocab = str(out / "v")
        run(["train-bpe", "--input", toy_files["entities"], "--vocab-size", "250",
             "--out", vocab])
        model = str(out / "model")
        run(["train", "--entities", toy_files["entities"],
             "--mentions", toy_files["mentions"], "--documents", toy_files["documents"],
             "--vocab", vocab, "--out", model, "--seed", "3",
             *TINY])
        outs.append(out)
    for rel in ("v.vocab", "v.merges", "model/mention.ckpt", "model/entity.ckpt",
                "model/train.log"):
        assert filecmp.cmp(outs[0] / rel, outs[1] / rel, shallow=False), rel


def test_experiment_grid_row_count(toy_files, tmp_path):
    out = str(tmp_path / "exp")
    run(["experiment", "--entities", toy_files["entities"],
         "--mentions", toy_files["mentions"], "--documents", toy_files["documents"],
         "--vocab", _quick_vocab(toy_files, tmp_path), "--entity-types", toy_files["types"],
         "--k", "3", "--seeds", "1", "--out", out,
         "--dim", "8", "--layers", "0", "--heads", "2", "--ff-dim", "16",
         "--max-len", "16", "--epochs", "1", "--lr", "1e-3"])
    with open(os.path.join(out, "table.tsv")) as f:
        lines = f.read().splitlines()
    assert lines[0].startswith("pooling\tentity_type\tmetric")
    assert len(lines) == 1 + 36


def _quick_vocab(toy_files, tmp_path):
    vocab = str(tmp_path / "expvocab")
    run(["train-bpe", "--input", toy_files["entities"], toy_files["documents"],
         "--vocab-size", "300", "--out", vocab])
    return vocab


EXPERIMENT_TINY = ["--dim", "8", "--layers", "0", "--heads", "2", "--ff-dim", "16",
                   "--max-len", "16", "--epochs", "1", "--lr", "1e-3"]


def _experiment(toy_files, tmp_path, *flags):
    return main(["experiment", "--entities", toy_files["entities"],
                 "--mentions", toy_files["mentions"], "--documents", toy_files["documents"],
                 "--vocab", _quick_vocab(toy_files, tmp_path),
                 "--out", str(tmp_path / "exp"),
                 *EXPERIMENT_TINY, *flags])


def test_experiment_cell_trains_like_train(toy_files, tmp_path, monkeypatch):
    """The cls, types-off cell runs train's own stage, --weight-decay included."""
    from candgen import training

    flags = ["--weight-decay", "0.5", "--seed", "4"]
    model = str(tmp_path / "model")
    run(["train", "--entities", toy_files["entities"], "--mentions", toy_files["mentions"],
         "--documents", toy_files["documents"], "--vocab", _quick_vocab(toy_files, tmp_path),
         "--pooling", "cls", "--out", model, *EXPERIMENT_TINY, *flags])
    trained = {}
    real_train = training.train

    def spy(world, vocab, enc_cfg, train_cfg):
        result = real_train(world, vocab, enc_cfg, train_cfg)
        trained[(enc_cfg.pooling_kind, enc_cfg.use_entity_type)] = result.params_m
        return result

    monkeypatch.setattr(training, "train", spy)
    assert _experiment(toy_files, tmp_path, "--entity-types", toy_files["types"],
                       "--k", "3", "--seeds", "1", *flags) == 0
    _, params_m = load_checkpoint(os.path.join(model, "mention.ckpt"))
    assert np.array_equal(trained[("cls", False)], params_m)


def test_experiment_reads_its_world_once(toy_files, tmp_path, monkeypatch):
    """Both types arms share one loaded and validated world, so the mentions
    file is read once, before any training."""
    from candgen import training

    class Stop(Exception):
        pass

    def stop(*args):
        raise Stop

    read, real_load = [], cli.load_mentions
    monkeypatch.setattr(cli, "load_mentions", lambda path: read.append(path) or real_load(path))
    monkeypatch.setattr(training, "train", stop)
    with pytest.raises(Stop):
        _experiment(toy_files, tmp_path, "--entity-types", toy_files["types"], "--k", "3")
    assert read == [toy_files["mentions"]]


def test_train_without_documents_reads_its_entities_once(toy_files, tmp_path, monkeypatch):
    """Without --documents, the context documents are the entities already
    loaded, so the entities file (here one that holds every context) is
    parsed once, before any training."""
    from candgen import training

    class Stop(Exception):
        pass

    def stop(*args):
        raise Stop

    vocab, read, real_load = _quick_vocab(toy_files, tmp_path), [], cli.load_entities
    monkeypatch.setattr(cli, "load_entities",
                        lambda path, world: read.append(path) or real_load(path, world=world))
    monkeypatch.setattr(training, "train", stop)
    with pytest.raises(Stop):
        main(["train", "--entities", toy_files["documents"], "--mentions", toy_files["mentions"],
              "--vocab", vocab, "--out", str(tmp_path / "model"), *EXPERIMENT_TINY])
    assert read == [toy_files["documents"]]


@pytest.mark.parametrize("flags, message", [
    (["--entity-types", "off", "--k", "3"], "needs --entity-types"),
    (["--seeds", "0", "--k", "3"], "--seeds 0"),
    (["--k", "0"], "--k 0"),
    (["--k", "11"], "--k 11"),
])
def test_experiment_rejects_bad_flags_before_training(
    toy_files, tmp_path, monkeypatch, capsys, flags, message
):
    from candgen import training

    def no_training(*args):
        raise AssertionError("experiment trained before checking its flags")

    monkeypatch.setattr(training, "train", no_training)
    code = _experiment(toy_files, tmp_path, "--entity-types", toy_files["types"], *flags)
    assert code == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "exp" / "table.tsv")


def test_eval_rejects_k_below_one(pipeline, toy_files, capsys):
    out = str(pipeline["out"] / "badks")
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--results", pipeline["results"], "--mentions", toy_files["mentions"],
              "--ks=-1,0,1", "--out", out])
    assert exc.value.code == 2
    assert "argument --ks: K=-1 must be at least 1" in capsys.readouterr().err
    assert not os.path.exists(out + ".report")


@pytest.mark.parametrize("ks, message", [
    ("1,x", "'1,x' is not comma-separated integers"),
    ("", "'' is not comma-separated integers"),
    ("0", "K=0 must be at least 1"),
])
def test_eval_refuses_bad_ks_by_flag_before_reading_results(toy_files, tmp_path, capsys, ks,
                                                            message):
    """--ks is refused as a flag, before the (here absent) results are read."""
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--results", str(tmp_path / "absent.tsv"), "--mentions",
              toy_files["mentions"], f"--ks={ks}", "--out", str(tmp_path / "eval")])
    assert exc.value.code == 2
    assert f"argument --ks: {message}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def _small_vocab(pipeline, toy_files, tmp_path):
    """A vocabulary smaller than the pipeline's, and both sizes as the error
    message states them."""
    from candgen.bpe import Vocabulary

    vocab = str(tmp_path / "small")
    run(["train-bpe", "--input", toy_files["entities"], "--vocab-size", "120",
         "--out", vocab])
    sizes = [len(Vocabulary.load(p + ".vocab", p + ".merges"))
             for p in (pipeline["vocab"], vocab)]
    assert sizes[1] < sizes[0]
    return vocab, (f"{sizes[0]}-token", f"holds {sizes[1]} tokens")


def test_embed_rejects_vocabulary_of_other_size(pipeline, toy_files, tmp_path, capsys):
    out = str(tmp_path / "index")
    vocab, sizes = _small_vocab(pipeline, toy_files, tmp_path)
    code = main(["embed", "--entities", toy_files["entities"], "--vocab", vocab,
                 "--checkpoint", os.path.join(pipeline["model"], "entity.ckpt"),
                 "--pooling", "avg", "--out", out])
    assert code == 1
    err = capsys.readouterr().err
    assert all(size in err for size in sizes)
    assert not os.path.exists(out + ".mat")


def test_retrieve_rejects_vocabulary_of_other_size(pipeline, toy_files, tmp_path, capsys):
    out = str(tmp_path / "results.tsv")
    vocab, sizes = _small_vocab(pipeline, toy_files, tmp_path)
    code = main(["retrieve", "--index", pipeline["index"],
                 "--checkpoint", os.path.join(pipeline["model"], "mention.ckpt"),
                 "--mentions", toy_files["mentions"], "--documents", toy_files["documents"],
                 "--vocab", vocab, "--k", "5",
                 "--pooling", "avg", "--out", out])
    assert code == 1
    err = capsys.readouterr().err
    assert all(size in err for size in sizes)
    assert not os.path.exists(out)


@pytest.mark.parametrize("change, message", [
    ({"context_document_id": "nowhere"}, "unknown context document 'nowhere'"),
    ({"start_index": 0, "end_index": 999}, "out of bounds"),
])
def test_retrieve_rejects_mention_outside_its_document(
    pipeline, toy_files, tmp_path, capsys, change, message
):
    with open(toy_files["mentions"]) as f:
        rows = [json.loads(line) for line in f]
    rows[3].update(change)
    mentions = tmp_path / "mentions.jsonl"
    mentions.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = str(tmp_path / "results.tsv")
    code = main(["retrieve", "--index", pipeline["index"],
                 "--checkpoint", os.path.join(pipeline["model"], "mention.ckpt"),
                 "--mentions", str(mentions), "--documents", toy_files["documents"],
                 "--vocab", pipeline["vocab"], "--k", "5", "--pooling", "avg",
                 "--out", out])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)
