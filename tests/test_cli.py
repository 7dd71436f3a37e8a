import filecmp
import os

import pytest

from candgen import synthetic
from candgen.cli import main


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
         "--pooling", "avg", "--world", "toyworld", *TINY])
    index = str(out / "index")
    run(["embed", "--entities", toy_files["entities"], "--vocab", vocab,
         "--checkpoint", os.path.join(model, "entity.ckpt"), "--pooling", "avg",
         "--world", "toyworld", "--out", index])
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


def test_missing_input_file_fails(tmp_path):
    code = main(["train-bpe", "--input", str(tmp_path / "absent.txt"),
                 "--vocab-size", "100", "--out", str(tmp_path / "v")])
    assert code != 0


def test_config_file_with_flag_override(toy_files, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("vocab-size=120\nout=" + str(tmp_path / "cfgvocab") + "\n")
    run(["--config", str(cfg), "train-bpe", "--input", toy_files["entities"],
         "--vocab-size", "140"])  # flag wins over the config value
    with open(str(tmp_path / "cfgvocab") + ".vocab") as f:
        n_tokens = sum(1 for _ in f)
    assert n_tokens == 140


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
             "--world", "toyworld", *TINY])
        outs.append(out)
    for rel in ("v.vocab", "v.merges", "model/mention.ckpt", "model/entity.ckpt",
                "model/train.log"):
        assert filecmp.cmp(outs[0] / rel, outs[1] / rel, shallow=False), rel


def test_experiment_grid_row_count(toy_files, tmp_path):
    out = str(tmp_path / "exp")
    run(["experiment", "--entities", toy_files["entities"],
         "--mentions", toy_files["mentions"], "--documents", toy_files["documents"],
         "--vocab", _quick_vocab(toy_files, tmp_path), "--entity-types", toy_files["types"],
         "--world", "toyworld", "--k", "3", "--seeds", "1", "--out", out,
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
