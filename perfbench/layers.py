"""Wrappers around the program's public functions, and the per-layer
metrics computed from the spans they record.

Every wrapper is installed on the function object itself: each module of
the package that binds that object, whether by attribute access or by
``from ... import``, gets the wrapper, so no call path slips past it. A
target that no longer exists (a rename) stops the traced run with an error
naming it, and a wrapper that records no call on a workload that should
make that call fails the coverage check.
"""

from __future__ import annotations

import bisect
import importlib
import inspect
import os
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from spans import Span, Tracer, self_times, union_length


class CoverageError(RuntimeError):
    pass


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def encoder_forward_flop(config, batch: int, n: int) -> float:
    """Computed forward FLOPs: per layer per sequence 8nd^2 + 4n^2d + 4ndf."""
    d, f = config.dim, config.ff_dim
    return float(batch * config.layers * (8 * n * d * d + 4 * n * n * d + 4 * n * d * f))


def _forward_info(args, kwargs, result):
    config, ids = _arg(args, kwargs, 1, "config"), _arg(args, kwargs, 2, "ids")
    b, n = ids.shape
    return {"seqs": b, "flop": encoder_forward_flop(config, b, n)}


def _backward_info(args, kwargs, result):
    cache, dh = _arg(args, kwargs, 0, "cache"), _arg(args, kwargs, 1, "dh")
    b, n, _ = dh.shape
    return {"flop": 2.0 * encoder_forward_flop(cache["config"], b, n)}


def _file_bytes(*paths):
    return {"bytes": sum(os.path.getsize(p) for p in paths if os.path.exists(p))}


def _index_bytes(prefix):
    return _file_bytes(prefix + ".ids", prefix + ".mat", prefix + ".meta")


def _encode_info(args, kwargs, result):
    return {"tokens": len(result), "unk": result.count(args[0].unk_id)}


def _subcommand(args, kwargs):
    argv = list(_arg(args, kwargs, 0, "argv"))
    i = 0
    while argv[i].startswith("-"):
        i += 2 if argv[i] == "--config" else 1
    return "cli." + argv[i]


@dataclass(frozen=True)
class Wrapper:
    target: str  # module.qualname inside the candgen package
    info: Callable | None = None
    name: Callable | None = None  # span name from the call; default: target
    types_only: bool = False  # called only when entity types are on


_records = lambda a, k, r: {"records": len(r)}  # noqa: E731
_full = lambda a, k, r: {"full": int(r.attn_len == len(r.ids))}  # noqa: E731

WRAPPERS = (
    Wrapper("bpe.train_bpe", lambda a, k, r: {"merges": len(r.merges)}),
    Wrapper("bpe.Vocabulary.encode", _encode_info),
    Wrapper("bpe.Vocabulary.save", lambda a, k, r: _file_bytes(a[1], a[2])),
    Wrapper("bpe.Vocabulary.load"),
    Wrapper("corpus.load_entities", _records),
    Wrapper("corpus.load_mentions", _records),
    Wrapper("corpus.load_entity_type_annotations", _records, types_only=True),
    Wrapper("corpus.apply_type_annotations", types_only=True),
    Wrapper("corpus.documents_from_entities"),
    Wrapper("corpus.validate_mentions"),
    Wrapper("templates.build_mention_sequence", _full),
    Wrapper("templates.build_entity_sequence", _full),
    Wrapper("encoder.init_params"),
    Wrapper("encoder.forward", _forward_info),
    Wrapper("encoder.backward", _backward_info),
    Wrapper("encoder.save_checkpoint", lambda a, k, r: _file_bytes(a[0])),
    Wrapper("encoder.load_checkpoint", lambda a, k, r: _file_bytes(a[0])),
    Wrapper("pooling.reduce"),
    Wrapper("pooling.backward_reduce"),
    Wrapper("training.train"),
    Wrapper("training.build_training_pairs"),
    Wrapper("training.batch_loss_and_grads"),
    Wrapper("training.forward_pooled"),
    Wrapper("training.backward_pooled"),
    Wrapper("training.inbatch_loss"),
    Wrapper("training.AdamW.step"),
    Wrapper("retrieval.build_index"),
    Wrapper("retrieval.top_k",
            lambda a, k, r: {"scan_bytes": _arg(a, k, 0, "index").matrix.size * 8}),
    Wrapper("retrieval.save_index", lambda a, k, r: _index_bytes(a[1])),
    Wrapper("retrieval.load_index", lambda a, k, r: _index_bytes(a[0])),
    Wrapper("evaluation.build_report"),
    Wrapper("evaluation.accuracy_at_k"),
    Wrapper("evaluation.write_report"),
    Wrapper("cli.main", name=_subcommand),
)

SUBCOMMANDS = ("train-bpe", "train", "embed", "retrieve", "eval")


def _resolve(target: str):
    module_name, *path = target.split(".")
    module = importlib.import_module("candgen." + module_name)
    owner = module
    try:
        for part in path[:-1]:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, path[-1])
    except AttributeError:
        raise CoverageError(
            f"wrapper target candgen.{target} not found; the program renamed or "
            "removed it, so update WRAPPERS in perfbench/layers.py"
        ) from None
    return module, owner, path[-1], raw


def install(tracer: Tracer, wrappers=WRAPPERS) -> Callable[[], None]:
    """Patch every binding of every target; return a function that undoes it."""
    patches: list[tuple[object, str, object]] = []
    resolved = [(w, *_resolve(w.target)) for w in wrappers]  # imports every target module
    package = [m for name, m in sorted(sys.modules.items())
               if name == "candgen" or name.startswith("candgen.")]
    originals = []
    for w, module, owner, attr, raw in resolved:
        name = w.name or w.target
        if isinstance(raw, classmethod):
            new = classmethod(tracer.wrap(name, raw.__func__, w.info))
        else:
            new = tracer.wrap(name, raw, w.info)
        if owner is not module:  # a method: patch the class that defines it
            patches.append((owner, attr, raw))
            setattr(owner, attr, new)
            continue
        originals.append(raw)
        for m in package:
            for key, value in list(vars(m).items()):
                if value is raw:
                    patches.append((m, key, value))
                    setattr(m, key, new)

    def restore():
        for owner, attr, raw in reversed(patches):
            setattr(owner, attr, raw)

    left = [f"{m.__name__}.{k}" for m in package for k, v in vars(m).items()
            if any(v is o for o in originals)]
    if left:
        restore()
        raise CoverageError(f"unwrapped bindings remain: {left}")
    return restore


def check_coverage(spans: list[Span], types_on: bool, wrappers=WRAPPERS) -> None:
    """Raise if a wrapper the workload must call recorded no span."""
    seen = {s.name for s in spans}
    missing = []
    for w in wrappers:
        if w.types_only and not types_on:
            continue
        if w.name is None:
            hit = w.target in seen
        else:  # cli.main: one span per subcommand the pipeline runs
            hit = all(f"cli.{sub}" in seen for sub in SUBCOMMANDS)
        if not hit:
            missing.append(w.target)
    if missing:
        raise CoverageError(f"wrappers recorded no call: {missing}")


# -- per-layer metrics ---------------------------------------------------------

# Their names and units are listed in BENCHMARK.json. Values marked
# "computed" in README.md come from the encoder config and batch shape or
# from index shapes, not from a counter.
_GROUPS = {
    "bpe.encode": ("bpe.Vocabulary.encode",),
    "bpe.vocab_io": ("bpe.Vocabulary.save", "bpe.Vocabulary.load"),
    "corpus.load": ("corpus.load_entities", "corpus.load_mentions",
                    "corpus.load_entity_type_annotations"),
    "templates.build": ("templates.build_mention_sequence",
                        "templates.build_entity_sequence"),
    "encoder.checkpoint_io": ("encoder.save_checkpoint", "encoder.load_checkpoint"),
    "retrieval.index_io": ("retrieval.save_index", "retrieval.load_index"),
    "evaluation": ("evaluation.build_report", "evaluation.accuracy_at_k",
                   "evaluation.write_report"),
    "training.adamw": ("training.AdamW.step",),
    "training.steps": ("training.batch_loss_and_grads",),
}


@dataclass
class _Group:
    calls: int
    busy: float
    self_s: float
    durations: list
    info: Counter


def _group(spans, selfs, names) -> _Group:
    names = set(names)
    picked = [(s, st) for s, st in zip(spans, selfs) if s.name in names]
    info: Counter = Counter()
    for s, _ in picked:
        info.update(s.info or {})
    return _Group(
        calls=len(picked),
        busy=union_length([(s.start, s.end) for s, _ in picked]),
        self_s=sum(st for _, st in picked),
        durations=[s.duration for s, _ in picked],
        info=info,
    )


def quantile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(a, b):
    return a / b if b else 0.0


def _inside(spans, windows):
    """Total duration of spans that start inside one of the sorted windows."""
    starts = [w[0] for w in windows]
    total = 0.0
    for s in spans:
        i = bisect.bisect_right(starts, s.start) - 1
        if i >= 0 and s.start < windows[i][1]:
            total += s.duration
    return total


def layer_metrics(spans: list[Span], pipeline_s: float, request_windows,
                  gold_collisions: int, accuracy: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    selfs = self_times(spans)

    def g(key) -> _Group:
        return _group(spans, selfs, _GROUPS.get(key, (key,)))

    fwd, bwd = g("encoder.forward"), g("encoder.backward")
    enc, ckpt = g("bpe.encode"), g("encoder.checkpoint_io")
    tmpl, corpus, topk = g("templates.build"), g("corpus.load"), g("retrieval.top_k")
    index_io, bpe_train = g("retrieval.index_io"), g("bpe.train_bpe")
    reduce_, breduce = g("pooling.reduce"), g("pooling.backward_reduce")
    adamw, train = g("training.adamw"), g("training.train")
    cli = {sub: g(f"cli.{sub}") for sub in SUBCOMMANDS}
    top_spans = [s for s in spans if s.name == "retrieval.top_k"]
    request_s = sum(b - a for a, b in request_windows)
    roots = [(s.start, s.end) for s in spans if s.parent < 0]
    m = {
        "encoder.forward.calls": fwd.calls,
        "encoder.forward.seqs": fwd.info["seqs"],
        "encoder.forward.busy_s": fwd.busy,
        "encoder.forward.gflop": fwd.info["flop"] / 1e9,
        "encoder.forward.gflop_per_s": _ratio(fwd.info["flop"] / 1e9, fwd.busy),
        "encoder.backward.calls": bwd.calls,
        "encoder.backward.busy_s": bwd.busy,
        "encoder.backward.gflop_per_s": _ratio(bwd.info["flop"] / 1e9, bwd.busy),
        "encoder.backward.share": _ratio(bwd.busy, pipeline_s),
        "encoder.checkpoint_io.busy_s": ckpt.busy,
        "encoder.checkpoint_io.bytes": ckpt.info["bytes"],
        "pooling.reduce.calls": reduce_.calls,
        "pooling.reduce.busy_s": reduce_.busy,
        "pooling.backward_reduce.calls": breduce.calls,
        "pooling.backward_reduce.busy_s": breduce.busy,
        "training.train.busy_s": train.busy,
        "training.train.share": _ratio(train.busy, pipeline_s),
        "training.forward_pooled.self_s": g("training.forward_pooled").self_s,
        "training.backward_pooled.self_s": g("training.backward_pooled").self_s,
        "training.inbatch_loss.busy_s": g("training.inbatch_loss").busy,
        "training.adamw.calls": adamw.calls,
        "training.adamw.busy_s": adamw.busy,
        "training.steps": g("training.steps").calls,
        "training.gold_collisions": gold_collisions,
        "bpe.train_bpe.busy_s": bpe_train.busy,
        "bpe.train_bpe.merges": bpe_train.info["merges"],
        "bpe.encode.calls": enc.calls,
        "bpe.encode.busy_s": enc.busy,
        "bpe.encode.tokens": enc.info["tokens"],
        "bpe.encode.unk_share": _ratio(enc.info["unk"], enc.info["tokens"]),
        "bpe.vocab_io.busy_s": g("bpe.vocab_io").busy,
        "templates.build.calls": tmpl.calls,
        "templates.build.busy_s": tmpl.busy,
        "templates.build.full_share": _ratio(tmpl.info["full"], tmpl.calls),
        "corpus.load.busy_s": corpus.busy,
        "corpus.load.records": corpus.info["records"],
        "retrieval.build_index.self_s": g("retrieval.build_index").self_s,
        "retrieval.top_k.calls": topk.calls,
        "retrieval.top_k.busy_s": topk.busy,
        "retrieval.top_k.p50_ms": quantile(topk.durations, 50) * 1e3,
        "retrieval.top_k.p90_ms": quantile(topk.durations, 90) * 1e3,
        "retrieval.top_k.scan_bytes": topk.info["scan_bytes"],
        "retrieval.top_k.scan_gb_per_s": _ratio(topk.info["scan_bytes"] / 1e9, topk.busy),
        "retrieval.top_k.share": _ratio(topk.busy, pipeline_s),
        "retrieval.top_k.request_share": _ratio(_inside(top_spans, request_windows),
                                                request_s),
        "retrieval.index_io.busy_s": index_io.busy,
        "retrieval.index_io.bytes": index_io.info["bytes"],
        "evaluation.busy_s": g("evaluation").busy,
        "evaluation.accuracy_at_1": accuracy[1],
        "evaluation.accuracy_at_64": accuracy[64],
        **{f"cli.{sub}.self_s": cli[sub].self_s for sub in SUBCOMMANDS},
        "cli.embed_retrieve.share": _ratio(cli["embed"].busy + cli["retrieve"].busy,
                                           pipeline_s),
        "trace.pipeline_s": pipeline_s,
        "trace.self_sum_s": sum(selfs),
        "trace.unattributed_s": pipeline_s - union_length(roots),
        "trace.spans": len(spans),
    }
    return {k: float(v) for k, v in m.items()}
