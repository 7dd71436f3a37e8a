"""Benchmark of the candgen pipeline on three workloads: fit, index, query.

    python3 perfbench/run.py --workload fit|index|query|all --seed N \
        --seconds S --trace 0|1

Run it from the repository root; it imports the program from ``src/``.
Each workload runs in its own process. Every repetition sets up (writes the
seeded inputs), runs the workload body and checks every output against the
benchmark's own oracle; repetitions continue until ``--seconds`` have
passed (at least three). Every time, ``setup_s`` included, comes from the
best repetition.

With ``--trace 1`` the benchmark wraps the program's public functions and
reports per-layer metrics instead; repetitions alternate untraced and
traced so the tracing overhead is measured in the same process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fit", "index", "query")
MIN_REPS = 3  # traced runs alternate: untraced, traced, untraced, ...

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> int:
    """Cap BLAS threads at the usable CPU count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def import_program():
    """Import candgen from this checkout's src/, or exit with an error."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [HERE, src]
    try:
        import candgen
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import candgen from {src}: {e}")
    if not os.path.realpath(candgen.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"perfbench: candgen resolved outside {src}: {candgen.__file__}")
    return candgen


def blas_facts() -> dict:
    import ctypes

    import numpy as np

    facts = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["threads"] = fn()
                return facts
    facts["threads"] = int(os.environ["OPENBLAS_NUM_THREADS"])
    return facts


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def src_lines() -> int:
    total = 0
    for dirpath, _, names in os.walk(os.path.join(ROOT, "src")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    total += sum(1 for _ in f)
    return total


def host_facts(nproc: int, workload: str, seed: int) -> dict:
    import numpy as np

    from workloads import K, SHAPES

    shape = SHAPES[workload]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_facts(),
        "src_lines": src_lines(),
        "shape": {
            "N": shape.random_rows or shape.world.entities,
            "dictionary": shape.world.entities,
            "mentions": shape.world.mentions,
            "train_mentions": shape.train_mentions,
            "P": shape.pooled_dim,
            "K": K,
            "V": shape.vocab_size,
            "bpe_entities": shape.bpe_entities,
            "epochs": shape.epochs,
            "batch_size": shape.batch_size,
            "entity_types": shape.types,
            "requests_per_rep": shape.requests,
        },
    }


def end_to_end(shape, setup_times, reps) -> dict[str, float]:
    """Every time, set-up included, is the best repetition of the run.

    Interference from other tenants of the host arrives in episodes of
    seconds that slow everything alike, so the median of a run moves with
    the share of time lost to them while the best repetition does not.
    """
    from layers import quantile

    def best_rate(count, stage):
        return max(count / r.stage_s[stage] for r in reps)

    return {
        "setup_s": min(setup_times),
        "pipeline_s": min(r.pipeline_s for r in reps),
        "train_pairs_per_s": best_rate(shape.epochs * shape.train_mentions, "train"),
        "embed_entities_per_s": best_rate(shape.world.entities, "embed"),
        **{f"retrieve_{metric}_qps": best_rate(shape.world.mentions, f"retrieve-{metric}")
           for metric in ("dot", "cosine", "euclidean")},
        "query_p50_ms": min(quantile(r.latencies, 50) for r in reps) * 1e3,
        "query_p90_ms": min(quantile(r.latencies, 90) for r in reps) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


class _CollisionCounter(logging.Handler):
    """Counts the training module's in-batch gold collision log records."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.count = 0

    def emit(self, record):
        if "gold collision" in record.msg:
            self.count += 1


def _count_collisions():
    logger = logging.getLogger("candgen.training")
    counter, level = _CollisionCounter(), logger.level
    logger.addHandler(counter)
    logger.setLevel(logging.INFO)

    def detach():
        logger.removeHandler(counter)
        logger.setLevel(level)

    return counter, detach


def run_workload(workload: str, seed: int, seconds: float, trace: bool, nproc: int):
    import layers
    from spans import Tracer
    from workloads import SHAPES, check_rep, run_body, setup

    shape = SHAPES[workload]
    facts = host_facts(nproc, workload, seed)
    work = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    tracer, undo = Tracer(), []
    if trace:
        undo.append(layers.install(tracer))
        collisions, detach = _count_collisions()
        undo.append(detach)
    try:
        setup_times, reps, checks, traced, memo = [], [], [], [], {}
        start = time.perf_counter()
        while True:
            i = len(reps) + len(traced)
            inputs = None  # drop the previous index before building the next
            # Start set-up and body with no garbage left by the last step, so
            # a collection it triggered does not land in either.
            gc.collect()
            t0 = time.perf_counter()
            inputs = setup(shape, seed, os.path.join(work, "inputs"))
            setup_times.append(time.perf_counter() - t0)
            gc.collect()
            tracer.active = trace and i % 2 == 1
            before = collisions.count if trace else 0
            rep = run_body(shape, inputs, os.path.join(work, f"rep{i}"))
            tracer.active = False
            spans = tracer.take()
            chk = check_rep(shape, inputs, rep, memo)
            rep.requests.clear()
            shutil.rmtree(rep.out_dir)
            if trace and i % 2 == 1:
                traced.append((rep, spans, collisions.count - before, chk))
            else:
                reps.append(rep)
            checks.append(chk)
            elapsed = time.perf_counter() - start
            if i + 1 >= MIN_REPS and elapsed + elapsed / (i + 1) > seconds:
                break
    finally:
        for fn in reversed(undo):
            fn()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    for c in checks:
        for problem in c.problems:
            print(f"mismatch: {problem}", file=sys.stderr)
    facts["repetitions"] = {"untraced": len(reps), "traced": len(traced)}
    facts["setup_s_per_rep"] = [round(t, 4) for t in setup_times]
    facts["pipeline_s_per_rep"] = [round(r.pipeline_s, 4) for r in reps]
    facts["stage_best_s"] = {stage: round(min(r.stage_s[stage] for r in reps), 4)
                             for stage in reps[0].stage_s}
    facts["query_samples"] = sum(len(r.latencies) for r in reps)
    facts["ops_attempted"], facts["ops_failed"] = attempted, failed
    if trace:
        layers.check_coverage([s for _, spans, _, _ in traced for s in spans], shape.types)
        per_rep = [layers.layer_metrics(spans, rep.pipeline_s, rep.windows, count,
                                        chk.accuracy)
                   for rep, spans, count, chk in traced]
        metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
        metrics["trace.overhead_s"] = (min(r.pipeline_s for r, _, _, _ in traced)
                                       - min(r.pipeline_s for r in reps))
        units = metric_units("per_layer")
        write_spans(workload, seed, facts, traced)
    else:
        metrics = end_to_end(shape, setup_times, reps)
        units = metric_units("end_to_end")
    return facts, {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def write_spans(workload, seed, facts, traced):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"facts": facts, "repetitions": [
            [[s.name, s.start, s.end, s.parent, s.info] for s in spans]
            for _, spans, _, _ in traced]}, f)
    print(f"spans written to {os.path.relpath(path, ROOT)}")


def print_table(result, facts):
    print(f"workload {facts['workload']} seed {facts['seed']}: "
          f"{facts['repetitions']['untraced']} untraced, "
          f"{facts['repetitions']['traced']} traced repetitions, "
          f"{facts['query_samples']} query samples")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6f} {m['unit']}")
    print(f"  {'ops_attempted':34s} {result['attempted']:>16d}")
    print(f"  {'ops_failed':34s} {result['failed']:>16d}")


def run_all(args) -> int:
    """Run each workload in its own process and combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {workload} failed", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    nproc = limit_blas_threads()
    import_program()
    if args.workload == "all":
        return run_all(args)
    facts, result = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), nproc)
    print("facts " + json.dumps(facts))
    print_table(result, facts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
