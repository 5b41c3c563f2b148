"""Benchmark for readmit: three workloads driven through the library's API.

    python3 bench/run.py --workload prep_cohort --seed 20260808 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists, and bench/design.json
for which layer metric should move which end-to-end metric):

- prep_cohort: corpus to feature matrix, as ``readmit train-nlp`` then
  ``readmit extract`` do it.
- extract_long_notes: ``readmit extract`` on notes of paper-scale length.
- eval_protocol: ``readmit eval ablation`` for the six classifier kinds,
  then ``readmit eval rfe`` with a forest on two workers.

The workload seed makes every input; 20260808 is the default and 20260917
is held out for checking a claim on a seed not used while making it.

``--trace 0`` measures end to end. It runs passes: at least two, and more
while one more pass would bring their summed time closer to ``--seconds``
(BENCHMARK.json's run_seconds by default). It sets up before each pass
until it has set up as many times as the workload's ``setups`` size says,
and makes any set-ups still missing after the last pass. It then checks every output and prints
the ``end_to_end`` metrics. ``--trace 1`` alternates untraced and traced passes
and prints the ``per_layer`` metrics, tracing overhead included. Each run
prints one metric per line, then one JSON line with the keys correct,
attempted, failed and metrics, and writes bench/out/<workload>-<seed>-trace<t>.json
(plus the spans when traced). ``--mini`` shrinks every workload for
bench/smoke.py. The program is imported from src/ next to this directory;
without it the run exits with status 2.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 20260808
HELD_OUT_SEED = 20260917
WORKLOAD_NAMES = ("prep_cohort", "extract_long_notes", "eval_protocol")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS thread everywhere: prep and extract are single-threaded numpy
# work, and eval's RFE runs two worker threads, so no workload asks for more
# threads than two CPUs, and the timings do not depend on BLAS threading.
BLAS_THREADS = 1
# Every run makes at least this many passes, so pass_s is a median of more
# than one sample and passes_identical compares more than one digest.
MIN_PASSES = 2


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mini", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--out", type=Path, default=BENCH / "out")
    return p.parse_args(argv)


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in (src / "readmit").rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(np, seed: int, workers: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "rfe_workers": workers,
        "git_commit": _git_commit(ROOT),
        "source_sha256": _source_digest(ROOT / "src"),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "platform": platform.platform(),
    }


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def wrapped_functions():
    """readmit functions that are replaced by a wrapper in this process."""
    from readmit.classifiers import TrainedClassifier
    owners = [(n, m) for n, m in sys.modules.items() if n.startswith("readmit")]
    owners.append(("readmit.classifiers.TrainedClassifier", TrainedClassifier))
    return sorted(f"{n}.{attr}" for n, owner in owners for attr, obj in vars(owner).items()
                  if hasattr(obj, "__wrapped__") and not attr.startswith("__"))


def declared_metrics():
    spec = load_spec()
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(args) -> int:
    src = ROOT / "src"
    if not (src / "readmit" / "__init__.py").is_file():
        print(f"error: no readmit sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import numpy as np
    import readmit
    if Path(readmit.__file__).resolve().parent != src / "readmit":
        print(f"error: readmit imported from {readmit.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads as wl

    e2e_units, layer_units = declared_metrics()
    workers = min(2, len(os.sched_getaffinity(0)))
    workload = wl.WORKLOADS[args.workload]
    sizes = wl.SIZES["mini" if args.mini else "full"]
    args.out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=args.out))
    ctx = wl.Ctx(workdir=workdir, sizes=sizes, workers=workers)
    checks, record = [], {}
    try:
        if args.trace:
            values = traced_run(args, workload, ctx, checks, record)
        else:
            values = untraced_run(args, workload, ctx, checks, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(checks) + record["stages"]
    failed = sum(1 for _, ok in checks if not ok)
    values["ok_ratio"] = 1.0 - failed / attempted
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = layer_units if args.trace else e2e_units
    # a value that is not finite already fails a check; JSON cannot carry it
    metrics = {name: {"value": values[name] if math.isfinite(values[name]) else 0.0, "unit": unit}
               for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record.update(workload=args.workload, trace=args.trace, mini=args.mini,
                  environment=environment(np, args.seed, workers), sizes=sizes,
                  checks=[{"name": n, "ok": ok} for n, ok in checks], values=values,
                  tracer_loaded="tracing" in sys.modules, result=result)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}{'-mini' if args.mini else ''}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(args.out / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh, separators=(",", ":"))
    with open(args.out / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    for name, ok in checks:
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def _pass_checks(workload, results, ctx, checks):
    """Checks of one run: each pass's own, then cross-pass determinism."""
    for name, ok in results[-1].checks:
        checks.append((name, ok))
    checks.append(("passes_identical", len({r.digest for r in results}) == 1))
    for name, check in workload.extra_checks:
        checks.append((name, bool(check(ctx.inputs, ctx))))


def untraced_run(args, workload, ctx, checks, record) -> dict:
    # Set-ups are spread between the passes, so that a slow phase of the
    # machine does not fall on all of them at once.
    n_setups = ctx.sizes["setups"][args.workload]
    setups, passes, results = [], [], []

    def set_up():
        dt, ctx.inputs = _timed(lambda: workload.setup(args.seed, ctx))
        setups.append(dt)

    # Stop where the summed pass time is closest to --seconds: one more pass
    # is run while at least half of a typical pass still fits.
    while len(passes) < MIN_PASSES or sum(passes) + statistics.median(passes) / 2 <= args.seconds:
        if len(setups) < n_setups:
            set_up()
        dt, res = _timed(lambda: workload.run_pass(ctx.inputs, ctx))
        passes.append(dt)
        results.append(res)
    while len(setups) < n_setups:
        set_up()
    _pass_checks(workload, results, ctx, checks)
    record.update(setups_s=setups, passes_s=passes, named=results[-1].named,
                  stages=len(setups) + len(passes), wrapped=wrapped_functions())
    return {"setup_s": statistics.median(setups),
            "pass_s": statistics.median(passes),
            "quality": results[-1].quality}


def traced_run(args, workload, ctx, checks, record) -> dict:
    import tracing
    from readmit.classifiers import KINDS
    from readmit.neural import HashingEncoder

    tracer = tracing.Tracer()
    traced_ctx = replace(ctx, span=tracer.span,
                         make_encoder=lambda dim: tracing.TracedEncoder(HashingEncoder(dim), tracer))
    restore = tracing.install(tracer)
    try:
        with tracer.span("bench.setup"):
            ctx.inputs = traced_ctx.inputs = workload.setup(args.seed, traced_ctx)
    finally:
        restore()

    plain, traced, roots, results = [], [], [], []
    started = time.perf_counter()
    while not traced or (time.perf_counter() - started
                         + statistics.median(plain) + statistics.median(traced) <= args.seconds):
        dt, res = _timed(lambda: workload.run_pass(ctx.inputs, ctx))
        plain.append(dt)
        results.append(res)
        restore = tracing.install(tracer)
        wrapped = wrapped_functions()
        try:
            roots.append(len(tracer.spans))
            with tracer.span("bench.pass"):
                dt, res = _timed(lambda: workload.run_pass(traced_ctx.inputs, traced_ctx))
        finally:
            restore()
        traced.append(dt)
        results.append(res)
    _pass_checks(workload, results, ctx, checks)

    trees = [tracing.SpanTree(tracer.spans, r) for r in roots]
    per_pass = [tracing.pass_metrics(t, KINDS, ctx.workers) for t in trees]
    values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    values.update(tracing.setup_metrics(tracing.SpanTree(tracer.spans, 0)))
    named = results[-1].named
    values["neural.topic_micro_f1"] = named.get("topic_micro_f1", 0.0)
    values["neural.sentiment_accuracy"] = named.get("sentiment_accuracy", 0.0)
    values["evaluate.rfe_best_f1"] = named.get("rfe_best_f1", 0.0)
    values["evaluate.ablation_auc"] = named.get("ablation_auc", 0.0)
    overhead = statistics.median(traced) - statistics.median(plain)
    values["trace.overhead_s"] = overhead
    values["trace.overhead_ratio"] = overhead / statistics.median(plain)

    record.update(
        untraced_passes_s=plain, traced_passes_s=traced, named=named, stages=1 + 2 * len(plain),
        wrapped=wrapped,
        self_by_layer=[t.self_by_layer() for t in trees],
        root_s=[t.dur[t.root] for t in trees],
        concurrent_s=[t.concurrent for t in trees],
        spans=tracing.spans_rows(tracer))
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
