"""Smoke test of the benchmark itself, on miniature inputs.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json through ``bench/run.py --mini``,
untraced and traced, and asserts that:

- each run exits 0 with ``correct`` true and no failed operation;
- the result line carries exactly the ``end_to_end`` (untraced) or
  ``per_layer`` (traced) metrics of BENCHMARK.json, each with its unit, and
  every per-layer metric has an entry in bench/design.json;
- the untraced run never imported the tracing code and ran with no readmit
  function wrapped, while the traced run wrapped the cross-layer calls;
- every traced span lies inside its parent, and the layer self times of a
  traced pass, less the time counted twice where worker threads overlap,
  add up to the pass time measured around it, within 2%;
- run.py exits non-zero without a result line in a directory holding only
  BENCHMARK.json and bench/.

Exits 0 when all of it holds. Takes about a minute on two CPUs.
"""

import fnmatch
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACED_CALLS = {"readmit.textproc.split_sentences", "readmit.neural.train_mlp",
                "readmit.neural.predict", "readmit.classifiers.train",
                "readmit.classifiers.importances",
                "readmit.classifiers.TrainedClassifier.predict_proba"}


def run_bench(cwd: Path, out: Path, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--mini", "--out", str(out)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_spans(rows, record):
    for i, (name, start, end, parent, _) in enumerate(rows):
        assert end >= start, f"span {i} {name} ends before it starts"
        if parent >= 0:
            _, p_start, p_end, _, _ = rows[parent]
            assert p_start - 1e-6 <= start and end <= p_end + 1e-6, \
                f"span {i} {name} lies outside its parent {rows[parent][0]}"
    for layers, concurrent, measured in zip(record["self_by_layer"], record["concurrent_s"],
                                            record["traced_passes_s"]):
        attributed = sum(layers.values()) - concurrent
        assert abs(attributed - measured) <= 0.02 * measured, \
            f"self times add to {attributed:.4f}s, pass took {measured:.4f}s"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((BENCH / "design.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in expected[1]:
        assert any(fnmatch.fnmatch(name, pat) for pat in design["layers"]), \
            f"{name} has no entry in design.json"

    (BENCH / "out").mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="smoke-", dir=BENCH / "out"))
    try:
        for w in spec["workloads"]:
            for trace in (0, 1):
                proc = run_bench(ROOT, out, w["name"], trace)
                assert proc.returncode == 0, proc.stderr
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                assert result["correct"] and result["failed"] == 0, result
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                assert units == expected[trace], f"{w['name']}: metrics differ from BENCHMARK.json"
                stem = out / f"{w['name']}-7-trace{trace}-mini"
                record = json.loads(stem.with_suffix(".json").read_text())
                if trace:
                    assert record["tracer_loaded"] and set(record["wrapped"]) == TRACED_CALLS
                    check_spans(json.loads(Path(f"{stem}-spans.json").read_text()), record)
                else:
                    assert not record["tracer_loaded"] and record["wrapped"] == []
                print(f"ok  {w['name']} trace={trace}")

        bare = out / "bare"
        (bare / "bench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in BENCH.glob("*"):
            if f.is_file():
                shutil.copy(f, bare / "bench")
        proc = run_bench(bare, bare / "out", spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
        print("ok  exits non-zero without the sources")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
