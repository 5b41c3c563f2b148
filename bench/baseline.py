"""Measure the committed baseline, bench/baseline.json.

    python3 bench/baseline.py

Runs bench/run.py untraced on every workload twice over seeds 1 to 10 and
once at the default and held-out seeds, and traced once per workload at the
default seed, each run for BENCHMARK.json's run_seconds. Writes, per
workload and end-to-end metric, each set's values, median and quartile
spread (Q3 - Q1 over the median, as ``statistics.quantiles(values, n=4)``
gives them), how much worse the second set's median is than the first's,
and the median change between the two runs at the same seed. It also
writes the per-layer metrics of the traced run and each layer's share of
the workload's traced pass time.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = tuple(range(1, 11))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    with open(BENCH / "out" / f"{workload}-{seed}-trace{trace}.json", encoding="utf-8") as fh:
        return json.load(fh)


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "quartile_spread": (q3 - q1) / med if med else 0.0, "values": values}


def _worse(new, old, better):
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old if old else 0.0
    return change if better == "lower" else -change


def compare(metric, first, second):
    """Both sets of one end-to-end metric, and how far they disagree."""
    a = [r["values"][metric["name"]] for r in first]
    b = [r["values"][metric["name"]] for r in second]
    return {"bound": metric["bound"], "first": spread(a), "second": spread(b),
            "median_worse_by": _worse(statistics.median(b), statistics.median(a), metric["better"]),
            "same_seed_change": statistics.median(abs(y - x) / x if x else 0.0
                                                  for x, y in zip(a, b))}


def sizing_shares(workload: str, v: dict, pass_s: float) -> dict:
    """The shares each workload was sized by, as fractions of its pass."""
    if workload == "prep_cohort":
        return {"neural_training": (v["neural.train_s.topic"] + v["neural.train_s.sentiment"]) / pass_s,
                "text_work": (v["textproc.split_s"] + v["neural.encode_s"]
                              + v["domains.weak_label_self_s"] + v["domains.summarize_self_s"]) / pass_s}
    if workload == "extract_long_notes":
        return {"summarize_admission": v["domains.summarize_s"] / pass_s,
                "sentence_splitting": v["textproc.split_s"] / pass_s,
                "mlp_inference": v["neural.predict_s"] / pass_s}
    ablation = {k.rsplit(".", 1)[1]: x for k, x in v.items() if k.startswith("evaluate.ablation_s.")}
    total = sum(ablation.values())
    return {"random_forest_of_ablation": ablation["random_forest"] / total,
            "mlp_of_ablation": ablation["mlp"] / total,
            "ablation": total / pass_s, "rfe": v["evaluate.rfe_s"] / pass_s}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sys.path.insert(0, str(BENCH))
    from run import DEFAULT_SEED, HELD_OUT_SEED

    out = {"seeds": SEEDS, "traced_seed": DEFAULT_SEED, "run_seconds": seconds,
           "workloads": {}}
    for w in (x["name"] for x in spec["workloads"]):
        runs = [run(w, s, seconds, 0) for s in SEEDS]
        again = [run(w, s, seconds, 0) for s in SEEDS]
        named_seeds = {s: run(w, s, seconds, 0)["result"] for s in (DEFAULT_SEED, HELD_OUT_SEED)}
        traced = run(w, DEFAULT_SEED, seconds, 1)
        pass_s = statistics.median(traced["traced_passes_s"])
        layers = list(zip(traced["self_by_layer"], traced["root_s"]))
        names = sorted({k for d, _ in layers for k in d})
        out["environment"] = traced["environment"]
        out["workloads"][w] = {
            "end_to_end": {m["name"]: compare(m, runs, again) for m in spec["end_to_end"]},
            "failed": sum(r["result"]["failed"] for r in runs + again),
            "default_and_held_out_seeds": named_seeds,
            "named": {s: r["named"] for s, r in zip(SEEDS, runs)},
            "layer_self_share": {n: statistics.median(d.get(n, 0.0) / root for d, root in layers)
                                 for n in names},
            "sizing_shares": sizing_shares(w, traced["values"], pass_s),
            "per_layer": traced["values"],
        }
        for name, c in out["workloads"][w]["end_to_end"].items():
            print(f"{w:<20} {name:<12} spreads {c['first']['quartile_spread']:.3f} "
                  f"{c['second']['quartile_spread']:.3f}  worse by {c['median_worse_by']:+.3f}  "
                  f"bound {c['bound']}", flush=True)
    with open(BENCH / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
