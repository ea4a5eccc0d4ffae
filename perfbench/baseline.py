"""Record the corpus verdict reference, and reproduce the corpus Baseline.

    python3 perfbench/baseline.py reference    # writes reference/corpus_verdicts.json
    python3 perfbench/baseline.py reproduce    # writes results/baseline_corpus.json

`reference` classifies the whole corpus population (random_corpus(5000,
seed 20240811) under CORPUS_CONFIG) and stores each language's 18
outcomes and its cost bin.  The corpus workload fails any op whose
decided verdict differs from it, and spreads each cost bin evenly over a
run.  `reproduce` runs the traced corpus workload on the 1000-language
corpus of seed 20240811, in corpus order, and compares unknown counts and
the time split with the Baseline figures in ROADMAP.md.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run

run.import_subreg()

import tracing  # noqa: E402
import workloads  # noqa: E402
from subreg import classify, hierarchy  # noqa: E402

RESULTS = os.path.join(run.HERE, "results", "baseline_corpus.json")
COST_BINS = 100  # so that a run's slowest 1 % comes from the slowest bin

# ROADMAP.md, "Baseline (measured at this re-anchor)"
BASELINE_UNKNOWN = {"UF": 659, "SYDEF": 620, "2COM": 263, "ORD": 241}
BASELINE_SHARE = {"ORD": 35.8 / 41.7, "2COM": 3.9 / 41.7,
                  "dfa_build": 0.18 / 41.7}


def record_reference() -> None:
    population = hierarchy.random_corpus(workloads.Corpus.population_size,
                                         seed=workloads.Corpus.population_seed)
    rows, costs = [], []
    start = time.perf_counter()
    for i, h in enumerate(population):
        t0 = time.perf_counter()
        verdicts = classify.classify_all(h, hierarchy.CORPUS_CONFIG)
        costs.append(time.perf_counter() - t0)
        rows.append([workloads.regex_key(h.regex),
                     "".join(workloads.LETTER[verdicts[f].outcome]
                             for f in workloads.FAMILIES)])
        if i % 500 == 499:
            print(f"{i + 1} languages, {time.perf_counter() - start:.0f} s",
                  flush=True)
    ranked = sorted(range(len(rows)), key=costs.__getitem__)
    for rank, i in enumerate(ranked):
        rows[i].append(rank * COST_BINS // len(rows))
    data = {
        "config": "hierarchy.CORPUS_CONFIG",
        "corpus": "hierarchy.random_corpus",
        "families": [f.value for f in workloads.FAMILIES],
        "row": ["prefix spelling of the regex tree (workloads.regex_key)",
                "outcomes: y = yes, n = no, u = unknown, one letter per family",
                f"cost bin: the language's rank by classify_all time when "
                f"recorded, in {COST_BINS} equal bins; orders runs only"],
        "seed": workloads.Corpus.population_seed,
        "size": len(rows),
        "verdicts": rows,
    }
    write_reference(data, workloads.REFERENCE)


def write_reference(data: dict, path: str) -> None:
    """JSON with one reference row per line."""
    rows = data.pop("verdicts")
    head = json.dumps(data, indent=1, sort_keys=True)[:-2]
    body = ",\n".join(json.dumps(row) for row in rows)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{head},\n "verdicts": [\n{body}\n]}}\n')


class BaselineCorpus(workloads.Corpus):
    """The corpus workload on random_corpus(1000, 20240811) in corpus order."""

    def setup(self):
        super().setup()
        self.order = list(range(1000))


def reproduce() -> None:
    w = BaselineCorpus(workloads.Corpus.default_seed, run.workdir())
    w.setup()
    fresh = hierarchy.random_corpus(1000, seed=w.population_seed)
    dfa_start = time.perf_counter()
    for h in fresh:
        h.dfa
    dfa_build_s = time.perf_counter() - dfa_start
    del fresh

    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop = run.Loop(w, tracer)
        loop.run(count=len(w.order))
    finally:
        tracer.uninstall()
    names = [m["name"] for m in run.load_spec()["per_layer"]]
    metrics = tracing.per_layer_metrics(tracer.spans, tracer.counts, names)

    inclusive: dict[str, float] = {}
    for span in tracer.spans:
        if span[tracing.NAME].startswith("classify."):
            key = span[tracing.NAME][len("classify."):]
            inclusive[key] = (inclusive.get(key, 0.0)
                              + (span[tracing.END] - span[tracing.START]) / 1e9)
    total_s = sum(loop.durations)
    shares = {"ORD": inclusive["ORD"] / total_s,
              "2COM": inclusive["2COM"] / total_s,
              "dfa_build": dfa_build_s / total_s}
    unknown = {f: metrics[f"classify.{f}.unknown"] for f in BASELINE_UNKNOWN}
    differences = []
    for f, want in BASELINE_UNKNOWN.items():
        if unknown[f] != want:
            differences.append(f"{f} unknown {unknown[f]}, Baseline {want}")
    for key, want in BASELINE_SHARE.items():
        differences.append(f"{key} share {shares[key]:.3f}, Baseline "
                           f"{want:.3f} ({shares[key] - want:+.3f})")
    differences.append(f"classify_all total {total_s:.1f} s traced, "
                       f"Baseline 41.7 s")
    result = {
        "baseline": {"unknown": BASELINE_UNKNOWN,
                     "share_of_classify_all": BASELINE_SHARE,
                     "total_s": 41.7},
        "corpus": "hierarchy.random_corpus(1000, seed=20240811), CORPUS_CONFIG",
        "differences": differences,
        "failed_ops": loop.failed,
        "machine": run.machine_info(),
        "measured": {
            "classify_inclusive_s": {k: round(v, 4) for k, v in
                                     sorted(inclusive.items())},
            "classify_self_s": {k[len("classify."):-3]: round(v / 1e3, 4)
                                for k, v in metrics.items()
                                if k.startswith("classify.") and k.endswith("_ms")},
            "dfa_build_s": round(dfa_build_s, 4),
            "ops": len(loop.durations),
            "share_of_classify_all": {k: round(v, 4) for k, v in shares.items()},
            "total_s": round(total_s, 3),
            "trace_spans": len(tracer.spans),
            "unknown": unknown,
            "unknown_all_families": {
                k[len("classify."):-len(".unknown")]: v for k, v in metrics.items()
                if k.endswith(".unknown")},
            "ord_budget_exhausted": metrics["classify.ORD.budget_exhausted"],
            "ord_state_cap": metrics["classify.ORD.state_cap"],
        },
        "note": ("total_s is traced wall time of the 1000 classify_all calls; "
                 "dfa_build_s is an untraced build of all 1000 minimal DFAs "
                 "on a fresh copy of the corpus; shares use inclusive span "
                 "time (a decider plus the automata calls it makes)."),
    }
    os.makedirs(os.path.dirname(RESULTS), exist_ok=True)
    with open(RESULTS, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result, indent=2, sort_keys=True))


if __name__ == "__main__":
    {"reference": record_reference, "reproduce": reproduce}[sys.argv[1]]()
