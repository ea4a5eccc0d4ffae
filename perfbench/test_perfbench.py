"""The benchmark's own tests (stdlib unittest).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

import run

run.import_subreg()

import tracing  # noqa: E402
import workloads  # noqa: E402
from subreg import classify  # noqa: E402

SPEC = run.load_spec()


def short_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    result = short_run(w["name"], trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), k)

    def test_layer_map_covers_every_per_layer_metric(self):
        with open(os.path.join(run.HERE, "layers.json"), encoding="utf-8") as fh:
            layers = json.load(fh)
        mapped = {name for entry in layers["map"] for name in entry["metrics"]}
        self.assertEqual(mapped, {m["name"] for m in SPEC["per_layer"]})
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        end_to_end |= set(layers["reported_in_run_line"])
        for entry in layers["map"]:
            for target in entry["moves"] + entry["stays"]:
                metric, _, workload = target.partition("@")
                self.assertIn(metric, end_to_end)
                self.assertIn(workload, workloads.WORKLOADS)


class Seeds(unittest.TestCase):
    def digest(self, cls, seed):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            w = cls(seed, os.path.join(tmp, "work"))
            w.setup()
            try:
                return w.input_digest()
            finally:
                w.cleanup()

    def test_same_seed_same_inputs(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                first = self.digest(cls, cls.default_seed)
                self.assertEqual(first, self.digest(cls, cls.default_seed))
                self.assertNotEqual(first, self.digest(cls, cls.held_out_seed))


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        ms = 10 ** 6  # spans are in ns
        spans = [
            ["cli.main", 0, 100 * ms, -1, None],               # 0
            ["grammar.member", 10 * ms, 40 * ms, 0, None],     # 1
            ["grammar.member", 20 * ms, 30 * ms, 1, None],     # 2: recursion
            ["automata.minimize", 50 * ms, 70 * ms, 0, None],  # 3
            ["automata.minimize", 60 * ms, 80 * ms, 0, None],  # 4: overlaps 3
            ["classify.ORD", 90 * ms, 95 * ms, 0, "unknown"],  # 5
        ]
        self.assertEqual(tracing.self_times(spans),
                         [35 * ms, 20 * ms, 10 * ms, 20 * ms, 20 * ms, 5 * ms])
        metrics = tracing.per_layer_metrics(
            spans, {}, ["cli.main_self_ms", "grammar.member_ms",
                        "automata.minimize_ms", "classify.ORD.unknown",
                        "classify.ORD.useful_share"])
        self.assertEqual(metrics, {"cli.main_self_ms": 35.0,
                                   "grammar.member_ms": 30.0,
                                   "automata.minimize_ms": 40.0,
                                   "classify.ORD.unknown": 1,
                                   "classify.ORD.useful_share": 0.0})


class ChecksFire(unittest.TestCase):
    """Each workload's checks pass on subreg's outputs and fail on wrong
    ones: a tampered reference, or an output that is not subreg's."""

    def fail_share(self, w, count, tamper=None):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            w.workdir = os.path.join(tmp, "work")
            w.setup()
            if tamper:
                tamper(w)
            loop = run.Loop(w)
            try:
                loop.run(count=count)
            finally:
                w.cleanup()
        return loop.failed / len(loop.durations)

    def test_corpus(self):
        seed = workloads.Corpus.default_seed
        self.assertEqual(self.fail_share(workloads.Corpus(seed, ""), 30), 0)

        def flip_decided(w):
            i = w.order[0]
            key, verdicts, cost_bin = w.reference[i]
            j = next(j for j, v in enumerate(verdicts) if v != "u")
            flipped = {"y": "n", "n": "y"}[verdicts[j]]
            w.reference[i] = (key, verdicts[:j] + flipped + verdicts[j + 1:],
                              cost_bin)
        self.assertGreater(
            self.fail_share(workloads.Corpus(seed, ""), 30, flip_decided), 0)

        class WrongCertificate(workloads.Corpus):
            def op(self, item):
                verdicts = super().op(item)
                verdicts[classify.Family.UF].certificate = {"regex": "ab"}
                return verdicts
        self.assertGreater(self.fail_share(WrongCertificate(seed, ""), 30), 0)

    def test_regex_dfa(self):
        seed = workloads.RegexDfa.default_seed
        self.assertEqual(self.fail_share(workloads.RegexDfa(seed, ""), 300), 0)

        class DropsComponent(workloads.RegexDfa):
            def op(self, r):
                dfa, components, _ = super().op(r)
                union = workloads.rx.EMPTY
                for c in components[:-1]:
                    union = workloads.rx.union(union, c)
                same = workloads.automata.equivalent(
                    workloads.automata.dfa_of(union, workloads.AB), dfa)
                return dfa, components[:-1], same
        self.assertGreater(self.fail_share(DropsComponent(seed, ""), 300), 0)

    def test_cli_session(self):
        seed = workloads.CliSession.default_seed
        # 200 ops cover the first deck, which holds every kind of command
        self.assertEqual(self.fail_share(workloads.CliSession(seed, ""), 200), 0)

        def forget_words(w):
            w.words = {name: set() for name in w.words}
        self.assertGreater(
            self.fail_share(workloads.CliSession(seed, ""), 60, forget_words), 0)

        def wrong_relations(w):
            w.relations = {g: (lambda x, y: "equal") for g in w.relations}
        self.assertGreater(
            self.fail_share(workloads.CliSession(seed, ""), 60, wrong_relations), 0)


if __name__ == "__main__":
    unittest.main()
