"""subreg benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload corpus --seed 20240811 --seconds 30 --trace 0

Run from the repository root; subreg is imported from ./src.  The last
line of standard output is one JSON object: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
The lines before it give the same run for a reader, with machine info.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
SETUP_REPS = 5
TRACE_BLOCK_S = 1.0
SETUP_TIMEOUT_S = 60


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_subreg():
    """Import subreg from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "subreg", "__init__.py")):
        raise SystemExit(f"error: no subreg sources under {SRC}")
    sys.path.insert(0, SRC)
    import subreg
    if not os.path.abspath(subreg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported subreg from {subreg.__file__}")
    return subreg


def machine_info() -> dict:
    cpu = platform.machine()  # platform.processor() may run `uname -p`
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version()}


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# ---------------------------------------------------------------------------
# Set-up time: fresh interpreters, each up to the point of its first op.


def setup_probe(workload_name: str, seed: int) -> None:
    """Body of a probe process: import, build the inputs, say 'ready'."""
    import_subreg()
    import workloads
    w = workloads.WORKLOADS[workload_name](
        seed, os.path.join(WORKDIR, f"probe-{os.getpid()}"))
    try:
        w.setup()
        print("ready", flush=True)
    finally:
        w.cleanup()


class SetupProbes:
    """Set-up time of `reps` fresh probe processes, spread evenly over a
    run: the machine's speed swings within seconds, so back-to-back probes
    would all sample one moment of it.  The loop is paused while a probe
    runs, and that time does not count towards the run's length."""

    def __init__(self, workload_name: str, seed: int, reps: int,
                 seconds: float):
        self.argv = [sys.executable, os.path.abspath(__file__),
                     "--setup-probe", "--workload", workload_name,
                     "--seed", str(seed)]
        self.reps = reps
        self.interval = seconds / reps
        self.times: list[float] = []

    def due(self, elapsed: float) -> float:
        """Run the probes due by `elapsed`; return the time they took."""
        start = time.perf_counter()
        while (len(self.times) < self.reps
               and elapsed >= len(self.times) * self.interval):
            self.times.append(self._probe())
        return time.perf_counter() - start

    def _probe(self) -> float:
        start = time.perf_counter()
        proc = subprocess.Popen(self.argv, stdout=subprocess.PIPE, cwd=ROOT,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up probe failed with exit {code}")
        return elapsed


# ---------------------------------------------------------------------------
# The closed loop


class Loop:
    """Ops run back to back on one workload; each op's output check runs
    after it, outside the timed call.  `tracer`, when given, is paused for
    checks."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.durations: list[float] = []
        self.pass_ends: list[int] = []   # op count at each completed pass
        self.problems: dict[int, list[str]] = {}

    def run(self, seconds: float = math.inf, count: float = math.inf,
            probes: SetupProbes | None = None) -> None:
        """Run ops until `seconds` have passed or `count` ops are done,
        running the set-up `probes` as they fall due."""
        start = time.perf_counter()
        current_pass = 0
        for k, item in self.workload.items():
            n = len(self.durations)
            if probes:
                start += probes.due(time.perf_counter() - start)
            if n >= count or time.perf_counter() - start >= seconds:
                break
            if k != current_pass:
                self.pass_ends.append(n)
                current_pass = k
            self.step(item)
        if probes:
            probes.due(math.inf)
        self.finish()

    def step(self, item) -> None:
        w = self.workload
        index = len(self.durations)
        t0 = time.perf_counter()
        try:
            output = w.op(item)
        except Exception as exc:
            self.durations.append(time.perf_counter() - t0)
            self.problems[index] = [f"op raised {exc!r}"]
            return
        self.durations.append(time.perf_counter() - t0)
        self._checked(lambda: {index: w.check(index, item, output)})

    def finish(self) -> None:
        self._checked(self.workload.finish)

    def _checked(self, fn) -> None:
        if self.tracer:
            self.tracer.active = False
        try:
            found = fn()
        except Exception as exc:
            found = {len(self.durations) - 1: [f"check raised {exc!r}"]}
        finally:
            if self.tracer:
                self.tracer.active = True
        for index, lines in found.items():
            if lines:
                self.problems.setdefault(index, []).extend(lines)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def throughput(self) -> float:
        ops = len(self.durations)
        if self.workload.whole_passes and self.pass_ends:
            ops = self.pass_ends[-1]
        return ops / sum(self.durations[:ops])


def end_to_end(loop: Loop, setup_times: list[float]) -> dict:
    ds = sorted(loop.durations)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (loop.throughput(), "1/s"),
        "op_p50_ms": (percentile(ds, 0.50) * 1e3, "ms"),
        "op_p99_ms": (percentile(ds, 0.99) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def workdir() -> str:
    return os.path.join(WORKDIR, f"run-{os.getpid()}")


def traced_run(workload_cls, seed: int, seconds: float):
    """Blocks of about TRACE_BLOCK_S of untraced ops, each followed by the
    same inputs again with tracing on, for `seconds` in all.  Pairing the
    blocks keeps the machine's drift in speed out of the overhead.
    Returns per-layer metrics, the loop and the tracer."""
    import tracing
    tracer = tracing.Tracer()
    w = workload_cls(seed, workdir())
    tracer.install()
    try:
        w.setup()
    finally:
        tracer.uninstall()
        w.cleanup()
    in_setup = tracing.per_layer_metrics(
        tracer.spans, tracer.counts, ["hierarchy.random_corpus_ms"])
    tracer.reset()

    w = workload_cls(seed, workdir())
    w.setup()
    gc.collect()
    loop = Loop(w, tracer)
    items = (item for _, item in w.items())
    plain = traced = 0.0
    traced_ops = 0
    start = time.perf_counter()
    try:
        while time.perf_counter() - start < seconds:
            block, n0, t0 = [], len(loop.durations), time.perf_counter()
            while time.perf_counter() - t0 < TRACE_BLOCK_S:
                item = next(items)
                block.append(w.fresh(item))
                loop.step(item)
            n1 = len(loop.durations)
            tracer.install()
            try:
                for item in block:
                    loop.step(item)
            finally:
                tracer.uninstall()
            plain += sum(loop.durations[n0:n1])
            traced += sum(loop.durations[n1:])
            traced_ops += len(block)
        loop.finish()
    finally:
        w.cleanup()
    names = [m["name"] for m in load_spec()["per_layer"]]
    metrics = tracing.per_layer_metrics(tracer.spans, tracer.counts, names)
    metrics.update(in_setup)
    metrics["trace.ops"] = traced_ops
    metrics["trace.overhead_ms"] = (traced - plain) * 1e3
    metrics["trace.overhead_share"] = (traced - plain) / plain
    return metrics, loop, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_subreg()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    if args.setup_probe:
        setup_probe(args.workload, seed)
        return 0
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    info = {"workload": args.workload, "seed": seed, "seconds": seconds,
            "trace": args.trace, **machine_info()}
    if args.trace:
        metrics, loop, tracer = traced_run(cls, seed, seconds)
        spans = os.path.join(WORKDIR, f"spans-{args.workload}.json")
        tracer.dump(spans)
        info["spans"] = os.path.relpath(spans, ROOT)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        shown = {k: (v, units[k]) for k, v in metrics.items()}
    else:
        probes = SetupProbes(args.workload, seed, SETUP_REPS, seconds)
        w = cls(seed, workdir())
        w.setup()
        gc.collect()
        gc.freeze()  # keep the inputs out of the timed ops' collections
        loop = Loop(w)
        try:
            loop.run(seconds=seconds, probes=probes)
            info["input_digest"] = w.input_digest()
        finally:
            w.cleanup()
        shown = end_to_end(loop, probes.times)
        info["setup_samples_s"] = [round(t, 4) for t in probes.times]
        info["ops_beyond_p99"] = len(loop.durations) - math.ceil(
            0.99 * len(loop.durations))
        info["unknown_share"] = w.unknown_share()
    attempted = len(loop.durations)
    failed = loop.failed
    info["attempted"] = attempted
    info["fail_share"] = failed / attempted
    for index, lines in sorted(loop.problems.items())[:20]:
        print(f"FAIL op {index}: {'; '.join(lines)[:500]}")
    print("run " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in shown.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    if not args.trace:  # the two shares that can read 0 or n/a stay out of the result
        for name in ("unknown_share", "fail_share"):
            value = info[name]
            print(f"{name:36s} {'n/a' if value is None else f'{value:.6g}':>14s} ratio")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in shown.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        with contextlib.suppress(OSError):  # left if spans or other runs are in it
            os.rmdir(WORKDIR)
    sys.exit(code)
