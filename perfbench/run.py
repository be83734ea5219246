"""Benchmark of the ``tamari`` package: three seeded workloads, end to end
and layer by layer.

    python3 perfbench/run.py --workload series --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 7     # every workload, one process each
    python3 perfbench/run.py --smoke

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the same passes untraced and then traced, and reports
the per-layer metrics.  The metric names and units are those listed in
BENCHMARK.json.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Load is a closed loop with one client in one thread: each operation starts
when the previous one and its check have finished.  Only the operation is
timed; its answer is checked after the clock stops.  ``failed`` counts the
operations that raised, exited with the wrong code or gave a wrong answer;
``correct`` is false when any answer was wrong or nothing completed.
Times are scaled to a reference machine speed (see speed.py).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import workloads
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7


class Lib:
    """The freshly imported package modules and their memo caches."""

    def __init__(self):
        caches = {}
        for name in LAYERS:
            module = sys.modules[f"tamari.{name}"]
            setattr(self, name, module)
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    caches[id(obj)] = obj
        self.caches = list(caches.values())


def import_tamari() -> Lib:
    for name in [m for m in sys.modules
                 if m == "tamari" or m.startswith("tamari.")]:
        del sys.modules[name]
    package = importlib.import_module("tamari")
    for name in LAYERS:
        importlib.import_module(f"tamari.{name}")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "tamari":
        raise ImportError(f"tamari imported from {package.__file__}, "
                          f"not from {ROOT / 'src'}")
    return Lib()


class Stats:
    def __init__(self):
        self.ops: list[tuple[float, bool]] = []  # (seconds, succeeded)
        self.probes: list[tuple[int, float]] = []  # (ops before, seconds)
        self.op_time = 0.0  # measured seconds, unscaled
        self.failed = 0
        self.wrong = 0
        self.passes = 0

    @property
    def attempted(self) -> int:
        return len(self.ops)

    def probe(self) -> None:
        self.probes.append((len(self.ops), speed.probe()))

    def scaled(self) -> list[float]:
        """Each operation's time on the reference scale."""
        factors = speed.scales(len(self.ops), self.probes)
        return [seconds * f for (seconds, _), f in zip(self.ops, factors)]


def run_op(op, workload, stats=None, tracer=None, op_id=0) -> None:
    """Time one operation, then check it; ``stats=None`` is a warm-up."""
    error = answer = arg = None
    elapsed = 0.0
    try:
        if op.prepare is not None:
            arg = op.prepare()
        if tracer is not None:
            tracer.op_id, tracer.active = op_id, True
        t0 = perf_counter()
        try:
            answer = op.run(arg)
        finally:
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
    except Exception as exc:  # a failed operation; the run goes on
        error = f"FAILED {op.key[:160]}: {type(exc).__name__}: {exc}"
    workload.between()
    if stats is None:
        if error is None:
            try:
                op.digest(arg, answer)
            except Exception:  # warm-up answers are not judged
                pass
        return
    stats.op_time += elapsed
    if error is None:
        if tracer is not None and isinstance(answer, workloads.CliResult):
            tracer.note_cli(answer)
        try:
            got, want = op.digest(arg, answer), op.expect()
        except Exception as exc:  # an answer the check cannot read is wrong
            got, want = f"unreadable: {type(exc).__name__}: {exc}", "readable"
        if got != want:
            stats.wrong += 1
            error = (f"MISMATCH {op.key[:160]}: got {str(got)[:300]} "
                     f"expected {str(want)[:300]}")
    stats.ops.append((elapsed, error is None))
    if error is not None:
        stats.failed += 1
        print(error, flush=True)


def run_passes(workload, seconds=None, passes=None, tracer=None) -> Stats:
    """Whole passes until the timed work reaches ``seconds`` and the
    workload's minimum (or exactly ``passes`` of them)."""
    stats = Stats()
    stats.probe()
    since_probe = 0.0
    while True:
        for op in workload.passes[stats.passes % len(workload.passes)]:
            before = stats.op_time
            run_op(op, workload, stats, tracer, stats.attempted)
            since_probe += stats.op_time - before
            if since_probe >= speed.GAP_S:
                stats.probe()
                since_probe = 0.0
        stats.passes += 1
        if stats.passes == passes or (
                passes is None and stats.op_time >= seconds
                and stats.passes >= workload.min_passes):
            stats.probe()
            return stats


def warm_up(lib, workload) -> None:
    workloads.clear_caches(lib)
    for op in workload.warmup:
        run_op(op, workload)
    gc.collect()


def setup(name: str, seed: int, tiny: bool):
    """Import the package, generate the workload and warm up; returns the
    measured seconds, the same on the reference scale, and the results."""
    gc.collect()  # the previous set-up's modules are cyclic garbage
    factors = [speed.scale_now()]
    t0 = perf_counter()
    lib = import_tamari()
    workload = workloads.BUILDERS[name](lib, seed, tiny)
    generated = perf_counter()
    factors.append(speed.scale_now())
    resumed = perf_counter()
    warm_up(lib, workload)
    elapsed = perf_counter() - resumed + generated - t0
    factors.append(speed.scale_now())
    return elapsed, elapsed * statistics.median(factors), lib, workload


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when nothing completed."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def timing(stats: Stats, times: list[float]) -> dict[str, float]:
    completed = [t for t, (_, ok) in zip(times, stats.ops) if ok]
    total = sum(times)
    return {"ops_per_s": len(completed) / total if total else 0.0,
            "op_p50_ms": 1000 * percentile(completed, 50),
            "op_p90_ms": 1000 * percentile(completed, 90)}


def end_to_end(stats: Stats, setup_s: float) -> dict[str, float]:
    return {"setup_s": setup_s, **timing(stats, stats.scaled()),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def per_layer(tracer: Tracer, traced: Stats, untraced: Stats):
    self_s = tracer.self_times()
    counts = tracer.counts
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = counts[f"{layer}.calls"]
        metrics[f"{layer}.self_s"] = self_s[layer]
    for name in ("poly.terms_out", "poly.degrees_solved",
                 "compose.posets_out", "intervalposet.relations_out",
                 "trees.trees_out", "order.upset_trees", "mtamari.paths_out",
                 "mtamari.covers_out", "cli.out_bytes", "cli.exit_1",
                 "cli.exit_2"):
        metrics[name] = counts[name]
    metrics["compose.posets_per_s"] = (
        counts["compose.posets_out"] / self_s["compose"]
        if self_s["compose"] else 0.0)
    attempts = counts["intervalposet.make_interval_attempts"]
    metrics["intervalposet.make_interval_accept_ratio"] = (
        counts["intervalposet.make_interval_accepts"] / attempts
        if attempts else 0.0)
    metrics["order.upset_cache_hit_ratio"] = tracer.upset_hit_ratio()
    metrics["trace.overhead_ratio"] = (sum(traced.scaled())
                                       / sum(untraced.scaled()))
    return metrics


def inputs_digest(workload) -> str:
    digest = hashlib.sha256(workload.name.encode())
    for op in workload.warmup + [op for p in workload.passes for op in p]:
        digest.update(b"\n" + op.key.encode())
    return digest.hexdigest()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tamari").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False):
    """One run; returns (stats of every timed operation, metrics, info)."""
    setups = []  # (measured, scaled) seconds of each set-up
    for _ in range(1 if trace else SETUP_REPEATS):
        lib = workload = None  # drop the previous set-up before the next
        measured, scaled, lib, workload = setup(name, seed, tiny)
        setups.append((measured, scaled))
    info = {"workload": name, "seed": seed, "trace": int(trace),
            "inputs_sha256": inputs_digest(workload),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "source_sha256": source_digest(), "commit": git_commit()}
    if not trace:
        stats = run_passes(workload, seconds=seconds)
        raw = timing(stats, [t for t, _ in stats.ops])
        info.update(passes=stats.passes,
                    unscaled={"setup_s": statistics.median(
                        t for t, _ in setups), **raw},
                    probe_ms=1000 * statistics.median(
                        t for _, t in stats.probes))
        metrics = end_to_end(stats, statistics.median(t for _, t in setups))
        return stats, metrics, info
    passes = workload.trace_passes(seconds)
    untraced = run_passes(workload, passes=passes)
    warm_up(lib, workload)
    tracer = Tracer(lib)
    tracer.install()
    tracer.start()
    traced = run_passes(workload, passes=passes, tracer=tracer)
    tracer.write(ROOT / "perfbench" / "out"
                 / f"spans-{name}-seed{seed}.tsv")
    info.update(passes=passes, traced_op_s=traced.op_time,
                layer_self_s=sum(tracer.self_times().values()))
    both = Stats()
    for part in (untraced, traced):
        both.ops += part.ops
        both.failed += part.failed
        both.wrong += part.wrong
    return both, per_layer(tracer, traced, untraced), info


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(stats: Stats, metrics: dict, spec_metrics: list) -> dict:
    names = [m["name"] for m in spec_metrics]
    if sorted(names) != sorted(metrics):
        raise KeyError(f"metrics {sorted(metrics)} do not match "
                       f"BENCHMARK.json {sorted(names)}")
    return {"correct": stats.wrong == 0 and stats.failed < stats.attempted,
            "attempted": stats.attempted, "failed": stats.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]}
                        for m in spec_metrics}}


def smoke() -> int:
    """Every workload at a tiny size, untraced and traced; checks that the
    metric names and units are those of BENCHMARK.json."""
    spec = load_spec()
    problems = []
    for name in workloads.BUILDERS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            stats, metrics, info = measure(name, 1, 0, trace, tiny=True)
            line = result_line(stats, metrics, spec[key])
            units = {m["name"]: m["unit"] for m in spec[key]}
            for metric, entry in line["metrics"].items():
                if entry["unit"] != units[metric] or not isinstance(
                        entry["value"], (int, float)):
                    problems.append(f"{name}: bad metric {metric} {entry}")
            if not line["correct"]:
                problems.append(f"{name} trace={int(trace)}: wrong answers")
            if trace and info["layer_self_s"] > info["traced_op_s"]:
                problems.append(f"{name}: layer self time exceeds the traced "
                                "wall time")
            print(f"smoke {name} trace={int(trace)}: {line['attempted']} ops, "
                  f"{line['failed']} failed", flush=True)
    for problem in problems:
        print(problem)
    print("smoke ok" if not problems else "smoke FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check "
                             "the metric names and units")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tamari" / "__init__.py").is_file():
        print(f"error: no tamari sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    if args.workload is None:
        # every workload in turn, each in its own process so that its peak
        # memory is its own
        codes = [subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)]).returncode for name in workloads.BUILDERS]
        return max(codes)
    spec = load_spec()
    key = "per_layer" if args.trace else "end_to_end"
    stats, metrics, info = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    line = result_line(stats, metrics, spec[key])
    info["error_ratio"] = stats.failed / stats.attempted
    print(json.dumps(info))
    for name, entry in line["metrics"].items():
        print(f"  {name:42} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'error_ratio':42} {info['error_ratio']:.6g} "
          f"({stats.failed} of {stats.attempted} operations)")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
