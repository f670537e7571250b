"""Benchmark entry point.

    python3 bench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics
named in BENCHMARK.json.  Times are reported at the reference host speed
(see HostSpeed); the raw seconds are printed above the result.  With
``--trace 1`` it measures untraced passes for the first half of the time
and traced passes for the second, and reports the per-layer metrics.
Every pass is checked against the frozen references in
``references.json``.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from spans import LAYERS, LayerTable, Tracer, write_spans
from workloads import OUT_DIR, WORKLOADS, cyclic_core, free_reduce, random_reduced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-ups measured before the first pass and after each untraced pass, so
# that their median spans the whole run rather than one moment of it.
SETUPS_PER_PASS = 3
PROBE_INTERVAL_S = 0.05
# Typical time of one HostSpeed probe on the shared 2-vCPU Xeon VM the
# benchmark was defined on (Python 3.11); times are reported at that speed.
REF_PROBE_S = 0.0006
MODULES = ("words", "automorphisms", "whitehead_graph", "primitivity", "stallings", "verify", "cli")


def _take_program() -> dict:
    """Remove freegroups and its submodules from sys.modules; return them."""
    return {
        name: sys.modules.pop(name)
        for name in list(sys.modules)
        if name == "freegroups" or name.startswith("freegroups.")
    }


def load_program():
    """Import freegroups afresh, dropping any copy imported before."""
    _take_program()
    importlib.import_module("freegroups")
    return {m: importlib.import_module(f"freegroups.{m}") for m in MODULES}


def entry_points(modules, tracer: Tracer | None = None):
    """The program functions the workloads call directly."""
    fns = {
        "cli_main": modules["cli"].main,
        "is_primitive": modules["primitivity"].is_primitive,
        "build_whitehead_graph": modules["whitehead_graph"].build_whitehead_graph,
        "build_subgroup_graph": modules["stallings"].build_subgroup_graph,
    }
    if tracer is not None:
        fns = {k: tracer.wrap(f) for k, f in fns.items()}
    return SimpleNamespace(Word=modules["words"].Word, **fns)


def set_up(workload) -> None:
    """Import freegroups afresh and make one warm-up call per entry point.
    The copy imported here is thrown away, and the modules the passes use
    stay in place."""
    kept = _take_program()
    try:
        workload.warm_up(entry_points(load_program()))
    finally:
        _take_program()
        sys.modules.update(kept)


class HostSpeed:
    """How fast the host runs while a measurement is taken.

    The host is shared, and its speed drifts by up to a factor of 1.5 over
    seconds to minutes.  While a measured block runs, a SIGALRM timer
    interrupts it every PROBE_INTERVAL_S to time a fixed probe of the
    benchmark's own letter arithmetic, which never touches the program.
    The probes' trimmed mean time over REF_PROBE_S is the block's
    slowdown.
    """

    def __init__(self):
        rng = random.Random(0)
        self._words = [tuple(random_reduced(rng, 4, 16)) for _ in range(12)]
        self.samples: list[float] = []

    def probe(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        counts: dict = {}
        for w in self._words:
            core = canonical_core(free_reduce(w + w[::-1][1:] + w), 4)
            counts[core] = counts.get(core, 0) + 1
        self.samples.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def sampling(self):
        """Probe once before the block, on the timer during it, and once
        after it."""
        self.samples = []
        self.probe()
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.probe()


def measured(speed: HostSpeed, fn):
    """Run fn() under host speed probes.  Returns (seconds, seconds at the
    reference host speed, fn's result); both exclude the probes' own time."""
    with speed.sampling():
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0 - sum(speed.samples[1:])
    # the mean follows the speed over the whole block; trimming a tenth
    # at each end drops probes that a garbage collection happened to hit
    samples = sorted(speed.samples)
    cut = len(samples) // 10
    slowdown = statistics.fmean(samples[cut:len(samples) - cut]) / REF_PROBE_S
    return seconds, seconds / slowdown, result


def _no_item(_k: int) -> None:
    pass


class Checker:
    """Compares pass outputs with the frozen references.  Outputs with no
    frozen value (a seed outside the table) are compared with the first
    pass of the run instead."""

    def __init__(self, refs: dict, seed: int):
        self.expected = dict(refs.get("seeds", {}).get(str(seed), {}))
        self.expected.update({k: v for k, v in refs.items() if k != "seeds"})
        self.frozen = set(self.expected)

    def failures(self, res) -> int:
        """Operations of the pass that disagree with the reference: one per
        differing verdict character, all covered operations per digest."""
        failed = 0
        for key, value in res.verdicts.items():
            want = self.expected.setdefault(key, value)
            failed += sum(a != b for a, b in zip(value, want)) + abs(len(value) - len(want))
        for key, (value, ops) in res.digests.items():
            failed += ops * (self.expected.setdefault(key, value) != value)
        return failed

    def unfrozen(self) -> list[str]:
        return sorted(set(self.expected) - self.frozen)


class Probe:
    """A tracer for one traced pass plus the values its observers collect."""

    def __init__(self):
        self.tracer = Tracer()
        self.minimized = []  # (letters, rank, verdict or None)
        self.separable = []
        self.letters_in = 0
        self.words_checked = 0
        self.tracer.observers = {
            "primitivity.is_primitive": self._minimized,
            "primitivity.whitehead_minimize": self._minimized,
            "whitehead_graph.WhiteheadGraph.find_cut_vertex": self._cut,
            "stallings.build_subgroup_graph": self._fold,
            "verify.run_claims": self._claims,
        }

    def _minimized(self, args, kwargs, result):
        rank = args[1] if len(args) > 1 else kwargs["rank"]
        self.minimized.append((args[0].letters, rank, result if isinstance(result, bool) else None))

    def _cut(self, args, kwargs, result):
        self.separable.append(result.separable)

    def _fold(self, args, kwargs, result):
        self.letters_in += sum(len(g) for g in args[0])

    def _claims(self, args, kwargs, result):
        self.words_checked += sum(r.stats["words_checked"] for r in result)


def traced_pass(workload, modules):
    probe = Probe()
    tracer = probe.tracer
    tracer.install(modules)
    try:
        api = entry_points(modules, tracer)

        def item(k: int) -> None:
            tracer.item = k

        root = tracer.open_root()
        res = workload.run_pass(api, item)
        tracer.close_root(root)
    finally:
        tracer.uninstall()
    return tracer.ends[root] - tracer.starts[root], res, probe


def canonical_core(letters, rank):
    """Least rotation of the cyclic core, letters ordered e1 < e1^-1 < e2 ..."""
    core = tuple(2 * abs(x) + (x < 0) for x in cyclic_core(letters))
    return rank, min((core[k:] + core[:k] for k in range(len(core))), default=())


def percentile_us(durations, q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1e6


def layer_metrics(table: LayerTable, probe: Probe, modules, untraced_s: float) -> dict:
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = table.calls[layer]
        m[f"{layer}.self_s"] = table.self_s[layer]
    m["bench.self_s"] = table.self_s["bench"]
    m["trace.wall_s"] = table.wall_s
    m["trace.overhead_share"] = table.wall_s / untraced_s - 1
    minimize = table.durations("primitivity.is_primitive", "primitivity.whitehead_minimize")
    m["primitivity.call_p50_us"] = percentile_us(minimize, 0.50)
    m["primitivity.call_p99_us"] = percentile_us(minimize, 0.99)
    calls = probe.minimized
    verdicts = [v for _, _, v in calls if v is not None]
    m["primitivity.primitive_share"] = sum(verdicts) / len(verdicts) if verdicts else 0.0
    cores = [canonical_core(letters, rank) for letters, rank, _ in calls]
    m["primitivity.mean_core_len"] = sum(len(c) for _, c in cores) / len(cores) if cores else 0.0
    m["primitivity.distinct_core_share"] = len(set(cores)) / len(cores) if cores else 0.0
    # The descent depends only on the cyclic core up to rotation, so each
    # distinct core is minimized once, from the first word that has it.
    minimize_fn = modules["primitivity"].whitehead_minimize
    Word = modules["words"].Word
    steps = {}
    for (letters, rank, _), core in zip(calls, cores):
        if core not in steps:
            steps[core] = len(minimize_fn(Word(letters), rank).steps)
    m["primitivity.steps"] = sum(steps[core] for core in cores)
    sep = probe.separable
    m["whitehead_graph.separable_share"] = sum(sep) / len(sep) if sep else 0.0
    m["stallings.call_p99_us"] = percentile_us(
        table.durations("stallings.build_subgroup_graph"), 0.99
    )
    m["stallings.letters_in"] = probe.letters_in
    m["verify.words_checked"] = probe.words_checked
    return m


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((HERE / "references.json").read_text())[args.workload]
    workload = WORKLOADS[args.workload](args.seed)
    modules = load_program()
    api = entry_points(modules)
    workload.warm_up(api)
    workload.prepare(api)
    checker = Checker(refs, args.seed)
    attempted = failed = 0
    speed = HostSpeed()
    walls, ref_walls, setups, traced = [], [], [], []

    def measure_setups():
        setups.extend(measured(speed, lambda: set_up(workload))[1] for _ in range(SETUPS_PER_PASS))

    measure_setups()

    def account(res):
        nonlocal attempted, failed
        attempted += res.attempted
        failed += res.failed + checker.failures(res)

    start = time.perf_counter()
    untraced_until = start + (args.seconds / 2 if args.trace else args.seconds)
    while not walls or time.perf_counter() < untraced_until:
        wall, ref_wall, res = measured(speed, lambda: workload.run_pass(api, _no_item))
        walls.append(wall)
        ref_walls.append(ref_wall)
        account(res)
        items = res.items
        measure_setups()
    while args.trace and (not traced or time.perf_counter() < start + args.seconds):
        wall, res, probe = traced_pass(workload, modules)
        traced.append((wall, probe))
        account(res)

    wall_s = statistics.median(ref_walls)
    setup_s = statistics.median(setups)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"untraced passes {len(walls)}, seconds: " + " ".join(f"{w:.3f}" for w in walls))
    print("  at reference host speed: " + " ".join(f"{w:.3f}" for w in ref_walls))
    print(f"set-ups {len(setups)}, median {setup_s:.4f}, quartiles "
          + " ".join(f"{q:.4f}" for q in statistics.quantiles(setups, n=4)))
    print("references: " + ("frozen" if not checker.unfrozen() else
                            "frozen except " + ", ".join(checker.unfrozen()) + " (first pass)"))
    if args.trace:
        print(f"traced passes {len(traced)}: " + " ".join(f"{w:.3f}" for w, _ in traced))
        traced.sort(key=lambda t: t[0])
        probe = traced[(len(traced) - 1) // 2][1]
        table = LayerTable(probe.tracer)
        metrics = layer_metrics(table, probe, modules, statistics.median(walls))
        print(f"{'span name':<52}{'calls':>8}{'self_s':>11}")
        for name, (calls, self_s, _) in sorted(table.by_name.items(), key=lambda kv: -kv[1][1]):
            if calls:
                print(f"{name:<52}{calls:>8}{self_s:>11.4f}")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.tsv"
        write_spans(probe.tracer, spans_path)
        print(f"spans {len(probe.tracer)} written to {spans_path.relative_to(ROOT)}")
        wanted = spec["per_layer"]
    else:
        metrics = {
            "wall_s": wall_s,
            "items_per_s": items / wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": 1 - failed / attempted,
        }
        wanted = spec["end_to_end"]
    missing = {w["name"] for w in wanted} ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {w["name"]: {"value": metrics[w["name"]], "unit": w["unit"]} for w in wanted},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "freegroups" / "__init__.py").is_file():
        print(f"error: no freegroups source under {SRC}", file=sys.stderr)
        return 2
    # Set-up is measured against the bytecode cache, as an installed package
    # is imported, whatever PYTHONDONTWRITEBYTECODE says.  The cache goes to
    # src/freegroups/__pycache__, which git ignores.
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
