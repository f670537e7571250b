"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench/tests -q

They check that the frozen references match the program under src/,
that the traced run returns the same results as the untraced one, that
the deterministic per-layer counts repeat exactly, and the output
contract of bench/run.py.
"""

import json
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from freeze import outputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFS = json.loads((BENCH / "references.json").read_text())
DETERMINISTIC = ("primitivity.steps", "verify.words_checked", "stallings.letters_in")


@pytest.fixture(scope="module")
def modules():
    return run.load_program()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_references_match_program(name, modules):
    cls = workloads.WORKLOADS[name]
    api = run.entry_points(modules)
    for seed in (0, 1) if cls.SEEDED else (0,):
        got = outputs(cls(seed), api)
        want = {k: v for k, v in REFS[name].items() if k != "seeds"}
        want.update(REFS[name].get("seeds", {}).get(str(seed), {}))
        assert got == want, f"{name} seed {seed}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced(name, modules):
    workload = workloads.WORKLOADS[name](7)
    workload.prepare(run.entry_points(modules))
    api = run.entry_points(modules)
    _, _, plain = run.measured(run.HostSpeed(), lambda: workload.run_pass(api, run._no_item))
    metrics = []
    for _ in range(2):
        wall, res, probe = run.traced_pass(workload, modules)
        assert (res.verdicts, res.digests, res.failed) == (plain.verdicts, plain.digests, plain.failed)
        assert (res.items, res.attempted) == (plain.items, plain.attempted)
        table = run.LayerTable(probe.tracer)
        m = run.layer_metrics(table, probe, modules, wall)
        assert set(m) == {w["name"] for w in SPEC["per_layer"]}
        # every span is charged to exactly one layer, bench's loop included
        layers = sum(m[f"{layer}.self_s"] for layer in run.LAYERS) + m["bench.self_s"]
        assert layers == pytest.approx(m["trace.wall_s"], rel=1e-9)
        assert m["trace.wall_s"] == pytest.approx(wall, rel=1e-9)
        metrics.append(m)
    # the patched functions are restored after a traced pass
    assert modules["verify"].is_primitive is modules["primitivity"].is_primitive
    counts = [{k: v for k, v in m.items() if k.endswith(".calls") or k in DETERMINISTIC}
              for m in metrics]
    assert counts[0] == counts[1]
    assert plain.failed == 0 and run.Checker(REFS[name], 7).failures(plain) == 0


def test_inputs_depend_only_on_seed():
    assert workloads.long_words(5) == workloads.long_words(5)
    assert workloads.long_words(5) != workloads.long_words(6)
    assert workloads.small_sets(5) == workloads.small_sets(5)
    assert workloads.small_sets(5) != workloads.small_sets(6)
    for rank, _, letters in workloads.long_words(5):
        assert 60 <= len(letters) <= 200
        assert workloads.cyclic_core(workloads.free_reduce(letters)) == letters
        assert max(abs(x) for x in letters) <= rank


def test_steps_depend_only_on_cyclic_core(modules):
    # layer_metrics minimizes one word per distinct cyclic core
    Word = modules["words"].Word
    minimize = modules["primitivity"].whitehead_minimize
    rng = random.Random(11)
    for _ in range(200):
        rank = rng.choice((2, 3, 4, 6))
        core = workloads.cyclic_core(workloads.random_reduced(rng, rank, rng.randint(2, 14)))
        k = rng.randrange(len(core))
        g = workloads.random_reduced(rng, rank, 2)
        variant = workloads.free_reduce(g + core[k:] + core[:k] + [-x for x in reversed(g)])
        assert run.canonical_core(core, rank) == run.canonical_core(variant, rank)
        assert len(minimize(Word(core), rank).steps) == len(minimize(Word(variant), rank).steps)


def test_trace_consistent(modules):
    cli = modules["cli"].main
    rc, out = workloads._capture(cli, ["primitive", "ababa", "--rank", "2", "--trace"])
    assert workloads.trace_consistent(out, rc, True, 5)
    assert not workloads.trace_consistent(out, rc, False, 5)
    assert not workloads.trace_consistent(out, 1, True, 5)
    assert not workloads.trace_consistent(out.replace("3 -> 2", "3 -> 3"), rc, True, 5)
    rc, out = workloads._capture(cli, ["primitive", "a^2b^2", "--rank", "2", "--trace"])
    assert workloads.trace_consistent(out, rc, False, 4)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def test_output_contract():
    proc = _bench(ROOT, "--workload", "fold-family", "--seed", "40", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        w["name"]: w["unit"] for w in SPEC["end_to_end"]
    }
    assert "seed 40" in proc.stdout


def test_fails_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_probes_and_restores_timer():
    before = signal.getsignal(signal.SIGALRM)
    speed = run.HostSpeed()
    seconds, ref_seconds, result = run.measured(speed, lambda: sum(range(4_000_000)))
    assert result == sum(range(4_000_000))
    assert len(speed.samples) >= 3  # before, at least one on the timer, after
    assert seconds > 0 and ref_seconds > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_counts_repeat_across_hash_seeds():
    # string hashing differs per process; the counts must not depend on it
    script = (
        "import json, run, workloads\n"
        "m = run.load_program()\n"
        "w = workloads.Grid(0)\n"
        "w.prepare(run.entry_points(m))\n"
        "wall, res, probe = run.traced_pass(w, m)\n"
        "t = run.LayerTable(probe.tracer)\n"
        "print(json.dumps({n: c for n, (c, _, _) in t.by_name.items()}))\n"
    )
    counts = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=BENCH, capture_output=True, text=True,
            env={"PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(ROOT / "src")}, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        counts.append(json.loads(proc.stdout.splitlines()[-1]))
    assert counts[0] == counts[1]
