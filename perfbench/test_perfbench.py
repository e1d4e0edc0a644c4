"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _random_prefs(rng: random.Random, n: int, listed: int):
    prefs = []
    for i in range(n):
        pool = [(h, t) for h in range(n) for t in range(n) if (h, t) != (i, i)]
        classes: list[list] = []
        for o in rng.sample(pool, min(listed, len(pool))):
            if classes and rng.random() < 0.3:
                classes[-1].append(o)
            else:
                classes.append([o])
        classes.insert(rng.randrange(len(classes) + 1), [(i, i)])
        prefs.append(classes)
    return prefs


def _blocked_by_brute_force(prefs, ranks, p) -> bool:
    n = len(p)
    cur = ref.rank_vector(prefs, ranks, p)
    for size in range(1, n + 1):
        for coalition in combinations(range(n), size):
            for houses in permutations(coalition):
                got = dict(zip(coalition, houses))
                tenant = {h: a for a, h in got.items()}
                if all(ranks[a].get((got[a], tenant[a]), len(prefs[a])) < cur[a]
                       for a in coalition):
                    return True
    return False


def test_reference_oracles_match_brute_force():
    rng = random.Random(7)
    for trial in range(120):
        n = 2 + trial % 4
        prefs = _random_prefs(rng, n, rng.randrange(1, 2 * n))
        ranks = ref.rank_tables(prefs)
        perms = list(permutations(range(n)))
        assert sorted(ref.ir_allocations(prefs, ranks)) == [p for p in perms if ref.is_ir(prefs, ranks, p)]
        weights = ref.borda_weights(prefs)
        floor = [-n * len(c) for c in prefs]
        values = [sum(weights[i].get(o, floor[i]) for i, o in
                      enumerate(zip(p, ref.inverse(p)))) for p in perms]
        best = max(values)
        assert ref.max_weight(prefs) == (perms[values.index(best)], best)
        for p in perms[:: max(1, len(perms) // 6)]:
            assert ref.has_blocking_cycle(prefs, ranks, p) == _blocked_by_brute_force(prefs, ranks, p)


def test_exact_cover_matches_brute_force():
    rng = random.Random(3)
    for m in (1, 2, 3, 4):
        for _ in range(25):
            triples = [(0, 0, 0)]
            while any(len(set(tr)) < 3 for tr in triples):
                slots = [e for e in range(3 * m) for _ in range(3)]
                rng.shuffle(slots)
                triples = [tuple(sorted(slots[k:k + 3])) for k in range(0, 9 * m, 3)]
            brute = any(sorted(e for k in chosen for e in triples[k]) == list(range(3 * m))
                        for chosen in combinations(range(len(triples)), m))
            assert ref.exact_cover_exists(m, triples) == brute


def test_smoke_lists_every_metric_of_the_benchmark_file():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "counters repeat: False" not in out.stdout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert f"  {metric['name']} [{metric['unit']}]" in out.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "io", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_scale_divides_out_the_host_speed():
    import run

    ref_s = run.SPIN_REF_S
    spins = [(0.0, ref_s), (0.5, ref_s), (3.0, 2 * ref_s), (3.2, 2 * ref_s), (3.4, 2 * ref_s)]
    # At 0.2 s the spins within the window ran at the reference speed; at
    # 3.3 s the host ran at half speed; at 10 s no spin is within the
    # window and the nearest one counts.
    got = run.scale([0.2, 3.3, 10.0], [0.1, 0.1, 0.1], spins)
    assert got == [0.1, 0.05, 0.05]
