"""The measured process of the batch workloads.

One invocation is one slice of a run: it imports the package, runs a
warm-up map on a tiny terrain and prints ``ready`` with a host-speed
probe from before the imports and one from after the warm-up (the
orchestrator times spawn to that line as ``setup_s``), then runs closed-loop maps
until its deadline and prints one JSON line with the samples.

``--check`` instead verifies the run's first map outside any timing:
bit-exact against ``engine="python"`` on the same order, and the order
cross-checked against ``tie_break="max"``.

Run only through ``run.py``, which puts the hash-keyed build of the
package on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    POINTS_PER_REQUEST,
    SIZES,
    TOY_SIZES,
    BenchError,
    shipped_default,
    speed_probe,
)

#: The terrains: one fixed corpus, the fractals of seeds 0..POOL-1 at
#: the workload's size.  The run's seed sets the order in which maps
#: cycle through them and the observers of each points request.  One
#: map's cost varies by about a fifth (IQR/median) from one fractal
#: seed to the next, so when the run's seed drew the terrains, a run's
#: median followed the draw.  Every run covers the corpus (a
#: sequential run makes ~30 maps), so its median is over the same
#: terrains whatever the seed.
POOL = 16


def terrain_of(seed: int, i: int) -> int:
    """The corpus index of map ``i`` of a run with ``seed``."""
    import random

    order = random.Random(seed).sample(range(POOL), POOL)
    return order[i % POOL]


def make_input(workload: str, seed: int, toy: bool, j: int):
    """Corpus terrain ``j`` and its points request, whose observers
    come from ``seed``."""
    import random

    from repro.terrain import generate_terrain

    size = (TOY_SIZES if toy else SIZES)[workload]
    terrain = generate_terrain("fractal", size=size, seed=j)
    rng = random.Random(seed * 1000 + j)
    x0, y0, x1, y1 = terrain.xy_bounds()
    lo, hi = terrain.height_range()
    points = [
        (rng.uniform(x0, x1), rng.uniform(y0, y1), rng.uniform(lo, hi * 1.2))
        for _ in range(POINTS_PER_REQUEST)
    ]
    return terrain, points


def make_algorithm(workload: str):
    from repro.hsr import ParallelHSR, SequentialHSR

    if workload == "sequential":
        return SequentialHSR()
    return ParallelHSR(mode=workload.split("-", 1)[1])


def fresh(terrain):
    """A new ``Terrain`` on the same geometry, with no cached edges."""
    from repro.terrain.model import Terrain

    return Terrain(terrain.vertices, terrain.faces, validate=False)


def map_digest(vmap) -> str:
    return hashlib.sha256(repr(vmap.segments).encode()).hexdigest()[:16]


def warm_up(workload: str) -> None:
    from repro.hsr.queries import visible_many
    from repro.terrain import generate_terrain

    t = generate_terrain("fractal", size=5, seed=0)
    make_algorithm(workload).run(t)
    visible_many(fresh(t), [(1.0, 1.0, 9.0)])


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args) -> dict:
    from repro.hsr.queries import visible_many
    from repro.persistence import rope

    algo = make_algorithm(args.workload)
    tracer = gc_timer = None
    if args.trace:
        from tracer import GcTimer, Tracer

        tracer = Tracer(keep_spans=200_000 if args.first_slice else 0)
        gc_timer = GcTimer()

    maps = []
    deadline = time.perf_counter() + args.seconds
    i = args.first_map
    step = 0.0  # wall time of the last map and points request
    while time.perf_counter() + step <= deadline or len(maps) < args.min_maps:
        begin = time.perf_counter()
        j = terrain_of(args.seed, i)
        # Made anew for every map, outside the timing: a cache of the
        # corpus would make peak RSS depend on how many maps a slice ran.
        terrain, points = make_input(args.workload, args.seed, args.toy, j)
        # Trace every other map, so traced and untraced maps interleave
        # and their medians give the trace overhead.
        traced = tracer is not None and i % 2 == 1
        t = fresh(terrain)
        gc.collect()
        # Host-speed probes before the map, between map and points and
        # after the points (see common.py, "host speed").
        probes = [speed_probe()]
        if traced:
            tracer.reset()
            alloc0 = rope.allocation_count()
            gc_timer.ns = gc_timer.collections = 0
            gc_timer.install()
            tracer.install()
        t0 = time.perf_counter()
        result = algo.run(t)
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
            gc_timer.uninstall()
            if args.first_slice:
                tracer.keep_spans = len(tracer.spans)  # spans of one map
        rec = {
            "index": i,
            "terrain": j,
            "ms": (t1 - t0) * 1e3,
            "digest": map_digest(result.visibility_map),
            "k": result.k,
            "ops": result.stats.ops,
            "faults": result.reliability.faults,
            "traced": traced,
        }
        if traced:
            snap = tracer.snapshot()
            snap["chunks_allocated"] = rope.allocation_count() - alloc0
            snap["gc_ms"] = gc_timer.ns / 1e6
            snap["gc_collections"] = gc_timer.collections
            rec["trace"] = snap
        if i == 0 and args.order_file:
            # The check process replays the first map on this order.
            Path(args.order_file).write_text(json.dumps(result.order))
        del result

        t = fresh(terrain)
        gc.collect()
        probes.append(speed_probe())
        t0 = time.perf_counter()
        rec["points"] = visible_many(t, points)
        rec["points_ms"] = (time.perf_counter() - t0) * 1e3
        probes.append(speed_probe())
        rec["probes_ms"] = probes
        maps.append(rec)
        i += 1
        step = time.perf_counter() - begin

    out = {"maps": maps, "rss_mb": rss_mb()}
    if tracer is not None and args.first_slice:
        first = make_input(args.workload, args.seed, args.toy, terrain_of(args.seed, 0))
        out["pram"] = pram_pass(args.workload, first[0])
        stem = Path(args.trace_stem)
        tracer.export(
            stem.with_suffix(".spans.json"), stem.with_suffix(".chrome.json")
        )
        out["span_files"] = [
            str(stem.with_suffix(".spans.json")),
            str(stem.with_suffix(".chrome.json")),
        ]
    return out


def pram_pass(workload: str, terrain) -> dict:
    """PRAM work and depth per phase, from an untimed tracked run."""
    if workload == "sequential":
        return {}
    from repro.pram import PramTracker

    tracker = PramTracker()
    make_algorithm(workload).run(fresh(terrain), tracker=tracker)
    return {ph.name: [ph.work, ph.depth] for ph in tracker.phases}


def check(args) -> dict:
    """Output checks on the run's first terrain, never timed: the first
    map's order replayed under ``engine="python"`` (the orchestrator
    compares digests), that order and the ``tie_break="max"`` one
    checked against every ordering constraint, the two maps compared,
    and the points answers checked against the scalar scan."""
    from repro.hsr import ParallelHSR, SequentialHSR
    from repro.hsr.queries import point_visible, visible_many
    from repro.ordering.sweep import front_to_back_order, order_constraints

    t, points = make_input(args.workload, args.seed, args.toy, terrain_of(args.seed, 0))
    failures = []
    order = json.loads(Path(args.order_file).read_text())
    if args.workload == "sequential":
        ref = SequentialHSR(engine="python").run(fresh(t), order=order)
    else:
        mode = args.workload.split("-", 1)[1]
        ref = ParallelHSR(mode=mode, engine="python").run(fresh(t), order=order)

    order_max = front_to_back_order(fresh(t), tie_break="max")
    n = t.n_edges
    constraints = order_constraints(fresh(t).map_segments())
    for name, o in (("min", order), ("max", order_max)):
        if sorted(o) != list(range(n)):
            failures.append(f"tie_break={name} order is not a permutation")
            continue
        pos = {e: p for p, e in enumerate(o)}
        bad = sum(pos[a] > pos[b] for a, b in constraints)
        if bad:
            failures.append(f"tie_break={name} order breaks {bad} constraints")
    if order_max == order and n > 2:
        failures.append("tie_break='max' gave the same order; cross-check is void")
    other = make_algorithm(args.workload).run(fresh(t), order=order_max)
    if not other.visibility_map.approx_same(ref.visibility_map):
        failures.append("maps from tie_break='min' and 'max' orders differ")

    visible = visible_many(fresh(t), points)
    scalar = [point_visible(fresh(t), p) for p in points]
    if visible != scalar:
        failures.append("points answers differ from the scalar reference")
    return {
        "failures": failures,
        "digest": map_digest(ref.visibility_map),
        "k": ref.k,
        "points": scalar,
        "n_edges": n,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--first-map", type=int, default=0)
    ap.add_argument("--first-slice", action="store_true")
    ap.add_argument("--min-maps", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-stem", default="trace")
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--order-file", default="")
    args = ap.parse_args()

    # Before the package and numpy load; the first call of a fresh
    # process also pays for page faults, so it is left out.
    speed_probe()
    first = speed_probe()
    try:
        facts = shipped_default()
    except BenchError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    warm_up(args.workload)
    print(f"ready {first} {speed_probe()}", flush=True)
    out = check(args) if args.check else measure(args)
    out["facts"] = facts
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
