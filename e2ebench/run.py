"""End-to-end benchmark of the terrain hidden-surface-removal pipeline.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload sequential --seed 1 --seconds 32 --trace 0
    python3 e2ebench/run.py --toy          # every workload, tiny inputs, self-check

Workloads: ``sequential``, ``parallel-direct``, ``parallel-persistent``
(terrain -> visibility map, closed loop) and ``viewshed-service`` (a
``repro serve`` child under an open-loop query stream).  The package
is measured from a copy of ``src/`` keyed by its hash, with the
compiled core built into it.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 2 means
the run could not measure (no package, no compiled core, no numpy).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BATCH_WORKLOADS,
    BENCH_DIR,
    PER_LAYER,
    REFERENCE_PROBE_MS,
    WORKLOADS,
    BenchError,
    at_reference,
    catalogue,
    child_env,
    ensure_build,
    host_facts,
    loadavg,
    median,
    out_dir,
    quantile,
    tail,
)

#: Measured processes per batch run; each one's spawn-to-ready time is
#: one ``setup_s`` probe, so the probes are spread through the run.
SLICES = 3
#: Wall seconds kept per slice for start-up and inputs, and once for
#: the output checks, so that a run ends close to ``--seconds``.
SLICE_OVERHEAD_S = 1.0
CHECK_RESERVE_S = 3.0
#: A traced run's first slice always runs this many maps; the counts
#: come from the traced ones among them, so they repeat for one seed
#: however many maps the run finds time for.
COUNTED_MAPS = 6


def _spawn_ready(cmd: list[str], env: dict, timeout: float):
    """Start ``cmd`` and wait for its ``ready`` line; returns
    ``(process, seconds from spawn to ready, the same at the reference
    speed)``, scaled by the two probes the line carries."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    line = proc.stdout.readline().split()
    ready = time.perf_counter() - t0
    if line[:1] != ["ready"]:
        _, err = _communicate(proc, timeout)
        raise BenchError(f"worker did not start: {err.strip()[-2000:]}")
    return proc, ready, at_reference(ready, float(line[1]), float(line[2]))


def _communicate(proc, timeout: float) -> tuple[str, str]:
    """Wait for ``proc``; kill it if it overruns ``timeout``."""
    try:
        return proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker overran its deadline") from None


def _finish(proc, timeout: float) -> dict:
    out, err = _communicate(proc, timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_batch(args, build_src: Path) -> dict:
    env = child_env(build_src)
    worker = str(BENCH_DIR / "worker.py")
    base = [sys.executable, worker, "--workload", args.workload, "--seed", str(args.seed)]
    if args.toy:
        base.append("--toy")
    slices = 2 if args.toy else SLICES
    stem = out_dir(args.root) / f"trace-{args.workload}-{args.seed}"
    order_file = out_dir(args.root) / f"order-{args.workload}-{args.seed}.json"
    end = args.started + args.seconds - CHECK_RESERVE_S

    setups, raw_setups, parts, first_map = [], [], [], 0
    for s in range(slices):
        left = slices - s
        window = max(0.3, (end - time.perf_counter()) / left - SLICE_OVERHEAD_S)
        cmd = base + ["--seconds", str(window), "--first-map", str(first_map)]
        if s == 0:
            cmd += ["--order-file", str(order_file)]
        if args.trace:
            cmd += ["--trace", "--trace-stem", str(stem)]
            if s == 0:
                cmd += ["--first-slice", "--min-maps", str(COUNTED_MAPS)]
        proc, ready, scaled = _spawn_ready(cmd, env, 60)
        setups.append(scaled)
        raw_setups.append(ready)
        part = _finish(proc, window + 120)
        parts.append(part)
        first_map += len(part["maps"])
    proc, _, _ = _spawn_ready(base + ["--check", "--order-file", str(order_file)], env, 60)
    checked = _finish(proc, 300)
    order_file.unlink()
    return summarize_batch(args, setups, raw_setups, parts, checked)


def summarize_batch(args, setups, raw_setups, parts, checked) -> dict:
    maps = [m for p in parts for m in p["maps"]]
    failures = list(checked["failures"])
    # Expected answers per terrain: the python-engine replay of the
    # first map for its terrain, the first map of the run for the
    # others (every map must repeat it, across processes too).
    expected = {maps[0]["terrain"]: (checked["digest"], checked["k"], maps[0]["ops"],
                                     checked["points"])}
    failed = 1 if failures else 0
    for m in maps:
        got = (m["digest"], m["k"], m["ops"], m["points"])
        want = expected.setdefault(m["terrain"], got)
        if got[:3] != want[:3]:
            failed += 1
            failures.append(f"map on terrain {m['terrain']} differs: {got[:3]} != {want[:3]}")
        if got[3] != want[3]:
            failed += 1
            failures.append(f"points on terrain {m['terrain']} differ")
    attempted = 2 * len(maps) + 1

    # Every time at the reference host speed (common.py, "host speed").
    untraced = [at_reference(m["ms"], *m["probes_ms"][:2]) for m in maps if not m["traced"]]
    points_ms = [at_reference(m["points_ms"], *m["probes_ms"][1:]) for m in maps]
    tail_ms, tail_pct, n = tail(untraced)
    e2e = {
        "setup_s": median(setups),
        "latency_p50_ms": median(untraced),
        "latency_tail_ms": tail_ms,
        "points_p50_ms": median(points_ms),
        # One closed-loop client: the rate of maps it sustains.
        "capacity_qps": 1e3 * len(untraced) / sum(untraced),
        "peak_rss_mb": median([p["rss_mb"] for p in parts]),
    }
    raw = [m["ms"] for m in maps if not m["traced"]]
    probes = [x for m in maps for x in m["probes_ms"]]
    res = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "e2e": e2e,
        "notes": {
            "latency_tail": f"p{tail_pct:.1f} of n={n} maps",
            "points": f"n={len(points_ms)} requests",
            "raw": f"setup {median(raw_setups):.4f} s, latency_p50 {median(raw):.2f} ms, "
                   f"points_p50 {median([m['points_ms'] for m in maps]):.2f} ms as timed",
            "probe": f"p50 {median(probes):.3f} ms, p10 {quantile(probes, 0.1):.3f} ms, "
                     f"p90 {quantile(probes, 0.9):.3f} ms (reference {REFERENCE_PROBE_MS} ms)",
            "setup_probes": len(setups),
            "n_edges": checked["n_edges"],
            "k": checked["k"],
        },
        "facts": parts[0]["facts"],
    }
    if args.trace:
        res["layers"], repeats = batch_layers(maps, parts[0])
        res["attempted"] += 1
        if repeats:
            res["failed"] += 1
            failures += [f"count did not repeat: {r}" for r in repeats]
        res["span_files"] = parts[0].get("span_files", [])
    return res


def batch_layers(maps: list, first: dict) -> tuple[dict, list]:
    """Per-layer metrics from the traced maps; also returns the counts
    that failed to repeat between traced maps of the same terrain."""
    traced = [m for m in maps if m["traced"]]

    def scaled(m):  # a map's latency at the reference host speed
        return at_reference(m["ms"], *m["probes_ms"][:2])

    def self_ms(m, *names):
        return sum(m["trace"]["self_ms"].get(n, 0.0) for n in names)

    def calls(m, name):
        return m["trace"]["calls"].get(name, 0)

    def count(m, name):
        return m["trace"]["counts"].get(name, 0)

    def counts_of(m) -> dict:
        tr = m["trace"]
        return {
            "terrain.project_calls": calls(m, "terrain.project"),
            "ordering.comparisons": count(m, "ordering.comparisons"),
            "envelope.insert_calls": calls(m, "envelope.insert"),
            "envelope.compiled_ok": count(m, "envelope.insert_compiled_ok"),
            "hsr.ops": m["ops"],
            "envelope.batch_merge_calls": calls(m, "envelope.batch_merge"),
            "envelope.window_calls": count(m, "envelope.window"),
            "envelope.from_splice_calls": count(m, "envelope.from_splice"),
            "reliability.faults": m["faults"],
            "persistence.commit_calls": calls(m, "persistence.commit"),
            "persistence.chunks_allocated": tr["chunks_allocated"],
        }

    per_terrain: dict[int, dict] = {}
    repeats = []
    for m in traced:
        c = counts_of(m)
        want = per_terrain.setdefault(m["terrain"], c)
        repeats += [f"{k} on terrain {m['terrain']}: {c[k]} != {want[k]}"
                    for k in c if c[k] != want[k]]
    # Counts per map, averaged over the first traced maps.
    counted = [m for m in traced if m["index"] < COUNTED_MAPS]
    avg = {
        k: sum(counts_of(m)[k] for m in counted) / len(counted)
        for k in counts_of(counted[0])
    }

    def med(fn):
        return median([fn(m) for m in traced])

    layers = {k: v for k, v in avg.items() if k in PER_LAYER}
    # The insert loop's whole-profile check fires on a process-wide
    # tick, so its count per map depends on the maps before it; it is
    # left out of the repeat check.
    layers["reliability.check_flat_calls"] = (
        sum(calls(m, "reliability.check_flat") for m in counted) / len(counted)
    )
    inserts = avg["envelope.insert_calls"]
    layers["envelope.insert_compiled_share"] = (
        avg["envelope.compiled_ok"] / inserts if inserts else 0.0
    )
    spans = {
        "terrain.project_ms": ("terrain.project",),
        "ordering.constraints_ms": ("ordering.constraints",),
        "ordering.toposort_ms": ("ordering.toposort",),
        "ordering.separator_ms": ("ordering.separator",),
        "envelope.insert_ms": ("envelope.insert", "envelope.insert_compiled"),
        "hsr.sequential.self_ms": ("hsr.sequential",),
        "hsr.parallel.self_ms": ("hsr.parallel",),
        "hsr.assembly_ms": ("hsr.assembly",),
        "hsr.pct.build_ms": ("hsr.pct.build",),
        "envelope.batch_merge_ms": ("envelope.batch_merge",),
        "hsr.phase2.run_ms": ("hsr.phase2.run",),
        "envelope.stack_ms": ("envelope.stack",),
        "reliability.check_flat_ms": ("reliability.check_flat",),
        "persistence.commit_ms": ("persistence.commit",),
        "persistence.range_lanes_ms": ("persistence.range_lanes",),
    }
    for metric, names in spans.items():
        layers[metric] = med(lambda m, names=names: self_ms(m, *names))
    pram = first.get("pram", {})
    for phase in ("phase1", "phase2"):
        work, depth = pram.get(phase, (0.0, 0.0))
        layers[f"pram.{phase}.work"] = work
        layers[f"pram.{phase}.depth"] = depth
    layers["runtime.gc_ms"] = med(lambda m: m["trace"]["gc_ms"])
    layers["runtime.gc_collections"] = med(lambda m: m["trace"]["gc_collections"])
    layers["trace.unattributed_ms"] = med(lambda m: m["ms"] - m["trace"]["top_ms"])
    traced_p50 = med(scaled)
    untraced_p50 = median([scaled(m) for m in maps if not m["traced"]])
    layers["trace.untraced_p50_ms"] = untraced_p50
    layers["trace.traced_p50_ms"] = traced_p50
    layers["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
    return layers, repeats


def emit(args, res: dict, facts: dict) -> None:
    """Human-readable lines, the full record on disk, then the JSON line."""
    units = catalogue("per_layer" if args.trace else "end_to_end")
    source = res["layers"] if args.trace else res["e2e"]
    metrics = {}
    for name, unit in units.items():
        # A layer that does not run on this workload reports 0.
        value = source.get(name, 0.0) if args.trace else source[name]
        metrics[name] = {"value": float(value), "unit": unit}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for k, v in sorted(facts.items()):
        print(f"  env {k} = {v}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  error_rate = {res['failed'] / res['attempted']:.6g} ratio")
    for k, v in res.get("notes", {}).items():
        print(f"  note {k}: {v}")
    for f in res.get("span_files", []):
        print(f"  spans written to {f}")
    for f in res["failures"][:20]:
        print(f"  FAILED: {f}")
    record = dict(res, facts=facts, metrics=metrics)
    path = out_dir(args.root) / f"result-{args.workload}-{args.seed}-trace{int(args.trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": int(res["attempted"]),
                "failed": int(res["failed"]),
                "metrics": metrics,
            }
        )
    )


def self_test(root: Path) -> int:
    """``--toy``: every workload, traced and untraced, on tiny inputs;
    asserts each metric of BENCHMARK.json prints with its unit and
    every per-layer metric names what it should move."""
    problems = []
    layers = catalogue("per_layer")
    if set(layers) != set(PER_LAYER):
        problems.append(f"PER_LAYER and BENCHMARK.json differ: {set(layers) ^ set(PER_LAYER)}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            before = len(problems)
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "1", "--seconds", "2", "--trace", str(trace), "--toy"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            units = layers if trace else catalogue("end_to_end")
            for name, unit in units.items():
                got = last["metrics"].get(name)
                if got is None or got["unit"] != unit:
                    problems.append(f"{name} missing or wrong unit")
                elif not trace and not got["value"] > 0:
                    problems.append(f"{name} is {got['value']}")
                elif not any(line.strip().startswith(f"{name} = ") and line.endswith(f" {unit}")
                             for line in proc.stdout.splitlines()):
                    problems.append(f"{name} not printed with its unit")
            if not last["correct"] or last["failed"]:
                problems.append("output checks failed")
            for p in problems[before:] or ["ok"]:
                print(f"toy {workload} trace {trace}: {p}")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs")
    args = ap.parse_args()
    args.started = time.perf_counter()  # a run ends close to --seconds from here
    args.root = Path.cwd()
    if not (args.root / "src" / "repro").is_dir():
        print(f"error: {args.root} has no src/repro to measure; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload is None:
        if args.toy:
            return self_test(args.root)
        ap.error("--workload is required")
    facts = dict(host_facts(), loadavg_start=loadavg())
    try:
        build_src = ensure_build(args.root)
        if args.workload in BATCH_WORKLOADS:
            res = run_batch(args, build_src)
        else:
            import service

            res = service.run_service(args, build_src)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    facts.update(res.pop("facts"))
    facts["loadavg_end"] = loadavg()
    facts["build"] = build_src.parent.name
    emit(args, res, facts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
