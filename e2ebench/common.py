"""Shared pieces of the end-to-end benchmark: the metric catalogue,
the hash-keyed build of the compiled core, environment facts and the
order statistics every workload reports.

Only the standard library is imported here, so the orchestrator can
load this module before it knows whether the checkout is usable.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

WORKLOADS = ("sequential", "parallel-direct", "parallel-persistent", "viewshed-service")
BATCH_WORKLOADS = WORKLOADS[:3]

#: Fractal grid size per workload; ``--toy`` shrinks every one of them.
SIZES = {
    "sequential": 65,
    "parallel-direct": 33,
    "parallel-persistent": 33,
    "viewshed-service": 129,
}
TOY_SIZES = {
    "sequential": 9,
    "parallel-direct": 9,
    "parallel-persistent": 9,
    "viewshed-service": 17,
}

#: Observer points per ``points`` request (service and batch alike).
POINTS_PER_REQUEST = 8

#: Per-layer metric -> the end-to-end metric and workload it should
#: move.  BENCHMARK.json holds names, units and directions; this text
#: has no place there.  ``_ms`` metrics are span self times (span
#: minus its child spans) per map, or per call for ``service.*``.
PER_LAYER = {
    "terrain.project_ms": "latency_p50_ms on sequential",
    "terrain.project_calls": "latency_p50_ms on sequential",
    "ordering.constraints_ms": "latency_p50_ms on sequential (most), parallel-*",
    "ordering.comparisons": "latency_p50_ms on sequential (most), parallel-*",
    "ordering.toposort_ms": "latency_p50_ms on sequential",
    "ordering.separator_ms": "latency_p50_ms on parallel-*",
    "envelope.insert_ms": "latency_p50_ms on sequential",
    "envelope.insert_calls": "latency_p50_ms on sequential",
    "envelope.insert_compiled_share": "latency_p50_ms on sequential",
    "hsr.sequential.self_ms": "latency_p50_ms on sequential",
    "hsr.parallel.self_ms": "latency_p50_ms on parallel-*",
    "hsr.assembly_ms": "latency_p50_ms on sequential",
    "hsr.ops": "latency_p50_ms on all batch workloads",
    "hsr.pct.build_ms": "latency_p50_ms on parallel-*",
    "envelope.batch_merge_ms": "latency_p50_ms on parallel-*",
    "envelope.batch_merge_calls": "latency_p50_ms on parallel-*",
    "hsr.phase2.run_ms": "latency_p50_ms, latency_tail_ms on parallel-direct",
    "envelope.stack_ms": "latency_p50_ms, latency_tail_ms on parallel-direct",
    "envelope.window_calls": "latency_p50_ms, latency_tail_ms on parallel-direct",
    "envelope.from_splice_calls": "latency_p50_ms, latency_tail_ms on parallel-direct",
    "reliability.check_flat_ms": "latency_p50_ms on parallel-*",
    "reliability.check_flat_calls": "latency_p50_ms on parallel-*",
    "reliability.faults": "failed/attempted on all",
    "persistence.commit_ms": "latency_p50_ms on parallel-persistent",
    "persistence.commit_calls": "latency_p50_ms on parallel-persistent",
    "persistence.range_lanes_ms": "latency_p50_ms on parallel-persistent",
    "persistence.chunks_allocated": "latency_p50_ms on parallel-persistent",
    "pram.phase1.work": "none (E8 predicted vs measured)",
    "pram.phase1.depth": "none (E8 predicted vs measured)",
    "pram.phase2.work": "none (E8 predicted vs measured)",
    "pram.phase2.depth": "none (E8 predicted vs measured)",
    "service.query_batch_ms": "latency_p50_ms, capacity_qps on viewshed-service",
    "service.batch_size_mean": "latency_p50_ms, capacity_qps on viewshed-service",
    "service.points_ms": "latency_tail_ms, points_p50_ms on viewshed-service",
    "service.loop_stall_ms": "latency_tail_ms, points_p50_ms on viewshed-service",
    "service.envelope_build_ms": "setup_s on viewshed-service",
    "service.cache_hit_rate": "setup_s on viewshed-service",
    "service.generator_late_p50_ms": "none (load generator honesty)",
    "service.generator_late_tail_ms": "none (load generator honesty)",
    "runtime.gc_ms": "spread of every end-to-end metric",
    "runtime.gc_collections": "spread of every end-to-end metric",
    "trace.unattributed_ms": "none (end-to-end minus top-level spans)",
    "trace.untraced_p50_ms": "none (trace overhead base)",
    "trace.traced_p50_ms": "none (trace overhead)",
    "trace.overhead_pct": "none (trace overhead)",
}


class BenchError(RuntimeError):
    """The run cannot produce a valid measurement (exit code 2)."""


def catalogue(kind: str) -> dict:
    """Metric name -> unit for ``kind`` ("end_to_end" or "per_layer"),
    as declared in the repository's ``BENCHMARK.json``."""
    path = BENCH_DIR.parent / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None
    return {m["name"]: m["unit"] for m in spec[kind]}


# -- order statistics -------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of ``values`` (0 <= q <= 1)."""
    xs = sorted(values)
    if not xs:
        raise BenchError("no samples")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    returns ``(value, percentile, n)``.  Below 33 samples that
    percentile would fall under p67, so the tail is the sample at p67
    (at p100 below 4 samples) and says so through ``percentile``."""
    xs = sorted(values)
    n = len(xs)
    idx = max(n - 11, (2 * n) // 3)
    idx = min(idx, n - 1)
    return xs[idx], 100.0 * (idx + 1) / n, n


# -- host speed -------------------------------------------------------
#
# The shared VM this benchmark was tuned on runs the same work in a
# fast and a slow state up to ~1.75x apart.  Each vCPU switches on its
# own every few seconds (their speeds do not correlate), and the mix
# drifts over minutes, so a median of raw times lands in either mode.
# A fixed piece of pure-Python work, timed in the measuring process
# right before and after each sample, reads the state the sample ran
# in.  Every end-to-end time is therefore reported at the reference
# speed, ``ms * REFERENCE_PROBE_MS / mean(probe before, probe after)``,
# except the service's query median and capacity: those are mostly
# the server's 1-ms coalescing sleep and transport, which the host's
# state does not scale.  The probe runs none of the program's code,
# so a change to the program moves these figures in full; the raw
# times are printed next to them.  Of the probes tried (an integer
# loop, a pointer chase through a list, a numpy gather, dict updates
# plus a keyed sort over 6k, 20k and 60k keys, lookups in a 300k-key
# dict), the dict-and-sort one over 6k keys tracked the slow-downs of
# sequential maps and of the service's points requests about as well
# as any: over 2-minute spans of paired samples, the medians of 15-30
# scaled samples spread 0.03-0.10 (IQR/median), against 0.11-0.40 as
# timed.  Memory-heavy work slows somewhat more than the probe does
# (log-log slope 1.1-1.4), so a run spent mostly in the slow state
# still reads up to ~15% high.

#: Keys the probe counts into a dict and sorts (~3 ms on a 2-vCPU
#: x86_64 VM).
_PROBE_KEYS = [(i, i * 7 % 13) for i in range(6000)]
#: The probe's time in that VM's fast state; scaled times read as raw
#: milliseconds of a run that stayed in it.
REFERENCE_PROBE_MS = 3.0


def speed_probe() -> float:
    """Milliseconds one fixed piece of pure-Python work takes now.

    The collector is off while it runs: the sort's key tuples would
    otherwise trigger collections whose cost grows with the heap of the
    process that probes (with 2M objects on the heap, a probe that met
    one read up to 1.6x its usual time)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict = {}
        for key in _PROBE_KEYS:
            counts[key] = counts.get(key, 0) + 1
        sorted(_PROBE_KEYS, key=lambda k: (k[1], -k[0]))
        return (time.perf_counter() - t0) * 1e3
    finally:
        if enabled:
            gc.enable()


def at_reference(ms: float, before: float, after: float) -> float:
    """``ms`` scaled to the reference speed by the probes around it."""
    return ms * 2.0 * REFERENCE_PROBE_MS / (before + after)


# -- environment facts --------------------------------------------------


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def loadavg() -> list[float]:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:  # pragma: no cover
        return []


def host_facts() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": nproc(),
        "machine": platform.machine(),
    }


# -- the measured build ---------------------------------------------------

_SKIP_DIRS = {"__pycache__"}


def _is_build_output(name: str) -> bool:
    return name.startswith("_repro_ccore.") or name.endswith((".pyc", ".so", ".o"))


def src_digest(src: Path) -> str:
    """sha256 of every source file under ``src`` (paths and bytes),
    ignoring build outputs and bytecode."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
        for name in sorted(filenames):
            if _is_build_output(name):
                continue
            path = Path(dirpath, name)
            h.update(str(path.relative_to(src)).encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def ensure_build(root: Path) -> Path:
    """Copy ``root/src`` into ``root/.bench_build/py-<digest>`` and
    compile the C core there; returns the copy's ``src`` directory.

    The copy is keyed by the source hash, so two commits never share a
    build and the checkout's own ``src`` is never written to.
    """
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"{root} holds no src/repro package to measure")
    digest = src_digest(src)[:20]
    builds = root / ".bench_build"
    final = builds / f"py-{digest}"
    if (final / "built.json").is_file():
        return final / "src"
    tmp = builds / f"tmp-{digest}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.copytree(
        src,
        tmp / "src",
        ignore=lambda _d, names: [
            n for n in names if n in _SKIP_DIRS or _is_build_output(n)
        ],
    )
    script = tmp / "src" / "repro" / "envelope" / "_ccore_build.py"
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BenchError(
            "compiling the C core failed:\n" + proc.stderr[-2000:]
        )
    (tmp / "built.json").write_text(json.dumps({"digest": digest}))
    try:
        os.rename(tmp, final)
    except OSError:  # a concurrent build won; use it
        shutil.rmtree(tmp, ignore_errors=True)
    return final / "src"


def child_env(build_src: Path) -> dict:
    """Environment for measured processes: the hash-keyed copy first
    on the path, and no ``REPRO_*`` override, so every switch the
    package reads (compiled core, persistent backend, guards, workers,
    fault injection) stays at the default that ships."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(build_src)
    env["PYTHONHASHSEED"] = "0"
    return env


def shipped_default() -> dict:
    """Facts of the imported package; raises :class:`BenchError` unless
    numpy and the compiled core loaded (such a run is invalid, not
    slow).  Call with the hash-keyed build on the path."""
    try:
        import numpy
    except ImportError:
        raise BenchError("numpy did not load") from None
    from repro.envelope import _ccore

    if not (_ccore.HAVE_CCORE and _ccore.COMPILED_DEFAULT):
        raise BenchError("the compiled core (HAVE_CCORE) did not load")
    return {"numpy": numpy.__version__, "have_ccore": True}


def out_dir(root: Path) -> Path:
    d = root / ".bench_out"
    d.mkdir(exist_ok=True)
    return d
