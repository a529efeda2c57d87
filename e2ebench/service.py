"""The viewshed-service workload: a ``repro serve`` child under an
open-loop, seeded Poisson stream of ``query`` requests plus ``points``
requests at a fixed cadence, from this one process over two
connections.

The server serves one fixed terrain to fixed observers; the seed
makes the query stream.  A run has three server lifetimes.  Each
start is one ``setup_s`` sample (spawn to the first ``pong``:
interpreter, terrain load, fingerprint, envelope build), so the
samples are spread through the run.  Every lifetime holds one
latency phase at the nominal rate; an untraced one also saturates the
server for the capacity figure.  Every request is timed from its due
time, so a server stall also delays the requests queued behind it.
"""

from __future__ import annotations

import gc
import json
import random
import select
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

from common import (
    BENCH_DIR,
    POINTS_PER_REQUEST,
    SIZES,
    TOY_SIZES,
    BenchError,
    at_reference,
    child_env,
    median,
    out_dir,
    shipped_default,
    tail,
)

#: The traffic mix below is synthetic: no recorded use of ``repro
#: serve`` exists to copy a mix from.  Each number is a measurement
#: choice, and the run prints what it implies on the host at hand.
#:
#: Nominal offered query rate of the latency phases (queries/s).  It
#: is about a tenth of the measured ``capacity_qps`` (the run prints
#: the ratio as ``utilization``), so queries rarely queue behind each
#: other and ``latency_p50_ms`` reads one query's own cost: the
#: coalescing window, ``query_batch`` and the transport.  Queueing
#: near saturation is what ``capacity_qps`` measures instead.
NOMINAL_QPS = 100.0
#: One ``points`` request every this many seconds.  A request blocks
#: the server's event loop for ~0.2-0.4 s at 129x129 (its cost hardly
#: depends on the number of observers: 4 take ~94% of what 8 take),
#: so 11-14% of the queries meet a stall (the run prints the measured
#: share).  That share sits far from the median, which stays a
#: query-only figure, and far above the ~0.75% beyond the tail, which
#: therefore measures the stall itself.  At one request per 2 s the
#: share reached 21-26% while the host ran slow, and the median rode
#: the stalls' backlog (IQR/median 0.47 over 5 seeds).
POINTS_EVERY_S = 4.0
#: The served terrain: the 129x129 fractal of seed 0, the seed that
#: ``repro serve`` uses by default.  It is the same for every run, and
#: the run's seed drives the queries, of the latency phases and of the
#: capacity runs alike.
#: A server serves one terrain, and one query's cost varies twofold
#: between fractal seeds (IQR/median 0.5 over 10 seeds), so a seeded
#: terrain made every service figure measure the luck of the draw.
TERRAIN_SEED = 0
#: The observers of the ``points`` requests are fixed the same way:
#: one request of 8 seeded observers took 213-373 ms (best of 4) over
#: the 20 sets of seeds 0-9, so with seeded observers ``points_p50_ms``
#: and the stall that sets ``latency_tail_ms`` followed the draw.
OBSERVER_SEED = 1
#: Capacity: two connections each keep SATURATE_DEPTH queries in
#: flight, so the server always has the next query waiting, and the
#: served rate is the highest rate it sustains: an offered rate above
#: it grows a backlog.  In this closed loop the tail stays at a few
#: queries' service time; an open-loop Poisson stream at the same rate
#: would queue, so the figure is an upper bound of the highest
#: open-loop rate whose tail meets a limit.  Each untraced lifetime
#: saturates the server for SATURATE_SHARE of the run, so the
#: capacity samples the host at three points of the run; the first
#: SATURATE_WARM_S of each is not counted.  A staircase search for
#: that open-loop rate (0.5-s rungs, 100-ms tail limit) spread
#: 0.06-0.23 (IQR/median of 5 seeds) on a 2-vCPU VM: a handful of
#: pass/fail rungs, each at the mercy of a few seconds of host speed.
SATURATE_DEPTH = 4
SATURATE_SHARE = 0.05
SATURATE_WARM_S = 0.25
#: The generator ran late when its median send lateness exceeds
#: LATE_P50_MS (it could not keep the rate) or its lateness tail
#: exceeds LATE_TAIL_MS (it stalled).  Latencies are timed from due
#: time, so shorter hiccups of the host only add to them honestly.  A
#: late latency phase is left out of the metrics, and a run whose
#: every latency phase ran late fails.
LATE_P50_MS = 2.0
LATE_TAIL_MS = 25.0
#: Closed-loop ``points`` requests at the end of each latency phase,
#: each between two server-side speed probes.  ``points_p50_ms`` is
#: the median of these and the open-loop ones, at the reference host
#: speed.  With 3 a lifetime (15 requests a run) the median spread
#: 0.10-0.12 (IQR/median over 10 seeds); one scaled request varies by
#: ~0.13 (its coefficient of variation), so more requests narrow it.
POINTS_BURST = 6
#: Every this many queries, one reply is kept and checked against the
#: scalar ``ViewshedSession.query`` answer.
SAMPLE_EVERY = 25
#: ``ping`` probes of the event loop, traced runs only.
PING_EVERY_S = 0.1


class Server:
    """One ``serve_entry.py`` child; ``start`` returns its setup time."""

    def __init__(self, terrain_path: Path, env: dict, summary: Path, trace: bool):
        self.cmd = [sys.executable, str(BENCH_DIR / "serve_entry.py"), "--summary",
                    str(summary)] + (["--trace"] if trace else []) + [
                    "--", str(terrain_path), "--port", "0", "--coalesce-ms", "1.0"]
        self.env = env
        self.summary = summary
        self.log = summary.with_suffix(".log")
        self.proc = None

    def start(self) -> tuple[float, float]:
        """Returns the setup time as timed and at the reference speed,
        scaled by the server's probe from before its imports and one
        right after the first ``pong``."""
        self.summary.unlink(missing_ok=True)
        t0 = time.perf_counter()
        # stderr goes to a file: nothing reads a pipe while load runs.
        with open(self.log, "w") as err:
            self.proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE, stderr=err,
                                         text=True, env=self.env)
        first = self.proc.stdout.readline().split()
        line = self.proc.stdout.readline()
        if first[:1] != ["probe"] or not line.startswith("viewshed service on "):
            self.stop()
            raise BenchError(f"server did not start: {line!r} {self.log.read_text()[-2000:]}")
        host, port = line.split()[3].rsplit(":", 1)
        self.addr = (host, int(port))
        with socket.create_connection(self.addr, timeout=30) as sock:
            replies = sock.makefile()
            sock.sendall(b'{"op": "ping"}\n')
            reply = replies.readline()
            setup = time.perf_counter() - t0
            sock.sendall(b'{"op": "speed_probe"}\n')
            after = json.loads(replies.readline())["ms"]
        if not json.loads(reply).get("pong"):
            raise BenchError(f"bad ping reply {reply!r}")
        return setup, at_reference(setup, float(first[1]), after)

    def stop(self) -> dict:
        """SIGINT, wait, and return the child's exit summary."""
        if self.proc is None:
            return {}
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.proc = None
        try:
            return json.loads(self.summary.read_text())
        except (OSError, ValueError):
            raise BenchError("server exited without a summary") from None


class Inputs:
    """Seeded query segments and the fixed observer points, in the
    terrain's frame."""

    def __init__(self, terrain, seed: int):
        self.rng = random.Random(seed)
        x0, y0, x1, y1 = terrain.xy_bounds()
        lo, hi = terrain.height_range()
        self.y = (y0, y1)
        self.z = (lo, hi * 1.2)
        rng = random.Random(OBSERVER_SEED)
        self.points = [
            [[rng.uniform(x0, x1), rng.uniform(y0, y1), rng.uniform(lo, hi * 1.2)]
             for _ in range(POINTS_PER_REQUEST)]
            for _ in range(2)
        ]

    def segment(self) -> list:
        r = self.rng
        ya, yb = sorted((r.uniform(*self.y), r.uniform(*self.y)))
        return [ya, r.uniform(*self.z), yb, r.uniform(*self.z)]


def schedule(inputs: Inputs, rate: float, seconds: float, points: bool, pings: bool):
    """Send plan ``[(due_s, conn, kind, request)]`` sorted by due time."""
    plan = []
    t, n = 0.0, 0
    while True:
        t += inputs.rng.expovariate(rate)
        if t >= seconds:
            break
        plan.append((t, n % 2, "query", {"op": "query", "segment": inputs.segment()}))
        n += 1
    if points:
        k = 0
        while 0.25 + k * POINTS_EVERY_S < seconds:
            pts = inputs.points[k % len(inputs.points)]
            due = 0.25 + k * POINTS_EVERY_S
            # Server-side speed probes just before and right after the
            # request (the second queues behind it on its connection).
            plan.append((due - 0.02, 1, "probe", {"op": "speed_probe"}))
            plan.append((due, 1, "points", {"op": "points", "points": pts}))
            plan.append((due + 0.001, 1, "probe", {"op": "speed_probe"}))
            k += 1
    if pings:
        for k in range(int(seconds / PING_EVERY_S)):
            plan.append(((k + 0.5) * PING_EVERY_S, 0, "ping", {"op": "ping"}))
    plan.sort(key=lambda e: e[0])
    return plan


def drive(addr, plan, seconds: float) -> dict:
    """Send ``plan`` open loop on two connections and collect replies.

    A single-threaded loop polls both sockets and sends each request
    as soon as it is due.  Returns every reply as ``(kind, ms from due
    time, request, reply, due, arrival)``, the send lateness, the drain
    time after the last send and the count of requests left unanswered.
    """
    # The generator's own collector pauses would read as server latency.
    gc.collect()
    gc.disable()
    socks = [socket.create_connection(addr, timeout=30) for _ in range(2)]
    try:
        return _drive(socks, plan, seconds)
    finally:
        for sock in socks:
            sock.close()
        gc.enable()


def _drive(socks, plan, seconds: float) -> dict:
    clock = time.perf_counter
    pending = [deque(), deque()]
    buffers = [b"", b""]
    replies, lateness = [], []
    outstanding = stalls = 0
    start = clock() + 0.02
    give_up = start + seconds + 30
    nxt = 0
    last_send = start
    while nxt < len(plan) or outstanding:
        now = clock()
        while nxt < len(plan) and start + plan[nxt][0] <= now:
            due_s, c, kind, req = plan[nxt]
            due = start + due_s
            socks[c].sendall(json.dumps(req).encode() + b"\n")
            last_send = clock()
            lateness.append((last_send - due) * 1e3)
            pending[c].append((due, kind, req))
            outstanding += 1
            stalls += kind == "points"
            nxt += 1
            now = last_send
        if now > give_up:
            break
        # Poll without blocking: a generator that sleeps pays the VM's
        # wake-up latency on every reply, and that noise would read as
        # server latency.  While a points request holds the server's
        # loop, nothing can come back soon, so the generator blocks
        # until its next send rather than contend with the server.
        wait = 0.0
        if stalls:
            wait = start + plan[nxt][0] - now if nxt < len(plan) else 0.05
        readable, _, _ = select.select(socks, [], [], max(wait, 0.0))
        arrival = clock()
        for c, sock in enumerate(socks):
            if sock not in readable:
                continue
            data = sock.recv(1 << 16)
            if not data:
                raise BenchError("the server closed a connection")
            *lines, buffers[c] = (buffers[c] + data).split(b"\n")
            for line in lines:
                due, kind, req = pending[c].popleft()
                replies.append((kind, (arrival - due) * 1e3, req, json.loads(line), due, arrival))
                outstanding -= 1
                stalls -= kind == "points"
    last_reply = max((rep[5] for rep in replies), default=last_send)
    return {
        "replies": replies,
        "missing": outstanding + len(plan) - nxt,
        "lateness_ms": lateness,
        "drain_ms": max(last_reply - last_send, 0.0) * 1e3,
    }


def lat(phase: dict, kind: str) -> list:
    return [ms for k, ms, _req, rep, _due, _t in phase["replies"] if k == kind and rep.get("ok")]


def late_tail(phase: dict) -> float:
    return tail(phase["lateness_ms"])[0] if phase["lateness_ms"] else 0.0


def ran_late(phase: dict) -> bool:
    late = phase["lateness_ms"]
    return bool(late) and (median(late) > LATE_P50_MS or late_tail(phase) > LATE_TAIL_MS)


def saturate(addr, inputs: Inputs, seconds: float) -> tuple[int, float, dict]:
    """Keep SATURATE_DEPTH queries in flight on each of two connections
    for ``seconds``; returns the replies counted, the seconds they were
    counted over, and the replies in :func:`drive`'s phase format."""
    gc.collect()
    gc.disable()
    socks = [socket.create_connection(addr, timeout=30) for _ in range(2)]
    clock = time.perf_counter
    pending = [deque(), deque()]
    buffers = [b"", b""]
    replies = []

    def send(c: int) -> None:
        req = {"op": "query", "segment": inputs.segment()}
        socks[c].sendall(json.dumps(req).encode() + b"\n")
        pending[c].append((clock(), req))

    start = clock()
    stop = start + seconds
    try:
        for c in range(2):
            for _ in range(SATURATE_DEPTH):
                send(c)
        while pending[0] or pending[1]:
            readable, _, _ = select.select(socks, [], [], 30)
            if not readable:
                raise BenchError("the server stopped answering")
            arrival = clock()
            for c, sock in enumerate(socks):
                if sock not in readable:
                    continue
                data = sock.recv(1 << 16)
                if not data:
                    raise BenchError("the server closed a connection")
                *lines, buffers[c] = (buffers[c] + data).split(b"\n")
                for line in lines:
                    sent, req = pending[c].popleft()
                    replies.append(("query", (arrival - sent) * 1e3, req, json.loads(line),
                                    sent, arrival))
                    if arrival < stop:
                        send(c)
    finally:
        for sock in socks:
            sock.close()
        gc.enable()
    counted = sum(start + SATURATE_WARM_S <= r[5] <= stop for r in replies)
    phase = {"replies": replies, "missing": 0, "lateness_ms": [], "drain_ms": 0.0}
    return counted, seconds - SATURATE_WARM_S, phase


def open_loop_points(phase: dict) -> list:
    """The phase's open-loop points requests, as ``(due, arrival, ms,
    probe before, probe after)``."""
    reps = phase["replies"]
    probes = [rep["ms"] for k, _ms, _r, rep, _due, _t in reps if k == "probe"]
    points = sorted((due, t, ms) for k, ms, _r, _rep, due, t in reps if k == "points")
    # Conn 1 answers in send order: probe, points, probe per request.
    # The closed-loop burst, which has no such probes, comes last.
    return [(*pt, probes[2 * i], probes[2 * i + 1])
            for i, pt in enumerate(points[: len(probes) // 2])]


def stall_scaled(phase: dict) -> list:
    """The phase's query latencies, each one that overlaps a points
    request scaled to the reference host speed by the probes around
    that request.  A stall is the points request's compute, so those
    queries' waits follow the server's speed; the others are mostly
    the coalescing window and transport and stay as timed."""
    stalls = open_loop_points(phase)
    out = []
    for k, ms, _r, rep, due, t in phase["replies"]:
        if k != "query" or not rep.get("ok"):
            continue
        for a, b, _ms, before, after in stalls:
            if t > a and due < b:
                ms = at_reference(ms, before, after)
                break
        out.append(ms)
    return out


def stall_share(phase: dict) -> float:
    """Share of a phase's queries due while a ``points`` request was
    outstanding (from its due time to its reply)."""
    reps = phase["replies"]
    stalls = [(due, t) for k, _ms, _r, _rep, due, t in reps if k == "points"]
    dues = [due for k, _ms, _r, _rep, due, _t in reps if k == "query"]
    hit = sum(any(a <= d <= b for a, b in stalls) for d in dues)
    return hit / len(dues) if dues else 0.0


def run_service(args, build_src: Path) -> dict:
    sys.path.insert(0, str(build_src))
    from repro.service import ViewshedSession
    from repro.service.session import EnvelopeCache
    from repro.terrain import generate_terrain, load_terrain_json, save_terrain_json

    size = (TOY_SIZES if args.toy else SIZES)["viewshed-service"]
    out = out_dir(args.root)
    terrain_path = out / f"terrain-{size}-{args.seed}.json"
    terrain = generate_terrain("fractal", size=size, seed=TERRAIN_SEED)
    save_terrain_json(terrain, terrain_path)
    inputs = Inputs(terrain, args.seed)
    n_edges = terrain.n_edges
    del terrain  # keep the generator's heap small while it drives load
    env = child_env(build_src)

    phase_s = 1.0 if args.toy else 0.14 * args.seconds  # three points requests each
    saturate_s = 0.5 if args.toy else SATURATE_SHARE * args.seconds
    # Untraced: three lifetimes, each with a capacity run.  Traced: one
    # untraced lifetime, then one traced lifetime of twice the length
    # with pings probing the event loop; no capacity run.
    if args.trace:
        plan = [(False, phase_s), (True, 2 * phase_s)]
    else:
        plan = [(False, phase_s)] * 3

    setups, raw_setups, phases, rss, summaries, saturated = [], [], [], [], [], []
    for i, (traced, seconds) in enumerate(plan):
        server = Server(terrain_path, env, out / f"server-{args.seed}-{i}.json", traced)
        try:
            raw, scaled = server.start()
            setups.append(scaled)
            raw_setups.append(raw)
            warm = schedule(inputs, 50.0, 0.4, False, False)
            drive(server.addr, warm, 0.4)
            if not traced:
                saturated.append(saturate(server.addr, inputs, saturate_s))
            load = schedule(inputs, NOMINAL_QPS, seconds, True, traced)
            phase = drive(server.addr, load, seconds)
            phase["traced"] = traced
            burst, phase["points_scaled"] = points_burst(server.addr, inputs)
            phase["points_raw"] = [r[1] for r in burst]
            phase["replies"] += burst
            phase["stats"] = stats(server.addr)
            phases.append(phase)
        finally:
            summary = server.stop()
        rss.append(summary["rss_mb"])
        summaries.append(summary)

    # -- output checks (outside every timed phase) ---------------------
    session = ViewshedSession(load_terrain_json(terrain_path), cache=EnvelopeCache())
    terrain_path.unlink()
    failures, attempted, failed = [], 0, 0
    expected_points = {}
    for ph in phases + [sat[2] for sat in saturated]:
        attempted += len(ph["replies"]) + ph["missing"]
        failed += ph["missing"]
        if ph["missing"]:
            failures.append(f"{ph['missing']} requests got no reply")
        n_query = 0
        for kind, _ms, req, rep, _due, _t in ph["replies"]:
            if not rep.get("ok"):
                failed += 1
                failures.append(f"{kind} refused: {rep}")
                continue
            if kind == "query":
                n_query += 1
                if n_query % SAMPLE_EVERY:
                    continue
                want = session.query(req["segment"])
                parts = [[p.ya, p.yb] for p in want.parts]
                if rep["parts"] != parts or rep["ops"] != want.ops:
                    failed += 1
                    failures.append(f"query {req['segment']} answered {rep} != {parts}")
            elif kind == "points":
                key = json.dumps(req["points"])
                if key not in expected_points:
                    expected_points[key] = [session.point_visible(p) for p in req["points"]]
                if rep["visible"] != expected_points[key]:
                    failed += 1
                    failures.append(f"points answered {rep['visible']} != "
                                    f"{expected_points[key]}")

    untraced = [p for p in phases if not p["traced"]]
    on_time = [p for p in untraced if not ran_late(p)]
    if not on_time:
        failed += 1
        attempted += 1
        failures.append("the generator ran late in every latency phase")
        on_time = untraced
    q = [ms for p in on_time for ms in lat(p, "query")]
    q_scaled = [ms for p in on_time for ms in stall_scaled(p)]
    # Every points request at the reference host speed: the closed-loop
    # bursts and the open-loop ones, at nine points of the run.
    pts = [ms for p in untraced for ms in p["points_scaled"]] + [
        at_reference(ms, before, after)
        for p in untraced for _due, _t, ms, before, after in open_loop_points(p)]
    late = [x for p in untraced for x in p["lateness_ms"]]
    tail_ms, tail_pct, n = tail(q_scaled)
    e2e = {
        "setup_s": median(setups),
        "latency_p50_ms": median(q),
        "latency_tail_ms": tail_ms,
        "points_p50_ms": median(pts),
        "capacity_qps": sum(n for n, _s, _p in saturated) / sum(t for _n, t, _p in saturated),
        "peak_rss_mb": median(rss),
    }
    res = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "e2e": e2e,
        "notes": {
            "latency_tail": f"p{tail_pct:.2f} of n={n} queries",
            "points": f"n={len(pts)} requests",
            "raw": f"setup {median(raw_setups):.4f} s, latency_tail {tail(q)[0]:.2f} ms, points_p50 "
                   f"{median([ms for p in untraced for ms in p['points_raw']]):.2f} ms as timed",
            "stall_share": f"{median([stall_share(p) for p in untraced]):.3f} of queries due "
                           f"during a points request (tail sits at {1 - tail_pct / 100:.4f})",
            "setup_probes": len(setups),
            "phase_p50_ms": [round(median(lat(p, "query")), 3) for p in phases],
            "generator_late_ms": f"p50 {median(late):.3f}, tail {tail(late)[0]:.3f}; "
                                 f"{len(untraced) - len(on_time)} late phase(s) left out",
            "utilization": f"{NOMINAL_QPS:.0f}/s nominal = {NOMINAL_QPS / e2e['capacity_qps']:.3f}"
                           f" of capacity_qps",
            "capacity": f"{[round(n / t, 1) for n, t, _p in saturated]} queries/s per lifetime",
            "n_edges": n_edges,
        },
        "facts": shipped_default(),
    }
    if args.trace:
        res["layers"] = service_layers(phases, summaries)
        res["span_files"] = summaries[-1].get("span_files", [])
    return res


def points_burst(addr, inputs: Inputs) -> tuple[list, list]:
    """POINTS_BURST points requests, each sent when the last returned,
    with a server-side speed probe before the first and after each;
    returns them in :func:`drive`'s reply format, and their times at
    the reference host speed."""
    out, scaled = [], []
    with socket.create_connection(addr, timeout=30) as sock:
        replies = sock.makefile()

        def probe() -> float:
            sock.sendall(b'{"op": "speed_probe"}\n')
            return json.loads(replies.readline())["ms"]

        before = probe()
        for k in range(POINTS_BURST):
            req = {"op": "points", "points": inputs.points[k % len(inputs.points)]}
            due = time.perf_counter()
            sock.sendall(json.dumps(req).encode() + b"\n")
            rep = json.loads(replies.readline())
            now = time.perf_counter()
            out.append(("points", (now - due) * 1e3, req, rep, due, now))
            after = probe()
            scaled.append(at_reference((now - due) * 1e3, before, after))
            before = after
    return out, scaled


def stats(addr) -> dict:
    with socket.create_connection(addr, timeout=30) as sock:
        sock.sendall(b'{"op": "stats"}\n')
        return json.loads(sock.makefile().readline())


def service_layers(phases: list, summaries: list) -> dict:
    untraced, traced = phases[0], phases[1]
    summary = summaries[1]
    tr = summary["trace"]

    def per_call(name):
        calls = tr["calls"].get(name, 0)
        return tr["self_ms"].get(name, 0.0) / calls if calls else 0.0

    st = traced["stats"]
    cache = st["cache"]
    lookups = cache["hits"] + cache["misses"]
    q_un = median(lat(untraced, "query"))
    q_tr = median(lat(traced, "query"))
    late = traced["lateness_ms"]
    layers = {
        "service.query_batch_ms": per_call("service.query_batch"),
        "service.batch_size_mean": st["server"]["coalesced"] / max(st["server"]["batches"], 1),
        "service.points_ms": per_call("service.points"),
        "service.loop_stall_ms": sum(lat(traced, "ping")) / max(len(lat(traced, "ping")), 1),
        "service.envelope_build_ms": tr["self_ms"].get("service.envelope", 0.0),
        "service.cache_hit_rate": cache["hits"] / lookups if lookups else 0.0,
        "service.generator_late_p50_ms": median(late),
        "service.generator_late_tail_ms": tail(late)[0],
        "terrain.project_ms": tr["self_ms"].get("terrain.project", 0.0),
        "terrain.project_calls": tr["calls"].get("terrain.project", 0),
        "envelope.batch_merge_ms": tr["self_ms"].get("envelope.batch_merge", 0.0),
        "envelope.batch_merge_calls": tr["calls"].get("envelope.batch_merge", 0),
        "reliability.check_flat_ms": tr["self_ms"].get("reliability.check_flat", 0.0),
        "reliability.check_flat_calls": tr["calls"].get("reliability.check_flat", 0),
        "runtime.gc_ms": summary["gc_ms"],
        "runtime.gc_collections": summary["gc_collections"],
        "trace.untraced_p50_ms": q_un,
        "trace.traced_p50_ms": q_tr,
        "trace.overhead_pct": 100.0 * (q_tr / q_un - 1.0),
    }
    return layers
