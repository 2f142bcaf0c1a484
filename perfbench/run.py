"""End-to-end serving benchmark of repro-teams (see README.md).

    python3 perfbench/run.py --workload warm-greedy --seed 1 --seconds 30 --trace 0

Builds the program's warm indexes from source, launches the real
``repro-teams serve`` process on a Unix socket, drives one workload from
this single-threaded client, checks every answer against an in-process
reference engine, and prints one JSON object as the last stdout line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics (from
a run with benchmark-owned spans) with ``--trace 1``.

Exit codes: 0 on a measured, correct run; 1 when an answer differs from
the reference, an invariant fails or the run is invalid; 2 on usage
errors or when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Full set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3
#: Closed-loop solves per session before any measurement.
WARMUP_OPS = 8
#: Closed-loop solve latency samples a scored run must carry (>= 10
#: beyond p95).
MIN_SOLVE_SAMPLES = 200
#: A run whose open-loop generator sent its p95 request later than this
#: after the scheduled time is invalid, not scored.
LATE_P95_BOUND_MS = 20.0
#: ``--trace 1``: shares of ``--seconds`` spent, untraced, in the closed
#: loop that ``loadgen.trace_overhead`` compares against and in the open
#: loop; the traced session takes the rest.
UNTRACED_CLOSED_SHARE = 0.25
OPEN_SHARE = 0.25
#: The solver, oracle and materialize spans must account for the mean
#: served solve on warm-greedy within this share.
ATTRIBUTION_TOLERANCE = 0.10
#: Span name prefixes whose self times make up a warm greedy solve: the
#: sweep (scoring), the distance oracle and path materialisation.
ATTRIBUTED = ("solvers.greedy_sweep", "solvers.materialize", "oracle.")
#: Leading operations of a session the second-hash-seed reference
#: replays: enough to measure the share of hash-seed-dependent answers,
#: few enough to leave the server-seed reference a core of its own.
HASH_CHECK_OPS = 150
#: Answers that are not failures although they carry an ``error_kind``.
ANSWER_KINDS = (None, "uncoverable", "intractable")


class Invalid(Exception):
    """The run cannot be scored: wrong answer, broken invariant, lagging client."""


def bootstrap() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "cli.py").is_file():
        print(f"perfbench: program sources not found under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        raise SystemExit(2)


def hash_seeds(seed: int) -> tuple[int, int]:
    """String-hash seeds ``(served, other)`` of a run.

    The server, and the reference that checks it byte for byte, run with
    ``served``: a seed like any a deployed server draws at start, varied
    with the workload seed.  A second reference runs with ``other`` to
    measure how many answers depend on the hash seed at all.
    """
    served = random.Random(seed).randrange(1, 2**32 - 1)
    return served, served + 1


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# one session: a running server driven through its phases
# ----------------------------------------------------------------------
class Session:
    """Operations sent to one server process and what its checks found."""

    def __init__(self, workload, stream, schedule) -> None:
        self.workload = workload
        self.stream = stream
        self.schedule = schedule
        self.ops = []
        self.window_s = 0.0
        self.closed_answered = 0
        self.tracebacks = 0
        self.stats: dict = {}
        self.peak_rss_mb = 0.0
        self.responses: list = []  # parsed response per op (None = failed)
        self.solves_checked = 0
        self.hash_dependent = 0
        self.first_hash_dependent: str | None = None

    def next_ops(self):
        """(warm-up solves, measured ops): both draw on one request stream."""
        from workloads import SOLVES_PER_WRITE

        solves = itertools.count()
        writes = itertools.count()
        position = itertools.count()

        def next_solve():
            return "solve", self.stream.line(next(solves))

        if self.schedule is None:
            return next_solve, next_solve

        def next_op():
            if next(position) % (SOLVES_PER_WRITE + 1) == SOLVES_PER_WRITE:
                return "mutate", self.schedule.line(next(writes))
            return next_solve()

        return next_solve, next_op

    def drive(self, server, closed_s: float, open_s: float, seed: int) -> None:
        from loadgen import Client
        from workloads import arrivals

        workload = self.workload
        client = Client(str(server.sock), workload.connections)
        warm, measured = self.next_ops()
        try:
            client.closed_loop(warm, "warmup", count=WARMUP_OPS)
            self.window_s, self.closed_answered = client.closed_loop(
                measured, "closed", seconds=closed_s
            )
            if open_s > 0:
                offsets = arrivals(workload.open_rate, open_s, seed)
                client.open_loop(measured, offsets, "open")
        finally:
            client.close()
        self.ops = client.ops
        self.stats = server.op({"op": "stats"})
        self.peak_rss_mb = server.peak_rss_mb()

    @property
    def throughput(self) -> float:
        return self.closed_answered / self.window_s

    def measured(self, kind: str | None = None, phase: str | None = None) -> list:
        """(op, parsed response) pairs outside the warm-up."""
        return [
            (op, data)
            for op, data in zip(self.ops, self.responses)
            if op.phase != "warmup"
            and (kind is None or op.kind == kind)
            and (phase is None or op.phase == phase)
        ]

    # ------------------------------------------------------------------
    def check(self, snapshot: Path, seeds: tuple[int, int]) -> None:
        """Compare every answer with the reference; check the invariants.

        ``seeds`` are the :func:`hash_seeds` of the run: the reference
        runs with the server's and, to count the answers that depend on
        the hash seed, over the first :data:`HASH_CHECK_OPS` operations
        with the other.
        """
        from harness import server_env
        from reference import replay

        from repro.api.messages import TeamResponse

        ops = self.ops
        sequence = [(op.kind, op.line) for op in ops]
        reference, other = replay(
            str(snapshot),
            [
                (sequence, server_env(ROOT, seeds[0])),
                (sequence[:HASH_CHECK_OPS], server_env(ROOT, seeds[1])),
            ],
        )
        builds = 0
        for index, (op, (want, version)) in enumerate(zip(ops, reference)):
            where = f"op {index} ({op.phase} {op.kind}) {op.line}"
            if op.kind == "solve" and index < len(other):
                self._count_hash_dependence(where, seeds, want, other[index][0])
            data = None if op.raw is None else json.loads(op.raw)
            self.responses.append(data)
            if data is None:
                continue
            if op.kind == "mutate":
                if data.get("ok") and data["primary_version"] != version:
                    raise Invalid(
                        f"{where}: primary at version {data['primary_version']}, "
                        f"reference at {version}"
                    )
                if data.get("ok") and data["replica_version"] != data["primary_version"]:
                    raise Invalid(f"{where}: replicas lag the primary: {data}")
                continue
            if "op" in data or data.get("error_kind") not in ANSWER_KINDS:
                continue  # a typed failure, tallied by `failed`
            got = TeamResponse.from_dict(data).canonical_json()
            if got != want:
                raise Invalid(
                    f"{where}: served answer differs from the reference\n"
                    f"  served:    {got}\n  reference: {want}"
                )
            if self.schedule is not None and data.get("network_version") != version:
                raise Invalid(
                    f"{where}: answered at network version "
                    f"{data.get('network_version')}, reference at {version}"
                )
            builds += data["timing"]["oracle_builds"]
        counters = self.stats["counters"]
        received = counters.get("requests_received", 0)
        answered = sum(
            counters.get(k, 0)
            for k in ("answered_found", "answered_no_team", "answered_error")
        )
        rejected = counters.get("rejected_overloaded", 0) + counters.get(
            "rejected_deadline", 0
        )
        if received != answered + rejected:
            raise Invalid(
                f"stats: requests_received {received} != answered {answered} "
                f"+ rejected {rejected}"
            )
        sent = sum(1 for op in ops if op.kind == "solve")
        if received != sent:
            raise Invalid(f"stats: requests_received {received} != solves sent {sent}")
        if self.schedule is None and builds:
            raise Invalid(f"{self.workload.name} paid {builds} oracle builds, expected 0")
        backend = self.stats["backend"]
        if self.schedule is not None:
            if backend["replica_version"] != backend["primary_version"]:
                raise Invalid(f"replicas end behind the primary: {backend}")
            if backend["snapshot_fallbacks"]:
                raise Invalid(f"replication fell back to snapshots: {backend}")

    def failed(self, op, data) -> bool:
        if data is None:
            return True
        if op.kind == "mutate":
            return not data.get("ok")
        return "op" in data or data.get("error_kind") not in ANSWER_KINDS

    def first_failure(self) -> str | None:
        """The first failed operation and what came back, if any failed."""
        for index, (op, data) in enumerate(zip(self.ops, self.responses)):
            if self.failed(op, data):
                answer = op.error if data is None else op.raw.decode()[:500]
                return f"op {index} ({op.phase} {op.kind}) {op.line}: {answer}"
        return None

    def tally(self) -> dict:
        """``{phase: {"sent", "answered", "failed"}}`` over every phase."""
        out: dict = {}
        for op, data in zip(self.ops, self.responses):
            entry = out.setdefault(op.phase, {"sent": 0, "answered": 0, "failed": 0})
            entry["sent"] += 1
            if self.failed(op, data):
                entry["failed"] += 1
            else:
                entry["answered"] += 1
        return out

    def solve_latencies_ms(self, phase: str = "closed") -> list[float]:
        """Solve latencies; open-loop ones count from the scheduled send."""
        return [
            (op.done - op.scheduled) * 1e3
            for op, _ in self.measured("solve", phase)
        ]

    def late_ms(self) -> list[float]:
        return [(op.sent - op.scheduled) * 1e3 for op, _ in self.measured(phase="open")]


    def _count_hash_dependence(self, where, seeds, want: str, alt: str) -> None:
        """Tally one solve's reference answers under the two hash seeds."""
        self.solves_checked += 1
        if alt == want:
            return
        self.hash_dependent += 1
        if self.first_hash_dependent is None:
            at = next(
                (i for i, (a, b) in enumerate(zip(want, alt)) if a != b),
                min(len(want), len(alt)),
            )
            self.first_hash_dependent = where + "".join(
                f"\n  PYTHONHASHSEED={seed}: ...{text[max(at - 60, 0):at + 20]}..."
                for seed, text in zip(seeds, (want, alt))
            )

    def hash_report(self) -> str:
        text = (
            f"{self.hash_dependent} of {self.solves_checked} answers differ between "
            "the two string-hash seeds"
        )
        if self.first_hash_dependent is not None:
            text += f"; first: {self.first_hash_dependent}"
        return text


def run_session(server, workload, schedule, snapshot, closed_s, open_s, args):
    """Drive, stop and check one server; always stops the process."""
    from workloads import RequestStream

    session = Session(workload, RequestStream(args.network, args.seed), schedule)
    try:
        session.drive(server, closed_s, open_s, args.seed)
    finally:
        session.tracebacks += server.stop()
    session.check(snapshot, hash_seeds(args.seed))
    return session


# ----------------------------------------------------------------------
# the two run kinds
# ----------------------------------------------------------------------
def end_to_end(args, workload, schedule, work: Path) -> tuple:
    from harness import setup

    totals = []
    server = None
    discarded_tracebacks = 0
    served_seed = hash_seeds(args.seed)[0]
    for i in range(SETUPS):
        if server is not None:
            discarded_tracebacks += server.stop()
        server, engine, store, times = setup(
            ROOT, args.network, workload, work / f"setup{i}", served_seed
        )
        totals.append(times.total_s)
    session = run_session(server, workload, schedule, store, args.seconds, 0.0, args)
    session.tracebacks += discarded_tracebacks
    latencies = session.solve_latencies_ms()
    validate(session, latencies, args)
    tally = session.tally()
    attempted, failed = attempts(tally, session)
    metrics = {
        "setup_s": (statistics.median(totals), "s"),
        "throughput_ops_s": (session.throughput, "ops/s"),
        "query_p50_ms": (statistics.median(latencies), "ms"),
        "query_p95_ms": (percentile(latencies, 0.95), "ms"),
        "success_ratio": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (session.peak_rss_mb, "MiB"),
    }
    return engine, [session], attempted, failed, metrics


def attempts(tally: dict, session: Session) -> tuple[int, int]:
    measured = [v for phase, v in tally.items() if phase != "warmup"]
    attempted = sum(v["sent"] for v in measured)
    failed = sum(v["failed"] for v in measured) + session.tracebacks
    return attempted, failed


def validate(session: Session, latencies: list[float], args) -> None:
    late = session.late_ms()
    if late and percentile(late, 0.95) > LATE_P95_BOUND_MS:
        raise Invalid(
            f"open-loop generator lagged: late p95 {percentile(late, 0.95):.2f} ms "
            f"> {LATE_P95_BOUND_MS} ms"
        )
    if latencies and args.scale == "medium" and len(latencies) < MIN_SOLVE_SAMPLES:
        raise Invalid(
            f"only {len(latencies)} solve latency samples (< {MIN_SOLVE_SAMPLES})"
        )


def per_layer(args, workload, schedule, work: Path) -> tuple:
    from harness import launch, setup
    from spans import Recorder, layer_table, merge
    from traced_serve import _elapsed

    from repro.api import engine as engine_module
    from repro.graph import distance
    from repro.storage.store import SnapshotStore

    client_spans = Recorder()
    build = client_spans.timed("oracle.build", distance.build_oracle, sample=_elapsed)
    engine_module.build_oracle, original_build = build, engine_module.build_oracle
    client_spans.wrap(SnapshotStore, "save", "storage.save")
    try:
        server, engine, store, times = setup(
            ROOT, args.network, workload, work / "setup", hash_seeds(args.seed)[0]
        )
    finally:
        engine_module.build_oracle = original_build
        client_spans.unwrap()
    for name, value in (
        ("setup.index_build", times.index_build_s),
        ("setup.snapshot_save", times.snapshot_save_s),
        ("setup.server_ready", times.server_ready_s),
    ):
        client_spans.record(name, value)
    closed_s = args.seconds * UNTRACED_CLOSED_SHARE
    open_s = args.seconds * OPEN_SHARE if workload.open_rate else 0.0
    untraced = run_session(server, workload, schedule, store, closed_s, open_s, args)
    trace_dir = work / "trace"
    trace_dir.mkdir()
    traced_server = launch(
        ROOT, workload, store, work / "traced.sock", work / "traced.log",
        hash_seeds(args.seed)[0], trace_dir,
    )
    session = run_session(
        traced_server, workload, schedule, store,
        args.seconds - closed_s - open_s, 0.0, args,
    )
    for op in session.ops:
        client_spans.record(f"loadgen.{op.kind}_round_trip", op.done - op.sent)
    server_spans = json.loads((trace_dir / "server.json").read_text())
    worker_spans = [
        json.loads(path.read_text()) for path in sorted(trace_dir.glob("worker-*.json"))
    ]
    if workload.serve_args and not worker_spans:
        raise Invalid("no span aggregates came back from the pool workers")
    server_side = merge([server_spans, *worker_spans])
    merged = merge([client_spans.snapshot(), server_side])
    tally = session.tally()
    attempted, failed = attempts(tally, session)
    attempted_u, failed_u = attempts(untraced.tally(), untraced)
    metrics = layer_metrics(
        workload, session, untraced, engine, store, times, merged, server_spans
    )
    validate(untraced, [], args)
    print_layer_table(layer_table(merged))
    accounted = check_attribution(workload, server_side)
    if accounted is not None:
        print(f"attribution: {accounted}")
    units = declared_units("per_layer")
    if set(units) != set(metrics):
        raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: {units}")
    return (
        engine, [untraced, session], attempted + attempted_u, failed + failed_u,
        {name: (value, units[name]) for name, value in metrics.items()},
    )


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def declared_units(section: str) -> dict[str, str]:
    """``{metric: unit}`` of one BENCHMARK.json section."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def layer_metrics(workload, session, untraced, engine, store, times, merged, server_spans):
    """Every per-layer metric of BENCHMARK.json for one traced session."""
    from repro.api.messages import TeamResponse

    spans, samples, counts = merged["spans"], merged["samples"], merged["counts"]
    empty = [0, 0.0, 0.0, 0.0]
    solves = [
        (op, data) for op, data in session.measured("solve")
        if data is not None and not session.failed(op, data)
    ]
    writes = [
        (op, data) for op, data in session.measured("mutate")
        if data is not None and data.get("ok")
    ]
    wire = [data["timing"] for _, data in solves]
    solved = max(spans.get("solvers.solve", empty)[0], 1)
    n_writes = len(writes)

    # Pair each served solve with the server's backend span for it: per
    # request, the k-th response to arrive goes with the k-th backend
    # call to finish (perf_counter is one system-wide monotonic clock).
    backend: dict[str, list[tuple[float, float]]] = {}
    for key, elapsed, end in server_spans["samples"].get("server.backend_solve", []):
        backend.setdefault(key, []).append((end, elapsed))
    served: dict[str, list] = {}
    for op, data in zip(session.ops, session.responses):
        if op.kind == "solve" and data is not None and "op" not in data:
            key = TeamResponse.from_dict(data).request.to_json()
            served.setdefault(key, []).append(op)
    outside = []
    for key, key_ops in served.items():
        calls = sorted(backend.get(key, []))
        for op, (_, elapsed) in zip(sorted(key_ops, key=lambda o: o.done), calls):
            if op.phase != "warmup":
                outside.append((op.done - op.sent - elapsed) * 1e3)

    post_write = []
    previous = None
    for op, data in zip(session.ops, session.responses):
        if op.kind == "solve" and previous == "mutate" and data and "timing" in data:
            post_write.append(data["timing"]["solve_seconds"] * 1e3)
        previous = op.kind
    frames = server_spans["samples"].get("replication.delta_since", [])
    counters = session.stats["counters"]
    mutate_ms = [(op.done - op.sent) * 1e3 for op, _ in writes]
    late = untraced.late_ms()
    open_ms = untraced.solve_latencies_ms("open")
    snapshot_file = max(store.glob("*.snap"), key=lambda p: p.stat().st_mtime)
    sweep = spans.get("solvers.greedy_sweep", empty)
    metrics = {
        "server.overhead_p50_ms": _p50(
            [(op.done - op.sent) * 1e3 - data["timing"]["solve_seconds"] * 1e3
             for op, data in solves]
        ),
        "server.outside_backend_p50_ms": _p50(outside),
        "server.requests_received": counters.get("requests_received", 0),
        "server.rejected": counters.get("rejected_overloaded", 0)
        + counters.get("rejected_deadline", 0),
        "pool.solve_many_p50_ms": _p50(
            [s[0] * 1e3 for s in samples.get("pool.solve_many", [])]
        ),
        "pool.ipc_p50_ms": _p50([s[1] * 1e3 for s in samples.get("pool.solve_many", [])]),
        "pool.sync_p50_ms": _p50([s * 1e3 for s in samples.get("pool.sync", [])]),
        "pool.snapshot_fallbacks": session.stats["backend"].get("snapshot_fallbacks", 0),
        "replication.delta_since_p50_ms": _p50([s[0] * 1e3 for s in frames]),
        "replication.frame_bytes_per_write": (
            sum(s[1] for s in frames) / n_writes if n_writes else 0.0
        ),
        "network.apply_ms_per_op": (
            server_spans["spans"].get("network.apply", empty)[1] * 1e3
            / max(server_spans["spans"].get("network.apply", empty)[0], 1)
        ),
        "mutate_p50_ms": _p50(mutate_ms),
        "mutate_p95_ms": percentile(mutate_ms, 0.95) if mutate_ms else 0.0,
        "engine.solve_p50_ms": _p50([t["solve_seconds"] * 1e3 for t in wire]),
        "engine.oracle_builds": sum(t["oracle_builds"] for t in wire),
        "engine.zero_build_ratio": (
            sum(1 for t in wire if t["oracle_builds"] == 0) / len(wire) if wire else 0.0
        ),
        "engine.post_write_solve_p50_ms": _p50(post_write),
        "engine.snapshot_load_s": _p50(samples.get("engine.snapshot_load", [])),
        "solvers.greedy_sweep_ms_per_solve": sweep[1] * 1e3 / solved,
        "solvers.scoring_self_ms_per_solve": sweep[2] * 1e3 / solved,
        "solvers.node_cost_calls_per_solve": counts.get("solvers.node_cost", 0) / solved,
        "solvers.materialize_ms_per_solve": (
            spans.get("solvers.materialize", empty)[1] * 1e3 / solved
        ),
        "oracle.distances_from_calls_per_solve": (
            spans.get("oracle.distances_from", empty)[0] / solved
        ),
        "oracle.distances_from_ms_per_solve": (
            spans.get("oracle.distances_from", empty)[1] * 1e3 / solved
        ),
        "oracle.build_count": spans.get("oracle.build", empty)[0],
        "oracle.build_s": spans.get("oracle.build", empty)[1],
        "oracle.incremental_ms_per_write": (
            spans.get("oracle.incremental", empty)[1] * 1e3 / n_writes if n_writes else 0.0
        ),
        "oracle.label_entries": label_entries(engine),
        "storage.snapshot_bytes": snapshot_file.stat().st_size,
        "storage.snapshot_save_s": spans.get("storage.save", empty)[1],
        "setup.index_build_s": times.index_build_s,
        "setup.snapshot_save_s": times.snapshot_save_s,
        "setup.server_ready_s": times.server_ready_s,
        "loadgen.open_p50_ms": _p50(open_ms),
        "loadgen.open_p95_ms": percentile(open_ms, 0.95) if open_ms else 0.0,
        "loadgen.late_p95_ms": percentile(late, 0.95) if late else 0.0,
        "loadgen.trace_overhead": untraced.throughput / session.throughput,
        "solvers.hash_seed_dependent_share": (
            session.hash_dependent / max(session.solves_checked, 1)
        ),
    }
    return metrics


def check_attribution(workload, server_side: dict) -> str | None:
    """On warm-greedy: the solver, oracle and materialize spans must
    account for the served solve.

    ``server_side`` holds the span aggregates of the server and its
    workers.  The self times of the :data:`ATTRIBUTED` spans, per solver
    call, are compared with the mean wire ``solve_seconds`` of the same
    calls; the solver adapter's own work around the sweep (scoring the
    chosen team, explaining it, timing it) is in neither part of the sum.
    Both sides are means because span aggregates are sums.
    """
    samples = server_side["samples"].get("solvers.solve", [])
    if workload.name != "warm-greedy" or not samples:
        return None
    per_solve = {
        name: values[2] * 1e3 / len(samples)
        for name, values in sorted(server_side["spans"].items())
        if name.startswith(ATTRIBUTED)
    }
    attributed = sum(per_solve.values())
    wire = statistics.fmean(sample[1] for sample in samples) * 1e3
    ratio = attributed / wire
    text = (
        " + ".join(f"{name} {ms:.3f}" for name, ms in per_solve.items())
        + f" = {attributed:.3f} ms self time per solve (mean) vs wire solve_seconds"
        f" mean {wire:.3f} ms ({ratio:.3f}x)"
    )
    if abs(ratio - 1.0) > ATTRIBUTION_TOLERANCE:
        raise Invalid(f"layer spans do not account for the solve: {text}")
    return text


def print_layer_table(table: dict) -> None:
    print(f"{'layer':<12} {'count':>10} {'busy_ms':>12} {'self_ms':>12}")
    for layer, (count, busy, own) in sorted(table.items()):
        print(f"{layer:<12} {count:>10} {busy * 1e3:>12.1f} {own * 1e3:>12.1f}")


def label_entries(engine) -> int:
    return sum(
        oracle.total_label_entries
        for oracle in (engine.search_oracle("sa-ca-cc", 0.6), engine.raw_oracle())
    )


def host_facts(network, engine) -> dict:
    from repro.graph.pll_kernel import numpy_available
    from repro.serving.pool import usable_cores

    oracle = engine.search_oracle("sa-ca-cc", 0.6)
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel": "flat" if oracle.kernel == "flat" and numpy_available() else "flat-py",
        "experts": len(network),
        "edges": network.num_edges,
        "label_entries": label_entries(engine),
    }


# ----------------------------------------------------------------------
def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", default="medium", choices=("tiny", "small", "medium"),
        help="network size (default medium; tiny is for the benchmark's tests)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bootstrap()
    os.chdir(ROOT)
    from workloads import WORKLOADS, WriteSchedule

    from repro.eval.workload import benchmark_network

    workload = WORKLOADS[args.workload]
    args.network = network = benchmark_network(args.scale, seed=0)
    schedule = WriteSchedule(network, args.seed) if workload.name == "live-updates" else None
    Path(".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=".perfbench"))
    kind = per_layer if args.trace else end_to_end
    try:
        engine, sessions, attempted, failed, metrics = kind(args, workload, schedule, work)
    except Invalid as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for i, session in enumerate(sessions):
        print(f"session {i} phases: {json.dumps(session.tally(), sort_keys=True)}")
        print(f"session {i} hash-seed dependence: {session.hash_report()}")
        failure = session.first_failure()
        if failure is not None:
            print(f"perfbench: session {i} first failed {failure}", file=sys.stderr)
    print(f"host: {json.dumps(host_facts(network, engine), sort_keys=True)}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
