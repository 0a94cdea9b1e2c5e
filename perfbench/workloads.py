"""The benchmark's four workloads: set-up, measured window, gates, traces.

Every workload drives the program only through its public entry points
(``zipf_trace``, ``BalancerSpec.build``, ``replay_batch``, ``replay``,
``replay_sharded``, ``run_simulation``) and hands it only generated
inputs.  ``run_workload`` returns a :class:`Report`; ``run.py`` prints it.
See README.md in this directory for why each workload exists and which
per-layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import gc
import math
import resource
import statistics
import tracemalloc
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.shard import BalancerSpec, MembershipEvent, ShardPlan, replay_sharded
from repro.sim import scenario
from repro.sim.scenario import SimulationConfig, run_simulation
from repro.traces.base import Trace
from repro.traces.replay import DEFAULT_CHUNK, merge_replay_results, replay, replay_batch
from repro.traces.zipf import zipf_trace

from tracing import CallTimer, Tracer, clock, trace_balancer

WORKLOADS = ("steady", "churn", "sharded", "sim")

#: End-to-end metrics (untraced run), name -> unit, as BENCHMARK.json
#: lists them.
END_TO_END = {
    "throughput_mpps": "Mpps",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "tracked_fraction": "fraction",
    "update_stall_ms_p90": "ms",
}

#: Printed with the end-to-end metrics but not in the result line, so
#: not gated.  On the shared reference host the p50 of a sub-millisecond
#: stall jumps between the host's two speed modes (see README.md).
UNGATED = {"update_stall_ms_p50": "ms"}

#: Per-layer metrics (traced run), name -> unit.  A layer a workload
#: does not exercise reports 0.
PER_LAYER = {
    "ct.probe_s": "s",
    "ct.probe_keys": "count",
    "ct.hit_ratio": "fraction",
    "ct.insert_s": "s",
    "ct.insert_keys": "count",
    "ct.invalidate_s": "s",
    "ct.invalidated_entries": "count",
    "ct.probe_after_event_s": "s",
    "ct.bytes_per_entry": "B",
    "ch.kernel_s": "s",
    "ch.kernel_keys": "count",
    "core.dispatch_s": "s",
    "core.dispatch_calls": "count",
    "core.self_s": "s",
    "replay.self_s": "s",
    "traces.gen_s": "s",
    "events.apply_s": "s",
    "events.count": "count",
    "events.add_stall_ms_p50": "ms",
    "shard.partition_s": "s",
    "shard.kernel_max_s": "s",
    "shard.kernel_mean_s": "s",
    "shard.imbalance": "ratio",
    "shard.merge_s": "s",
    "shard.fork_ipc_s": "s",
    "shard.speedup_vs_steady": "ratio",
    "sim.lb_s": "s",
    "sim.lb_calls": "count",
    "sim.workload_s": "s",
    "sim.self_s": "s",
    "sim.packets": "count",
    "sim.flows": "count",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    "trace.closure_error": "fraction",
}

SKEW = 1.0
N_WORKING = 50
STEADY_HORIZON = 5
CHURN_HORIZON = 20
#: One removal and one addition per pair: 40 evenly spaced events.
CHURN_PAIRS = 20
SHARD_WORKERS = 2
#: Stall-probe events after each measured repeat: the replays take
#: ~0.6 s and a probe event ~40 ms, a simulation ~4 s and an event ~5 ms,
#: copies included.
PROBES_PER_REPLAY = 5
PROBES_PER_SIM = 60
#: Set-ups per ``setup_s`` sample on ``sim``: ~0.5 s of them, so that a
#: sample averages over the host's speed modes rather than landing in one.
SIM_SETUP_BATCH = 2000
#: steady's tracked fraction must sit within this of |H|/(|W|+|H|) = 5/55.
TRACKED_BAND = 0.01
#: Layer self times must sum to the program's own replay stopwatch
#: within this share of it.
CLOSURE_TOLERANCE = 0.05


@dataclass(frozen=True)
class Scale:
    n_packets: int
    population: int
    sim_connection_rate: float
    sim_duration_s: float
    #: Packets of steady's trace replayed by the scalar oracle.
    oracle_prefix: int
    #: Removal-stall samples a run pools at least.
    stall_samples: int
    setup_repeats: int
    #: Flows dispatched into the sim stack before its stall probe.
    sim_probe_flows: int


SCALES = {
    "full": Scale(4_000_000, 500_000, 10_000.0, 30.0, 200_000, 100, 3, 15_000),
    "smoke": Scale(60_000, 30_000, 300.0, 4.0, 20_000, 10, 1, 500),
}


@dataclass
class Report:
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    gates: Dict[str, bool] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)
    #: Per metric reported as a median: (quartile distance over the
    #: median, sample count).
    spreads: Dict[str, Tuple[float, int]] = field(default_factory=dict)

    def gate(self, name: str, ok: bool, detail: object = "") -> None:
        self.gates[name] = bool(ok)
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def put(self, table: Dict[str, str], name: str, value: float) -> None:
        self.metrics[name] = (float(value), table[name])

    def put_median(self, table: Dict[str, str], name: str, samples: Sequence[float]) -> None:
        """Report the median of ``samples``, with its spread and count."""
        self.put(table, name, median(samples))
        self.spreads[name] = (iqr_share(samples), len(samples))


# ----------------------------------------------------------------- helpers
def p90(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def iqr_share(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def repeat(seconds: float, min_repeats: int, run: Callable, between: Callable = None):
    """Call ``run`` until ``seconds`` have passed and ``min_repeats`` ran.

    A full collection before each call keeps one repeat's garbage from
    being collected inside the next one's timed region.  ``between`` runs
    after each call, outside it.
    """
    results = []
    start = clock()
    while len(results) < min_repeats or clock() - start < seconds:
        gc.collect()
        results.append(run())
        if between is not None:
            between()
    return results


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def signature(result) -> tuple:
    """The decision-bearing fields of a ReplayResult (no timings)."""
    return (
        result.n_packets,
        result.pcc_violations,
        result.inevitably_broken,
        result.tracked_connections,
        result.active_servers,
        result.max_oversubscription,
        tuple(sorted(result.server_loads.items())),
    )


def dispatched(result) -> int:
    return sum(result.server_loads.values())


def replay_spec(horizon: int) -> BalancerSpec:
    return BalancerSpec.fleet(n_servers=N_WORKING, horizon_size=horizon)


def make_trace(seed: int, scale: Scale) -> Trace:
    return zipf_trace(SKEW, scale.n_packets, scale.population, seed=seed)


def setup_replay(seed: int, scale: Scale, spec: BalancerSpec, report: Report) -> Trace:
    """Generate the trace and build the stack, several times; keep medians."""
    total, generation = [], []
    for _ in range(scale.setup_repeats):
        trace = None  # one trace alive at a time, so peak RSS is one trace's
        gc.collect()
        start = clock()
        trace = make_trace(seed, scale)
        generated = clock()
        spec.build()
        total.append(clock() - start)
        generation.append(generated - start)
    report.put_median(END_TO_END, "setup_s", total)
    report.info["gen_s"] = median(generation)
    report.info["trace"] = {
        "generator": "zipf_trace",
        "skew": SKEW,
        "n_packets": scale.n_packets,
        "population": scale.population,
        "n_flows": trace.n_flows,
    }
    return trace


def columnar_chunks(trace: Trace, count: int = 8) -> List[np.ndarray]:
    keys, packets = trace.flow_keys, trace.packets
    return [
        keys[packets[start:start + DEFAULT_CHUNK]]
        for start in range(0, min(len(packets), count * DEFAULT_CHUNK), DEFAULT_CHUNK)
    ]


class StallProbe:
    """The update stall of a workload without in-run membership events.

    Each probe event removes a working server from a fresh copy of a
    stack the workload built, and times from the removal through the next
    dispatch, as :class:`StallTimer` does on ``churn``.  The copy is made
    untimed, so every event meets the state the workload left behind
    rather than a table earlier removals drained or grew.  A few events
    follow each measured repeat, so the samples span the same stretch of
    time as the throughput repeats.
    """

    def __init__(self, dispatch: str, inputs: Sequence, per_repeat: int) -> None:
        self.dispatch = dispatch
        self.inputs = inputs
        self.per_repeat = per_repeat
        self.samples: List[float] = []

    def sample(self, balancer, n_events: int = 0) -> None:
        names = sorted(balancer.working)
        for _ in range(n_events or self.per_repeat):
            index = len(self.samples)
            stack = copy.deepcopy(balancer)
            dispatch = getattr(stack, self.dispatch)
            # A collection of the copies' garbage would otherwise land in
            # a sample now and then, at several times the stall.
            gc.disable()
            try:
                start = clock()
                stack.remove_working_server(names[index % len(names)])
                dispatch(self.inputs[index % len(self.inputs)])
                self.samples.append(clock() - start)
            finally:
                gc.enable()

    def report(self, balancer, report: Report, min_samples: int) -> None:
        if len(self.samples) < min_samples:
            self.sample(balancer, min_samples - len(self.samples))
        put_stalls(report, self.samples)


def put_stalls(report: Report, samples: Sequence[float]) -> None:
    report.put_median(UNGATED, "update_stall_ms_p50", [sample * 1e3 for sample in samples])
    report.put(END_TO_END, "update_stall_ms_p90", p90(samples) * 1e3)


def put_layers(report: Report, values: Dict[str, float]) -> None:
    """Fill every per-layer metric; layers not exercised read 0."""
    for name in PER_LAYER:
        report.put(PER_LAYER, name, values.get(name, 0.0))


def median_layers(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: median([sample[name] for sample in samples]) for name in samples[0]}


# ------------------------------------------------------ replay workloads
class StallTimer:
    """The one timer pair of the untraced churn run.

    Starts when a membership event's callable starts and stops when the
    first dispatch call after it returns, so lazy work deferred into that
    batch (the CT mirror rebuild) counts.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {"remove_working": [], "add_working": []}
        self._pending = None

    def event(self, event: MembershipEvent) -> Callable:
        def apply(balancer) -> None:
            self._pending = (event.op, clock())
            event.apply(balancer)

        return apply

    def attach(self, balancer) -> None:
        dispatch = balancer.get_destinations_batch_idx

        def timed(keys):
            ids = dispatch(keys)
            if self._pending is not None:
                op, start = self._pending
                self.samples[op].append(clock() - start)
                self._pending = None
            return ids

        balancer.get_destinations_batch_idx = timed


def churn_events(n_packets: int) -> List[MembershipEvent]:
    """Evenly spaced: remove s0, add h0, remove s1, add h1, ...

    No removed server is re-added: the replay counts a flow whose backend
    left and came back between two of its packets as a violation (see
    README.md), which would not be the dataplane's fault.
    """
    n_events = 2 * CHURN_PAIRS
    events = []
    for index in range(n_events):
        at = (index + 1) * n_packets // (n_events + 1)
        op, name = ("remove_working", "s") if index % 2 == 0 else ("add_working", "h")
        events.append(MembershipEvent(at, op, f"{name}{index // 2}"))
    return events


class ReplayRun:
    """One fresh stack replaying the trace, optionally with events."""

    def __init__(self, trace: Trace, spec: BalancerSpec, churn: bool) -> None:
        self.trace = trace
        self.spec = spec
        self.events = churn_events(trace.n_packets) if churn else []
        self.stalls = StallTimer()
        #: The last run's stack; only one is kept alive, so peak RSS does
        #: not grow with the repeat count.
        self.balancer = None

    def __call__(self, tracer: Tracer = None):
        self.balancer = None
        balancer = self.spec.build()
        if self.events:
            self.stalls.attach(balancer)
        events = [(event.packet_index, self.stalls.event(event)) for event in self.events]
        if tracer is not None:
            trace_balancer(tracer, balancer)
            events = [(at, tracer.event(apply)) for at, apply in events]
            tracer.open("replay")
        start = clock()
        result = replay_batch(self.trace, balancer, events)
        wall = clock() - start
        if tracer is not None:
            tracer.close()
        self.balancer = balancer
        return wall, result


def replay_layers(tracer: Tracer, wall: float, result, balancer) -> Dict[str, float]:
    """Per-layer figures of one traced replay."""
    own = tracer.self_times()
    stats = balancer.ct.stats
    layer_sum = sum(own.values())
    return {
        "ct.probe_s": tracer.total("ct.probe"),
        "ct.probe_keys": tracer.work("ct.probe"),
        "ct.hit_ratio": stats.hits / stats.lookups if stats.lookups else 0.0,
        "ct.insert_s": tracer.total("ct.insert"),
        "ct.insert_keys": tracer.work("ct.insert"),
        "ct.invalidate_s": tracer.total("ct.invalidate"),
        "ct.invalidated_entries": tracer.work("ct.invalidate"),
        "ct.probe_after_event_s": tracer.first_after("ct.probe", "events.apply"),
        "ch.kernel_s": tracer.total("ch.kernel"),
        "ch.kernel_keys": tracer.work("ch.kernel"),
        "core.dispatch_s": tracer.total("core.dispatch"),
        "core.dispatch_calls": tracer.calls("core.dispatch"),
        "core.self_s": own.get("core.dispatch", 0.0),
        "replay.self_s": own.get("replay", 0.0),
        "events.apply_s": tracer.total("events.apply"),
        "events.count": tracer.calls("events.apply"),
        "trace.wall_s": wall,
        # Layer self times against the program's own replay stopwatch.
        "trace.closure_error": abs(layer_sum - result.wall_seconds) / result.wall_seconds,
        "min_self_s": min(own.values()),
    }


def ct_bytes_per_entry(run: ReplayRun) -> float:
    """Live bytes tracemalloc attributes to repro/ct, per tracked flow."""
    tracemalloc.start()
    try:
        run()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    ct_only = snapshot.filter_traces([tracemalloc.Filter(True, "*/repro/ct/*")])
    live = sum(stat.size for stat in ct_only.statistics("filename"))
    return live / max(1, run.balancer.tracked_connections)


def replay_workload(churn: bool, seed: int, seconds: float, scale: Scale, traced: bool) -> Report:
    report = Report()
    spec = replay_spec(CHURN_HORIZON if churn else STEADY_HORIZON)
    trace = setup_replay(seed, scale, spec, report)
    run = ReplayRun(trace, spec, churn)
    run()  # warm-up: imports, allocator, lazy caches
    run.stalls = StallTimer()
    min_repeats = math.ceil(scale.stall_samples / CHURN_PAIRS) if churn and not traced else 3
    window = seconds / 2 if traced else seconds
    probe = StallProbe("get_destinations_batch_idx", columnar_chunks(trace), PROBES_PER_REPLAY)
    between = None if churn or traced else lambda: probe.sample(run.balancer)
    measured = repeat(window, min_repeats, run, between)
    report.put(END_TO_END, "peak_rss_mb", peak_rss_mb())
    walls = [wall for wall, _ in measured]
    results = [result for _, result in measured]
    balancer = run.balancer
    inserts = balancer.ct.stats.inserts
    flows = dispatched(results[0])
    report.attempted = flows * len(results)
    report.failed = sum(result.pcc_violations for result in results)
    report.put_median(
        END_TO_END, "throughput_mpps", [trace.n_packets / wall / 1e6 for wall in walls]
    )
    report.put(END_TO_END, "tracked_fraction", inserts / flows)
    if churn:
        put_stalls(report, run.stalls.samples["remove_working"])
        report.info["add_stall_ms_p50"] = median(run.stalls.samples["add_working"]) * 1e3
    elif not traced:
        probe.report(balancer, report, scale.stall_samples)
    del balancer
    run.balancer = None

    # Gates: decisions are deterministic, PCC holds, the oracle agrees.
    report.gate("zero_violations", report.failed == 0, f"{report.failed} violations")
    report.gate(
        "repeats_identical",
        len({signature(result) for result in results}) == 1,
        "replay results differ between repeats",
    )
    expected = STEADY_HORIZON / (N_WORKING + STEADY_HORIZON)
    if not churn:
        fraction = report.metrics["tracked_fraction"][0]
        report.gate(
            "tracked_fraction_band",
            abs(fraction - expected) <= TRACKED_BAND,
            f"{fraction:.4f} not within {TRACKED_BAND} of {expected:.4f}",
        )
        prefix = Trace(trace.name, trace.flow_keys, trace.packets[: scale.oracle_prefix])
        oracle = replay(prefix, spec.build())
        columnar = replay_batch(prefix, spec.build())
        report.gate(
            "scalar_oracle_prefix",
            signature(oracle) == signature(columnar),
            "columnar replay differs from scalar replay() on the trace prefix",
        )
    else:
        oracle = replay(trace, spec.build(), [(e.packet_index, e.apply) for e in run.events])
        report.gate(
            "scalar_oracle_churn",
            signature(oracle) == signature(results[0]),
            f"inevitably_broken {results[0].inevitably_broken} vs oracle "
            f"{oracle.inevitably_broken}",
        )
        report.info["inevitably_broken"] = results[0].inevitably_broken
        report.info["churn_events"] = len(run.events)
    report.info["repeats"] = len(results)

    if traced:
        samples, traced_results = [], []
        for _ in range(max(3, len(results) // 2)):
            tracer = Tracer()
            wall, result = run(tracer)
            samples.append(replay_layers(tracer, wall, result, run.balancer))
            traced_results.append(result)
        report.gate(
            "traced_matches_untraced",
            all(signature(result) == signature(results[0]) for result in traced_results),
            "tracing changed a dispatch decision",
        )
        report.spans = tracer.dump()
        layers = median_layers(samples)
        report.gate(
            "closure",
            max(s["trace.closure_error"] for s in samples) <= CLOSURE_TOLERANCE
            and min(s["min_self_s"] for s in samples) >= 0.0,
            f"layer self times miss the replay wall by {layers['trace.closure_error']:.3%}",
        )
        layers["ct.bytes_per_entry"] = ct_bytes_per_entry(run)
        layers["traces.gen_s"] = report.info["gen_s"]
        layers["trace.overhead"] = layers["trace.wall_s"] / median(walls)
        if churn:
            layers["events.add_stall_ms_p50"] = report.info["add_stall_ms_p50"]
        put_layers(report, layers)
    return report


# --------------------------------------------------------------- sharded
def sharded_workload(seed: int, seconds: float, scale: Scale, traced: bool) -> Report:
    report = Report()
    spec = replay_spec(STEADY_HORIZON)
    trace = setup_replay(seed, scale, spec, report)
    steady = ReplayRun(trace, spec, churn=False)
    steady()  # warm-up
    _, reference = steady()
    steady.balancer = None

    def sharded():
        run = replay_sharded(trace, spec, n_workers=SHARD_WORKERS)
        return run.end_to_end_seconds, run

    sharded()  # warm-up: the first fork faults in the parent's pages
    # A sharded stack applies every membership event on every shard, in
    # parallel; probe the stall on shard 0's stack, rebuilt in-process.
    shard_trace = ShardPlan.partition(trace, SHARD_WORKERS).shard_trace(0)
    shard_stack = spec.build(0)
    replay_batch(shard_trace, shard_stack)
    probe = StallProbe(
        "get_destinations_batch_idx", columnar_chunks(shard_trace), PROBES_PER_REPLAY
    )
    between = None if traced else lambda: probe.sample(shard_stack)
    measured = repeat(seconds / 2 if traced else seconds, 3, sharded, between)
    report.put(END_TO_END, "peak_rss_mb", peak_rss_mb())
    walls = [wall for wall, _ in measured]
    merged = [run.result for _, run in measured]
    flows = dispatched(reference)
    report.attempted = flows * len(merged)
    report.failed = sum(result.pcc_violations for result in merged)
    report.put_median(
        END_TO_END, "throughput_mpps", [trace.n_packets / wall / 1e6 for wall in walls]
    )
    # Churn-free unbounded CTs: every insert is still tracked at the end.
    report.put(END_TO_END, "tracked_fraction", merged[0].tracked_connections / flows)

    if not traced:
        probe.report(shard_stack, report, scale.stall_samples)
    del shard_stack

    report.gate("zero_violations", report.failed == 0, f"{report.failed} violations")
    report.gate(
        "merged_equals_single_process",
        all(signature(result) == signature(reference) for result in merged),
        "merged sharded result differs from the single-process replay",
    )
    report.info["n_workers"] = SHARD_WORKERS
    report.info["repeats"] = len(merged)

    if traced:
        samples = []
        tracer = Tracer()
        for _ in range(3):
            tracer.open("shard.partition")
            ShardPlan.partition(trace, SHARD_WORKERS)
            partition = tracer.close().seconds
            tracer.open("shard.replay_sharded")
            run = replay_sharded(trace, spec, n_workers=SHARD_WORKERS)
            tracer.close()
            tracer.open("shard.merge")
            merge_replay_results([outcome.result for outcome in run.outcomes])
            merge = tracer.close().seconds
            kernels = [outcome.result.wall_seconds for outcome in run.outcomes]
            wall = run.end_to_end_seconds
            fork_ipc = wall - partition - max(kernels) - merge
            samples.append({
                "shard.partition_s": partition,
                "shard.kernel_max_s": max(kernels),
                "shard.kernel_mean_s": statistics.fmean(kernels),
                "shard.imbalance": max(kernels) / statistics.fmean(kernels),
                "shard.merge_s": merge,
                "shard.fork_ipc_s": fork_ipc,
                "trace.wall_s": wall,
                "trace.closure_error": max(0.0, -fork_ipc) / wall,
            })
        report.spans = tracer.dump()
        layers = median_layers(samples)
        steady_walls = [wall for wall, _ in repeat(0.0, 3, steady)]
        layers["shard.speedup_vs_steady"] = median(steady_walls) / median(walls)
        layers["traces.gen_s"] = report.info["gen_s"]
        layers["trace.overhead"] = layers["trace.wall_s"] / median(walls)
        report.gate(
            "closure",
            max(s["trace.closure_error"] for s in samples) <= CLOSURE_TOLERANCE,
            "partition + slowest kernel + merge exceed the end-to-end wall",
        )
        put_layers(report, layers)
    return report


# ------------------------------------------------------------------- sim
def sim_config(seed: int, scale: Scale) -> SimulationConfig:
    """Paper-default fleet (468 servers, horizon 47, AnchorHash)."""
    return SimulationConfig(
        connection_rate=scale.sim_connection_rate,
        duration_s=scale.sim_duration_s,
        update_rate_per_min=30.0,
        seed=seed,
    )


def counters(result) -> dict:
    fields = dataclasses.asdict(result)
    fields.pop("wall_seconds")
    return fields


@contextlib.contextmanager
def sim_layer_timers():
    """Time the LB and workload calls of the next ``run_simulation``.

    ``run_simulation`` builds its balancer and workload generator itself,
    so the timers attach at the two constructors it calls and wrap the
    methods on the instances they return; both are restored on exit.
    """
    lb_timer, workload_timer = CallTimer(), CallTimer()
    build, generator = scenario.build_balancer, scenario.WorkloadGenerator

    def timed_build(config):
        balancer, working, standby = build(config)
        lb_timer.wrap(balancer, "get_destination")
        return balancer, working, standby

    def timed_generator(*args, **kwargs):
        workload = generator(*args, **kwargs)
        workload_timer.wrap(workload, "make_flow")
        workload_timer.wrap(workload, "next_arrival_gap")
        return workload

    scenario.build_balancer, scenario.WorkloadGenerator = timed_build, timed_generator
    try:
        yield lb_timer, workload_timer
    finally:
        scenario.build_balancer, scenario.WorkloadGenerator = build, generator


def sim_setup(seed: int, scale: Scale) -> float:
    """Mean time of a batch of set-ups: the config and the stack
    ``run_simulation`` builds."""
    start = clock()
    for _ in range(SIM_SETUP_BATCH):
        scenario.build_balancer(sim_config(seed, scale))
    return (clock() - start) / SIM_SETUP_BATCH


def sim_workload(seed: int, seconds: float, scale: Scale, traced: bool) -> Report:
    report = Report()
    # One set-up takes 0.2-0.35 ms, depending on the host's speed mode at
    # that instant.  A batch runs before the first simulation and after
    # each, and setup_s is the median of the batch means.
    setups = []

    def set_up() -> None:
        setups.append(sim_setup(seed, scale))

    set_up()
    config = sim_config(seed, scale)

    def simulate():
        start = clock()
        result = run_simulation(config)
        return clock() - start, result

    # The engine dispatches one packet per scalar call; the stall probe
    # runs on the same stack after a run's worth of flows went through it.
    sim_stack, _, _ = scenario.build_balancer(config)
    keys = np.random.default_rng(seed).integers(
        1, 2**63, size=scale.sim_probe_flows, dtype=np.uint64
    ).tolist()
    for key in keys:
        sim_stack.get_destination(key)
    probe = StallProbe("get_destination", keys, PROBES_PER_SIM)

    def between() -> None:
        set_up()
        if not traced:
            probe.sample(sim_stack)

    measured = repeat(seconds / 2 if traced else seconds, 2, simulate, between)
    report.put_median(END_TO_END, "setup_s", setups)
    report.put(END_TO_END, "peak_rss_mb", peak_rss_mb())
    walls = [wall for wall, _ in measured]
    results = [result for _, result in measured]
    first = results[0]
    report.attempted = first.flows_started * len(results)
    report.failed = sum(result.pcc_violations for result in results)
    report.put_median(
        END_TO_END, "throughput_mpps", [first.packets_processed / wall / 1e6 for wall in walls]
    )
    report.put(END_TO_END, "tracked_fraction", first.observed_tracked_fraction)
    if not traced:
        probe.report(sim_stack, report, scale.stall_samples)

    report.gate("zero_violations", report.failed == 0, f"{report.failed} violations")
    report.gate(
        "repeats_identical",
        all(counters(result) == counters(first) for result in results),
        "SimResult counters differ between repeats at a fixed seed",
    )
    report.info["sim"] = {
        "n_servers": config.n_servers,
        "horizon": config.horizon_size,
        "ch_family": config.ch_family,
        "connection_rate": config.connection_rate,
        "duration_s": config.duration_s,
        "update_rate_per_min": config.update_rate_per_min,
    }
    report.info["repeats"] = len(results)

    if traced:
        samples, traced_results = [], []
        for _ in range(2):
            with sim_layer_timers() as (lb_timer, workload_timer):
                wall, result = simulate()
            traced_results.append(result)
            engine = wall - lb_timer.seconds - workload_timer.seconds
            samples.append({
                "sim.lb_s": lb_timer.seconds,
                "sim.lb_calls": lb_timer.calls,
                "sim.workload_s": workload_timer.seconds,
                "sim.self_s": engine,
                "sim.packets": result.packets_processed,
                "sim.flows": result.flows_started,
                "ct.hit_ratio": result.ct_hit_rate,
                "trace.wall_s": wall,
                "trace.closure_error": max(0.0, -engine) / wall,
            })
        report.gate(
            "traced_matches_untraced",
            all(counters(result) == counters(first) for result in traced_results),
            "tracing changed the simulation",
        )
        layers = median_layers(samples)
        layers["trace.overhead"] = layers["trace.wall_s"] / median(walls)
        report.gate(
            "closure",
            max(s["trace.closure_error"] for s in samples) <= CLOSURE_TOLERANCE,
            "LB + workload time exceeds the simulation wall",
        )
        put_layers(report, layers)
    return report


def run_workload(name: str, seed: int, seconds: float, scale: Scale, traced: bool) -> Report:
    if name == "steady":
        return replay_workload(False, seed, seconds, scale, traced)
    if name == "churn":
        return replay_workload(True, seed, seconds, scale, traced)
    if name == "sharded":
        return sharded_workload(seed, seconds, scale, traced)
    if name == "sim":
        return sim_workload(seed, seconds, scale, traced)
    raise ValueError(f"unknown workload {name!r}; one of {WORKLOADS}")
