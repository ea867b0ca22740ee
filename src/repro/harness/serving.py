"""YCSB-style serving harness: Zipfian multi-tenant load at paper scale.

Every workload in this repo so far is an HPC kernel; this harness opens the
*serving* scenario HCL's abstract claims (ROADMAP item 2) — distributed
containers fronting 10^5-10^6 simulated clients.  A seeded Zipf(theta)
key-popularity generator drives the hash map (reads / writes / server-side
RMW upserts) and per-tenant FIFO queues under open-loop Poisson arrivals,
and the report extracts serving SLOs straight from the ``obs`` histogram
machinery: p50/p95/p99/p99.9 latency, per-tenant fairness (Jain's index)
and hot-key amplification.

**Simulating a million clients.**  Spawning one process per client would
melt the event core for nothing: the superposition of k independent
Poisson(rate) arrival streams is one Poisson(k*rate) stream.  Each rank
therefore runs ONE open-loop driver whose merged inter-arrival time is
``Exponential(clients_per_rank * rate)``, attributing every arrival to a
uniformly-drawn client (statistically identical to independent clients,
exactly reproducible from the seed).  Ops are issued through the
containers' ``*_async`` futures — open-loop means arrivals never wait for
completions, which is what exposes the overload latency cliff.

**The hotspot.**  HCL queues are single-partitioned and live wherever the
constructing process runs, so a popular shared queue service *is* a node
hotspot: ``queue_home="packed"`` (the default) pins every tenant queue to
node 0, concentrating ``queue_frac`` of all traffic there while the rest
of the cluster keeps headroom.  Serving ops are issued singly
(``rpc_batch_size=1`` — this bench measures admission, not aggregation),
which makes per-request dispatch the hot node's dominant cost: overload
accumulates in its *receive work queue* — exactly the queue admission
control governs — rather than in the shared NIC-core pipeline.

**Backpressure A/B.**  ``bounds`` runs the identical workload once per
admission-control setting (``None`` = classic unbounded server queues; an
integer arms ``RpcServer(queue_bound=...)`` load shedding).  Shed ops
surface as ``serving/shed`` counters server-side and retriable
:class:`~repro.rpc.future.ServerOverloaded` errors client-side; the
harness retries them with exponential backoff up to ``shed_retries``
times, so reported latency is the *client-visible* figure including
retries.  The report's ``cliff`` block compares unbounded vs bounded p99:
without shedding the hot node's backlog delay grows with the arrival
window (the latency cliff); with it, p99 stays near the service floor and
the cost surfaces as ``shed_gaveup`` errors instead.  Retries trade that
error rate back for tail latency (each success pays its backoff), so the
crispest cliff measurement uses ``shed_retries=0``.

Only simulated (deterministic) quantities enter the report, so same-seed
reruns emit byte-identical ``BENCH_serving.json`` files.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import ares_like
from repro.core.runtime import HCL
from repro.harness.driver import Harness, flag, positive_float, run_rows
from repro.harness.report import render_table
from repro.obs.registry import SLO_QUANTILES, percentile_summary, registry_of
from repro.obs.series import FlightRecorder, recorder_of
from repro.obs.skew import SkewDetector
from repro.obs.slo import SLOMonitor, SLORule, counter_sli, latency_sli
from repro.rpc.future import ServerOverloaded

__all__ = [
    "ZipfKeyGenerator",
    "run_serving",
    "render_serving",
    "check_serving",
    "DEFAULT_MIX",
    "MONITOR_DEFAULTS",
]

#: the SLO rules a recorded serving run hangs on its flight recorder
#: (windows scale with the recorder's cadence)
MONITOR_DEFAULTS: Dict = {
    "availability_target": 0.999,
    "burn_threshold": 10.0,    # availability fast-burn multiple
    "latency_slo": 1e-3,       # latency objective (sim s)
    "latency_target": 0.99,    # <=1% of requests over the objective
    "latency_burn_threshold": 2.0,
    "short_windows": 4,        # short burn window, in sampling intervals
    "long_windows": 16,        # long burn window, in sampling intervals
}

#: read / write / RMW fractions of the map traffic (YCSB-B-ish)
DEFAULT_MIX: Tuple[float, float, float] = (0.70, 0.20, 0.10)

#: fixed serving value payload (~100B, the YCSB-ish small-object regime)
_VALUE = "v" * 100

_OP_CLASSES = ("read", "write", "rmw", "queue")


class ZipfKeyGenerator:
    """Seeded Zipf(theta) sampler over one tenant's key namespace.

    Popularity rank ``r`` (0-based) is drawn with probability proportional
    to ``(r+1)**-theta`` via an exact CDF + bisection; a deterministic
    shuffle maps ranks to key ids so the hottest key is not always id 0
    (which would bias partition routing).  Keys are namespaced per tenant
    (``t<tenant>:k<id>``), giving each tenant a private keyspace inside the
    shared container.  Everything derives from ``(seed, tenant)`` — two
    generators built with the same pair emit identical streams.
    """

    def __init__(self, keys: int, theta: float, seed: int, tenant: int = 0):
        if keys < 1:
            raise ValueError("need at least one key")
        if theta < 0:
            raise ValueError("theta must be >= 0 (0 = uniform)")
        self.keys = keys
        self.theta = theta
        self.tenant = tenant
        self._rng = random.Random((seed * 0x9E3779B1) ^ (tenant * 0x85EBCA6B))
        acc = 0.0
        cdf: List[float] = []
        for r in range(1, keys + 1):
            acc += r ** -theta
            cdf.append(acc)
        self._cdf = [c / acc for c in cdf]
        ids = list(range(keys))
        random.Random((seed << 1) ^ tenant ^ 0x5BF03635).shuffle(ids)
        self._ids = ids

    def sample_rank(self) -> int:
        """Draw a popularity rank (0 = hottest)."""
        return bisect_left(self._cdf, self._rng.random())

    def key_at(self, rank: int) -> str:
        """The tenant-namespaced key holding popularity rank ``rank``."""
        return f"t{self.tenant}:k{self._ids[rank]}"

    def sample(self) -> str:
        """Draw a key with Zipf(theta) popularity."""
        return self.key_at(self.sample_rank())


def _jain_fairness(xs: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even, 1/n = one tenant hogs."""
    total = sum(xs)
    if total <= 0:
        return 0.0
    return (total * total) / (len(xs) * sum(x * x for x in xs))


def _arm_monitors(recorder: FlightRecorder, store, queues,
                  key_counts: Dict[str, int]) -> Tuple:
    """Hang the skew detector + SLO monitor on a run's flight recorder.

    Pure observation: the per-tick skew/SLO hooks only read registry
    metrics, and the skew summary the run's own ``key_counts`` — a
    monitored run keeps identical simulated results, which the obs
    benchmarks assert field-by-field.  Returns ``(skew, slo)``.
    """
    cfg = MONITOR_DEFAULTS
    registry = recorder.registry
    interval = recorder.interval
    sources = [(p.ops.name, p.node_id) for p in store.partitions]
    for q in queues:
        sources.extend((p.ops.name, p.node_id) for p in q.partitions)
    skew = SkewDetector(registry, sources, event_log=recorder.events,
                        key_counts=key_counts)
    slo = SLOMonitor(
        rules=[
            SLORule(
                "availability",
                counter_sli(registry,
                            bad=("serving/shed_gaveup", "serving/errors"),
                            total=("serving/completed",)),
                target=cfg["availability_target"],
                short_window=cfg["short_windows"] * interval,
                long_window=cfg["long_windows"] * interval,
                threshold=cfg["burn_threshold"],
            ),
            SLORule(
                "latency",
                latency_sli(registry, "serving/latency",
                            cfg["latency_slo"]),
                target=cfg["latency_target"],
                short_window=cfg["short_windows"] * interval,
                long_window=cfg["long_windows"] * interval,
                threshold=cfg["latency_burn_threshold"],
            ),
        ],
        event_log=recorder.events,
    )
    recorder.add_listener(skew.tick)
    recorder.add_listener(slo.tick)
    return skew, slo


def _run_one_config(
    nodes: int,
    procs_per_node: int,
    clients: int,
    tenants: int,
    theta: float,
    keys: int,
    mix: Tuple[float, float, float],
    queue_frac: float,
    queue_home: str,
    rate: float,
    ops_per_client: float,
    seed: int,
    queue_bound: Optional[int],
    shed_retries: int,
    retry_backoff: float,
    rpc_batch_size: int,
    windows=None,
    instrument=None,
) -> Dict:
    """One full serving run under one admission-control setting."""
    spec = ares_like(nodes=nodes, procs_per_node=procs_per_node, seed=seed)
    h = HCL(spec, rpc_batch_size=rpc_batch_size, rpc_queue_bound=queue_bound,
            window=windows)
    sim = h.sim
    metrics = registry_of(sim)

    store = h.unordered_map("serving-map", partitions=nodes)
    # "packed" pins every tenant queue to node 0 — the paper's queues are
    # single-partitioned and live where the constructing process runs, so
    # a popular shared queue service IS a node hotspot.  "spread" places
    # them round-robin instead (the load-balanced deployment).
    queues = [h.queue(f"serving-q{t}",
                      home_node=0 if queue_home == "packed" else t % nodes)
              for t in range(tenants)]
    gens = [ZipfKeyGenerator(keys, theta, seed, tenant=t)
            for t in range(tenants)]

    latency = metrics.histogram("serving/latency")
    class_hist = {c: metrics.histogram(f"serving/{c}/latency")
                  for c in _OP_CLASSES}
    tenant_hist = [metrics.histogram(f"serving/t{t}/latency")
                   for t in range(tenants)]
    tenant_done = [metrics.counter(f"serving/t{t}/completed")
                   for t in range(tenants)]
    issued = metrics.counter("serving/issued")
    completed = metrics.counter("serving/completed")
    shed = metrics.counter("serving/shed")  # bumped by the servers
    retried = metrics.counter("serving/shed_retried")
    gaveup = metrics.counter("serving/shed_gaveup")
    errors = metrics.counter("serving/errors")
    key_counts: Dict[str, int] = {}

    # A flight recorder the instrument installed also carries the serving
    # skew/SLO rules; any other instrument is just attached.
    recorder = None
    if instrument is not None:
        instrument(h)
        recorder = recorder_of(h.cluster)
        if recorder is not None:
            skew_det, slo_mon = _arm_monitors(recorder, store, queues,
                                              key_counts)

    read_cut, write_cut = mix[0], mix[0] + mix[1]

    class ServedOp:
        """One op fired open-loop; records client-visible completion latency.

        Shed ops retry with exponential backoff (up to ``shed_retries``),
        keeping the original issue timestamp — the latency a real client
        would observe across the reject/retry cycle.  An object rather
        than a closure that names itself for the retry, so a settled op is
        freed by reference counting.
        """

        __slots__ = ("factory", "tenant", "klass", "t0", "attempt")

        def __init__(self, factory, tenant: int, klass: str):
            self.factory = factory
            self.tenant = tenant
            self.klass = klass
            self.t0 = sim.now
            self.attempt = 0

        def done(self, ev) -> None:
            if ev.ok:
                lat = sim.now - self.t0
                latency.observe(lat)
                class_hist[self.klass].observe(lat)
                tenant_hist[self.tenant].observe(lat)
                completed.add(1)
                tenant_done[self.tenant].add(1)
            elif (isinstance(ev.value, ServerOverloaded)
                    and self.attempt < shed_retries):
                self.attempt += 1
                retried.add(1)
                delay = retry_backoff * (2 ** (self.attempt - 1))
                sim.process(self.retry(delay), name="serving-retry")
            elif isinstance(ev.value, ServerOverloaded):
                gaveup.add(1)
            else:
                errors.add(1)

        def retry(self, delay: float):
            yield delay
            self.factory()._event.add_callback(self.done)

    def issue(factory, tenant: int, klass: str) -> None:
        op = ServedOp(factory, tenant, klass)
        issued.add(1)
        factory()._event.add_callback(op.done)

    total_ranks = spec.total_procs
    base, extra = divmod(clients, total_ranks)

    def rank_body(rank: int):
        n_clients = base + (1 if rank < extra else 0)
        n_ops = int(round(ops_per_client * n_clients))
        if n_ops == 0:
            return
        rng = random.Random((seed << 20) ^ (rank * 0x9E3779B1))
        merged_rate = n_clients * rate  # Poisson superposition
        for seq in range(n_ops):
            yield rng.expovariate(merged_rate)
            tenant = rng.randrange(tenants)
            u = rng.random()
            if u < queue_frac:
                q = queues[tenant]
                if rng.random() < 0.5:
                    issue(lambda q=q, r=rank, v=(tenant, seq):
                          q.push_async(r, v), tenant, "queue")
                else:
                    issue(lambda q=q, r=rank: q.pop_async(r),
                          tenant, "queue")
                continue
            key = gens[tenant].sample()
            key_counts[key] = key_counts.get(key, 0) + 1
            v = rng.random()
            if v < read_cut:
                issue(lambda r=rank, k=key: store.find_async(r, k),
                      tenant, "read")
            elif v < write_cut:
                issue(lambda r=rank, k=key: store.async_insert(r, k, _VALUE),
                      tenant, "write")
            else:
                # RMW counters live beside the blob keys under a distinct
                # prefix, so an upsert never lands on a string value.
                issue(lambda r=rank, k="c:" + key: store.async_rmw(r, k, 1),
                      tenant, "rmw")

    # Arrivals stop after the fixed op count; the sim then drains every
    # queued request and in-flight retry before run_ranks returns, so
    # backlog delay (the cliff) is fully captured in the histograms.
    h.run_ranks(rank_body)
    sim_seconds = sim.now

    part_ops = [int(p.ops.value) for p in store.partitions]
    total_part = sum(part_ops)
    mean_part = total_part / len(part_ops) if part_ops else 0.0
    total_keyed = sum(key_counts.values())
    per_tenant = {
        f"t{t}": {
            "completed": int(tenant_done[t].value),
            **percentile_summary(tenant_hist[t], SLO_QUANTILES),
        }
        for t in range(tenants)
    }
    row = {
        "queue_bound": queue_bound,
        "issued": int(issued.value),
        "completed": int(completed.value),
        "shed": int(shed.value),
        "shed_seen_by_clients": int(metrics.sum_matching("/shed_seen", "rpcc")),
        "shed_retried": int(retried.value),
        "shed_gaveup": int(gaveup.value),
        "errors": int(errors.value),
        "windows": bool(windows),
        "window_stalls": int(metrics.counter("rpc/window_stalls").value),
        "window_sheds": int(metrics.counter("rpc/window_sheds").value),
        "sim_seconds": sim_seconds,
        "ops_per_sim_sec": (completed.value / sim_seconds
                            if sim_seconds > 0 else 0.0),
        "latency": percentile_summary(latency, SLO_QUANTILES),
        "per_class": {c: percentile_summary(class_hist[c], SLO_QUANTILES)
                      for c in _OP_CLASSES},
        "per_tenant": per_tenant,
        "fairness_jain": _jain_fairness(
            [tenant_done[t].value for t in range(tenants)]
        ),
        "hot_key_amplification": (max(part_ops) / mean_part
                                  if mean_part else 0.0),
        "hot_partition_share": (max(part_ops) / total_part
                                if total_part else 0.0),
        "top_key_share": (max(key_counts.values()) / total_keyed
                          if total_keyed else 0.0),
    }
    if recorder is not None:
        recorder.extra["skew"] = skew_det.summary()
        recorder.extra["slo"] = slo_mon.summary()
    h.close()
    return row


def run_serving(
    nodes: int = 64,
    procs_per_node: int = 4,
    clients: int = 100_000,
    tenants: int = 8,
    theta: float = 0.99,
    keys: int = 16_384,
    mix: Tuple[float, float, float] = DEFAULT_MIX,
    queue_frac: float = 0.10,
    queue_home: str = "packed",
    rate: float = 100.0,
    ops_per_client: float = 1.0,
    seed: int = 7,
    bounds: Sequence[Optional[int]] = (None, 64),
    shed_retries: int = 1,
    retry_backoff: float = 1e-3,
    rpc_batch_size: int = 1,
    windows=None,
    instrument=None,
) -> Dict:
    """Run the serving bench once per admission-control bound; return the
    report dict (simulated/deterministic fields only — no wall clock).

    A truthy ``windows`` arms per-(node, partition) AIMD congestion
    windows (:mod:`repro.rpc.window`) on the issue path; a shed still
    reaches the harness at once, whose ``shed_retries`` are the only
    shed retries.

    ``instrument`` is called with each config's runtime (labelled ``off``
    / ``b<N>``) once its containers exist.  When it installs a flight
    recorder (``HARNESS.attach(flight=...)``), the run also hangs the
    skew detector and the SLO burn-rate monitor (rules in
    :data:`MONITOR_DEFAULTS`) on it, and the recorder's payload gains
    ``skew`` / ``slo`` sections.
    Instruments never change the report — simulated results are identical
    with them on or off."""
    if not 0.999 <= sum(mix) <= 1.001:
        raise ValueError(f"mix must sum to 1.0, got {mix}")
    if not 0.0 <= queue_frac < 1.0:
        raise ValueError("queue_frac must be in [0, 1)")
    if queue_home not in ("packed", "spread"):
        raise ValueError("queue_home must be 'packed' or 'spread'")
    if rate <= 0 or ops_per_client <= 0:
        raise ValueError("rate and ops_per_client must be positive")
    configs = run_rows(
        [("off" if bound is None else f"b{bound}", bound)
         for bound in bounds],
        lambda bound, hook: _run_one_config(
            nodes, procs_per_node, clients, tenants, theta, keys, mix,
            queue_frac, queue_home, rate, ops_per_client, seed, bound,
            shed_retries, retry_backoff, rpc_batch_size, windows, hook,
        ),
        instrument,
    )
    report = {
        "benchmark": "serving_zipf",
        "nodes": nodes,
        "procs_per_node": procs_per_node,
        "clients": clients,
        "tenants": tenants,
        "theta": theta,
        "keys_per_tenant": keys,
        "mix": {"read": mix[0], "write": mix[1], "rmw": mix[2]},
        "queue_frac": queue_frac,
        "queue_home": queue_home,
        "rate_per_client": rate,
        "ops_per_client": ops_per_client,
        "seed": seed,
        "shed_retries": shed_retries,
        "retry_backoff": retry_backoff,
        "rpc_batch_size": rpc_batch_size,
        "configs": configs,
    }
    unbounded = [c for c in configs if c["queue_bound"] is None]
    bounded = [c for c in configs if c["queue_bound"] is not None]
    if unbounded and bounded:
        p99_off = unbounded[0]["latency"]["p99"]
        p99_on = min(c["latency"]["p99"] for c in bounded)
        report["cliff"] = {
            "p99_shedding_off": p99_off,
            "p99_shedding_on": p99_on,
            "p99_ratio": p99_off / p99_on if p99_on > 0 else 0.0,
        }
    return report


def render_serving(report: Dict) -> str:
    """Fixed-width table of the per-bound serving SLOs."""
    rows = []
    for cfg in report["configs"]:
        lat = cfg["latency"]
        rows.append([
            "off" if cfg["queue_bound"] is None else str(cfg["queue_bound"]),
            cfg["completed"],
            cfg["shed"],
            cfg["shed_gaveup"],
            lat["p50"] * 1e6,
            lat["p95"] * 1e6,
            lat["p99"] * 1e6,
            lat["p99.9"] * 1e6,
            cfg["fairness_jain"],
            cfg["hot_key_amplification"],
        ])
    title = (
        f"serving: {report['nodes']}x{report['procs_per_node']} nodes, "
        f"{report['clients']} clients, {report['tenants']} tenants, "
        f"Zipf(theta={report['theta']})"
    )
    return render_table(
        title,
        ["bound", "done", "shed", "gaveup", "p50us", "p95us", "p99us",
         "p99.9us", "jain", "hotkey_amp"],
        rows,
    )


def check_serving(report: Dict, require_cliff: bool = False,
                  cliff_factor: float = 3.0) -> List[str]:
    """Sanity failures for CI (empty list = pass).

    ``require_cliff`` additionally demands the overload signature: the
    unbounded config's p99 at least ``cliff_factor`` x the bounded one's
    (i.e. shedding visibly flattens the latency cliff).
    """
    failures: List[str] = []
    slo_keys = {f"p{100 * q:g}" for q in SLO_QUANTILES}
    for cfg in report["configs"]:
        label = f"bound={cfg['queue_bound']}"
        if cfg["completed"] <= 0:
            failures.append(f"{label}: no ops completed")
        accounted = cfg["completed"] + cfg["shed_gaveup"] + cfg["errors"]
        if accounted != cfg["issued"]:
            failures.append(
                f"{label}: {cfg['issued']} issued but {accounted} accounted "
                f"(completed+gaveup+errors)"
            )
        if cfg["errors"]:
            failures.append(f"{label}: {cfg['errors']} unexpected op errors")
        missing = slo_keys - set(cfg["latency"])
        if missing:
            failures.append(f"{label}: latency summary missing {sorted(missing)}")
        if not 0.0 < cfg["fairness_jain"] <= 1.0:
            failures.append(
                f"{label}: fairness {cfg['fairness_jain']} outside (0, 1]"
            )
        starved = [t for t, stats in cfg["per_tenant"].items()
                   if stats["completed"] == 0]
        if starved:
            failures.append(f"{label}: starved tenants {starved}")
        if cfg["queue_bound"] is None and cfg["shed"]:
            failures.append(f"{label}: shed {cfg['shed']} ops with no bound")
    if require_cliff:
        cliff = report.get("cliff")
        if cliff is None:
            failures.append(
                "cliff check requested but report lacks an unbounded/bounded "
                "config pair"
            )
        elif cliff["p99_ratio"] < cliff_factor:
            failures.append(
                f"no overload cliff: unbounded p99 only "
                f"{cliff['p99_ratio']:.2f}x the bounded p99 "
                f"(need >= {cliff_factor}x)"
            )
    return failures


def _bound(text: str) -> Optional[int]:
    """``--bounds`` item: ``off``/``none`` = unbounded, else the queue cap."""
    return None if text.lower() in ("off", "none") else int(text)


def _render(report: Dict, args) -> str:
    text = render_serving(report)
    cliff = report.get("cliff")
    if cliff:
        text += (f"\n  overload cliff: p99 "
                 f"{cliff['p99_shedding_off'] * 1e6:.0f}us unbounded vs "
                 f"{cliff['p99_shedding_on'] * 1e6:.0f}us shed "
                 f"({cliff['p99_ratio']:.2f}x)")
    return text


HARNESS = Harness(
    name="serving",
    help="Zipfian serving bench: SLO percentiles + backpressure A/B",
    stem="serving",
    shared=dict(nodes=64, procs=4, emit="BENCH_serving.json"),
    flags=(
        flag("--clients", type=int, default=100_000,
             help="simulated open-loop clients (Poisson superposed)"),
        flag("--tenants", type=int, default=8),
        flag("--theta", type=float, default=0.99,
             help="Zipf skew (0 = uniform)"),
        flag("--keys", type=int, default=16_384,
             help="keys per tenant namespace"),
        flag("--mix", nargs=3, type=float, default=list(DEFAULT_MIX),
             metavar=("READ", "WRITE", "RMW"),
             help="map-op mix fractions (must sum to 1)"),
        flag("--queue-frac", type=float, default=0.10,
             help="fraction of ops hitting the tenant FIFO queues"),
        flag("--queue-home", choices=["packed", "spread"], default="packed",
             help="tenant-queue placement: packed = all on node 0 "
                  "(the serving hotspot), spread = round-robin"),
        flag("--rate", type=float, default=100.0,
             help="per-client Poisson arrival rate (ops/s)"),
        flag("--ops-per-client", type=float, default=1.0),
        flag("--seed", type=int, default=7),
        flag("--bounds", nargs="+", type=_bound, default=[None, 64],
             metavar="BOUND",
             help="admission-control settings to A/B ('off' = "
                  "unbounded; integers arm load shedding)"),
        flag("--shed-retries", type=int, default=1,
             help="client retries per shed op (0 = surface the error)"),
        flag("--retry-backoff", type=positive_float, default=1e-3,
             help="base retry backoff in sim seconds (doubles per "
                  "attempt)"),
        flag("--batch", type=int, default=1,
             help="server request-aggregation batch size"),
        flag("--require-cliff", action="store_true",
             help="also fail unless unbounded p99 >= cliff-factor x "
                  "the bounded p99"),
        flag("--cliff-factor", type=positive_float, default=3.0),
    ),
    run=lambda a, instrument: run_serving(
        nodes=a.nodes, procs_per_node=a.procs, clients=a.clients,
        tenants=a.tenants, theta=a.theta, keys=a.keys, mix=tuple(a.mix),
        queue_frac=a.queue_frac, queue_home=a.queue_home, rate=a.rate,
        ops_per_client=a.ops_per_client, seed=a.seed, bounds=a.bounds,
        shed_retries=a.shed_retries, retry_backoff=a.retry_backoff,
        rpc_batch_size=a.batch, instrument=instrument),
    render=_render,
    emit=lambda report: {"": report},
    check=lambda report, a: check_serving(
        report, require_cliff=a.require_cliff, cliff_factor=a.cliff_factor),
    gate=("check", "require_cliff"),
    # One flight JSON per bound (PATH_off / PATH_b<N>), each carrying the
    # skew + SLO sections.
    flight_interval=2.5e-4,
    flight_select=("serving/", "/ops", "rpc/"),
)
