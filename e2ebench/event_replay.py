"""``event-replay``: provider failovers applied by the delta engine.

Set-up builds a ``bench`` europe2013 baseline propagation (topology,
IXPs, propagation stages of a fresh
:func:`~repro.scenarios.workloads.scenario_run`) and a
:class:`~repro.scenarios.events.TimelineReplay` over it, three
times, from the scenario seeds :data:`BASELINE_SEEDS`; the run replays
on all of them.  These topologies do not follow ``--seed``: with three
new topologies per seed, ten runs spread 13% (IQR) in ``ops_per_s``
and 14% in ``op_cpu_ms``, against 7-10% on fixed ones.  ``--seed``
draws the victims, their providers and the order.  One op is one
failover cycle: a multihomed edge site (the victims the ``failover``
event family draws) loses a provider session (``SessionDown``) and gets
it back (``SessionUp``), each applied with ``TimelineReplay.apply`` —
affected-origin frontier, CSR splice, partial re-propagation and patch
of the prior result.

A failover at an edge site that records routes (a collector vantage
point, looking-glass or validation host) changes that observer's view
of every origin, so the delta engine re-runs every origin; elsewhere it
re-runs about one; the cost of the first kind also differs twofold
from one observer to the next.  The ``failover`` family draws its
victims uniformly from the multihomed edge sites, so how many of a
run's draws are observers would follow the seed and swing the tail
and the mean by a factor of two.  The benchmark keeps the family's
pool and its share of observers but draws them in fixed numbers: per
baseline and round, the next :data:`WATCHED` observer victims and
:data:`QUIET` others from seeded permutations of the two pools, each
with a seeded provider, in a seeded order.  Successive rounds walk
further along the permutations, so a run's mean follows the topology
rather than a handful of draws.  Failover is restorative, so every
round starts from the baseline state.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
import traceback

from measure import Outcome, add_links, import_probe_seconds, peak_rss_mb

SIZE = "bench"
SCENARIO = "europe2013"
#: failover cycles per round and baseline at observer / non-observer
#: edge sites.  Observers are 17.0% of the family's victim pool (mean
#: over the 30 bench europe2013 baselines of seeds 1-10, range
#: 13.1-20.6%); 1 of 6 is the nearest share in whole cycles.
WATCHED = 1
QUIET = 5
#: scenario seeds of the baselines built, and replayed, per run.
BASELINE_SEEDS = (1000, 1001, 1002)


def build_replay(seed: int):
    """The baseline propagation and a replay over it (the set-up)."""
    from repro.scenarios.events import TimelineReplay, record_sets
    from repro.scenarios.workloads import scenario_run
    run = scenario_run(SIZE, seed, scenario=SCENARIO)
    internet = run.artifact("topology")
    ixps = run.artifact("ixps")
    propagation = run.artifact("propagation")
    record_at, record_alternatives_at = record_sets(propagation)
    return TimelineReplay(internet.graph, ixps["route_servers"],
                          propagation["propagation"],
                          record_at, record_alternatives_at)


def victim_pools(replay):
    """Multihomed edge sites, split into (observers, the rest)."""
    graph = replay.graph
    observers = replay.record_at | replay.record_alternatives_at
    edge = [asn for asn in sorted(graph.asns())
            if len(graph.providers(asn)) >= 2 and not graph.customers(asn)]
    return ([asn for asn in edge if asn in observers],
            [asn for asn in edge if asn not in observers])


class Plan:
    """Seeded failover cycles on one baseline, round after round."""

    def __init__(self, replay, rng: random.Random) -> None:
        self.replay = replay
        self.rng = rng
        self.pools = victim_pools(replay)
        for pool in self.pools:
            rng.shuffle(pool)

    def cycles(self, round_index: int):
        """Round *round_index*'s (SessionDown, SessionUp) pairs."""
        from repro.scenarios.events import SessionDown, SessionUp
        victims = []
        for pool, count in zip(self.pools, (WATCHED, QUIET)):
            start = round_index * count
            victims.extend(pool[(start + i) % len(pool)]
                           for i in range(count))
        self.rng.shuffle(victims)
        cycles = []
        for victim in victims:
            provider = self.rng.choice(
                sorted(self.replay.graph.providers(victim)))
            cycles.append((SessionDown(victim, provider),
                           SessionUp(victim, provider)))
        return cycles


def reference_links(replay):
    """Visible links of a from-scratch propagation of the replay's
    current state (the delta path's ground truth; untimed)."""
    from repro.scenarios.events import rebuild_propagation
    _, result = rebuild_propagation(replay.graph, replay.route_servers,
                                    replay.record_at,
                                    replay.record_alternatives_at)
    return result.visible_links()


def _apply(replay, event, tracer):
    """Apply one event; returns ``(report, wall seconds, CPU seconds)``."""
    started, cpu = time.perf_counter(), time.process_time()
    if tracer is None:
        report = replay.apply(event)
    else:
        with tracer.root("op"):
            report = replay.apply(event)
    return (report, time.perf_counter() - started,
            time.process_time() - cpu)


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    import_s = import_probe_seconds()
    replays, builds = [], []
    for baseline_seed in BASELINE_SEEDS:
        gc.collect()
        started = time.perf_counter()
        replays.append(build_replay(baseline_seed))
        builds.append(time.perf_counter() - started)
    outcome = Outcome(setup_s=import_s + statistics.median(builds))
    rng = random.Random(seed)
    plans = [Plan(replay, rng) for replay in replays]
    #: visible links of each baseline's from-scratch propagation: every
    #: round restores the baseline state, so it must end on these.
    baselines = [plan.replay.result.visible_links() for plan in plans]

    cpu_in_ops = 0.0
    recomputed = reused = 0
    measuring = time.perf_counter()
    round_index = 0
    while time.perf_counter() - measuring < seconds:
        for plan, baseline in zip(plans, baselines):
            replay, cycles = plan.replay, plan.cycles(round_index)
            #: the cycle whose mid-failover state is checked this round.
            checked = round_index % len(cycles)
            gc.collect()
            failed_before = outcome.failed
            for index, (down, up) in enumerate(cycles):
                outcome.attempted += 1
                try:
                    first = _apply(replay, down, tracer)
                    if index == checked:
                        # Untimed: the failed-over state against a
                        # from-scratch propagation of that state.
                        patched = replay.result.visible_links()
                        reference = reference_links(replay)
                        add_links(outcome, patched, reference)
                        mid_ok = patched == reference
                    second = _apply(replay, up, tracer)
                except Exception:
                    traceback.print_exc()
                    outcome.failed += 1
                    continue
                outcome.op_seconds.append(first[1] + second[1])
                cpu_in_ops += first[2] + second[2]
                reports = (first[0], second[0])
                recomputed += sum(r.recomputed for r in reports)
                reused += sum(r.reused for r in reports)
                if any(r.recomputed + r.reused != r.total for r in reports) \
                        or (index == checked and not mid_ok):
                    outcome.failed += 1
                    outcome.wrong += 1
            patched = replay.result.visible_links()
            add_links(outcome, patched, baseline)
            if patched != baseline:
                # Every op on this baseline led to the wrong end state.
                unflagged = len(cycles) - (outcome.failed - failed_before)
                outcome.failed += unflagged
                outcome.wrong += unflagged
        round_index += 1
    outcome.cpu_seconds = cpu_in_ops
    outcome.peak_rss_mb = peak_rss_mb()
    ops = max(len(outcome.op_seconds), 1)
    outcome.extras = {"runtime.delta.origins_recomputed": recomputed / ops,
                      "runtime.delta.origins_reused": reused / ops}
    return outcome
