"""Tests for the event-driven dataflow scheduler and the
placement-liveness bugfix sweep that rode along with it:

- typed ``NoAliveNodesError`` instead of ``ZeroDivisionError`` when every
  node is dead, with a clean runner abort preserving partial results;
- pins and co-locate targets naming dead nodes fall back to survivors;
- ``WorkflowResult.wall_time`` is the first-start/last-finish makespan
  (the old sum survives as ``serial_time``);
- the per-task state machine: exactly one terminal state per task,
  fixed-seed replay bit-identical, work stealing, speculation, and the
  locality-beats-round-robin placement property.
"""

import json
import random

import numpy as np
import pytest

from repro.cluster import Cluster, Node
from repro.faults import FaultInjector, FaultSpec, NodeFault
from repro.mapper import DataSemanticMapper
from repro.simclock import SimClock
from repro.workflow import (
    CoLocateScheduler,
    DataflowRunner,
    DataflowScheduler,
    NoAliveNodesError,
    PinnedScheduler,
    RetryPolicy,
    RoundRobinScheduler,
    SpeculationPolicy,
    Stage,
    Task,
    TaskGraph,
    Workflow,
    WorkflowResult,
    WorkflowRunner,
    upward_ranks,
)
from repro.workflow.contracts import TaskContract, creates, reads
from repro.workflow.dscheduler import TERMINAL_STATES, TaskState
from repro.workflow.runner import StageResult


def small_cluster(n=2, cpus=4):
    clock = SimClock()
    cluster = Cluster(
        clock,
        [Node(f"n{i}", cpus=cpus, local_tiers={"ssd": "nvme"})
         for i in range(n)],
        shared_mounts={"/pfs": "beegfs"},
    )
    return clock, cluster


def writer_task(name, path, elems=256):
    def fn(rt):
        f = rt.open(path, "w")
        f.create_dataset("d", shape=(elems,), dtype="f4",
                         data=np.zeros(elems, dtype=np.float32))
        f.close()
    return Task(name, fn)


def reader_task(name, path):
    def fn(rt):
        f = rt.open(path, "r")
        f["d"][...]
        f.close()
    return Task(name, fn)


def kill_all(cluster):
    for node in cluster.node_names():
        cluster.fail_node(node, force=True)


class Collector:
    """Minimal monitor stand-in: records every published event."""

    def __init__(self):
        self.events = []

    def publish(self, event):
        self.events.append(event)

    def kinds(self):
        return [e.kind for e in self.events]


# ----------------------------------------------------------------------
# Satellite 1: all-dead cluster raises the typed error, not ZeroDivision
# ----------------------------------------------------------------------
class TestAllDeadCluster:
    def test_round_robin_raises_typed_error(self):
        clock, cluster = small_cluster(2)
        kill_all(cluster)
        stage = Stage("s", [writer_task("t", "/pfs/x.h5")])
        with pytest.raises(NoAliveNodesError) as exc:
            RoundRobinScheduler().place(stage, cluster)
        assert exc.value.dead_nodes == ["n0", "n1"]
        assert "all 2" in str(exc.value)

    def test_pinned_and_colocate_raise_too(self):
        clock, cluster = small_cluster(2)
        kill_all(cluster)
        stage = Stage("s", [writer_task("t", "/pfs/x.h5")])
        with pytest.raises(NoAliveNodesError):
            PinnedScheduler({"t": "n0"}).place(stage, cluster)
        with pytest.raises(NoAliveNodesError):
            CoLocateScheduler(["s"]).place(stage, cluster)

    def test_engine_assign_raises_typed_error(self):
        g = TaskGraph()
        g.add_task("t")
        eng = DataflowScheduler(g, slots={"n0": 1}, alive=lambda n: False)
        eng.start()
        name = eng.pop_ready()
        with pytest.raises(NoAliveNodesError):
            eng.assign(name)

    def test_runner_aborts_cleanly_with_partial_results(self):
        clock, cluster = small_cluster(2)
        mapper = DataSemanticMapper(clock)
        spec = FaultSpec(node_faults=(
            NodeFault("n0", at=0.0005), NodeFault("n1", at=0.0005)))
        inj = FaultInjector(spec, cluster).arm()
        wf = Workflow("wf", [
            Stage("produce", [writer_task("w", "/pfs/a.h5")]),
            Stage("consume", [reader_task("r", "/pfs/a.h5")]),
        ])
        runner = WorkflowRunner(cluster, mapper, faults=inj)
        with pytest.raises(NoAliveNodesError):
            runner.run(wf)
        partial = runner.last_result
        assert partial is not None
        # The completed stage's timings and profile survive the abort.
        assert "w" in partial.profiles
        assert partial.stage("produce").task_durations["w"] > 0
        assert partial.stage("consume").aborted

    def test_event_runner_aborts_cleanly_and_cancels_pending(self):
        clock, cluster = small_cluster(2)
        mapper = DataSemanticMapper(clock)
        spec = FaultSpec(node_faults=(
            NodeFault("n0", at=0.0005), NodeFault("n1", at=0.0005)))
        inj = FaultInjector(spec, cluster).arm()
        wf = Workflow("wf", [
            Stage("produce", [writer_task("w", "/pfs/a.h5")]),
            Stage("consume", [reader_task("r", "/pfs/a.h5")]),
        ])
        runner = DataflowRunner(cluster, mapper, faults=inj)
        with pytest.raises(NoAliveNodesError):
            runner.run(wf)
        partial = runner.last_result
        assert "w" in partial.profiles
        states = runner.last_engine.state
        assert states["w"] is TaskState.MEMORY
        assert states["r"] in (TaskState.CANCELLED, TaskState.FAILED)


# ----------------------------------------------------------------------
# Satellite 2: dead pins / co-locate targets fall back to survivors
# ----------------------------------------------------------------------
class TestDeadPinFallback:
    def test_pin_to_dead_node_falls_back_to_survivor(self):
        clock, cluster = small_cluster(3)
        stage = Stage("s", [writer_task("t", "/pfs/x.h5")])
        sched = PinnedScheduler({"t": "n1"})
        assert sched.place(stage, cluster)["t"] == "n1"
        cluster.fail_node("n1")
        # Regression: the old code re-pinned the task onto the corpse.
        placed = sched.place(stage, cluster)["t"]
        assert placed != "n1"
        assert cluster.is_alive(placed)

    def test_pin_to_unknown_node_still_raises(self):
        clock, cluster = small_cluster(2)
        stage = Stage("s", [writer_task("t", "/pfs/x.h5")])
        with pytest.raises(KeyError):
            PinnedScheduler({"t": "n9"}).place(stage, cluster)

    def test_colocate_dead_target_falls_back(self):
        clock, cluster = small_cluster(3)
        stage = Stage("s", [writer_task("t", "/pfs/x.h5")])
        sched = CoLocateScheduler(["s"], node="n2")
        assert sched.place(stage, cluster)["t"] == "n2"
        cluster.fail_node("n2")
        assert sched.place(stage, cluster)["t"] == "n0"

    def test_colocate_unknown_target_still_raises(self):
        clock, cluster = small_cluster(2)
        stage = Stage("s", [writer_task("t", "/pfs/x.h5")])
        with pytest.raises(KeyError):
            CoLocateScheduler(["s"], node="n9").place(stage, cluster)

    def test_colocate_target_dies_mid_workflow_with_retries(self):
        clock, cluster = small_cluster(3)
        mapper = DataSemanticMapper(clock)
        spec = FaultSpec(node_faults=(NodeFault("n2", at=0.0008),))
        inj = FaultInjector(spec, cluster).arm()
        wf = Workflow("wf", [
            Stage("a", [writer_task("w0", "/pfs/a.h5", elems=4096)]),
            Stage("b", [reader_task("r0", "/pfs/a.h5"),
                        reader_task("r1", "/pfs/a.h5")]),
        ])
        runner = WorkflowRunner(
            cluster, mapper, scheduler=CoLocateScheduler(["a", "b"], node="n2"),
            retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.01),
            faults=inj)
        result = runner.run(wf)
        assert not result.failures
        # Everything that ran after the death landed on a survivor.
        for sr in result.stage_results:
            for task, node in sr.placement.items():
                if sr.attempts.get(task, 1) > 1 or node != "n2":
                    assert cluster.is_alive(node)

    def test_event_engine_dead_pin_released(self):
        g = TaskGraph()
        g.add_task("t")
        eng = DataflowScheduler(
            g, slots={"n0": 1, "n1": 1}, pins={"t": "n1"},
            alive=lambda n: n != "n1")
        eng.start()
        a = eng.assign(eng.pop_ready())
        assert a.node == "n0"


# ----------------------------------------------------------------------
# Satellite 3: wall_time is the makespan envelope, not the sum
# ----------------------------------------------------------------------
class TestMakespan:
    def test_overlapping_stages_are_not_double_counted(self):
        r = WorkflowResult(workflow="w", stage_results=[
            StageResult(name="a", wall_time=10.0, started_at=0.0,
                        finished_at=10.0),
            StageResult(name="b", wall_time=8.0, started_at=2.0,
                        finished_at=10.0),
        ])
        # Regression: the old wall_time summed to 18 despite the run
        # finishing at t=10.
        assert r.wall_time == 10.0
        assert r.serial_time == 18.0

    def test_stage_at_a_time_chains_back_to_back(self):
        clock, cluster = small_cluster(2)
        mapper = DataSemanticMapper(clock)
        wf = Workflow("wf", [
            Stage("a", [writer_task("w", "/pfs/a.h5")]),
            Stage("b", [reader_task("r", "/pfs/a.h5")]),
        ])
        result = WorkflowRunner(cluster, mapper).run(wf)
        assert result.wall_time == pytest.approx(result.serial_time)
        a, b = result.stage_results
        assert b.started_at == pytest.approx(a.finished_at)

    def test_event_scheduler_overlaps_independent_stages(self):
        clock, cluster = small_cluster(2)
        mapper = DataSemanticMapper(clock)
        # Two independent pipelines expressed as four stages: the stage
        # runner serializes them; dataflow dependencies let them overlap.
        wf = Workflow("wf", [
            Stage("a1", [writer_task("a1", "/pfs/a.h5", elems=8192)]),
            Stage("b1", [writer_task("b1", "/pfs/b.h5", elems=8192)]),
            Stage("a2", [Task("a2", reader_task("x", "/pfs/a.h5").fn,
                              depends_on=("a1",))]),
            Stage("b2", [Task("b2", reader_task("y", "/pfs/b.h5").fn,
                              depends_on=("b1",))]),
        ])
        for stage in wf.stages:
            task = stage.tasks[0]
            file = f"/pfs/{stage.name[0]}.h5"
            if stage.name.endswith("1"):
                task.contract = TaskContract.declare(
                    creates(file, "/d", shape=(8192,), dtype="f4",
                            elements=8192))
            else:
                task.contract = TaskContract.declare(
                    reads(file, "/d", elements=8192))
        runner = DataflowRunner(cluster, mapper, dependency_mode="dataflow")
        result = runner.run(wf)
        assert result.wall_time < result.serial_time
        spans = {s.name: (s.started_at, s.finished_at)
                 for s in result.stage_results}
        # b1 does not wait for a1 (no edge between the pipelines).
        assert spans["b1"][0] < spans["a1"][1]

    @pytest.mark.parametrize("workload",
                             ["ddmd", "pyflextrkr", "arldm", "chaos"])
    def test_stage_mode_matches_stage_at_a_time_makespan(self, workload):
        # Same makespan up to float summation order; placement may
        # differ, so only wall_time is pinned.
        from repro.experiments.common import fresh_env
        from repro.workloads.registry import build_workload

        def run(event):
            env = fresh_env(n_nodes=2)
            workflow, prepare = build_workload(workload, 0.25)
            if prepare is not None:
                prepare(env.cluster)
            runner = env.runner
            if event:
                runner = DataflowRunner(
                    env.cluster, env.mapper, dependency_mode="stage",
                    path_resolver=env.runner.path_resolver)
            return runner.run(workflow).wall_time

        assert run(event=True) == pytest.approx(run(event=False), rel=1e-9)


# ----------------------------------------------------------------------
# The task graph
# ----------------------------------------------------------------------
class TestTaskGraph:
    def test_stage_mode_barriers(self):
        wf = Workflow("wf", [
            Stage("a", [writer_task("w0", "/pfs/a.h5"),
                        writer_task("w1", "/pfs/b.h5")]),
            Stage("b", [reader_task("r0", "/pfs/a.h5")]),
        ])
        g = TaskGraph.from_workflow(wf, mode="stage")
        assert set(g.entries["r0"].deps) == {"w0", "w1"}

    def test_serial_stage_chains_tasks(self):
        wf = Workflow("wf", [
            Stage("s", [writer_task("w0", "/pfs/a.h5"),
                        writer_task("w1", "/pfs/b.h5"),
                        writer_task("w2", "/pfs/c.h5")], parallel=False),
        ])
        g = TaskGraph.from_workflow(wf, mode="stage")
        assert g.entries["w1"].deps == ["w0"]
        assert g.entries["w2"].deps == ["w1"]

    def test_depends_on_validated(self):
        wf = Workflow("wf", [
            Stage("s", [Task("t", lambda rt: None, depends_on=("ghost",))]),
        ])
        with pytest.raises(ValueError, match="ghost"):
            wf.validate()
        wf2 = Workflow("wf", [
            Stage("s", [Task("t", lambda rt: None, depends_on=("t",))]),
        ])
        with pytest.raises(ValueError):
            wf2.validate()

    def test_cycle_detected(self):
        g = TaskGraph()
        g.add_task("a")
        g.add_task("b")
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        with pytest.raises(ValueError, match="cycle"):
            g.topological_order()

    def test_dataflow_mode_derives_flow_edges(self):
        producer = writer_task("w", "/pfs/a.h5", elems=1024)
        producer.contract = TaskContract.declare(
            creates("/pfs/a.h5", "/d", shape=(1024,), dtype="f4",
                    elements=1024))
        consumer = reader_task("r", "/pfs/a.h5")
        consumer.contract = TaskContract.declare(
            reads("/pfs/a.h5", "/d", elements=1024, dtype="f4"))
        other = writer_task("u", "/pfs/b.h5")
        other.contract = TaskContract.declare(
            creates("/pfs/b.h5", "/d", shape=(256,), dtype="f4",
                    elements=256))
        wf = Workflow("wf", [
            Stage("a", [producer, other]),
            Stage("b", [consumer]),
        ])
        g = TaskGraph.from_workflow(wf, mode="dataflow")
        assert g.entries["r"].deps == ["w"]  # no barrier against "u"
        assert g.volume[("w", "r")] == 1024 * 4

    def test_contractless_task_becomes_barrier(self):
        wf = Workflow("wf", [
            Stage("a", [writer_task("w", "/pfs/a.h5")]),
            Stage("b", [Task("opaque", lambda rt: None)]),
            Stage("c", [reader_task("r", "/pfs/a.h5")]),
        ])
        g = TaskGraph.from_workflow(wf, mode="dataflow")
        assert "w" in g.entries["opaque"].deps
        assert "opaque" in g.entries["r"].deps

    def test_upward_ranks_prefer_critical_path(self):
        g = TaskGraph()
        for n in ("root", "heavy", "light", "sink"):
            g.add_task(n)
        g.add_edge("root", "heavy")
        g.add_edge("root", "light")
        g.add_edge("heavy", "sink")
        ranks = upward_ranks(g, {"heavy": 10.0, "light": 1.0})
        assert ranks["heavy"] > ranks["light"]
        assert ranks["root"] > ranks["heavy"]


# ----------------------------------------------------------------------
# State-machine properties
# ----------------------------------------------------------------------
def random_graph(rng, n_tasks):
    g = TaskGraph()
    for i in range(n_tasks):
        g.add_task(f"t{i}")
    for i in range(1, n_tasks):
        for j in rng.sample(range(i), min(i, rng.randint(0, 3))):
            g.add_edge(f"t{j}", f"t{i}", volume=rng.randint(0, 1 << 20))
    return g


class TestStateMachine:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_every_task_reaches_exactly_one_terminal_state(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, 40)
        eng = DataflowScheduler(g, slots={"n0": 2, "n1": 2},
                                policy="least_loaded")
        eng.start()
        terminal_transitions = {name: 0 for name in g.entries}
        while True:
            name = eng.pop_ready()
            if name is None:
                break
            eng.assign(name)
            # Some tasks fail an attempt first; some fail terminally.
            roll = rng.random()
            if roll < 0.15:
                eng.fail(name, elapsed=0.1, backoff=0.05, terminal=False)
            elif roll < 0.25:
                eng.fail(name, elapsed=0.1, terminal=True, release=True)
                terminal_transitions[name] += 1
            else:
                eng.complete(name, rng.random())
                terminal_transitions[name] += 1
        for name in eng.cancel_pending():
            terminal_transitions[name] += 1
        assert all(eng.state[n] in TERMINAL_STATES for n in g.entries)
        assert all(count == 1 for count in terminal_transitions.values())

    def test_terminal_transition_from_terminal_state_rejected(self):
        g = TaskGraph()
        g.add_task("t")
        eng = DataflowScheduler(g, slots={"n0": 1})
        eng.start()
        eng.assign(eng.pop_ready())
        eng.complete("t", 1.0)
        with pytest.raises(RuntimeError):
            eng.complete("t", 1.0)
        with pytest.raises(RuntimeError):
            eng.fail("t")
        with pytest.raises(RuntimeError):
            eng.assign("t")

    def test_simulation_is_deterministic(self):
        rng = random.Random(99)
        g1 = random_graph(rng, 60)
        rng = random.Random(99)
        g2 = random_graph(rng, 60)
        durs = {f"t{i}": (i % 7 + 1) * 0.1 for i in range(60)}
        s1 = DataflowScheduler(g1, slots={"n0": 2, "n1": 3}).simulate(durs)
        s2 = DataflowScheduler(g2, slots={"n0": 2, "n1": 3}).simulate(durs)
        assert s1.placement == s2.placement
        assert s1.vstart == s2.vstart
        assert s1.makespan == s2.makespan

    def test_retry_backoff_delays_virtual_ready(self):
        g = TaskGraph()
        g.add_task("t")
        eng = DataflowScheduler(g, slots={"n0": 1})
        eng.start()
        eng.assign(eng.pop_ready())
        eng.fail("t", elapsed=1.0, backoff=0.5, terminal=False)
        name = eng.pop_ready()
        assert name == "t"
        a = eng.assign(name)
        assert a.vstart == pytest.approx(1.5)


# ----------------------------------------------------------------------
# Work stealing and speculation
# ----------------------------------------------------------------------
class TestStealingAndSpeculation:
    def test_idle_node_steals_from_busy_preferred_node(self):
        g = TaskGraph()
        g.add_task("p")
        g.add_task("c1")
        g.add_task("c2")
        g.add_edge("p", "c1", volume=1000)
        g.add_edge("p", "c2", volume=1000)
        eng = DataflowScheduler(g, slots={"n0": 1, "n1": 1},
                                policy="locality", steal=True)
        eng.start()
        eng.complete(eng.assign(eng.pop_ready()).task, 1.0)  # p on n0
        a1 = eng.assign(eng.pop_ready())
        assert a1.node == "n0" and a1.stolen_from is None  # locality
        a2 = eng.assign(eng.pop_ready())
        # n0's only slot is busy until p+c; n1 is idle: steal.
        assert a2.stolen_from == "n0"
        assert a2.node == "n1"
        assert a2.saved > 0
        assert eng.steals == 1

    def test_steal_disabled_keeps_locality(self):
        g = TaskGraph()
        g.add_task("p")
        g.add_task("c1")
        g.add_task("c2")
        g.add_edge("p", "c1", volume=1000)
        g.add_edge("p", "c2", volume=1000)
        eng = DataflowScheduler(g, slots={"n0": 1, "n1": 1},
                                policy="locality", steal=False)
        sched = eng.simulate(default_duration=1.0)
        assert sched.steals == 0
        assert sched.placement["c1"] == "n0"
        assert sched.placement["c2"] == "n0"

    def test_stealing_shortens_makespan(self):
        def build():
            g = TaskGraph()
            g.add_task("p")
            for i in range(4):
                g.add_task(f"c{i}")
                g.add_edge("p", f"c{i}", volume=1000)
            return g

        slow = DataflowScheduler(build(), slots={"n0": 1, "n1": 1},
                                 policy="locality", steal=False)
        fast = DataflowScheduler(build(), slots={"n0": 1, "n1": 1},
                                 policy="locality", steal=True)
        assert (fast.simulate(default_duration=1.0).makespan
                < slow.simulate(default_duration=1.0).makespan)

    def test_straggler_is_speculated(self):
        clock, cluster = small_cluster(2, cpus=4)
        collector = Collector()
        mapper = DataSemanticMapper(clock)
        mapper.monitor = collector
        fast = [writer_task(f"w{i}", f"/pfs/f{i}.h5", elems=64)
                for i in range(4)]
        # The straggler is a tail task (dependent on the fast wave), so
        # a duration median exists by the time it completes — the shape
        # speculation is built for.
        slow = writer_task("slug", "/pfs/slug.h5", elems=64)
        slow.compute_seconds = 5.0
        slow.depends_on = tuple(t.name for t in fast)
        wf = Workflow("wf", [Stage("s", fast + [slow])])
        runner = DataflowRunner(
            cluster, mapper, placement="round_robin",
            speculation=SpeculationPolicy(factor=2.0, min_samples=3))
        result = runner.run(wf)
        spec_events = [e for e in collector.events
                       if e.kind == "task_speculated"]
        assert [e.task for e in spec_events] == ["slug"]
        assert spec_events[0].speculative_node != spec_events[0].node
        assert not result.failures
        # The speculative probe must not pollute the real profiles.
        assert sorted(result.profiles) == sorted(
            t.name for t in wf.all_tasks())

    def test_stolen_and_ready_events_published(self):
        clock, cluster = small_cluster(2, cpus=1)
        collector = Collector()
        mapper = DataSemanticMapper(clock)
        mapper.monitor = collector
        producer = writer_task("p", "/pfs/a.h5", elems=2048)
        producer.contract = TaskContract.declare(
            creates("/pfs/a.h5", "/d", shape=(2048,), dtype="f4",
                    elements=2048))
        consumers = []
        for i in range(2):
            c = reader_task(f"c{i}", "/pfs/a.h5")
            c.contract = TaskContract.declare(
                reads("/pfs/a.h5", "/d", elements=2048, dtype="f4"))
            consumers.append(c)
        wf = Workflow("wf", [Stage("a", [producer]), Stage("b", consumers)])
        runner = DataflowRunner(cluster, mapper, placement="locality",
                                dependency_mode="dataflow")
        runner.run(wf)
        kinds = collector.kinds()
        assert kinds.count("task_ready") == 3
        assert "task_stolen" in kinds  # second consumer steals to n1

    def test_events_flow_through_real_monitor(self):
        from repro.monitor import WorkflowMonitor

        clock, cluster = small_cluster(2, cpus=1)
        monitor = WorkflowMonitor(clock)
        mapper = DataSemanticMapper(clock, monitor=monitor)
        wf = Workflow("wf", [
            Stage("a", [writer_task("w", "/pfs/a.h5")]),
            Stage("b", [reader_task("r", "/pfs/a.h5")]),
        ])
        result = DataflowRunner(cluster, mapper).run(wf)
        monitor.finish()
        assert not result.failures
        # The live graph snapshot still reconciles with the run.
        assert len(monitor.aggregator.tasks_finished) == 2


# ----------------------------------------------------------------------
# Fixed-seed replay
# ----------------------------------------------------------------------
class TestReplay:
    def chaos_run(self):
        clock, cluster = small_cluster(3)
        mapper = DataSemanticMapper(clock)
        spec = FaultSpec(seed=11, node_faults=(NodeFault("n1", at=0.001),))
        inj = FaultInjector(spec, cluster).arm()
        wf = Workflow("wf", [
            Stage("a", [writer_task(f"w{i}", f"/pfs/f{i}.h5", elems=2048)
                        for i in range(4)]),
            Stage("b", [reader_task(f"r{i}", f"/pfs/f{i}.h5")
                        for i in range(4)], best_effort=True),
        ])
        runner = DataflowRunner(
            cluster, mapper, placement="locality",
            retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.01),
            faults=inj)
        return runner.run(wf)

    def test_fixed_seed_replay_is_bit_identical(self):
        a = json.dumps(self.chaos_run().to_json_dict(), sort_keys=True)
        b = json.dumps(self.chaos_run().to_json_dict(), sort_keys=True)
        assert a == b


# ----------------------------------------------------------------------
# Placement quality: locality beats round-robin under a cache
# ----------------------------------------------------------------------
class TestLocalityPlacement:
    def test_locality_clusters_consumers_and_beats_round_robin(self):
        from repro.experiments.dataflow_scheduler import (
            run_locality_fixture,
        )

        rr = run_locality_fixture(placement="round_robin")
        loc = run_locality_fixture(placement="locality")
        # Clustered consumers share one replica; spreading pays one
        # replication miss per node.
        assert loc.cache_misses < rr.cache_misses
        assert loc.wall_time < rr.wall_time
