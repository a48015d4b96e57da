"""Property-based tests (hypothesis) on core invariants.

Random programs and dataflow shapes are generated and pushed through the
full stack; the invariants checked here are the ones every figure rests on:
timing-model consistency, full cycle attribution, dependence correctness
and counter convergence.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.core.config import clustered_machine, monolithic_machine
from repro.core.rename import build_consumer_lists, extract_dependences
from repro.core.serialize import result_from_dict, result_to_dict
from repro.core.simulator import ClusteredSimulator
from repro.criticality.critical_path import analyze_critical_path
from repro.criticality.graph import validate_timing
from repro.criticality.slack import compute_global_slack
from repro.experiments.cache import job_key
from repro.experiments.parallel import RunJob, execute_job
from repro.util.counters import SaturatingCounter, StratifiedFrequencyCounter
from repro.vm.isa import OpClass
from repro.vm.trace import DynamicInstruction

# ---------------------------------------------------------------------------
# Random dataflow-trace strategy: each instruction reads 0-2 of the previous
# 8 registers and writes one register; ~20% are loads with random addresses.
# ---------------------------------------------------------------------------


@st.composite
def random_traces(draw, max_len=120):
    length = draw(st.integers(min_value=1, max_value=max_len))
    trace = []
    for i in range(length):
        kind = draw(st.integers(min_value=0, max_value=9))
        reg = draw(st.integers(min_value=1, max_value=8))
        nsrcs = draw(st.integers(min_value=0, max_value=2))
        srcs = tuple(
            draw(st.integers(min_value=1, max_value=8)) for __ in range(nsrcs)
        )
        if kind < 2:
            opclass, opcode, dest, addr = OpClass.LOAD, "ld", reg, draw(
                st.integers(min_value=0, max_value=63)
            ) * 64
        elif kind < 3:
            opclass, opcode, dest, addr = OpClass.STORE, "st", None, draw(
                st.integers(min_value=0, max_value=63)
            ) * 64
        elif kind < 4:
            opclass, opcode, dest, addr = OpClass.INT_MUL, "mul", reg, None
        else:
            opclass, opcode, dest, addr = OpClass.INT_ALU, "add", reg, None
        trace.append(
            DynamicInstruction(
                index=i,
                pc=draw(st.integers(min_value=0, max_value=30)),
                opcode=opcode,
                opclass=opclass,
                dest=dest,
                srcs=srcs,
                next_pc=i + 1,
                mem_addr=addr,
            )
        )
    return trace


CONFIGS = [monolithic_machine(), clustered_machine(2), clustered_machine(8)]


@given(trace=random_traces(), config_index=st.integers(min_value=0, max_value=2))
@settings(max_examples=40, deadline=None)
def test_timing_satisfies_every_model_edge(trace, config_index):
    config = CONFIGS[config_index]
    result = ClusteredSimulator(config, max_cycles=100_000).run(
        trace, mispredicted=frozenset()
    )
    assert validate_timing(result.records, config) == []


@given(trace=random_traces(), config_index=st.integers(min_value=0, max_value=2))
@settings(max_examples=40, deadline=None)
def test_critical_path_attributes_every_cycle(trace, config_index):
    config = CONFIGS[config_index]
    result = ClusteredSimulator(config, max_cycles=100_000).run(
        trace, mispredicted=frozenset()
    )
    analysis = analyze_critical_path(result.records)
    assert analysis.attributed_cycles == analysis.total_cycles
    assert all(v >= 0 for v in analysis.breakdown.values())


@given(trace=random_traces())
@settings(max_examples=40, deadline=None)
def test_slack_non_negative(trace):
    config = clustered_machine(4)
    result = ClusteredSimulator(config, max_cycles=100_000).run(
        trace, mispredicted=frozenset()
    )
    slacks = compute_global_slack(result.records, config)
    assert all(s >= 0 for s in slacks)


@given(trace=random_traces())
@settings(max_examples=40, deadline=None)
def test_event_times_are_ordered(trace):
    result = ClusteredSimulator(monolithic_machine(), max_cycles=100_000).run(
        trace, mispredicted=frozenset()
    )
    for rec in result.records:
        assert rec.dispatch_time < rec.ready_time <= rec.issue_time
        assert rec.issue_time < rec.complete_time < rec.commit_time


@given(trace=random_traces())
@settings(max_examples=40, deadline=None)
def test_dependences_point_backward_and_invert_cleanly(trace):
    deps = extract_dependences(trace)
    for i, d in enumerate(deps):
        assert all(p < i for p in d.all_deps)
    consumers = build_consumer_lists(deps)
    for producer, consumer_list in enumerate(consumers):
        for consumer in consumer_list:
            assert producer in deps[consumer].all_deps


@given(
    outcomes=st.lists(st.booleans(), min_size=1, max_size=300),
    increment=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_saturating_counter_stays_in_range(outcomes, increment):
    counter = SaturatingCounter(bits=6, increment=increment)
    for outcome in outcomes:
        counter.train(outcome)
        assert 0 <= counter.value <= counter.max_value


@given(outcomes=st.lists(st.booleans(), min_size=1, max_size=300))
@settings(max_examples=60, deadline=None)
def test_stratified_counter_within_one_step_of_exact(outcomes):
    counter = StratifiedFrequencyCounter(levels=16)
    for outcome in outcomes:
        counter.train(outcome)
    exact = sum(outcomes) / len(outcomes)
    assert abs(counter.fraction - exact) <= 0.5 / 15


# ---------------------------------------------------------------------------
# Run-cache keys: injective over every field that determines a run's output.
# ---------------------------------------------------------------------------


@st.composite
def run_jobs(draw):
    num_clusters = draw(st.sampled_from([1, 2, 4, 8]))
    fwd = draw(st.integers(min_value=0, max_value=4))
    return RunJob(
        kernel=draw(st.sampled_from(["gcc", "vpr", "mcf", "bzip2"])),
        instructions=draw(st.integers(min_value=100, max_value=20_000)),
        seed=draw(st.integers(min_value=0, max_value=7)),
        loc_mode=draw(st.sampled_from(["probabilistic", "stratified", "exact"])),
        config=clustered_machine(num_clusters, forwarding_latency=fwd),
        policy=draw(st.sampled_from(["dependence", "focused", "l", "s", "p"])),
        collect_ilp=draw(st.booleans()),
        warm=draw(st.booleans()),
    )


@given(a=run_jobs(), b=run_jobs())
@settings(max_examples=200, deadline=None)
def test_cache_keys_injective_over_distinct_jobs(a, b):
    # Distinct (kernel, instructions, seed, loc_mode, config, policy,
    # collect_ilp, warm) tuples must never collide on disk.
    assume(a != b)
    assert job_key(a) != job_key(b)


@given(job=run_jobs())
@settings(max_examples=100, deadline=None)
def test_cache_key_is_stable_and_well_formed(job):
    key = job_key(job)
    assert key == job_key(job)
    assert len(key) == 64 and all(c in "0123456789abcdef" for c in key)


# ---------------------------------------------------------------------------
# Result serialization: exact round-trip, nested counters included.
# ---------------------------------------------------------------------------


@given(trace=random_traces(), config_index=st.integers(min_value=0, max_value=2))
@settings(max_examples=25, deadline=None)
def test_result_serialization_round_trips_exactly(trace, config_index):
    import json

    config = CONFIGS[config_index]
    result = ClusteredSimulator(config, collect_ilp=True, max_cycles=100_000).run(
        trace, mispredicted=frozenset()
    )
    payload = result_to_dict(result)
    # Survives an actual JSON encode/decode, not just dict copying.
    revived = result_from_dict(json.loads(json.dumps(payload)))
    assert result_to_dict(revived) == payload
    assert revived.cpi == result.cpi
    assert revived.cycles == result.cycles
    assert revived.config == result.config
    assert revived.ilp_profile.issued_sum == result.ilp_profile.issued_sum
    assert revived.ilp_profile.cycle_count == result.ilp_profile.cycle_count
    # Consumer back-references are re-linked to the revived records.
    for original, loaded in zip(result.records, revived.records):
        assert [w.index for w in original.waiters] == [
            w.index for w in loaded.waiters
        ]
        assert original.forwarded_to_clusters == loaded.forwarded_to_clusters


@given(trace=random_traces(), fwd=st.integers(min_value=0, max_value=4))
@settings(max_examples=30, deadline=None)
def test_monolithic_is_never_far_slower_than_clustered(trace, fwd):
    # Partitioning removes scheduling freedom, but oldest-first is a greedy
    # heuristic, so the monolithic machine is NOT a strict lower bound:
    # splitting the window can accidentally yield a better global schedule
    # (a Graham list-scheduling anomaly; hypothesis found a 55-vs-49-cycle
    # example).  What does hold is a Graham-style factor bound: greedy on
    # the monolithic machine stays within ~2x of any feasible schedule,
    # and every clustered schedule is feasible for the monolithic machine.
    mono = ClusteredSimulator(monolithic_machine(), max_cycles=100_000).run(
        trace, mispredicted=frozenset()
    )
    split = ClusteredSimulator(
        clustered_machine(4, forwarding_latency=fwd), max_cycles=100_000
    ).run(trace, mispredicted=frozenset())
    assert mono.cycles <= 2 * split.cycles + 10


@given(
    sim=st.sampled_from(["event", "batched", "reference"]),
    kernel=st.sampled_from(["gcc", "mcf", "vpr"]),
    instructions=st.integers(min_value=50, max_value=400),
    seed=st.integers(min_value=0, max_value=3),
    clusters=st.sampled_from([1, 2, 4]),
    policy=st.sampled_from(["dependence", "focused", "l"]),
)
@settings(max_examples=15, deadline=None)
def test_columnar_codec_round_trips_every_backend(
    sim, kernel, instructions, seed, clusters, policy
):
    import json

    job = RunJob(
        kernel=kernel,
        instructions=instructions,
        seed=seed,
        loc_mode="probabilistic",
        config=clustered_machine(clusters),
        policy=policy,
        collect_ilp=True,
        sim=sim,
        # The batched backend attaches no telemetry; the other two do.
        metrics=sim != "batched",
    )
    result = execute_job(job)
    payload = result_to_dict(result)
    wire = json.loads(json.dumps(payload))
    revived = result_from_dict(wire)
    # The encoded form is JSON-native, so it survives a JSON trip unchanged.
    assert payload == wire
    assert result_to_dict(revived) == payload
    assert (revived.telemetry is None) == (sim == "batched")
    assert revived.ilp_profile == result.ilp_profile
    assert (
        analyze_critical_path(revived.records).breakdown
        == analyze_critical_path(result.records).breakdown
    )
