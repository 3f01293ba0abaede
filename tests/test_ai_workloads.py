"""AI-workload generators, importer, and the new-collective replay edges.

Covers the PR's tentpole surface end to end: the dp/pp/moe synthetic
generators (determinism, metadata addressing, validator cleanliness),
cross-driver replay equivalence for the new collectives (token text ==
token binary == compiled cold == compiled warm == batched, to 1e-9),
the ``.tic`` opcode-space invalidation, the per-opcode shard/batch
refusals, the param comms importer against the checked-in golden trace,
the importer leg of the chaos fuzz sweep, and the campaign-layer
family wiring (moe seeds always address; dp/pp normalise like LU).
"""

import json
import os
import shutil
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import Scenario, TraceSpec, scenario_cache_key
from repro.core import compile as compile_mod
from repro.core.actions import (
    AllGather, AllToAll, AllToAllv, CommSize, ReduceScatter, parse_action,
)
from repro.core.batch import CollectiveBatcher
from repro.core.binfmt import (
    OPCODE_SPACE_VERSION, binary_trace_file_name, read_binary_trace,
    write_binary_trace,
)
from repro.core.compile import compile_source, op_tokens, tic_path_for
from repro.core.replay import TraceReplayer
from repro.core.synth_ai import (
    AI_FAMILIES, moe_dispatch_splits, synth_dp_metadata, synth_moe_metadata,
    synthetic_dp_actions, synthetic_moe_actions, synthetic_pp_actions,
    write_synthetic_ai_trace,
)
from repro.core.trace import read_trace_dir, trace_file_name
from repro.core.validate import validate_trace
from repro.extract.tau2ti import _RankExtractor
from repro.importers import import_param_comms, normalize_comm_name
from repro.simkernel import Platform
from repro.simkernel.pwl import IDENTITY_MODEL
from repro.smpi import round_robin_deployment

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "param_comms")

# Small-but-representative parameter sets: every family exercises each
# of its collective kinds at least once.
FAMILY_PARAMS = {
    "dp": dict(n_buckets=2, bucket_bytes=1 << 16, step_flops=1e7),
    "pp": dict(microbatches=2, activation_bytes=1 << 14, stage_flops=1e6,
               grad_bytes=1 << 12),
    "moe": dict(layers=1, tokens_bytes=1 << 14, gate_flops=1e5,
                expert_flops=1e6, dense_bytes=1 << 12),
}


def shared_platform(n_hosts, speed=1e9):
    platform = Platform("t")
    platform.add_cluster("c", n_hosts, speed=speed, link_bw=1.25e8,
                         link_lat=1e-5, backbone_bw=1.25e9,
                         backbone_lat=1e-5)
    return platform


def fatpipe_platform(n_hosts, speed=1e9):
    platform = Platform("t")
    platform.add_cluster("c", n_hosts, speed=speed, link_bw=1.25e8,
                         link_lat=1e-6, backbone_bw=1.25e10,
                         backbone_lat=1e-6, backbone_sharing="fatpipe")
    return platform


def make_replayer(platform, n_ranks, **kw):
    kw.setdefault("comm_model", IDENTITY_MODEL)
    return TraceReplayer(platform, round_robin_deployment(platform, n_ranks),
                         **kw)


def replay_dir(directory, n_ranks, **kw):
    return make_replayer(shared_platform(n_ranks), n_ranks, **kw).replay(
        directory)


def assert_same_makespan(a, b, tol=1e-9):
    assert abs(a.simulated_time - b.simulated_time) <= \
        tol * max(1.0, abs(a.simulated_time))
    for ra, rb in zip(a.per_rank_time, b.per_rank_time):
        assert abs(ra - rb) <= tol * max(1.0, abs(ra))
    assert a.n_actions == b.n_actions


# ----------------------------------------------------------------------
# Generators: determinism, metadata, validator cleanliness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", AI_FAMILIES)
def test_generator_is_deterministic(family):
    params = FAMILY_PARAMS[family]
    for rank in range(4):
        a = list({"dp": synthetic_dp_actions, "pp": synthetic_pp_actions,
                  "moe": synthetic_moe_actions}[family](
                      rank, 4, 2, seed=5, **params))
        b = list({"dp": synthetic_dp_actions, "pp": synthetic_pp_actions,
                  "moe": synthetic_moe_actions}[family](
                      rank, 4, 2, seed=5, **params))
        assert a == b
        assert a[0] == CommSize(rank, 4)


@pytest.mark.parametrize("family", AI_FAMILIES)
def test_generated_trace_validates_clean(family, tmp_path):
    write_synthetic_ai_trace(family, str(tmp_path), 4, 2,
                             **FAMILY_PARAMS[family])
    report = validate_trace(read_trace_dir(str(tmp_path)))
    assert report.ok, [str(f) for f in report.findings]


def test_moe_splits_sum_exactly_and_depend_on_seed():
    s0 = moe_dispatch_splits(8, 1 << 20, seed=0, step=0, layer=0, src=3)
    s1 = moe_dispatch_splits(8, 1 << 20, seed=1, step=0, layer=0, src=3)
    assert len(s0) == 8 and sum(s0) == float(1 << 20)
    assert all(x >= 0 for x in s0)
    assert s0 != s1
    # Pure function: same arguments, same splits.
    assert s0 == moe_dispatch_splits(8, 1 << 20, seed=0, step=0, layer=0,
                                     src=3)


def test_moe_combine_is_transpose_of_dispatch(tmp_path):
    """Rank r's combine splits row must be column r of the dispatch
    matrix — what makes the pairwise exchange globally consistent."""
    n = 4
    traces = {}
    write_synthetic_ai_trace("moe", str(tmp_path), n, 1,
                             **FAMILY_PARAMS["moe"])
    trace = read_trace_dir(str(tmp_path))
    for rank in range(n):
        traces[rank] = [a for a in trace.actions_of(rank)
                        if isinstance(a, AllToAllv)]
    # dispatch = first AllToAllv per rank, combine = second
    dispatch = [traces[r][0].splits for r in range(n)]
    combine = [traces[r][1].splits for r in range(n)]
    for r in range(n):
        for d in range(n):
            assert combine[r][d] == dispatch[d][r]


def test_metadata_seed_normalisation_matches_family_semantics():
    # dp at jitter 0 never draws from the RNG: the seed must not split
    # the content address.
    assert synth_dp_metadata(4, 2, seed=3) == synth_dp_metadata(4, 2, seed=9)
    assert synth_dp_metadata(4, 2, seed=3, jitter=0.01) != \
        synth_dp_metadata(4, 2, seed=9, jitter=0.01)
    # moe routing is seed-dependent even at jitter 0.
    assert synth_moe_metadata(4, 2, seed=3) != synth_moe_metadata(4, 2,
                                                                 seed=9)


def test_unknown_family_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown AI workload family"):
        write_synthetic_ai_trace("transformerz", str(tmp_path), 4, 1)


# ----------------------------------------------------------------------
# Cross-driver equivalence: token text == token binary == compiled cold
# == compiled warm (.tic) == batched, per family
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family,extra", [
    ("dp", {}),
    ("dp", {"algo": "zero"}),
    ("pp", {}),
    ("moe", {}),
])
def test_family_replays_identically_across_drivers(family, extra, tmp_path):
    n = 4
    params = dict(FAMILY_PARAMS[family], **extra)
    text_dir = tmp_path / "text"
    bin_dir = tmp_path / "bin"
    write_synthetic_ai_trace(family, str(text_dir), n, 2, seed=11, **params)
    write_synthetic_ai_trace(family, str(bin_dir), n, 2, seed=11,
                             binary=True, **params)

    token_text = replay_dir(str(text_dir), n, compiled="never")
    token_bin = replay_dir(str(bin_dir), n, compiled="never")
    compiled_cold = replay_dir(str(text_dir), n, compiled="always")
    assert os.path.exists(tic_path_for(
        os.path.join(str(text_dir), trace_file_name(0))))
    compiled_warm = replay_dir(str(text_dir), n, compiled="always")

    for other in (token_bin, compiled_cold, compiled_warm):
        assert_same_makespan(token_text, other)
    assert token_text.simulated_time > 0.0


@settings(max_examples=8, deadline=None)
@given(family=st.sampled_from(AI_FAMILIES),
       n_ranks=st.integers(2, 5),
       steps=st.integers(1, 2),
       seed=st.integers(0, 3))
def test_property_roundtrip_generator_to_replay(family, n_ranks, steps,
                                                seed, tmp_path_factory):
    """Generator -> text -> binfmt -> .tic -> replay: every
    representation replays to the same makespan under every driver."""
    tmp_path = tmp_path_factory.mktemp("ai")
    params = FAMILY_PARAMS[family]
    text_dir = tmp_path / "text"
    write_synthetic_ai_trace(family, str(text_dir), n_ranks, steps,
                             seed=seed, **params)

    # Text -> binary by re-encoding the parsed actions (the binfmt leg).
    bin_dir = tmp_path / "bin"
    os.makedirs(str(bin_dir))
    trace = read_trace_dir(str(text_dir))
    for rank in range(n_ranks):
        write_binary_trace(
            trace.actions_of(rank), rank,
            os.path.join(str(bin_dir), binary_trace_file_name(rank)))
        decoded = list(read_binary_trace(
            os.path.join(str(bin_dir), binary_trace_file_name(rank))))
        assert decoded == trace.actions_of(rank)

    token = replay_dir(str(text_dir), n_ranks, compiled="never")
    token_bin = replay_dir(str(bin_dir), n_ranks, compiled="never")
    compiled_cold = replay_dir(str(bin_dir), n_ranks, compiled="always")
    compiled_warm = replay_dir(str(bin_dir), n_ranks, compiled="always")
    compiled_text = replay_dir(str(text_dir), n_ranks, compiled="always")
    for other in (token_bin, compiled_cold, compiled_warm, compiled_text):
        assert_same_makespan(token, other)


def test_op_tokens_roundtrip_new_collectives(tmp_path):
    """Compiled programs decompile to tokens that re-parse to the same
    actions — including the allToAllv split table from the aux plane."""
    write_synthetic_ai_trace("moe", str(tmp_path), 3, 1,
                             **FAMILY_PARAMS["moe"])
    source = read_trace_dir(str(tmp_path))
    programs, _ = compile_source(str(tmp_path))
    for prog in programs:
        tokens = [parse_action(" ".join(op_tokens(prog, i)))
                  for i in range(prog.n_ops)]
        assert tokens == source.actions_of(prog.rank)


# ----------------------------------------------------------------------
# Satellite 3: .tic sidecar staleness includes the opcode space
# ----------------------------------------------------------------------
def test_tic_with_stale_opcode_space_is_recompiled(tmp_path):
    write_synthetic_ai_trace("dp", str(tmp_path), 2, 1, **FAMILY_PARAMS["dp"])
    _, cold = compile_source(str(tmp_path))
    assert cold.cache_misses == 2
    _, warm = compile_source(str(tmp_path))
    assert warm.cache_hits == 2 and warm.cache_misses == 0

    # Rewrite each sidecar's header as a pre-v2 file would have: version
    # 1, and a zero where the opcode-space version now lives.
    for rank in range(2):
        sidecar = tic_path_for(os.path.join(str(tmp_path),
                                            trace_file_name(rank)))
        blob = bytearray(open(sidecar, "rb").read())
        blob[0:compile_mod._TIC_HEADER.size] = compile_mod._TIC_HEADER.pack(
            compile_mod._TIC_MAGIC, 1, 0,
            struct.unpack_from("<I", blob, 12)[0])
        open(sidecar, "wb").write(bytes(blob))

    _, stale = compile_source(str(tmp_path))
    assert stale.cache_misses == 2, "stale opcode space must miss"
    _, rewarmed = compile_source(str(tmp_path))
    assert rewarmed.cache_hits == 2


def test_tic_with_wrong_opcode_space_but_current_version_misses(tmp_path):
    write_synthetic_ai_trace("dp", str(tmp_path), 1, 1, **FAMILY_PARAMS["dp"])
    compile_source(str(tmp_path))
    sidecar = tic_path_for(os.path.join(str(tmp_path), trace_file_name(0)))
    blob = bytearray(open(sidecar, "rb").read())
    blob[0:compile_mod._TIC_HEADER.size] = compile_mod._TIC_HEADER.pack(
        compile_mod._TIC_MAGIC, compile_mod._TIC_VERSION,
        OPCODE_SPACE_VERSION + 1, struct.unpack_from("<I", blob, 12)[0])
    open(sidecar, "wb").write(bytes(blob))
    _, report = compile_source(str(tmp_path))
    assert report.cache_misses == 1


# ----------------------------------------------------------------------
# Satellite 1: batch/shard eligibility of the new opcodes
# ----------------------------------------------------------------------
def test_batcher_refuses_non_batchable_collectives():
    batcher = CollectiveBatcher(None, None, None, 1e3)
    for kind in ("allToAll", "allToAllv", "allGather", "reduceScatter",
                 "bcast", "reduce"):
        with pytest.raises(ValueError, match="cannot batch"):
            batcher.arrive(0, 0, kind, 1e3, 0.0, 4)


@pytest.mark.parametrize("line,name", [
    ("allToAll 4096", "allToAll"),
    ("allToAllv 4096 1024 1024 1024 1024", "allToAllv"),
    ("allGather 4096", "allGather"),
    ("reduceScatter 4096 100", "reduceScatter"),
])
def test_shard_coordinator_refuses_each_new_collective(line, name, tmp_path):
    n = 4
    for rank in range(n):
        path = os.path.join(str(tmp_path), trace_file_name(rank))
        with open(path, "w", encoding="ascii") as handle:
            handle.write(f"p{rank} comm_size {n}\n")
            handle.write(f"p{rank} {line}\np{rank} compute 1e6\n")
    replayer = make_replayer(fatpipe_platform(n), n, compiled="always",
                             shards=2)
    with pytest.raises(ValueError, match=name):
        replayer.replay(str(tmp_path))


def test_batched_replay_of_mixed_new_collectives_is_exact(tmp_path):
    """allReduce/barrier get batched, the new collectives ride the
    generator protocols — and the result still matches the sequential
    driver to 1e-9."""
    n = 4
    for rank in range(n):
        path = os.path.join(str(tmp_path), trace_file_name(rank))
        splits = " ".join(str((d + 1) * 1024) for d in range(n))
        total = sum((d + 1) * 1024 for d in range(n))
        with open(path, "w", encoding="ascii") as handle:
            handle.write(
                f"p{rank} comm_size {n}\n"
                f"p{rank} compute {1e7 * (rank + 1)}\n"
                f"p{rank} allReduce 8192 1e5\n"
                f"p{rank} allToAll 4096\n"
                f"p{rank} allToAllv {total} {splits}\n"
                f"p{rank} allGather 2048\n"
                f"p{rank} barrier\n"
                f"p{rank} reduceScatter 8192 1e5\n"
                f"p{rank} allReduce 1024 0\n")
    sequential = replay_dir(str(tmp_path), n, compiled="never")
    batched = replay_dir(str(tmp_path), n, compiled="always")
    assert_same_makespan(sequential, batched)


# ----------------------------------------------------------------------
# Validator: allToAllv contracts
# ----------------------------------------------------------------------
def _write_lines(directory, lines):
    for rank, rank_lines in lines.items():
        with open(os.path.join(directory, trace_file_name(rank)), "w",
                  encoding="ascii") as handle:
            handle.write("\n".join(rank_lines) + "\n")


def test_validator_flags_alltoallv_split_count_mismatch(tmp_path):
    _write_lines(str(tmp_path), {
        0: ["p0 comm_size 2", "p0 allToAllv 200 100 100"],
        1: ["p1 comm_size 2", "p1 allToAllv 300 100 100 100"],
    })
    report = validate_trace(read_trace_dir(str(tmp_path)))
    assert not report.ok
    text = " ".join(str(f) for f in report.findings)
    assert "allToAllv" in text


def test_validator_accepts_asymmetric_alltoallv_volumes(tmp_path):
    """Per-rank totals legitimately differ (that is the point of the v
    variant); only the split *count* must agree."""
    _write_lines(str(tmp_path), {
        0: ["p0 comm_size 2", "p0 allToAllv 100 0 100"],
        1: ["p1 comm_size 2", "p1 allToAllv 900 900 0"],
    })
    report = validate_trace(read_trace_dir(str(tmp_path)))
    assert report.ok, [str(f) for f in report.findings]


def test_parse_rejects_inconsistent_alltoallv_sum():
    with pytest.raises(ValueError, match="allToAllv"):
        parse_action("p0 allToAllv 100 10 10")


# ----------------------------------------------------------------------
# Satellite 2: tau2ti hardening + new collective states
# ----------------------------------------------------------------------
def _primed_extractor(rank=0, world=4):
    ex = _RankExtractor(rank, world)
    ex.def_state(1, "MPI_Alltoall()", "MPI")
    ex.def_state(2, "MPI_Allgather()", "MPI")
    ex.def_state(3, "MPI_Reduce_scatter()", "MPI")
    ex.def_user_event(10, "Collective communication volume", 0)
    ex.def_user_event(11, "Collective computation volume", 0)
    return ex


def test_tau2ti_maps_new_collective_states():
    ex = _primed_extractor()
    for event, volume in ((1, 4096), (2, 2048), (3, 8192)):
        ex.enter_state(0, 0, 0.0, event)
        ex.event_trigger(0, 0, 0.0, 10, volume)
        ex.event_trigger(0, 0, 0.0, 11, 7)
        ex.leave_state(0, 0, 1.0, event)
    assert ex.actions == [
        AllToAll(0, 4096.0),
        AllGather(0, 2048.0),
        ReduceScatter(0, 8192.0, 7.0),
    ]
    # Scratch resets after each collective: nothing leaks forward.
    assert ex._coll_vcomm == 0.0 and ex._coll_vcomp == 0.0


def test_tau2ti_rejects_negative_collective_volume_trigger():
    ex = _primed_extractor()
    ex.enter_state(0, 0, 0.0, 1)
    with pytest.raises(ValueError, match="corrupt trace"):
        ex.event_trigger(0, 0, 0.0, 10, -4096)
    ex2 = _primed_extractor()
    ex2.enter_state(0, 0, 0.0, 3)
    with pytest.raises(ValueError, match="corrupt"):
        ex2.event_trigger(0, 0, 0.0, 11, -1)


# ----------------------------------------------------------------------
# Importer: golden files, single-file mode, refusal edges, fuzz
# ----------------------------------------------------------------------
def test_normalize_comm_name_table():
    assert normalize_comm_name("all_to_allv") == "allToAllv"
    assert normalize_comm_name("AllToAll_Single") == "allToAll"
    assert normalize_comm_name("reduce_scatter_base") == "reduceScatter"
    assert normalize_comm_name("ALL_GATHER") == "allGather"
    assert normalize_comm_name("broadcast") == "bcast"
    assert normalize_comm_name("no_such_op") is None


def test_golden_import_produces_valid_replayable_trace(tmp_path):
    out = tmp_path / "ti"
    report = import_param_comms(GOLDEN, str(out))
    assert report.n_ranks == 4
    assert report.n_skipped == 0
    assert report.n_actions == 38
    trace = read_trace_dir(str(out))
    validation = validate_trace(trace)
    assert validation.ok, [str(f) for f in validation.findings]

    token = replay_dir(str(out), 4, compiled="never")
    compiled = replay_dir(str(out), 4, compiled="always")
    assert_same_makespan(token, compiled)
    assert token.simulated_time > 0.0


def test_golden_import_volume_mapping(tmp_path):
    out = tmp_path / "ti"
    import_param_comms(GOLDEN, str(out))
    trace = read_trace_dir(str(out))
    p0 = trace.actions_of(0)
    # all_to_allv on rank 0: out_split [0, 256, 256, 512] fp32 elements.
    a2av = next(a for a in p0 if isinstance(a, AllToAllv))
    assert a2av.splits == (0.0, 1024.0, 1024.0, 2048.0)
    assert a2av.total == 4096.0
    # all_gather of 512 bf16 elements = 1024 bytes contributed per rank.
    ag = next(a for a in p0 if isinstance(a, AllGather))
    assert ag.volume == 1024.0
    # all_to_all of 1024 fp16 elements = 2048 bytes total, 512 per peer.
    a2a = next(a for a in p0 if isinstance(a, AllToAll))
    assert a2a.volume == 512.0


def test_golden_import_binary_output_replays_identically(tmp_path):
    text_out = tmp_path / "text"
    bin_out = tmp_path / "bin"
    import_param_comms(GOLDEN, str(text_out))
    report = import_param_comms(GOLDEN, str(bin_out), binary=True)
    assert os.path.exists(os.path.join(str(bin_out),
                                       binary_trace_file_name(0)))
    assert report.n_actions == 38
    assert_same_makespan(replay_dir(str(text_out), 4),
                         replay_dir(str(bin_out), 4))


def test_single_file_import_replicates_collectives(tmp_path):
    source = tmp_path / "collectives.json"
    source.write_text(json.dumps([
        {"comms": "all_reduce", "in_msg_size": 1024, "dtype": "float32"},
        {"comms": "all_gather", "in_msg_size": 256, "dtype": "float32"},
        {"comms": "barrier"},
    ]))
    out = tmp_path / "ti"
    report = import_param_comms(str(source), str(out), world_size=3)
    assert report.n_ranks == 3
    trace = read_trace_dir(str(out))
    for rank in range(3):
        assert len(trace.actions_of(rank)) == 4  # CommSize + 3
    assert validate_trace(trace).ok


def test_single_file_import_needs_world_size_and_refuses_p2p(tmp_path):
    source = tmp_path / "t.json"
    source.write_text(json.dumps([{"comms": "all_reduce",
                                   "in_msg_size": 4, "dtype": "float32"}]))
    with pytest.raises(ValueError, match="world_size"):
        import_param_comms(str(source), str(tmp_path / "o"))
    p2p = tmp_path / "p.json"
    p2p.write_text(json.dumps([{"comms": "send", "dst_rank": 1,
                                "in_msg_size": 4, "dtype": "float32"}]))
    with pytest.raises(ValueError, match="point-to-point|per-rank"):
        import_param_comms(str(p2p), str(tmp_path / "o"), world_size=2)


def test_import_skip_unsupported_counts_skips(tmp_path):
    src = tmp_path / "src"
    os.makedirs(str(src))
    for rank in range(2):
        (src / f"rank{rank}.json").write_text(json.dumps([
            {"comms": "all_reduce", "in_msg_size": 64, "dtype": "float32"},
            {"comms": "all_reduce_coalesced", "in_msg_size": 64,
             "dtype": "float32"},
        ]))
    with pytest.raises(ValueError, match="unsupported"):
        import_param_comms(str(src), str(tmp_path / "strict"))
    report = import_param_comms(str(src), str(tmp_path / "lax"),
                                skip_unsupported=True)
    assert report.n_skipped == 2
    assert report.skipped_ops == {"all_reduce_coalesced": 2}
    assert validate_trace(read_trace_dir(str(tmp_path / "lax"))).ok


def test_import_rejects_sub_world_process_group(tmp_path):
    src = tmp_path / "src"
    os.makedirs(str(src))
    for rank in range(4):
        (src / f"rank{rank}.json").write_text(json.dumps([
            {"comms": "all_reduce", "in_msg_size": 64, "dtype": "float32",
             "pg_ranks": [0, 1]},
        ]))
    with pytest.raises(ValueError, match="group"):
        import_param_comms(str(src), str(tmp_path / "o"))


def test_import_world_size_mismatch_rejected(tmp_path):
    with pytest.raises(ValueError, match="world-size|world_size|rank files"):
        import_param_comms(GOLDEN, str(tmp_path / "o"), world_size=8)


def test_fuzzed_importer_raises_only_valueerror(tmp_path):
    """PR 4's chaos contract extended to the importer path: any damage
    to a rank file either still imports or raises a plain ValueError."""
    import random

    from repro.faults.chaos import CORRUPTION_MODES, corrupt_bytes

    src = tmp_path / "src"
    shutil.copytree(GOLDEN, str(src))
    victim = src / "rank0.json"
    original = victim.read_bytes()

    rejected = 0
    for mode_index, mode in enumerate(CORRUPTION_MODES):
        for seed in range(12):
            rng = random.Random(mode_index * 1000 + seed)
            damaged, what = corrupt_bytes(original, rng, mode=mode)
            victim.write_bytes(damaged)
            out = tmp_path / f"out-{mode_index}-{seed}"
            try:
                import_param_comms(str(src), str(out))
            except ValueError:
                rejected += 1
            except Exception as exc:  # noqa: BLE001 - the assert IS the test
                pytest.fail(f"({mode}: {what}): importer leaked "
                            f"{type(exc).__name__}: {exc}")
    assert rejected > 0, "the sweep never hit an importer error path"


# ----------------------------------------------------------------------
# Campaign wiring: family-aware addressing
# ----------------------------------------------------------------------
def _key(family, seed, **kw):
    return scenario_cache_key(Scenario(
        name="t", ranks=4,
        trace=TraceSpec(kind="synth", family=family, iterations=1,
                        seed=seed, **kw)))


def test_campaign_moe_seed_always_addresses():
    assert _key("moe", 0) != _key("moe", 1)
    assert _key("dp", 0) == _key("dp", 1)
    assert _key("pp", 0) == _key("pp", 1)
    assert _key("dp", 0, jitter=0.01) != _key("dp", 1, jitter=0.01)


def test_campaign_params_canonicalise_and_address():
    t1 = TraceSpec(kind="synth", family="dp",
                   params={"n_buckets": 2, "algo": "zero"})
    t2 = TraceSpec(kind="synth", family="dp",
                   params='{"algo":"zero","n_buckets":2}')
    assert t1 == t2
    assert _key("dp", 0, params={"n_buckets": 2}) != \
        _key("dp", 0, params={"n_buckets": 3})
    with pytest.raises(ValueError, match="unknown synth family"):
        TraceSpec(kind="synth", family="resnet")


def test_campaign_executes_ai_family_scenario():
    from repro.campaign import PlatformSpec, ReplaySpec
    from repro.campaign.runner import execute_scenario

    scenario = Scenario(
        name="e2e-moe", ranks=4,
        trace=TraceSpec(kind="synth", family="moe", iterations=1, seed=3,
                        params={"layers": 1, "tokens_bytes": 1 << 14}),
        platform=PlatformSpec(kind="named", name="bordereau", hosts=4),
        replay=ReplaySpec(compiled="always"))
    payload = execute_scenario(scenario.to_dict())
    assert payload["simulated_time"] > 0
    assert payload["n_actions"] > 0
