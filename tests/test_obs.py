"""Observability layer: tracer, metrics, exporters, instrumented call sites.

Covers the layer's load-bearing guarantees:

* histogram buckets are fixed and log-scaled, so snapshots are deterministic
  and mergeable across processes;
* the disabled tracer is a true no-op — zero events, a shared null span
  object, and bit-identical training results with tracing on vs off;
* each instrumented call site emits exactly one span per call (kernel calls,
  codec encode/reduce/gather/decode);
* the JSONL stream round-trips exactly and the Chrome Trace export passes
  structural validation (required fields, per-track monotonicity, proper
  nesting) — and the validator actually catches violations.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.comm import NetworkModel, ProcessGroup
from repro.comm.network import MBPS
from repro.compression import build_compressor
from repro.ddp.bucket import Bucket, BucketSlice, GradBucket
from repro.golden import GOLDEN_CONFIG
from repro.obs import BUCKET_BOUNDS, SIM_SCHEDULE_TID, TRACER, Histogram, MetricsRegistry
from repro.obs.export import (
    chrome_trace,
    load_events,
    merge_metrics,
    summary,
    validate_chrome_trace,
    write_chrome,
    write_jsonl,
)
from repro.obs.instrument import ObservedBackend
from repro.simulation import ClusterSpec, ExperimentConfig
from repro.simulation.experiment import PAPER_METHODS, run_experiment
from repro.tensorlib.backend import NumpyBackend, get_backend


@pytest.fixture(autouse=True)
def clean_tracer():
    """Every test starts and ends with the global tracer disabled."""
    TRACER.disable()
    yield
    TRACER.disable()


def make_bucket(rng, numel=256, world=4):
    layout = Bucket(index=0, slices=[BucketSlice("w", 0, numel, (numel,))])
    return GradBucket(layout, [rng.standard_normal(numel) for _ in range(world)])


def make_group(world=4):
    return ProcessGroup(world, NetworkModel.from_bandwidth(world, 100 * MBPS, latency=0.0))


def tiny_config(**overrides) -> ExperimentConfig:
    cluster = ClusterSpec(
        world_size=overrides.pop("world_size", 2),
        bandwidth=overrides.pop("bandwidth", "100Mbps"),
    )
    defaults = dict(
        model="mlp",
        dataset="cifar10",
        cluster=cluster,
        epochs=1,
        batch_size=8,
        dataset_samples=32,
        max_iterations_per_epoch=2,
        pretrain_iterations=0,
        seed=0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def wall_spans(events, name=None):
    spans = [e for e in events if e.get("kind") == "span" and e.get("clock") == "wall"]
    if name is not None:
        spans = [e for e in spans if e["name"] == name]
    return spans


# --------------------------------------------------------------------------- #
# Metrics: fixed buckets, determinism, merging
# --------------------------------------------------------------------------- #
class TestHistogram:
    def test_bounds_are_fixed_and_increasing(self):
        assert BUCKET_BOUNDS[0] == pytest.approx(1e-9)
        assert BUCKET_BOUNDS[-1] == pytest.approx(1e12)
        assert all(a < b for a, b in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]))

    def test_observe_and_quantile(self):
        histogram = Histogram()
        for value in (0.001, 0.001, 0.01, 0.1, 10.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(10.112)
        assert histogram.mean == pytest.approx(10.112 / 5)
        # The median bucket's upper bound is within a quarter-decade of 0.01.
        assert 0.01 <= histogram.quantile(0.5) <= 0.01 * 10 ** 0.25 + 1e-12

    def test_overflow_bucket(self):
        histogram = Histogram()
        histogram.observe(1e15)  # beyond the last bound
        assert histogram.to_buckets() == [["inf", 1]]
        assert histogram.quantile(0.99) == float("inf")

    def test_serialised_buckets_merge_exactly(self):
        rng = np.random.default_rng(0)
        values = 10.0 ** rng.uniform(-9, 12, size=200)
        a, b = Histogram(), Histogram()
        for value in values:
            a.observe(value)
        b.merge_buckets(a.to_buckets())
        b.merge_buckets(a.to_buckets())
        assert b.counts == [2 * c for c in a.counts]

    def test_two_processes_observe_identically(self):
        values = [3.7e-6, 0.25, 812.0, 812.0, 1.0]
        registries = [MetricsRegistry(), MetricsRegistry()]
        for registry in registries:
            for value in values:
                registry.observe("latency", value)
        first, second = (r.snapshot_events(pid=1) for r in registries)
        assert first == second


class TestMetricsRegistry:
    def test_counters_gauges_snapshot(self):
        registry = MetricsRegistry()
        registry.inc("calls")
        registry.inc("calls", 2.0)
        registry.set_gauge("workers", 4)
        events = registry.snapshot_events(pid=42)
        kinds = [(e["metric"], e["name"], e.get("value")) for e in events]
        assert kinds == [("counter", "calls", 3.0), ("gauge", "workers", 4.0)]
        assert all(e["pid"] == 42 for e in events)

    def test_merge_metrics_across_processes(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.inc("codec.aggregations", 3)
        second.inc("codec.aggregations", 5)
        first.set_gauge("util", 0.5)
        second.set_gauge("util", 0.75)
        first.observe("lat", 0.01)
        second.observe("lat", 0.01)
        # Workers flush cumulative snapshots repeatedly: only the last per
        # (pid, name) must count.
        events = (
            first.snapshot_events(pid=1)
            + first.snapshot_events(pid=1)
            + second.snapshot_events(pid=2)
        )
        merged = merge_metrics(events)
        assert merged["counters"]["codec.aggregations"] == 8.0
        assert merged["gauges"]["util"] == 0.75
        assert merged["histograms"]["lat"].count == 2


# --------------------------------------------------------------------------- #
# Tracer core: disabled path, dual clocks, sinks
# --------------------------------------------------------------------------- #
class TestTracerDisabled:
    def test_disabled_tracer_emits_nothing(self):
        assert not TRACER.enabled
        with TRACER.span("work", cat="test", detail=1):
            pass
        TRACER.instant("marker")
        TRACER.sim_span("sim", "test", 0.0, 1.0, 0)
        TRACER.flush_metrics()
        assert TRACER.events() == []

    def test_disabled_span_is_shared_nullobject(self):
        # The disabled fast path allocates nothing per call.
        assert TRACER.span("a") is TRACER.span("b")


class TestTracerEnabled:
    def test_wall_spans_carry_sim_stamp(self):
        TRACER.enable()
        TRACER.sim_now = 3.5
        with TRACER.span("outer", cat="test", tag="x"):
            with TRACER.span("inner", cat="test"):
                pass
        spans = wall_spans(TRACER.events())
        assert [s["name"] for s in spans] == ["inner", "outer"]  # exit order
        assert all(s["sim_at"] == 3.5 for s in spans)
        inner, outer = spans
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-9

    def test_sim_spans_carry_wall_stamp_and_fresh_pid(self):
        TRACER.enable()
        pid = TRACER.new_sim_process("exp A")
        assert pid < 0
        TRACER.sim_span("iteration 0", "sim", 0.0, 2.0, SIM_SCHEDULE_TID)
        assert TRACER.new_sim_process("exp B") != pid
        events = TRACER.events()
        span = next(e for e in events if e.get("kind") == "span")
        assert span["clock"] == "sim"
        assert span["pid"] == pid
        assert span["wall_at"] > 0
        names = [e["name"] for e in events if e.get("kind") == "meta"]
        assert "sim: exp A" in names and "sim: exp B" in names

    def test_jsonl_sink_streams_and_finishes(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        TRACER.enable(path)
        with TRACER.span("work", cat="test"):
            pass
        TRACER.metrics.inc("calls")
        paths = TRACER.finish()
        assert paths == {"jsonl": path, "chrome": None}
        assert not TRACER.enabled
        events = load_events(path)
        assert any(e.get("kind") == "span" and e["name"] == "work" for e in events)
        assert any(e.get("kind") == "metric" and e["name"] == "calls" for e in events)

    def test_chrome_destination_gets_jsonl_sidecar(self, tmp_path):
        path = str(tmp_path / "trace.json")
        TRACER.enable(path)
        paths = TRACER.finish()
        assert paths == {"jsonl": path + ".jsonl", "chrome": path}


class TestJsonlRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        events = [
            {"kind": "span", "name": "a", "cat": "t", "clock": "wall",
             "ts": 1.25, "dur": 0.5, "pid": 7, "tid": 0, "sim_at": 0.0, "args": {}},
            {"kind": "instant", "name": "m", "cat": "t", "clock": "sim",
             "ts": 0.0, "pid": -1, "tid": 3, "args": {"k": [1, 2]}},
            {"kind": "metric", "metric": "counter", "name": "c", "value": 3.0, "pid": 7},
        ]
        path = str(tmp_path / "events.jsonl")
        write_jsonl(events, path)
        assert load_events(path) == events


# --------------------------------------------------------------------------- #
# Chrome trace export + validation
# --------------------------------------------------------------------------- #
class TestChromeTrace:
    def test_real_trace_validates_clean(self):
        TRACER.enable()
        TRACER.new_sim_process("demo")
        with TRACER.span("outer", cat="test"):
            with TRACER.span("inner", cat="test"):
                pass
        TRACER.sim_span("iteration 0", "sim", 0.0, 2.0, SIM_SCHEDULE_TID)
        TRACER.sim_span("backward", "sim", 0.0, 1.0, 0)
        TRACER.instant("ready", cat="sim", clock="sim", ts=1.0, tid=0)
        document = chrome_trace(TRACER.events())
        assert validate_chrome_trace(document) == []

    def test_required_fields_and_tracks(self):
        TRACER.enable()
        sim_pid = TRACER.new_sim_process("demo")
        with TRACER.span("work", cat="test"):
            pass
        TRACER.sim_span("backward", "sim", 0.0, 1.0, 2)
        document = chrome_trace(TRACER.events())
        events = document["traceEvents"]
        for event in events:
            assert event["ph"] in "XiIMBEC"
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
            assert "name" in event and "ts" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0
        # One metadata track name per (pid, tid); the sim rank track is named.
        thread_names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert thread_names[(sim_pid, 2)] == "rank 2"
        process_names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert process_names[sim_pid] == "sim: demo"

    def test_timestamps_monotone_per_track_in_file_order(self):
        TRACER.enable()
        for _ in range(5):
            with TRACER.span("step", cat="test"):
                pass
        document = chrome_trace(TRACER.events())
        last = {}
        for event in document["traceEvents"]:
            if event["ph"] != "X":
                continue
            track = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(track, float("-inf"))
            last[track] = event["ts"]

    def test_validator_rejects_bad_documents(self):
        assert validate_chrome_trace([]) == ["document is not a JSON object"]
        assert validate_chrome_trace({}) == ["missing 'traceEvents' list"]
        base = {"name": "a", "pid": 1, "tid": 0, "ts": 0.0}
        assert validate_chrome_trace({"traceEvents": [{**base, "ph": "Z"}]})
        assert validate_chrome_trace({"traceEvents": [{**base, "ph": "X"}]})  # no dur
        assert validate_chrome_trace(
            {"traceEvents": [{**base, "ph": "X", "pid": "one", "dur": 1.0}]}
        )

    def test_validator_rejects_non_monotone_and_overlapping(self):
        def span(ts, dur, name="s"):
            return {"ph": "X", "name": name, "pid": 1, "tid": 0, "ts": ts, "dur": dur}

        errors = validate_chrome_trace({"traceEvents": [span(10.0, 1.0), span(5.0, 1.0)]})
        assert any("not monotone" in error for error in errors)
        # Partial overlap on one track: starts inside, ends outside.
        errors = validate_chrome_trace(
            {"traceEvents": [span(0.0, 10.0, "parent"), span(5.0, 10.0, "child")]}
        )
        assert any("without nesting" in error for error in errors)
        # Exact nesting is fine.
        assert validate_chrome_trace(
            {"traceEvents": [span(0.0, 10.0, "parent"), span(2.0, 3.0, "child")]}
        ) == []

    def test_write_chrome_round_trips_through_disk(self, tmp_path):
        TRACER.enable()
        with TRACER.span("work", cat="test"):
            pass
        path = str(tmp_path / "trace.json")
        write_chrome(TRACER.events(), path)
        import json

        with open(path, "r", encoding="utf-8") as handle:
            assert validate_chrome_trace(json.load(handle)) == []


# --------------------------------------------------------------------------- #
# Instrumented call sites: exactly one span per call
# --------------------------------------------------------------------------- #
class TestKernelCallSites:
    def test_one_span_per_kernel_call(self):
        TRACER.enable()
        backend = get_backend()
        assert isinstance(backend, ObservedBackend)
        a, b = np.ones((4, 8)), np.ones((8, 2))
        result = backend.matmul(a, b)
        spans = wall_spans(TRACER.events(), "kernel/matmul")
        assert len(spans) == 1
        assert spans[0]["args"]["bytes"] == a.nbytes + b.nbytes
        assert TRACER.metrics.counters["backend.numpy.matmul.calls"] == 1.0
        np.testing.assert_array_equal(result, a @ b)

    def test_wrapper_forwards_non_kernels_untouched(self):
        inner = NumpyBackend()
        wrapped = ObservedBackend(inner)
        assert wrapped.name == inner.name
        assert wrapped.pad == inner.pad

    def test_disabled_backend_is_unwrapped(self):
        assert not isinstance(get_backend(), ObservedBackend)


class TestCodecCallSites:
    def test_one_span_per_stage_on_reduce_path(self, rng):
        TRACER.enable()
        build_compressor("fp16").aggregate(make_bucket(rng), make_group(), iteration=0)
        events = TRACER.events()
        for name in ("codec/encode", "codec/reduce", "codec/decode"):
            assert len(wall_spans(events, name)) == 1, name
        assert len(wall_spans(events, "codec/gather")) == 0
        assert TRACER.metrics.counters["codec.aggregations"] == 1.0
        # FP16 is lossy and iteration 0 is a sample point: one NMSE instant.
        nmse_marks = [e for e in events if e.get("kind") == "instant" and e["name"] == "codec/nmse"]
        assert len(nmse_marks) == 1
        assert nmse_marks[0]["args"]["nmse"] < 1e-5

    def test_gather_path_and_nmse_sampling(self, rng):
        TRACER.enable()
        compressor = build_compressor("topk-0.1")
        group = make_group()
        compressor.aggregate(make_bucket(rng), group, iteration=0)
        compressor.aggregate(make_bucket(rng), group, iteration=1)
        events = TRACER.events()
        assert len(wall_spans(events, "codec/gather")) == 2
        assert len(wall_spans(events, "codec/reduce")) == 0
        # Sampled, not per-iteration: only iteration 0 hits the modulus.
        nmse_marks = [e for e in events if e.get("kind") == "instant" and e["name"] == "codec/nmse"]
        assert len(nmse_marks) == 1

    def test_lossless_pipeline_skips_nmse(self, rng):
        TRACER.enable()
        build_compressor("allreduce").aggregate(make_bucket(rng), make_group(), iteration=0)
        assert not any(
            e.get("kind") == "instant" and e["name"] == "codec/nmse" for e in TRACER.events()
        )

    def test_observing_does_not_change_the_result(self, rng):
        bucket_data = [rng.standard_normal(256) for _ in range(4)]

        def run():
            layout = Bucket(index=0, slices=[BucketSlice("w", 0, 256, (256,))])
            bucket = GradBucket(layout, [b.copy() for b in bucket_data])
            return build_compressor("fp16").aggregate(bucket, make_group(), iteration=0)

        plain = run()
        TRACER.enable()
        traced = run()
        TRACER.disable()
        np.testing.assert_array_equal(plain, traced)


# --------------------------------------------------------------------------- #
# End to end: a traced experiment, and the no-drift guarantee
# --------------------------------------------------------------------------- #
class TestExperimentTracing:
    def test_traced_run_produces_valid_dual_clock_trace(self):
        TRACER.enable()
        run_experiment(tiny_config(), PAPER_METHODS["fp16"])
        events = TRACER.events()
        TRACER.disable()
        names = {e["name"] for e in events if e.get("kind") == "span"}
        for expected in ("experiment", "train/backward", "train/sync", "train/apply",
                         "ddp/bucket_sync", "codec/encode"):
            assert expected in names, expected
        sim = [e for e in events if e.get("kind") == "span" and e.get("clock") == "sim"]
        assert any(e["name"].startswith("iteration") for e in sim)
        assert any(e["name"].startswith("backward") for e in sim)
        assert all(e["pid"] < 0 for e in sim)
        assert validate_chrome_trace(chrome_trace(events)) == []

    def test_tracing_does_not_drift_results(self):
        config, method = tiny_config(), PAPER_METHODS["pactrain"]
        plain = run_experiment(config, method)
        TRACER.enable()
        traced = run_experiment(tiny_config(), method)
        events = TRACER.events()
        TRACER.disable()
        assert traced.to_dict() == plain.to_dict()
        assert len(events) > 0  # the traced run did record

    def test_faulty_localsgd_run_emits_degraded_world_spans(self):
        # Degraded iterations are booked at one site for both barrier
        # regimes; every one of them shows as a span on the sim clock.
        config = dataclasses.replace(
            GOLDEN_CONFIG,
            cluster=ClusterSpec(
                world_size=4, bandwidth="100Mbps", faults="crash:3@0.001,rejoin:3@0.003"
            ),
        )
        method = dataclasses.replace(PAPER_METHODS["topk-0.01"], sync_schedule="localsgd:4:delta")
        TRACER.enable()
        result = run_experiment(config, method)
        events = TRACER.events()
        TRACER.disable()
        degraded = [e for e in events if e["name"] == "fault/degraded-world"]
        assert result.degraded_iterations >= 1
        assert len(degraded) == result.degraded_iterations


# --------------------------------------------------------------------------- #
# backends --counters engine + summary rendering
# --------------------------------------------------------------------------- #
class TestBackendCounters:
    def test_traced_conv_run_counts_hot_kernels(self):
        """The names ``trace report`` prints per kernel: calls, seconds, bytes."""
        TRACER.enable()
        run_experiment(tiny_config(model="resnet18"), PAPER_METHODS["all-reduce"])
        counters = TRACER.metrics.counters
        for kernel in ("matmul", "im2col_gather", "conv_weight_grad"):
            prefix = f"backend.numpy.{kernel}"
            assert counters[f"{prefix}.calls"] >= 1, kernel
            assert counters[f"{prefix}.seconds"] > 0, kernel
            assert counters[f"{prefix}.bytes"] > 0, kernel
        TRACER.flush_metrics()
        assert "backend.numpy.matmul.calls" in summary(TRACER.events())


class TestSummary:
    def test_summary_renders_all_sections(self, rng):
        TRACER.enable()
        TRACER.new_sim_process("demo")
        build_compressor("fp16").aggregate(make_bucket(rng), make_group(), iteration=0)
        TRACER.sim_span("iteration 0", "sim", 0.0, 1.0, SIM_SCHEDULE_TID)
        TRACER.metrics.set_gauge("campaign.workers", 2)
        TRACER.flush_metrics()
        text = summary(TRACER.events())
        for section in ("spans (wall clock)", "spans (simulated clock)",
                        "== counters ==", "== gauges ==", "== histograms =="):
            assert section in text, section
        assert "codec/encode" in text and "codec.aggregations" in text
