"""Metrics: TTA, NMSE, throughput / compression accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import build_compressor
from repro.metrics import (
    AccuracyTrace,
    bytes_saved,
    compression_error_report,
    compression_summary,
    effective_throughput,
    iteration_breakdown,
    nmse,
    relative_tta,
    speedup_table,
    time_to_accuracy,
)


class TestTTA:
    def test_time_to_accuracy_first_crossing(self):
        points = [(1.0, 0.2), (2.0, 0.5), (3.0, 0.8), (4.0, 0.9)]
        assert time_to_accuracy(points, 0.5) == pytest.approx(2.0)
        assert time_to_accuracy(points, 0.85) == pytest.approx(4.0)
        assert time_to_accuracy(points, 0.95) is None

    def test_accuracy_trace(self):
        trace = AccuracyTrace()
        trace.add(1.0, 0.3)
        trace.add(2.0, 0.7)
        assert len(trace) == 2
        assert trace.time_to_accuracy(0.5) == pytest.approx(2.0)
        assert trace.final_accuracy() == pytest.approx(0.7)
        assert trace.best_accuracy() == pytest.approx(0.7)
        with pytest.raises(ValueError):
            trace.add(0.5, 0.9)

    def test_relative_tta(self):
        assert relative_tta(5.0, 10.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            relative_tta(1.0, 0.0)

    def test_speedup_table(self):
        table = speedup_table({"all-reduce": 100.0, "pactrain": 12.5, "fp16": 50.0})
        assert table["pactrain"] == pytest.approx(8.0)
        assert table["fp16"] == pytest.approx(2.0)
        assert table["all-reduce"] == pytest.approx(1.0)
        with pytest.raises(KeyError):
            speedup_table({"fp16": 1.0})


class TestNMSE:
    def test_zero_for_exact(self, rng):
        x = rng.standard_normal(100)
        assert nmse(x, x.copy()) == 0.0

    def test_value_matches_definition(self, rng):
        x = rng.standard_normal(50)
        y = x + 0.1
        expected = np.sum((x - y) ** 2) / np.sum(x ** 2)
        assert nmse(x, y) == pytest.approx(expected)

    def test_zero_reference(self):
        assert nmse(np.zeros(4), np.zeros(4)) == 0.0
        assert nmse(np.zeros(4), np.ones(4)) == float("inf")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nmse(np.zeros(3), np.zeros(4))

    def test_compression_error_report(self, rng):
        grads = [rng.standard_normal(64) for _ in range(4)]
        exact = np.mean(grads, axis=0)
        report = compression_error_report(grads, exact)
        assert report["nmse"] == pytest.approx(0.0, abs=1e-20)
        assert report["cosine_similarity"] == pytest.approx(1.0)


class TestThroughput:
    def test_compression_summary_and_bytes_saved(self, rng):
        from repro.comm import ProcessGroup
        from repro.ddp.bucket import Bucket, BucketSlice, GradBucket

        bucket = GradBucket(
            Bucket(index=0, slices=[BucketSlice("w", 0, 128, (128,))]),
            [rng.standard_normal(128) for _ in range(2)],
        )
        compressor = build_compressor("fp16")
        compressor.aggregate(bucket, ProcessGroup(2))
        summary = compression_summary(compressor)
        assert summary["compression_ratio"] == pytest.approx(2.0)
        assert summary["allreduce_compatible"] == 1.0
        assert bytes_saved(compressor) == pytest.approx(128 * 2.0)
        assert bytes_saved(build_compressor("allreduce")) == 0.0

    def test_effective_throughput(self):
        assert effective_throughput(1000, 10.0) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            effective_throughput(10, 0.0)

    def test_iteration_breakdown(self):
        breakdown = iteration_breakdown(1.0, 3.0)
        assert breakdown["compute_fraction"] == pytest.approx(0.25)
        assert breakdown["comm_fraction"] == pytest.approx(0.75)
        empty = iteration_breakdown(0.0, 0.0)
        assert empty["total"] == 0.0
