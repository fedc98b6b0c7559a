"""End-to-end integration tests tying the whole stack together.

These tests check the *qualitative claims* of the paper on CPU-scale
workloads: PacTrain spends less communication time than the baselines at
constrained bandwidth, remains all-reduce compatible, keeps the model sparse,
and does not destroy accuracy at moderate pruning ratios.
"""

from __future__ import annotations

import pytest

from repro.simulation import ClusterSpec, ExperimentConfig, MethodSpec, PAPER_METHODS, run_experiment


def quick_config(bandwidth="100Mbps", model="mlp", epochs=3, **kwargs):
    defaults = dict(
        model=model,
        dataset="cifar10",
        # Eight workers as in the paper's testbed: the all-gather penalty paid
        # by TopK grows with the worker count, so the qualitative ranking only
        # shows at realistic world sizes.
        cluster=ClusterSpec(world_size=8, bandwidth=bandwidth),
        epochs=epochs,
        batch_size=8,
        dataset_samples=256,
        pretrain_iterations=2,
        max_iterations_per_epoch=4,
        seed=0,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestPaperClaims:
    def test_pactrain_reduces_tta_at_constrained_bandwidth(self):
        """At 100 Mbps, PacTrain's total simulated time beats all baselines
        (the qualitative content of Fig. 3a)."""
        config = quick_config("100Mbps")
        results = {
            name: run_experiment(config, spec)
            for name, spec in PAPER_METHODS.items()
            if name in ("all-reduce", "fp16", "pactrain")
        }
        assert results["pactrain"].simulated_time < results["fp16"].simulated_time
        assert results["fp16"].simulated_time < results["all-reduce"].simulated_time

    def test_speedup_grows_as_bandwidth_shrinks(self):
        """Compression matters most when the network is the bottleneck: the
        PacTrain-vs-all-reduce speedup at 100 Mbps exceeds the one at 1 Gbps."""
        speedups = {}
        for bandwidth in ("100Mbps", "1Gbps"):
            config = quick_config(bandwidth)
            base = run_experiment(config, PAPER_METHODS["all-reduce"])
            pac = run_experiment(config, PAPER_METHODS["pactrain"])
            speedups[bandwidth] = base.simulated_time / pac.simulated_time
        assert speedups["100Mbps"] >= speedups["1Gbps"]

    def test_communication_time_ranking_matches_compression(self):
        """Per-iteration communication time ranks inversely with wire volume."""
        config = quick_config("100Mbps")
        base = run_experiment(config, PAPER_METHODS["all-reduce"])
        fp16 = run_experiment(config, PAPER_METHODS["fp16"])
        pac = run_experiment(config, PAPER_METHODS["pactrain"])
        assert pac.comm_bytes_per_worker < fp16.comm_bytes_per_worker < base.comm_bytes_per_worker
        assert pac.comm_time < fp16.comm_time < base.comm_time

    def test_moderate_pruning_preserves_accuracy(self):
        """Fig. 6's qualitative claim: accuracy at 50% pruning is within a few
        points of the dense model; 99% pruning costs noticeably more."""
        config = quick_config("1Gbps", epochs=4, max_iterations_per_epoch=None, dataset_samples=192)
        dense = run_experiment(config, MethodSpec(name="dense", compressor="allreduce"))
        pruned_half = run_experiment(
            config,
            MethodSpec(name="pac-0.5", compressor="pactrain", pruning_ratio=0.5, gse=True),
        )
        pruned_extreme = run_experiment(
            config,
            MethodSpec(name="pac-0.99", compressor="pactrain", pruning_ratio=0.99, gse=True),
        )
        assert pruned_half.final_accuracy >= dense.final_accuracy - 0.15
        assert pruned_extreme.final_accuracy <= pruned_half.final_accuracy + 1e-9

    def test_topk_pays_allgather_penalty(self):
        """TopK-0.1 must not beat PacTrain: its all-gather exchange costs more
        per byte kept (Table 1's compatibility column in action)."""
        config = quick_config("100Mbps")
        topk = run_experiment(config, PAPER_METHODS["topk-0.1"])
        pac = run_experiment(config, PAPER_METHODS["pactrain"])
        assert pac.comm_time < topk.comm_time

    def test_speedup_ranks_pactrain_above_dense_methods(self):
        """PacTrain's speedup over all-reduce exceeds fp16's and topk-0.1's.

        topk-0.01 can look fast on a run this short because its convergence
        penalty has no room to show; the Fig. 3 campaign
        (``examples/campaigns/fig3.json``: longer runs, a target-accuracy
        criterion) covers that comparison.
        """
        config = quick_config("100Mbps", epochs=4)
        ttas = {
            name: run_experiment(config, spec).tta_or_total()
            for name, spec in PAPER_METHODS.items()
        }
        speedup = {name: ttas["all-reduce"] / tta for name, tta in ttas.items()}
        assert speedup["pactrain"] > 1.0
        assert speedup["pactrain"] >= speedup["fp16"]
        assert speedup["pactrain"] >= speedup["topk-0.1"]

    @pytest.mark.parametrize("bandwidth", ["100Mbps", "500Mbps", "1Gbps"])
    def test_pactrain_communicates_less_than_all_reduce_at_every_paper_bandwidth(self, bandwidth):
        """Fig. 3's mechanism at each of its bandwidths: PacTrain's compact
        all-reduce spends less communication time than the dense one.

        ResNet-18, not the MLP: the MLP's gradient is small enough that at
        1 Gbps a sync costs mostly link latency, which compaction cannot save.
        """
        config = quick_config(bandwidth, model="resnet18", epochs=2)
        base = run_experiment(config, PAPER_METHODS["all-reduce"])
        pac = run_experiment(config, PAPER_METHODS["pactrain"])
        assert pac.comm_time < base.comm_time

    def test_gse_is_what_makes_the_pattern_stable(self):
        """The ablation's GSE claim: without GSE pruned weights regrow, so the
        compact path runs for no more iterations than with it."""
        config = quick_config("500Mbps")
        full = run_experiment(config, PAPER_METHODS["pactrain"])
        no_gse = run_experiment(
            config,
            MethodSpec(name="pactrain-nogse", compressor="pactrain", pruning_ratio=0.5,
                       gse=False, quantize=True),
        )
        assert full.extra["compact_fraction"] > 0.0
        assert full.extra["compact_fraction"] >= no_gse.extra["compact_fraction"]


class TestCrossModelIntegration:
    @pytest.mark.parametrize("model", ["vgg19", "resnet18", "vit-base-16"])
    def test_pactrain_runs_on_paper_models(self, model):
        config = quick_config("500Mbps", model=model, epochs=1)
        result = run_experiment(config, PAPER_METHODS["pactrain"])
        assert result.weight_sparsity > 0.2
        assert result.iterations_run > 0
        assert 0.0 <= result.final_accuracy <= 1.0
        assert result.comm_time > 0.0

    def test_grasp_pruning_path(self):
        config = quick_config("500Mbps", epochs=2)
        spec = MethodSpec(
            name="pactrain-grasp",
            compressor="pactrain",
            pruning_ratio=0.5,
            pruning_method="grasp",
            gse=True,
        )
        result = run_experiment(config, spec)
        assert result.weight_sparsity > 0.2

    def test_quantized_pactrain_sends_fewer_bytes_than_fp32_variant(self):
        from repro.simulation.spec import PACTRAIN_FP32

        config = quick_config("100Mbps", epochs=2)
        quantized = run_experiment(config, PAPER_METHODS["pactrain"])
        plain = run_experiment(config, PACTRAIN_FP32)
        assert quantized.comm_bytes_per_worker < plain.comm_bytes_per_worker
