"""Exactness of the sampled-threshold top-k selector.

``batched_top_k_indices`` proposes a threshold from a strided sample and
certifies the result by counting; ``top_k_indices`` (one full ``argpartition``)
is the oracle.  Pinned here:

* every row selects the oracle's coordinate *set*, on both sides of the size
  floor, for every input family that stresses a fallback (tie mass at zero,
  ties at the k-th magnitude, non-finite values) and for every ``k``;
* a row's result — order included — depends on nothing but that row;
* the codecs built on the selector (``TopK``, ``DGC``, driver error feedback)
  produce the aggregate and the state they produce with the oracle plugged in;
* tracing counts rows and reference fallbacks by reason without changing
  results.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import ProcessGroup
from repro.compression import build_compressor
from repro.compression.codec import batched_top_k_indices, stages, top_k_indices
from repro.ddp.bucket import Bucket, BucketSlice, GradBucket
from repro.obs import TRACER

FLOOR = stages.SAMPLED_SELECT_FLOOR
#: A lowered floor lets the sampled path run on rows small enough for
#: hypothesis to sweep ``k`` over the whole ``1..numel`` range.
SMALL_FLOOR = 128

DISTRIBUTIONS = (
    "gaussian",
    "relu-sparse",
    "all-zero",
    "all-equal",
    "tied-pair",
    "ascending",
    "descending",
    "nan",
    "inf",
    "nan+inf",
)


def make_row(kind: str, numel: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """One float64 row of the named family (``k`` places the tied pair)."""
    row = rng.standard_normal(numel)
    if kind == "relu-sparse":
        row *= rng.random(numel) < 0.2
    elif kind == "all-zero":
        row[:] = 0.0
    elif kind == "all-equal":
        row[:] = -0.75
    elif kind == "tied-pair" and k < numel:
        # The k-th and (k+1)-th largest magnitudes become +v and -v.
        by_magnitude = np.argsort(np.abs(row))
        inside, outside = by_magnitude[numel - k], by_magnitude[numel - k - 1]
        row[outside] = -row[inside]
    elif kind == "ascending":
        row = np.sort(np.abs(row))
    elif kind == "descending":
        row = -np.sort(np.abs(row))[::-1]
    elif kind in ("nan", "inf", "nan+inf"):
        hit = rng.choice(numel, size=min(numel, 3), replace=False)
        row[hit] = {"nan": np.nan, "inf": np.inf, "nan+inf": np.nan}[kind]
        if kind == "nan+inf":
            row[hit[0]] = -np.inf
    return row


def assert_rows_match_oracle(matrix: np.ndarray, k: int) -> np.ndarray:
    selected = batched_top_k_indices(matrix, k)
    assert selected.shape == (matrix.shape[0], k)
    assert selected.dtype == np.int64
    for row in range(matrix.shape[0]):
        chosen = selected[row].tolist()
        assert len(set(chosen)) == k
        assert set(chosen) == set(top_k_indices(matrix[row], k).tolist())
    return selected


def reference_selector(matrix: np.ndarray, k: int) -> np.ndarray:
    """The oracle, row by row, in ``batched_top_k_indices``'s signature."""
    return np.stack([top_k_indices(row, k) for row in matrix])


# --------------------------------------------------------------------------- #
# Set equality with the oracle
# --------------------------------------------------------------------------- #
class TestSetEqualsOracle:
    @given(
        kind=st.sampled_from(DISTRIBUTIONS),
        dtype=st.sampled_from([np.float32, np.float64]),
        numel=st.integers(min_value=SMALL_FLOOR - 64, max_value=SMALL_FLOOR + 1500),
        # Half the draws at the ratios codecs use (where the sampled path
        # certifies), half anywhere up to the whole row.
        k_fraction=st.one_of(st.floats(min_value=0.0, max_value=0.1), st.floats(0.0, 1.0)),
        rows=st.integers(min_value=1, max_value=4),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=400, deadline=None)
    def test_every_family_every_k_around_a_lowered_floor(
        self, kind, dtype, numel, k_fraction, rows, seed
    ):
        k = min(numel, 1 + int(k_fraction * numel))
        rng = np.random.default_rng(seed)
        matrix = np.stack([make_row(kind, numel, k, rng) for _ in range(rows)]).astype(dtype)
        with mock.patch.object(stages, "SAMPLED_SELECT_FLOOR", SMALL_FLOOR):
            assert_rows_match_oracle(matrix, k)

    @given(
        kind=st.sampled_from(DISTRIBUTIONS),
        dtype=st.sampled_from([np.float32, np.float64]),
        numel=st.sampled_from([FLOOR - 1, FLOOR, FLOOR + 1, FLOOR + 4097]),
        k=st.one_of(
            st.sampled_from([1, 2, 31, 32, 33, 328]),
            st.integers(min_value=1, max_value=FLOOR - 1),
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_family_straddling_the_real_floor(self, kind, dtype, numel, k, seed):
        rng = np.random.default_rng(seed)
        matrix = np.stack([make_row(kind, numel, k, rng) for _ in range(2)]).astype(dtype)
        assert_rows_match_oracle(matrix, k)

    @pytest.mark.parametrize("numel", [SMALL_FLOOR, SMALL_FLOOR + 37, 600])
    @pytest.mark.parametrize("kind", ["gaussian", "relu-sparse", "tied-pair", "all-equal"])
    def test_exhaustive_k(self, kind, numel):
        rng = np.random.default_rng(numel)
        with mock.patch.object(stages, "SAMPLED_SELECT_FLOOR", SMALL_FLOOR):
            for k in range(1, numel + 1):
                matrix = make_row(kind, numel, k, rng)[None, :]
                assert_rows_match_oracle(matrix, k)

    def test_degenerate_k(self):
        matrix = np.random.default_rng(0).standard_normal((3, FLOOR + 5))
        assert batched_top_k_indices(matrix, 0).shape == (3, 0)
        everything = batched_top_k_indices(matrix, matrix.shape[1] + 7)
        np.testing.assert_array_equal(everything, np.tile(np.arange(matrix.shape[1]), (3, 1)))

    def test_mixed_rows_take_different_paths_in_one_call(self):
        """Sampled, tie, short and non-finite rows side by side, each exact."""
        rng = np.random.default_rng(5)
        numel, k = FLOOR + 100, 400
        matrix = np.stack(
            [make_row(kind, numel, k, rng) for kind in ("gaussian", "tied-pair", "all-zero", "nan")]
        )
        matrix[2, :17] = rng.standard_normal(17)  # 17 nonzeros < k: the zero mass ties
        assert_rows_match_oracle(matrix, k)


# --------------------------------------------------------------------------- #
# Row independence and determinism (order included)
# --------------------------------------------------------------------------- #
class TestRowIndependence:
    @given(
        numel=st.sampled_from([SMALL_FLOOR - 1, SMALL_FLOOR, 777, 2048]),
        k=st.integers(min_value=1, max_value=SMALL_FLOOR - 2),
        subset=st.lists(st.integers(0, 5), min_size=1, max_size=6),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_row_subset_selects_what_the_full_matrix_selects(self, numel, k, subset, seed):
        rng = np.random.default_rng(seed)
        kinds = rng.choice(DISTRIBUTIONS, size=6)
        matrix = np.stack([make_row(kind, numel, k, rng) for kind in kinds])
        with mock.patch.object(stages, "SAMPLED_SELECT_FLOOR", SMALL_FLOOR):
            full = batched_top_k_indices(matrix, k)
            picked = batched_top_k_indices(matrix[subset], k)
            for position, row in enumerate(subset):
                np.testing.assert_array_equal(picked[position], full[row])
                np.testing.assert_array_equal(
                    batched_top_k_indices(matrix[row : row + 1], k)[0], full[row]
                )

    @pytest.mark.parametrize("numel", [FLOOR - 1, FLOOR + 1])
    def test_real_floor_rows_are_independent_and_repeatable(self, numel):
        rng = np.random.default_rng(3)
        k = 300
        matrix = np.stack(
            [make_row(kind, numel, k, rng) for kind in ("relu-sparse", "gaussian", "tied-pair")]
        )
        full = batched_top_k_indices(matrix, k)
        np.testing.assert_array_equal(batched_top_k_indices(matrix.copy(), k), full)
        for row in range(3):
            np.testing.assert_array_equal(
                batched_top_k_indices(matrix[row : row + 1], k)[0], full[row]
            )

    def test_input_is_not_modified_and_views_are_accepted(self):
        rng = np.random.default_rng(9)
        backing = rng.standard_normal((4, 2 * (FLOOR + 64)))
        view = backing[:, ::2]  # non-contiguous rows
        before = backing.copy()
        assert_rows_match_oracle(view, 200)
        np.testing.assert_array_equal(backing, before)


# --------------------------------------------------------------------------- #
# Codecs built on the selector
# --------------------------------------------------------------------------- #
CONV_BUCKET = 40_000  # above the floor, like the conv models' buckets
WORLD = 4


def relu_sparse_matrices(steps: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        matrix = rng.standard_normal((WORLD, CONV_BUCKET))
        yield matrix * (rng.random(matrix.shape) < 0.2)


def run_aggregations(spec: str, matrices):
    """Aggregate a sequence of gradient matrices; return outputs + all state."""
    compressor = build_compressor(spec, seed=0)
    group = ProcessGroup(WORLD)
    layout = Bucket(index=0, slices=[BucketSlice("flat", 0, CONV_BUCKET, (CONV_BUCKET,))])
    outputs = [
        compressor.aggregate(GradBucket(layout, matrix=matrix), group, iteration=step).copy()
        for step, matrix in enumerate(matrices)
    ]
    state = {"driver": compressor.residual(0)}
    for stage in compressor.pipeline.stages:
        for attribute in ("_residuals", "_momentum", "_accum"):
            buffers = getattr(stage, attribute, None)
            if buffers:
                state[f"{stage.name}.{attribute}"] = buffers[0]
    return outputs, state, group.total_bytes_per_worker


class TestCodecsMatchReferenceSelector:
    @pytest.mark.parametrize("spec", ["topk0.01", "topk-0.01", "dgc-0.01", "ef+topk0.01"])
    def test_aggregate_and_residuals_equal_the_reference_run(self, spec):
        matrices = list(relu_sparse_matrices(steps=3, seed=11))
        outputs, state, wire = run_aggregations(spec, matrices)
        with mock.patch.object(stages, "batched_top_k_indices", reference_selector):
            ref_outputs, ref_state, ref_wire = run_aggregations(spec, matrices)
        assert wire == ref_wire
        for output, ref_output in zip(outputs, ref_outputs):
            np.testing.assert_array_equal(output, ref_output)
        assert state.keys() == ref_state.keys()
        for name, buffer in state.items():
            if buffer is None:
                assert ref_state[name] is None
            else:
                np.testing.assert_array_equal(buffer, ref_state[name])


# --------------------------------------------------------------------------- #
# Observability
# --------------------------------------------------------------------------- #
@pytest.fixture(autouse=True)
def clean_tracer():
    """Every test starts and ends with the global tracer disabled."""
    TRACER.disable()
    yield
    TRACER.disable()


@pytest.fixture
def tracer():
    TRACER.enable()
    return TRACER


class TestSelectionCounters:
    def test_rows_and_fallback_reasons_are_counted(self, tracer):
        rng = np.random.default_rng(1)
        numel, k = FLOOR + 100, 400
        kinds = ("gaussian", "relu-sparse", "tied-pair", "all-zero", "nan", "inf")
        matrix = np.stack([make_row(kind, numel, k, rng) for kind in kinds])
        matrix[3, :17] = rng.standard_normal(17)  # too few nonzero candidates
        batched_top_k_indices(matrix, k)
        batched_top_k_indices(matrix[:2, : FLOOR - 1], k)
        counters = tracer.metrics.counters
        assert counters["codec.topk_rows"] == 8.0
        assert counters["codec.topk_reference_rows.tie"] == 1.0
        assert counters["codec.topk_reference_rows.short"] == 1.0
        assert counters["codec.topk_reference_rows.nonfinite"] == 2.0
        assert counters["codec.topk_reference_rows.floor"] == 2.0

    def test_real_gradient_like_rows_need_no_fallback(self, tracer):
        for matrix in relu_sparse_matrices(steps=2, seed=4):
            batched_top_k_indices(matrix, CONV_BUCKET // 100)
        counters = tracer.metrics.counters
        assert counters["codec.topk_rows"] == 2.0 * WORLD
        assert not [name for name in counters if name.startswith("codec.topk_reference_rows")]

    def test_traced_results_equal_untraced(self):
        counters_before = dict(TRACER.metrics.counters)
        matrices = list(relu_sparse_matrices(steps=2, seed=7))
        untraced, untraced_state, _ = run_aggregations("ef+topk0.01", matrices)
        selection = batched_top_k_indices(matrices[0], 400)
        assert TRACER.metrics.counters == counters_before  # disabled: nothing counted
        TRACER.enable()
        traced, traced_state, _ = run_aggregations("ef+topk0.01", matrices)
        np.testing.assert_array_equal(batched_top_k_indices(matrices[0], 400), selection)
        assert TRACER.metrics.counters["codec.topk_rows"] > 0
        for a, b in zip(untraced, traced):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(untraced_state["driver"], traced_state["driver"])
