"""Seam tests for ``repro.tensorlib.backend``.

NumPy is the engine; the seam is ``get_backend()`` / ``set_backend(instance)``
/ ``use_backend(instance)``.  These tests pin the seam — numpy default,
instance selection, scoped overrides restored on exit, nothing read from the
environment — and the reference kernels against plain numpy.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.tensorlib import backend as B


@pytest.fixture(autouse=True)
def _restore_active_backend():
    """Every test runs against a fresh process-wide backend state."""
    previous = B._ACTIVE
    yield
    B._ACTIVE = previous


class TestSelection:
    def test_default_is_numpy(self):
        assert type(B.get_backend()) is B.NumpyBackend

    def test_set_backend_accepts_instance(self):
        instance = B.NumpyBackend()
        assert B.set_backend(instance) is instance
        assert B.get_backend() is instance

    def test_use_backend_restores_previous(self):
        outer = B.set_backend(B.NumpyBackend())
        with B.use_backend(B.NumpyBackend()) as inner:
            assert B.get_backend() is inner
            assert inner is not outer
        assert B.get_backend() is outer

    def test_use_backend_restores_previous_when_the_body_raises(self):
        outer = B.set_backend(B.NumpyBackend())
        with pytest.raises(RuntimeError):
            with B.use_backend(B.NumpyBackend()):
                raise RuntimeError("boom")
        assert B.get_backend() is outer

    def test_retired_environment_variable_is_not_read(self):
        """``REPRO_BACKEND`` is a retired setting, not a rejected one: nothing
        reads it, so the golden gate passes under it and logs nothing."""
        env = dict(os.environ, REPRO_BACKEND="numba")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-m", "repro", "golden", "--quiet"],
            capture_output=True, text=True, env=env,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


class TestNumpyReference:
    def test_protocol_methods_match_numpy(self):
        backend = B.NumpyBackend()
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        np.testing.assert_array_equal(backend.matmul(a, b), a @ b)

    def test_conv_weight_grad_matches_einsum(self):
        backend = B.NumpyBackend()
        rng = np.random.default_rng(1)
        grad4 = rng.standard_normal((3, 2, 9, 4))  # (world, n, length, out_channels)
        cols4 = rng.standard_normal((3, 2, 9, 27))  # (world, n, length, c*kh*kw)
        expected = np.einsum("wnlo,wnlk->wok", grad4, cols4)
        batched = backend.conv_weight_grad(grad4, cols4)
        np.testing.assert_allclose(batched, expected, rtol=1e-12)
        # one result per world slice: a slice alone (world 1) gives the same bytes
        for w in range(3):
            alone = backend.conv_weight_grad(grad4[w : w + 1], cols4[w : w + 1])
            np.testing.assert_array_equal(batched[w], alone[0])
