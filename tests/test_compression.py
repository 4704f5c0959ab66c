"""Tests for the upload-compression extension (QSGD, top-k, integration)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression.base import Compressor, IdentityCompressor
from repro.compression.quantization import QSGDQuantizer
from repro.compression.sparsification import TopKSparsifier
from repro.core.hierminimax import HierMinimax
from repro.nn.models import make_model_factory

from tests.conftest import make_blob_fed

vectors = hnp.arrays(dtype=np.float64, shape=st.integers(1, 40),
                     elements=st.floats(-5, 5, allow_nan=False))


class TestIdentity:
    def test_protocol_conformance(self):
        assert isinstance(IdentityCompressor(), Compressor)
        assert isinstance(QSGDQuantizer(), Compressor)
        assert isinstance(TopKSparsifier(), Compressor)

    def test_identity_passthrough(self):
        c = IdentityCompressor()
        v = np.array([1.0, -2.0])
        assert c.compress(v, np.random.default_rng(0)) is v
        assert c.payload_floats(100) == 100.0


class TestQSGD:
    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError):
            QSGDQuantizer(levels=0)

    def test_zero_vector_preserved(self):
        q = QSGDQuantizer(4)
        out = q.compress(np.zeros(5), np.random.default_rng(0))
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_unbiasedness(self):
        """E[q(v)] = v — the property quantized-FL convergence rests on."""
        q = QSGDQuantizer(levels=2)
        v = np.array([0.3, -1.2, 0.05, 2.0])
        gen = np.random.default_rng(0)
        mean = np.mean([q.compress(v, gen) for _ in range(20000)], axis=0)
        np.testing.assert_allclose(mean, v, atol=0.02)

    def test_output_on_quantization_grid(self):
        q = QSGDQuantizer(levels=4)
        v = np.random.default_rng(1).normal(size=10)
        out = q.compress(v, np.random.default_rng(2))
        norm = np.linalg.norm(v)
        grid_units = out * 4 / norm
        np.testing.assert_allclose(grid_units, np.round(grid_units), atol=1e-9)

    def test_payload_shrinks_with_fewer_levels(self):
        assert QSGDQuantizer(1).payload_floats(1000) < \
            QSGDQuantizer(128).payload_floats(1000)

    def test_payload_below_full_precision(self):
        assert QSGDQuantizer(16).payload_floats(10000) < 10000

    @settings(max_examples=60, deadline=None)
    @given(v=vectors, levels=st.integers(1, 32))
    def test_property_error_bounded(self, v, levels):
        """QSGD error per coordinate is at most ||v||/s."""
        q = QSGDQuantizer(levels)
        out = q.compress(v, np.random.default_rng(0))
        norm = np.linalg.norm(v)
        assert np.all(np.abs(out - v) <= norm / levels + 1e-9)


class TestTopK:
    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            TopKSparsifier(0.0)

    def test_keeps_largest(self):
        t = TopKSparsifier(0.5, error_feedback=False)
        v = np.array([0.1, -5.0, 0.2, 3.0])
        out = t.compress(v, np.random.default_rng(0))
        np.testing.assert_array_equal(out, [0.0, -5.0, 0.0, 3.0])

    def test_full_fraction_is_identity(self):
        t = TopKSparsifier(1.0, error_feedback=False)
        v = np.array([1.0, 2.0])
        np.testing.assert_array_equal(t.compress(v, np.random.default_rng(0)), v)

    def test_at_least_one_kept(self):
        t = TopKSparsifier(0.001, error_feedback=False)
        out = t.compress(np.array([1.0, 2.0, 3.0]), np.random.default_rng(0))
        assert np.count_nonzero(out) == 1

    def test_error_feedback_accumulates(self):
        """Residuals must be replayed: two identical updates through a k=1
        sparsifier deliver more mass than one."""
        t = TopKSparsifier(0.3, error_feedback=True)  # keeps 1 of 3 coords
        v = np.array([3.0, 2.0, 1.0])
        gen = np.random.default_rng(0)
        first = t.compress_from(7, v, gen)
        second = t.compress_from(7, v, gen)
        np.testing.assert_array_equal(first, [3.0, 0.0, 0.0])
        # second call sees v + residual [0,2,1] -> [3,4,2]: index 1 wins now
        np.testing.assert_array_equal(second, [0.0, 4.0, 0.0])

    def test_error_feedback_per_sender(self):
        t = TopKSparsifier(0.3, error_feedback=True)
        gen = np.random.default_rng(0)
        v = np.array([3.0, 2.0, 1.0])
        t.compress_from(1, v, gen)
        out = t.compress_from(2, v, gen)  # different sender: fresh residual
        np.testing.assert_array_equal(out, [3.0, 0.0, 0.0])

    def test_reset(self):
        t = TopKSparsifier(0.3, error_feedback=True)
        gen = np.random.default_rng(0)
        t.compress_from(1, np.array([3.0, 2.0, 1.0]), gen)
        t.reset()
        out = t.compress_from(1, np.array([3.0, 2.0, 1.0]), gen)
        np.testing.assert_array_equal(out, [3.0, 0.0, 0.0])

    def test_payload(self):
        assert TopKSparsifier(0.1).payload_floats(1000) == pytest.approx(150.0)

    def test_state_dict_round_trip(self):
        """Residuals survive a save/load into a fresh sparsifier."""
        gen = np.random.default_rng(0)
        t = TopKSparsifier(0.3, error_feedback=True)
        t.compress_from(7, np.array([3.0, 2.0, 1.0]), gen)
        fresh = TopKSparsifier(0.3, error_feedback=True)
        fresh.load_state_dict(t.state_dict())
        v = np.array([3.0, 2.0, 1.0])
        np.testing.assert_array_equal(fresh.compress_from(7, v, gen),
                                      t.compress_from(7, v, gen))

    def test_load_empty_state_clears_residuals(self):
        t = TopKSparsifier(0.3, error_feedback=True)
        t.compress_from(1, np.array([3.0, 2.0, 1.0]), np.random.default_rng(0))
        t.load_state_dict({})
        assert t.state_dict() == {"residuals": {}}


class TestAlgorithmIntegration:
    def test_quantized_hierminimax_learns(self, blob_fed, blob_factory):
        algo = HierMinimax(blob_fed, blob_factory, eta_w=0.2, eta_p=0.01,
                           batch_size=4, seed=0,
                           compressor=QSGDQuantizer(levels=64))
        res = algo.run(rounds=60, eval_every=60)
        assert res.history.final().record.average_accuracy > 0.85

    def test_quantization_reduces_uplink_floats(self, blob_fed, blob_factory):
        plain = HierMinimax(blob_fed, blob_factory, eta_w=0.1, eta_p=0.01,
                            batch_size=4, seed=0)
        quant = HierMinimax(blob_fed, blob_factory, eta_w=0.1, eta_p=0.01,
                            batch_size=4, seed=0,
                            compressor=QSGDQuantizer(levels=16))
        plain.run(rounds=5, eval_every=5)
        quant.run(rounds=5, eval_every=5)
        for link in ("client_edge:up", "edge_cloud:up"):
            before = plain.tracker.snapshot().floats[link]
            after = quant.tracker.snapshot().floats[link]
            # 16 levels -> 6 bits per coordinate vs 64: ~10x uplink reduction.
            assert after < 0.25 * before
        # Downlinks are untouched (still full precision).
        assert quant.tracker.snapshot().floats["client_edge:down"] == \
            plain.tracker.snapshot().floats["client_edge:down"]

    def test_topk_hierminimax_learns(self, blob_fed, blob_factory):
        algo = HierMinimax(blob_fed, blob_factory, eta_w=0.2, eta_p=0.01,
                           batch_size=4, seed=0,
                           compressor=TopKSparsifier(0.25))
        res = algo.run(rounds=80, eval_every=80)
        assert res.history.final().record.average_accuracy > 0.8

    def test_registry_accepts_compressor(self, blob_fed, blob_factory):
        from repro.baselines.registry import make_algorithm

        algo = make_algorithm("hierminimax", blob_fed, blob_factory,
                              compressor=QSGDQuantizer(8))
        assert isinstance(algo.compressor, QSGDQuantizer)

    @pytest.mark.parametrize("error_feedback", [True, False])
    def test_topk_resume_matches_uninterrupted(self, tmp_path, error_feedback):
        """Error-feedback residuals are part of the checkpoint: 2 rounds +
        checkpoint + a fresh instance + 2 rounds equals 4 rounds straight."""
        fed = make_blob_fed(num_edges=4, clients_per_edge=3, seed=7)
        factory = make_model_factory("logistic", fed.input_dim,
                                     fed.num_classes)

        def build():
            return HierMinimax(fed, factory, eta_w=0.2, eta_p=0.01,
                               batch_size=4, seed=7,
                               compressor=TopKSparsifier(
                                   0.2, error_feedback=error_feedback))

        straight = build().run(rounds=4, eval_every=4).final_params
        first = build()
        first.run(rounds=2, eval_every=2)
        first.save_checkpoint(tmp_path / "ckpt.json")
        resumed = build()
        resumed.load_checkpoint(tmp_path / "ckpt.json")
        np.testing.assert_array_equal(
            resumed.run(rounds=2, eval_every=2).final_params, straight)

    def test_checkpoint_without_compressor_state_loads(self, tmp_path,
                                                       blob_fed,
                                                       blob_factory):
        """Checkpoints written before compressor state was saved still load
        (the residuals then start empty)."""
        from repro.faults.checkpoint import load_checkpoint_file, \
            save_checkpoint_file

        algo = HierMinimax(blob_fed, blob_factory, batch_size=4, seed=1,
                           compressor=TopKSparsifier(0.2))
        algo.run(rounds=1, eval_every=1)
        state = algo.state_dict()
        assert "compressor" in state["extra"]
        del state["extra"]["compressor"]
        save_checkpoint_file(tmp_path / "old.json", state)
        assert load_checkpoint_file(tmp_path / "old.json")
        fresh = HierMinimax(blob_fed, blob_factory, batch_size=4, seed=1,
                            compressor=TopKSparsifier(0.2))
        assert fresh.load_checkpoint(tmp_path / "old.json") == 1
        assert fresh.compressor.state_dict() == {"residuals": {}}

    def test_deterministic_with_compression(self, blob_fed, blob_factory):
        runs = []
        for _ in range(2):
            algo = HierMinimax(blob_fed, blob_factory, eta_w=0.1, eta_p=0.01,
                               batch_size=4, seed=5,
                               compressor=QSGDQuantizer(16))
            runs.append(algo.run(rounds=3, eval_every=3).final_params)
        np.testing.assert_array_equal(runs[0], runs[1])
