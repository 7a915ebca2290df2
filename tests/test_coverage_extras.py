"""Additional coverage: edge cases across modules that the main suites
don't reach."""

import numpy as np

from repro.cli import main as cli_main
from repro.core.encoding import RBFEncoder
from repro.core.hypervector import bundle, permute, random_bipolar
from repro.core.model import TrainingReport
from repro.experiments.bandwidth import _level_frequency_for
from repro.hierarchy.topology import build_pecan, build_tree


class TestEncodingExtras:
    def test_encode_accepts_1d(self):
        enc = RBFEncoder(6, 64, seed=4)
        out = enc.encode(np.ones(6))
        assert out.shape == (1, 64)

    def test_rbf_full_sparsity_keeps_one_weight(self):
        enc = RBFEncoder(50, 64, sparsity=0.999, seed=6)
        assert enc.block_length == 1
        assert np.all(np.count_nonzero(enc.weights, axis=1) <= 1)


class TestHypervectorExtras:
    def test_bundle_float_dtype_preserved(self):
        stack = np.ones((3, 4)) * 0.5
        assert np.allclose(bundle(stack), 1.5)

    def test_permute_wraps_beyond_dimension(self):
        hv = random_bipolar(8, seed=7)
        assert np.array_equal(permute(hv, 8), hv)
        assert np.array_equal(permute(hv, 9), permute(hv, 1))


class TestTrainingReport:
    def test_final_accuracy_fallback(self):
        report = TrainingReport(
            initial_accuracy=0.7, retrain_history=[], n_samples=10
        )
        assert report.final_accuracy == 0.7

    def test_final_accuracy_from_history(self):
        report = TrainingReport(
            initial_accuracy=0.7, retrain_history=[0.8, 0.9], n_samples=10
        )
        assert report.final_accuracy == 0.9


class TestTopologyExtras:
    def test_pecan_partial_last_house(self):
        h = build_pecan(n_appliances=7, appliances_per_house=6, houses_per_street=2)
        houses = h.nodes_at_level(2)
        sizes = sorted(len(h.nodes[n].children) for n in houses)
        assert sizes == [1, 6]

    def test_tree_nodes_at_level(self):
        h = build_tree(4)
        assert len(h.nodes_at_level(1)) == 4
        assert len(h.nodes_at_level(2)) == 2
        assert len(h.nodes_at_level(3)) == 1

    def test_internal_nodes_postorder_subset(self):
        h = build_tree(6)
        internal = h.internal_nodes()
        assert h.root_id in internal
        assert all(not h.nodes[n].is_leaf for n in internal)


class TestBandwidthInternals:
    def test_level_frequency_one_hot(self):
        freq = _level_frequency_for(2, depth=3)
        assert freq == {1: 0.0, 2: 1.0, 3: 0.0}
        assert sum(freq.values()) == 1.0


class TestCliReport:
    def test_report_roundtrip(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig7_accuracy.txt").write_text("CONTENT\n")
        out_file = tmp_path / "out.md"
        code = cli_main(
            [
                "report", "--results-dir", str(results),
                "--output", str(out_file),
            ]
        )
        assert code == 0
        assert "CONTENT" in out_file.read_text()

    def test_report_to_stdout(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig7_accuracy.txt").write_text("BODY\n")
        assert cli_main(["report", "--results-dir", str(results)]) == 0
        assert "BODY" in capsys.readouterr().out
