import json

import numpy as np
import pytest

from quditc import bench as bench_module
from quditc.adaptive import SearchConfig
from quditc.bench import (
    BenchRecord,
    architectures_for_dim,
    bridge_architecture,
    format_table,
    path_architecture,
    run_suite,
    star_architecture,
    summarize,
    write_records,
    write_summary_csv,
)


CFG = SearchConfig(max_nodes=2000)


class TestArchitectures:
    @pytest.mark.parametrize("dim", [3, 5, 7])
    def test_three_per_dim(self, dim):
        archs = architectures_for_dim(dim)
        assert len(archs) == 3
        for arch_id, g in archs:
            assert g.num_computational == dim

    def test_path_placement_is_out_of_order(self):
        g = path_architecture(3)
        assert g.logical_map != {str(k): k for k in range(3)}

    def test_star_is_hub_coupled(self):
        g = star_architecture(5)
        assert all(0 in edge for edge in g.edges)

    def test_bridge_has_one_ancilla(self):
        g = bridge_architecture(3)
        assert g.ancillas == frozenset({"a0"})
        assert g.num_levels == 4


class TestRunSuite:
    def test_empty_dims(self):
        # a suite that compiles nothing is invalid input, not an empty table
        with pytest.raises(ValueError, match="no dim"):
            run_suite([], [], architectures_for_dim(3), CFG)

    def test_records_complete_and_verified(self):
        graphs = architectures_for_dim(3)
        records = run_suite([3], [5], graphs, CFG, seed=1)
        assert len(records) == 15  # 5 unitaries x 3 architectures
        for rec in records:
            assert rec.status == "ok"
            assert rec.verified
            assert rec.adaptive_cost <= 1.1 * rec.qr_cost + 1e-15
            assert rec.wall_time_ms > 0

    def test_mean_improvement_on_suite(self):
        graphs = [("path-3", path_architecture(3))]
        records = run_suite([3], [10], graphs, CFG, seed=2)
        qr = np.mean([r.qr_cost for r in records])
        ad = np.mean([r.adaptive_cost for r in records])
        assert ad < qr

    def test_deterministic_given_seed(self):
        graphs = architectures_for_dim(3)
        a = run_suite([3], [3], graphs, CFG, seed=7)
        b = run_suite([3], [3], graphs, CFG, seed=7)
        for ra, rb in zip(a, b):
            assert ra.qr_cost == rb.qr_cost
            assert ra.adaptive_cost == rb.adaptive_cost

    def test_no_matching_graph_rejected(self):
        with pytest.raises(ValueError):
            run_suite([5], [1], architectures_for_dim(3), CFG)

    def test_inputs_checked_before_any_compile(self, monkeypatch):
        compiled = []
        monkeypatch.setattr(bench_module, "_run_instance", lambda *a: compiled.append(a))
        with pytest.raises(ValueError, match="5 computational states"):
            run_suite([3, 5], [1, 1], architectures_for_dim(3), CFG)
        with pytest.raises(ValueError, match="prime"):
            run_suite([3, 4], [1, 1],
                      [*architectures_for_dim(3), *architectures_for_dim(4)], CFG)
        assert compiled == []

    @pytest.mark.parametrize("dims,graphs", [
        ([3, 3], architectures_for_dim(3)),
        ([3], [*architectures_for_dim(3), ("path-3", star_architecture(3))]),
    ])
    def test_repeated_input_rejected_before_any_compile(self, monkeypatch, dims, graphs):
        compiled = []
        monkeypatch.setattr(bench_module, "_run_instance", lambda *a: compiled.append(a))
        with pytest.raises(ValueError, match="repeated"):
            run_suite(dims, [1] * len(dims), graphs, CFG)
        assert compiled == []

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError):
            run_suite([3, 5], [1], architectures_for_dim(3), CFG)

    @pytest.mark.parametrize("counts", [[-2], [0, 0], [1, 0]])
    def test_count_below_one_rejected(self, counts):
        with pytest.raises(ValueError, match="count"):
            run_suite([3] * len(counts), counts, architectures_for_dim(3), CFG)


class TestSummarize:
    def test_single_record(self):
        rec = BenchRecord(3, "path-3", 0, 2e-4, 1e-4, 2, 0, 1, 0, 5, 1.0, "ok", True)
        rows = summarize([rec])
        assert len(rows) == 1
        row = rows[0]
        assert row["qr_min"] == row["qr_avg"] == row["qr_max"] == 2e-4

    def test_two_record_average(self):
        recs = [
            BenchRecord(3, "path-3", 0, 2e-4, 2e-4, 2, 0, 2, 0, 5, 1.0, "ok", True),
            BenchRecord(3, "path-3", 1, 4e-4, 4e-4, 2, 0, 2, 0, 5, 1.0, "ok", True),
        ]
        rows = summarize(recs)
        assert rows[0]["qr_avg"] == pytest.approx(3e-4)
        table = format_table(rows)
        assert "3.00" in table

    def test_matches_brute_force_reaggregation(self):
        graphs = architectures_for_dim(3)
        records = run_suite([3], [6], graphs, CFG, seed=5)
        rows = summarize(records)
        for row in rows:
            group = [r for r in records
                     if r.dim == row["dim"] and r.architecture == row["architecture"]]
            assert row["qr_min"] == min(r.qr_cost for r in group)
            assert row["qr_max"] == max(r.qr_cost for r in group)
            assert row["adaptive_avg"] == pytest.approx(
                sum(r.adaptive_cost for r in group) / len(group))

    def test_empty_group_warns_and_omits(self):
        rec = BenchRecord(3, "path-3", 0, 2e-4, None, 2, 0, None, None, None, 1.0,
                          "no_solution", False)
        with pytest.warns(UserWarning):
            assert summarize([rec]) == []


class TestOutputFiles:
    def test_records_roundtrip_and_exclude_timing(self, tmp_path):
        graphs = [("path-3", path_architecture(3))]
        records = run_suite([3], [2], graphs, CFG, seed=11)
        path = tmp_path / "records.ndjson"
        write_records(records, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        docs = [json.loads(line) for line in lines]
        assert all("wall_time_ms" not in doc for doc in docs)
        assert docs[0]["architecture"] == "path-3"

    def test_timing_opt_in(self, tmp_path):
        graphs = [("path-3", path_architecture(3))]
        records = run_suite([3], [1], graphs, CFG, seed=11)
        path = tmp_path / "records.ndjson"
        write_records(records, path, include_timings=True)
        assert "wall_time_ms" in json.loads(path.read_text().splitlines()[0])

    def test_byte_identical_without_timing(self, tmp_path):
        graphs = architectures_for_dim(3)
        p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        write_records(run_suite([3], [3], graphs, CFG, seed=13), p1)
        write_records(run_suite([3], [3], graphs, CFG, seed=13), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_summary(self, tmp_path):
        graphs = [("path-3", path_architecture(3))]
        records = run_suite([3], [2], graphs, CFG, seed=11)
        path = tmp_path / "summary.csv"
        write_summary_csv(summarize(records), path)
        text = path.read_text()
        assert text.startswith("dim,architecture,unitaries,qr_min")
        assert "path-3" in text
