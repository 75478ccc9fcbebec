"""Command-line surface: file round-trips, modes, and exit codes."""
import json

import numpy as np
import pytest

from quditc.adaptive import adaptive_compile
from quditc.cli import EXIT_FAIL, EXIT_INVALID, EXIT_NO_SOLUTION, EXIT_OK, main
from quditc.gates import RotationGate, rotation_matrix
from quditc.graph import graph_to_dict, save_graph
from quditc.bench import path_architecture
from quditc.linalg import MAX_LEVELS, save_unitary

from conftest import haar_unitary


@pytest.fixture
def workdir(tmp_path):
    u = haar_unitary(3, 123)
    save_unitary(u, tmp_path / "u.json")
    save_graph(path_architecture(3), tmp_path / "g.json")
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def strict_json(constant):
    raise ValueError(f"{constant} is not JSON")


class TestCompile:
    def test_adaptive_writes_sequence(self, workdir, capsys):
        code = run(["compile", "--unitary", workdir / "u.json", "--graph", workdir / "g.json",
                    "--mode", "adaptive", "--max-nodes", 5000, "--out", workdir / "seq.json"])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["mode"] == "adaptive"
        doc = json.loads((workdir / "seq.json").read_text())
        assert doc["order"] == "application"
        assert "virtual_phases" in doc and "initial_map" in doc

    def test_qr_mode(self, workdir, capsys):
        code = run(["compile", "--unitary", workdir / "u.json", "--graph", workdir / "g.json",
                    "--mode", "qr", "--out", workdir / "seq.json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["mode"] == "qr"

    def test_invalid_unitary_file(self, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "entries": [[[2, 0], [0, 0]], [[0, 0], [2, 0]]]}))
        code = run(["compile", "--unitary", bad, "--graph", workdir / "g.json",
                    "--out", tmp_path / "x.json"])
        assert code == EXIT_INVALID

    def test_no_solution_exit_code(self, workdir, tmp_path):
        code = run(["compile", "--unitary", workdir / "u.json", "--graph", workdir / "g.json",
                    "--cost-limit", "1e-12", "--max-nodes", 100,
                    "--out", tmp_path / "x.json"])
        assert code == EXIT_NO_SOLUTION

    def test_cost_overrides_change_cost(self, workdir, capsys):
        run(["compile", "--unitary", workdir / "u.json", "--graph", workdir / "g.json",
             "--mode", "qr"])
        base = json.loads(capsys.readouterr().out)["total_cost"]
        run(["compile", "--unitary", workdir / "u.json", "--graph", workdir / "g.json",
             "--mode", "qr", "--cost-base-factor", "2e-4"])
        doubled = json.loads(capsys.readouterr().out)["total_cost"]
        assert doubled == pytest.approx(2 * base, rel=1e-12)

    def test_search_defaults_are_search_config_defaults(self, workdir, capsys):
        assert run(["compile", "--unitary", workdir / "u.json",
                    "--graph", workdir / "g.json"]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        result = adaptive_compile(haar_unitary(3, 123), path_architecture(3))
        assert summary["total_cost"] == result.total_cost
        assert summary["nodes_expanded"] == result.stats.nodes_expanded

    def test_summary_says_why_the_search_stopped(self, workdir, capsys):
        assert run(["compile", "--unitary", workdir / "u.json", "--graph", workdir / "g.json",
                    "--return-first", "true"]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["stop_reason"] == "first_solution"
        assert summary["beat_warm_start"] is False

    @pytest.mark.parametrize("command", ["compile", "bench"])
    def test_sort_children_flag_removed(self, workdir, capsys, command):
        args = ["--unitary", workdir / "u.json", "--graph", workdir / "g.json"] \
            if command == "compile" else ["--dims", "3", "--counts", "1"]
        with pytest.raises(SystemExit) as exc:
            run([command, *args, "--sort-children", "true"])
        assert exc.value.code == 2
        assert "--sort-children" in capsys.readouterr().err

    def test_threshold_flag_removed(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["compile", "--unitary", workdir / "u.json", "--graph", workdir / "g.json",
                 "--threshold", "1e-8"])
        assert exc.value.code == 2
        assert "--threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["adaptive", "qr"])
    @pytest.mark.parametrize("flag,value", [
        ("--cost-base-factor", "nan"), ("--cost-base-factor", "inf"),
        ("--cost-calibrated-angle", "nan"), ("--cost-calibrated-angle", "inf"),
        ("--cost-limit-factor", "nan"), ("--cost-limit", "nan"), ("--max-depth", "-2"),
    ])
    def test_out_of_range_parameters_are_invalid_input(self, workdir, capsys, mode, flag, value):
        assert run(["compile", "--unitary", workdir / "u.json", "--graph", workdir / "g.json",
                    "--mode", mode, flag, value]) == EXIT_INVALID
        assert "invalid input" in capsys.readouterr().err

    def test_infinite_limit_factor_means_no_limit(self, workdir, capsys):
        # the summary is strict JSON: no limit is null, not Infinity
        for limit in (["--cost-limit-factor", "inf"],
                      ["--cost-limit", "inf", "--warm-start", "false"]):
            assert run(["compile", "--unitary", workdir / "u.json", "--graph", workdir / "g.json",
                        *limit, "--max-nodes", 200]) == EXIT_OK
            summary = json.loads(capsys.readouterr().out, parse_constant=strict_json)
            assert summary["cost_limit"] is None

    def test_unwritable_output_is_invalid_input(self, workdir, capsys):
        assert run(["compile", "--unitary", workdir / "u.json", "--graph", workdir / "g.json",
                    "--mode", "qr", "--out", workdir / "missing" / "seq.json"]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("invalid input") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["compile", "bench"])
    def test_cost_model_flag_removed(self, workdir, capsys, command):
        args = ["--unitary", workdir / "u.json", "--graph", workdir / "g.json"] \
            if command == "compile" else ["--dims", "3", "--counts", "1"]
        with pytest.raises(SystemExit) as exc:
            run([command, *args, "--cost-model", "calibrated-linear"])
        assert exc.value.code == 2
        assert "--cost-model" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"cost": None}, [1], {"cost": {"base_factor": None}},
        {"cost": {"base_factor": float("nan")}},
        {"cost": {"base_facter": 3e-4}},            # a typo is not silently ignored
        {"cost": {"model": "calibrated-linear"}},   # nor is the removed key
    ])
    def test_malformed_config_is_invalid_input(self, workdir, tmp_path, capsys, config):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert run(["compile", "--unitary", workdir / "u.json", "--graph", workdir / "g.json",
                    "--config", tmp_path / "cfg.json"]) == EXIT_INVALID
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["ancillas", "node_phase"])
    def test_malformed_graph_is_invalid_input(self, workdir, tmp_path, capsys, field):
        doc = graph_to_dict(path_architecture(3))
        doc[field] = 5
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        assert run(["compile", "--unitary", workdir / "u.json",
                    "--graph", tmp_path / "bad.json"]) == EXIT_INVALID
        assert "invalid input" in capsys.readouterr().err

    def test_config_file(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cost": {"base_factor": 3e-4}}))
        run(["compile", "--unitary", workdir / "u.json", "--graph", workdir / "g.json",
             "--mode", "qr", "--config", cfg])
        run(["compile", "--unitary", workdir / "u.json", "--graph", workdir / "g.json",
             "--mode", "qr"])
        out = capsys.readouterr().out.splitlines()
        with_cfg, plain = (json.loads(line)["total_cost"] for line in out)
        assert with_cfg == pytest.approx(3 * plain, rel=1e-12)


class TestVerify:
    def test_pass_and_fail(self, workdir, capsys):
        run(["compile", "--unitary", workdir / "u.json", "--graph", workdir / "g.json",
             "--max-nodes", 5000, "--out", workdir / "seq.json"])
        capsys.readouterr()
        assert run(["verify", "--unitary", workdir / "u.json",
                    "--sequence", workdir / "seq.json", "--tol", "1e-8"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "PASS"

        other = haar_unitary(3, 321)
        save_unitary(other, workdir / "other.json")
        assert run(["verify", "--unitary", workdir / "other.json",
                    "--sequence", workdir / "seq.json"]) == EXIT_FAIL
        assert capsys.readouterr().out.strip() == "FAIL"

    def test_qr_sequence_verifies(self, workdir, capsys):
        run(["compile", "--unitary", workdir / "u.json", "--graph", workdir / "g.json",
             "--mode", "qr", "--out", workdir / "seq.json"])
        capsys.readouterr()
        assert run(["verify", "--unitary", workdir / "u.json",
                    "--sequence", workdir / "seq.json"]) == EXIT_OK

    def test_identity_map_default(self, tmp_path, capsys):
        # a bare hand-written sequence file with no placement maps
        gate = RotationGate(0, 1, 1.1, 0.3)
        save_unitary(rotation_matrix(gate, 2), tmp_path / "u.json")
        doc = {"dim": 2, "order": "application",
               "gates": [{"type": "R", "i": 0, "j": 1, "theta": 1.1, "phi": 0.3}]}
        (tmp_path / "seq.json").write_text(json.dumps(doc))
        assert run(["verify", "--unitary", tmp_path / "u.json",
                    "--sequence", tmp_path / "seq.json"]) == EXIT_OK

    @pytest.mark.parametrize("maps", [
        {"final_map": {"0": 0, "1": 1, "2": 3}},
        {"initial_map": [0, 1, 2]},
        {"initial_map": {"0": -1, "1": 1, "2": 2}},
        {"final_map": {"0": 0, "1": 0, "2": 2}},
    ])
    def test_malformed_placement_is_invalid_input(self, workdir, capsys, maps):
        run(["compile", "--unitary", workdir / "u.json", "--graph", workdir / "g.json",
             "--mode", "qr", "--out", workdir / "seq.json"])
        doc = json.loads((workdir / "seq.json").read_text())
        doc.update(maps)
        (workdir / "seq.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--unitary", workdir / "u.json",
                    "--sequence", workdir / "seq.json"]) == EXIT_INVALID
        assert "invalid input" in capsys.readouterr().err

    def test_invalid_sequence_file(self, workdir, tmp_path):
        (tmp_path / "seq.json").write_text(json.dumps({"dim": 3, "gates": [{"type": "Q"}]}))
        assert run(["verify", "--unitary", workdir / "u.json",
                    "--sequence", tmp_path / "seq.json"]) == EXIT_INVALID

    @pytest.mark.parametrize("gates", [[{"type": "R", "i": 0}], 5, ["x"]])
    def test_malformed_gate_list_is_invalid_input(self, workdir, tmp_path, capsys, gates):
        (tmp_path / "seq.json").write_text(json.dumps({"dim": 3, "gates": gates}))
        assert run(["verify", "--unitary", workdir / "u.json",
                    "--sequence", tmp_path / "seq.json"]) == EXIT_INVALID
        assert "invalid input" in capsys.readouterr().err


class TestBench:
    def test_small_suite(self, tmp_path, capsys):
        code = run(["bench", "--dims", "3", "--counts", "4", "--seed", "5",
                    "--max-nodes", "2000",
                    "--csv", tmp_path / "summary.csv",
                    "--records", tmp_path / "records.ndjson"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "path-3" in out and "star-3" in out and "bridge-3" in out
        assert (tmp_path / "summary.csv").exists()
        lines = (tmp_path / "records.ndjson").read_text().splitlines()
        assert len(lines) == 12  # 4 unitaries x 3 architectures

    def test_reproducible_records(self, tmp_path):
        for name in ("a", "b"):
            run(["bench", "--dims", "3", "--counts", "3", "--seed", "9",
                 "--max-nodes", "2000", "--records", tmp_path / f"{name}.ndjson"])
        assert (tmp_path / "a.ndjson").read_bytes() == (tmp_path / "b.ndjson").read_bytes()

    def test_custom_graph_files(self, tmp_path, capsys):
        save_graph(path_architecture(3), tmp_path / "mygraph.json")
        code = run(["bench", "--dims", "3", "--counts", "2", "--seed", "2",
                    "--max-nodes", "2000", "--graphs", tmp_path / "mygraph.json"])
        assert code == EXIT_OK
        assert "mygraph" in capsys.readouterr().out


class TestArch:
    def test_dump(self, tmp_path, capsys):
        assert run(["arch", "--dim", "5", "--out", tmp_path]) == EXIT_OK
        names = sorted(p.name for p in tmp_path.glob("*.json"))
        assert names == ["bridge-5.json", "path-5.json", "star-5.json"]

    def test_size_cap_is_invalid_input(self, tmp_path, capsys):
        # bridge-d needs d + 1 levels
        assert run(["arch", "--dim", MAX_LEVELS - 1, "--out", tmp_path]) == EXIT_OK
        assert run(["arch", "--dim", MAX_LEVELS, "--out", tmp_path / "over"]) == EXIT_INVALID
        assert "cap" in capsys.readouterr().err
        assert run(["arch", "--dim", 1, "--out", tmp_path / "over"]) == EXIT_INVALID
        assert not (tmp_path / "over").exists()


class TestSizeCap:
    """A document over MAX_LEVELS is invalid input, the cap itself is not."""

    @pytest.mark.parametrize("levels, code", [(MAX_LEVELS, EXIT_OK),
                                              (MAX_LEVELS + 1, EXIT_INVALID)])
    def test_graph_levels(self, workdir, capsys, levels, code):
        doc = {"levels": levels, "edges": [[k, k + 1] for k in range(levels - 1)],
               "logical_map": {"0": 0, "1": 1, "2": 2}}
        (workdir / "big.json").write_text(json.dumps(doc))
        assert run(["compile", "--unitary", workdir / "u.json", "--graph", workdir / "big.json",
                    "--mode", "qr"]) == code
        assert ("cap" in capsys.readouterr().err) == (code == EXIT_INVALID)

    @pytest.mark.parametrize("dim, code", [(MAX_LEVELS, EXIT_FAIL),
                                           (MAX_LEVELS + 1, EXIT_INVALID)])
    def test_sequence_dim(self, workdir, capsys, dim, code):
        # an empty sequence on a 3-state placement does not reconstruct u
        doc = {"dim": dim, "gates": [], "initial_map": {"0": 0, "1": 1, "2": 2}}
        (workdir / "s.json").write_text(json.dumps(doc))
        assert run(["verify", "--unitary", workdir / "u.json", "--sequence",
                    workdir / "s.json"]) == code
        assert ("cap" in capsys.readouterr().err) == (code == EXIT_INVALID)

    def test_unitary_dim(self, workdir, capsys):
        save_unitary(np.eye(MAX_LEVELS + 1), workdir / "big.json")
        assert run(["compile", "--unitary", workdir / "big.json", "--graph",
                    workdir / "g.json"]) == EXIT_INVALID
        assert "cap" in capsys.readouterr().err
