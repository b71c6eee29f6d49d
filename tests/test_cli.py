import csv
import json

import pytest

from treeshrink import nested_distance
from treeshrink.cli import _bench_tree, build_parser, main
from treeshrink.reduce import ReductionConfig
from treeshrink.tree import ScenarioTree, generate_random


def run(argv):
    return main(argv)


class TestGen:
    def test_published_size(self, tmp_path):
        out = tmp_path / "tree.json"
        assert run(["gen", "--stages", "4", "--branching", "6",
                    "-o", str(out)]) == 0
        tree = ScenarioTree.load(out)
        assert tree.n_nodes == 259
        assert tree.validate() == []

    def test_chain(self, tmp_path):
        out = tmp_path / "chain.json"
        assert run(["gen", "--stages", "3", "--branching", "1",
                    "-o", str(out)]) == 0
        tree = ScenarioTree.load(out)
        assert len(tree.leaves()) == 1

    def test_stdout_default(self, capsys):
        # --stages counts levels including the root: 3 levels of a binary
        # tree hold 1 + 2 + 4 nodes.
        assert run(["gen", "--stages", "3", "--branching", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["nodes"]) == 7

    def test_stdout_bytes_match_output_file(self, tmp_path, capsys):
        out = tmp_path / "tree.json"
        argv = ["gen", "--stages", "3", "--branching", "3", "--dim", "2", "--seed", "4"]
        assert run(argv) == 0
        stdout = capsys.readouterr().out
        assert run(argv + ["-o", str(out)]) == 0
        assert out.read_bytes() == stdout.encode()

    def test_missing_required_flag_usage_error(self):
        with pytest.raises(SystemExit) as info:
            run(["gen", "--stages", "3"])
        assert info.value.code == 2

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["gen", "--stages", "3", "--branching", "2", "--seed", "7", "-o", str(a)])
        run(["gen", "--stages", "3", "--branching", "2", "--seed", "7", "-o", str(b)])
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("value", ["-10,-5", "-.5,2"])
    def test_negative_range_space_and_equals_forms(self, tmp_path, value):
        # argparse reads a bare '-10,-5' as an option unless the CLI glues it
        # to its flag.
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["gen", "--stages", "3", "--branching", "2"]
        assert run(base + ["--range", value, "-o", str(a)]) == 0
        assert run(base + [f"--range={value}", "-o", str(b)]) == 0
        assert a.read_text() == b.read_text()
        lo, hi = (float(x) for x in value.split(","))
        q = ScenarioTree.load(a).quantizer
        assert lo <= q.min() and q.max() <= hi

    def test_dimension_zero_exit_2(self, tmp_path, capsys):
        out = tmp_path / "d0.json"
        assert run(["gen", "--stages", "3", "--branching", "2", "--dim", "0",
                    "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: dim must be an integer >= 1, got 0")
        assert not out.exists()

    @pytest.mark.parametrize("stages", ["1", "0"])
    def test_too_few_stages_exit_2(self, tmp_path, capsys, stages):
        out = tmp_path / "t.json"
        assert run(["gen", "--stages", stages, "--branching", "2", "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --stages must be at least 2, got {stages}\n"
        assert not out.exists()

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "t.json"
        run(["gen", "--stages", "2", "--branching", "2", "-o", str(out)])
        doc = json.loads((tmp_path / "t.json.manifest.json").read_text())
        assert doc["command"] == "gen"
        assert doc["seed"] == 0
        assert "numpy" in doc["versions"]


class TestIngest:
    def test_csv_to_fan(self, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text("0.5,0.0,1.0\n0.5,0.0,2.0\n")
        out = tmp_path / "fan.json"
        assert run(["ingest", "-i", str(src), "-o", str(out)]) == 0
        tree = ScenarioTree.load(out)
        assert len(tree.leaves()) == 2

    def test_bad_csv_exit_code(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("0.4,0.0,1.0\n0.4,0.0,2.0\n")
        assert run(["ingest", "-i", str(src)]) == 2

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_dimension_below_one_exit_2(self, tmp_path, capsys, dim):
        src = tmp_path / "s.csv"
        src.write_text("0.5,0.0,1.0\n0.5,0.0,2.0\n")
        assert run(["ingest", "-i", str(src), f"--dim={dim}"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: dim must be an integer >= 1, got {dim}")


class TestReduce:
    def make_input(self, tmp_path):
        path = tmp_path / "big.json"
        generate_random(3, 4, seed=3).save(path)
        return path

    def test_reduce_writes_outputs(self, tmp_path):
        src = self.make_input(tmp_path)
        out = tmp_path / "small.json"
        trace = tmp_path / "trace.csv"
        report = tmp_path / "report.json"
        code = run(["reduce", "-i", str(src), "--target-branching", "2",
                    "--solver", "lp", "--seed", "1", "-o", str(out),
                    "--trace", str(trace), "--report", str(report)])
        assert code == 0
        small = ScenarioTree.load(out)
        assert small.validate() == []
        assert len(small.leaves()) == 8
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "delta00", "nd", "seconds"]
        doc = json.loads(report.read_text())
        assert len(rows) - 1 == len(doc["deltas"])
        nds = [float(r[2]) for r in rows[1:]]
        assert all(nds[i + 1] <= nds[i] + 1e-9 for i in range(len(nds) - 1))
        assert (tmp_path / "small.json.manifest.json").exists()

    def test_stdout_bytes_match_output_file(self, tmp_path, capsys):
        src = self.make_input(tmp_path)
        out = tmp_path / "small.json"
        argv = ["reduce", "-i", str(src), "--solver", "lp", "--seed", "3"]
        assert run(argv) == 0
        stdout = capsys.readouterr().out
        assert run(argv + ["-o", str(out)]) == 0
        assert out.read_bytes() == stdout.encode()
        assert ScenarioTree.load(out).validate() == []

    def test_solver_auto_logs_choices(self, tmp_path, capsys):
        src = self.make_input(tmp_path)
        report = tmp_path / "rep.json"
        out = tmp_path / "small.json"
        assert run(["reduce", "-i", str(src), "--solver", "auto", "--seed", "2",
                    "-o", str(out), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["solver_log"]
        assert {rec["solver"] for rec in doc["solver_log"]} == {"lp"}
        # The summary counts unconverged inner solves out of all of them.
        log = doc["solver_log"]
        unconverged = sum(not rec["converged"] for rec in log)
        summary = capsys.readouterr().err
        assert summary.startswith("final nd: ")
        assert f"unconverged inner solves: {unconverged}/{len(log)}" in summary

    def test_unconverged_inner_solves_reported(self, tmp_path, capsys):
        # On this bench tree two of the heavy-stage MAM solves stop on the
        # 5000-iteration cap under the default rho, while the outer loop
        # meets its (loose) tolerance: the run exits 3, not 0.
        src = tmp_path / "bench.json"
        _bench_tree(2, 10, 1, 2).save(src)
        report = tmp_path / "rep.json"
        assert run(["reduce", "-i", str(src), "--solver", "mam", "--seed", "2",
                    "--init-range=-10,10", "--tol", "1e9", "--max-iter", "1",
                    "-o", str(tmp_path / "small.json"), "--report", str(report)]) == 3
        doc = json.loads(report.read_text())
        log = doc["solver_log"]
        unconverged = sum(not rec["converged"] for rec in log)
        assert unconverged > 0
        summary = capsys.readouterr().err
        assert "converged: True" in summary
        assert f"unconverged inner solves: {unconverged}/{len(log)}" in summary
        # Both the plan cost and the exact distance of the output are shown.
        assert doc["certified_nd"] > 0 and doc["final_nd"] > 0
        assert f"final nd: {doc['final_nd']:.9g}  " in summary
        assert f"certified nd: {doc['certified_nd']:.9g}  " in summary

    def test_certified_nd_bounded_by_lp_plan_cost(self, tmp_path, capsys):
        # Exact LP plans are feasible couplings of the returned tree, so
        # their cost bounds its exact nested distance from above.
        src = self.make_input(tmp_path)
        report = tmp_path / "rep.json"
        out = tmp_path / "small.json"
        assert run(["reduce", "-i", str(src), "--solver", "lp", "--seed", "1",
                    "-o", str(out), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert 0 < doc["certified_nd"] <= doc["final_nd"] * (1 + 1e-9)
        assert f"certified nd: {doc['certified_nd']:.9g}" in capsys.readouterr().err
        run(["nd", "-a", str(src), "-b", str(out)])
        assert float(capsys.readouterr().out) == pytest.approx(doc["certified_nd"], rel=1e-8)

    def test_negative_init_range_space_and_equals_forms(self, tmp_path):
        src = self.make_input(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["reduce", "-i", str(src), "--solver", "lp", "--max-iter", "1"]
        assert run(base + ["--init-range", "-10,10", "-o", str(a)]) in (0, 3)
        assert run(base + ["--init-range=-10,10", "-o", str(b)]) in (0, 3)
        assert a.read_text() == b.read_text()

    def test_huge_lambda_exit_2(self, tmp_path, capsys):
        # exp(-lambda * normalized cost) underflows for lambda past ~745.
        src = self.make_input(tmp_path)
        code = run(["reduce", "-i", str(src), "--solver", "ibp", "--lambda", "2000",
                    "-o", str(tmp_path / "z.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "lam=2000" in err

    @pytest.mark.parametrize("flag, value, solver", [
        ("--tol", "nan", "lp"), ("--tol", "inf", "lp"), ("--tol", "0", "lp"),
        ("--rho", "nan", "mam"), ("--rho", "inf", "mam"), ("--rho", "-1", "mam"),
        ("--lambda", "nan", "ibp"), ("--lambda", "inf", "ibp"), ("--lambda", "0", "ibp"),
    ])
    def test_bad_run_parameter_exit_2(self, tmp_path, capsys, flag, value, solver):
        src = self.make_input(tmp_path)
        out = tmp_path / "small.json"
        assert run(["reduce", "-i", str(src), "--solver", solver, flag, value,
                    "-o", str(out)]) == 2
        name = "lam" if flag == "--lambda" else flag[2:]
        assert capsys.readouterr().err.startswith(f"error: {name} must be finite and positive")
        assert not out.exists()

    def test_huge_parent_index_exit_2(self, tmp_path, capsys):
        doc = generate_random(1, 2, seed=0).to_json_dict()
        doc["nodes"][1]["parent"] = 10 ** 30
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["reduce", "-i", str(bad), "-o", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err.startswith("error: node 1: parent index")

    def test_malformed_tree_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"T": 1, "d": 1, "nodes": [
            {"id": 0, "parent": None, "quantizer": [0.0], "prob": 1.0},
            {"id": 1, "parent": 0, "quantizer": [1.0], "prob": 0.5},
        ]}))
        assert run(["reduce", "-i", str(bad), "-o", str(tmp_path / "x.json")]) == 2

    def test_max_iteration_stop_exit_3(self, tmp_path):
        src = self.make_input(tmp_path)
        code = run(["reduce", "-i", str(src), "--solver", "lp", "--seed", "1",
                    "--tol", "1e-12", "--max-iter", "2",
                    "-o", str(tmp_path / "y.json")])
        assert code == 3

    def test_kmeans_and_ffs_inits(self, tmp_path):
        src = self.make_input(tmp_path)
        for init in ("kmeans", "ffs"):
            out = tmp_path / f"{init}.json"
            code = run(["reduce", "-i", str(src), "--init", init,
                        "--target-scenarios", "5", "--solver", "lp",
                        "--seed", "0", "-o", str(out)])
            assert code in (0, 3)
            small = ScenarioTree.load(out)
            assert small.validate() == []
            assert len(small.leaves()) == 5

    @pytest.mark.parametrize("init", ["kmeans", "ffs"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_target_scenarios_below_one_exit_2(self, tmp_path, capsys, init, value):
        src = self.make_input(tmp_path)
        out = tmp_path / "small.json"
        assert run(["reduce", "-i", str(src), "--init", init, "--target-scenarios", value,
                    "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: --target-scenarios must be at least 1, got {value}")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["5", "0"])
    def test_target_scenarios_with_random_init_exit_2(self, tmp_path, capsys, value):
        src = self.make_input(tmp_path)
        out = tmp_path / "small.json"
        assert run(["reduce", "-i", str(src), "--init", "random", "--target-scenarios", value,
                    "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --target-scenarios applies to --init kmeans or ffs\n")
        assert not out.exists()

    @pytest.mark.parametrize("init", ["kmeans", "ffs"])
    @pytest.mark.parametrize("branching", ["2", "3"])
    def test_target_branching_with_target_scenarios_exit_2(self, tmp_path, capsys, init,
                                                           branching):
        src = self.make_input(tmp_path)
        out = tmp_path / "small.json"
        assert run(["reduce", "-i", str(src), "--init", init, "--target-scenarios", "9",
                    "--target-branching", branching, "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --init kmeans or ffs takes --target-scenarios or "
            "--target-branching, not both\n")
        assert not out.exists()

    @pytest.mark.parametrize("init", ["random", "kmeans", "ffs"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_target_branching_below_one_exit_2(self, tmp_path, capsys, init, value):
        src = self.make_input(tmp_path)
        out = tmp_path / "small.json"
        assert run(["reduce", "-i", str(src), "--init", init, "--target-branching", value,
                    "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --target-branching must be at least 1, got {value}\n")
        assert not out.exists()

    def test_run_defaults_come_from_the_config(self):
        args = build_parser().parse_args(["reduce", "-i", "t.json"])
        defaults = ReductionConfig()
        assert (args.solver, args.tol, args.max_iter, args.rho, getattr(args, "lambda")) == (
            defaults.solver, defaults.tol, defaults.max_outer, defaults.rho, defaults.lam)


class TestNd:
    def test_identity_zero(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        generate_random(2, 3, seed=0).save(path)
        assert run(["nd", "-a", str(path), "-b", str(path)]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_symmetric_under_swap(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        generate_random(2, 3, seed=1).save(a)
        generate_random(2, 2, seed=2).save(b)
        run(["nd", "-a", str(a), "-b", str(b)])
        first = capsys.readouterr().out.strip()
        run(["nd", "-a", str(b), "-b", str(a)])
        second = capsys.readouterr().out.strip()
        assert first == second

    def test_nine_significant_digits(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        generate_random(2, 2, seed=3).save(a)
        generate_random(2, 2, seed=4).save(b)
        run(["nd", "-a", str(a), "-b", str(b)])
        text = capsys.readouterr().out.strip()
        digits = text.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) == 9

    @pytest.mark.parametrize("order", ["0", "-1"])
    def test_order_below_one_exit_2(self, tmp_path, capsys, order):
        path = tmp_path / "t.json"
        generate_random(2, 2, seed=0).save(path)
        assert run(["nd", "-a", str(path), "-b", str(path), "--order", order]) == 2
        assert capsys.readouterr().err.startswith("error: order must be at least 1")

    @pytest.mark.parametrize("order", ["inf", "nan", "-inf"])
    def test_order_not_finite_exit_2(self, tmp_path, capsys, order):
        path = tmp_path / "t.json"
        generate_random(2, 2, seed=0).save(path)
        assert run(["nd", "-a", str(path), "-b", str(path), f"--order={order}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: order must be at least 1 and finite")

    @pytest.mark.parametrize("order", ["1", "1.5", "2", "2.5", "3"])
    def test_any_real_order_matches_the_library(self, tmp_path, capsys, order):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        generate_random(3, 2, seed=1).save(a)
        generate_random(3, 2, seed=2).save(b)
        assert run(["nd", "-a", str(a), "-b", str(b), "--order", order]) == 0
        nd, _ = nested_distance(ScenarioTree.load(a), ScenarioTree.load(b), order=float(order))
        assert capsys.readouterr().out == f"{nd:.9g}\n"

    def test_overflowing_order_exit_2(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        generate_random(2, 2, seed=1).save(a)
        generate_random(2, 2, seed=2).save(b)
        assert run(["nd", "-a", str(a), "-b", str(b), "--order", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: path costs of order 1000 are not finite")

    def test_dimension_zero_tree_exit_2(self, tmp_path, capsys):
        path = tmp_path / "d0.json"
        path.write_text(json.dumps({"T": 2, "d": 0, "nodes": [
            {"id": 0, "parent": None, "quantizer": [], "prob": 1.0},
            {"id": 1, "parent": 0, "quantizer": [], "prob": 0.5},
            {"id": 2, "parent": 0, "quantizer": [], "prob": 0.5},
        ]}))
        assert run(["nd", "-a", str(path), "-b", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid scenario tree")
        assert "quantizer dimension 0, expected at least 1" in err

    def test_mismatched_trees_exit_2(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        generate_random(2, 2, seed=0).save(a)
        generate_random(3, 2, seed=0).save(b)
        assert run(["nd", "-a", str(a), "-b", str(b)]) == 2

    def test_matches_reduce_final_nd(self, tmp_path, capsys):
        src = tmp_path / "big.json"
        generate_random(3, 3, seed=5).save(src)
        out = tmp_path / "small.json"
        report = tmp_path / "rep.json"
        run(["reduce", "-i", str(src), "--solver", "lp", "--seed", "1",
             "-o", str(out), "--report", str(report)])
        capsys.readouterr()
        run(["nd", "-a", str(src), "-b", str(out)])
        nd_cli = float(capsys.readouterr().out.strip())
        final_nd = json.loads(report.read_text())["final_nd"]
        assert nd_cli == pytest.approx(final_nd, abs=1e-6)
