import json
import math

import pytest

from scoutplan import report
from scoutplan.branch_bound import SolveOptions
from scoutplan.cli import main
from scoutplan.executor import run_mission
from scoutplan.generate import random_tiny_scenario
from scoutplan.graphs import EdgeData, Graph
from scoutplan.planner import solve_scenario
from scoutplan.scenario import (
    GroundTruth,
    ParseError,
    Scenario,
    load_scenario,
    scenario_to_document,
)


@pytest.fixture(scope="module")
def small_path(tmp_path_factory):
    """Small scouting scenario with ground truth, fast enough for CLI runs."""
    g = Graph(["0", "1", "2", "3"], [
        (0, 1, EdgeData(16.0, 6.0, 8.0, 1.0)),
        (1, 2, EdgeData(16.0, 6.0, 8.0, 1.0)),
        (0, 3, EdgeData(25.0, 1.0, 1.0, 1.0)),
        (3, 2, EdgeData(25.0, 1.0, 1.0, 1.0)),
    ])
    sc = Scenario(graph=g, carrier_count=2, scout_count=1, horizon=5,
                  scout_steps=4, scout_cost_scale=0.25, explore_weight=0.4,
                  decay_horizon=3, optimism=0.0, launch_scale=0.2,
                  starts=((0, 2),), goals=((2, 2),))
    truth = GroundTruth((
        (10.0,) * 5, (10.0,) * 5, (25.0,) * 5, (25.0,) * 5,
    ))
    doc = scenario_to_document(sc, truth)
    path = tmp_path_factory.mktemp("scenarios") / "small.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


@pytest.fixture(scope="module")
def two_start_path(small_path):
    """small_path with its carriers starting apart, where the structured
    candidate offers no incumbent seed and the goal is not met at the start."""
    doc = json.loads(small_path.read_text())
    doc["starts"] = [{"node": "0", "count": 1}, {"node": "1", "count": 1}]
    path = small_path.with_name("two_start.json")
    path.write_text(json.dumps(doc))
    return path


def edited(text: str, path: tuple, value):
    """The JSON document text, parsed, with the value at path replaced."""
    doc = json.loads(text)
    *parents, last = path
    entry = doc
    for key in parents:
        entry = entry[key]
    entry[last] = value
    return doc


class TestValidate:
    def test_valid_scenario_exits_zero(self, small_path, capsys):
        assert main(["validate", str(small_path)]) == 0
        out = capsys.readouterr().out
        assert "locations: 12" in out
        assert "variables (compact)" in out
        assert "variables (paper parity)" in out

    def test_bad_beta_rejected(self, tmp_path, small_path, capsys):
        doc = json.loads(small_path.read_text())
        doc["params"]["beta"] = 0.6
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 2
        assert "optimism" in capsys.readouterr().err

    def test_missing_goal_node(self, tmp_path, small_path, capsys):
        doc = json.loads(small_path.read_text())
        doc["goals"] = [{"node": "zz", "min_count": 1}]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 2

    @pytest.mark.parametrize("section, key, value", [
        ("team", "n_A", None), ("horizon", "n_T", 3.5), ("ground_truth", None, []),
        ("params", "xi", math.nan), ("params", "xi", math.inf),
        ("params", "launch_scale", math.nan), ("params", "launch_scale", math.inf),
    ])
    def test_malformed_document_exits_two(self, tmp_path, small_path, capsys,
                                          section, key, value):
        doc = json.loads(small_path.read_text())
        if key is None:
            doc[section] = value
        elif value is None:
            del doc[section][key]
        else:
            doc[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("path, value", [
        (("starts",), [{"node": "0", "count": 1}] * 2),
        (("goals",), [{"node": "2", "min_count": 1}] * 2),
        (("nodes",), ["0", "1", "2", "3", None]),
        (("edges", 0, "a"), 0),
        (("starts", 0, "node"), 0),
    ], ids=["repeated-start", "repeated-goal", "null-label", "number-endpoint",
            "number-start"])
    def test_bad_label_or_repeat_exits_two(self, tmp_path, small_path, capsys,
                                           path, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edited(small_path.read_text(), path, value)))
        assert main(["plan", str(bad), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("path, value, message", [
        (("nodes",), ["0", "1", "2", "3", "3"], "error: duplicate node labels\n"),
        (("starts", 0, "node"), "z", "error: unknown node label 'z'\n"),
    ], ids=["duplicate-label", "unknown-start"])
    def test_label_errors_name_the_label(self, tmp_path, small_path, capsys,
                                         path, value, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edited(small_path.read_text(), path, value)))
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("name, message", [
        ("absent.json", "error: no such file: "), ("", "error: "),
    ], ids=["missing", "directory"])
    def test_missing_file(self, tmp_path, capsys, name, message):
        assert main(["validate", str(tmp_path / name)]) == 2
        assert capsys.readouterr().err.startswith(message)


class TestPlan:
    def test_plan_writes_files(self, small_path, tmp_path):
        out = tmp_path / "out"
        assert main(["plan", str(small_path), "-o", str(out)]) == 0
        plan_doc = json.loads((out / "plan.json").read_text())
        assert len(plan_doc["routes"]) == 2
        assert (out / "plan_costs.csv").read_text().startswith("step,")

    def test_export_mps_skips_solving(self, small_path, tmp_path):
        out = tmp_path / "mps"
        assert main(["plan", str(small_path), "-o", str(out), "--export-mps"]) == 0
        text = (out / "model.mps").read_text()
        assert text.startswith("NAME") and text.rstrip().endswith("ENDATA")

    def test_infeasible_exit_code(self, tmp_path, small_path):
        doc = json.loads(small_path.read_text())
        doc["horizon"]["n_T"] = 2      # two hops cannot fit
        del doc["ground_truth"]
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps(doc))
        assert main(["plan", str(bad), "-o", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("flag", [
        ["--gap", "0"], ["--gap", "-1"], ["--gap", "nan"], ["--time-limit", "nan"],
        ["--time-limit", "-1"], ["--nodes-limit", "-1"]])
    def test_bad_solver_option_exits_two(self, small_path, tmp_path, capsys, flag):
        assert main(["plan", str(small_path), "-o", str(tmp_path / "o"), *flag]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag", [
        ("validate", ["--gap", "0.5"]), ("validate", ["--time-limit", "5"]),
        ("validate", ["--nodes-limit", "5"]), ("validate", ["--deterministic"]),
        ("validate", ["--dot"]), ("plan", ["--deterministic"]),
        ("sweep-beta", ["--dot"]), ("sweep-beta", ["--deterministic"])])
    def test_flag_the_command_does_not_read_exits_two(self, small_path, tmp_path,
                                                      command, flag):
        output = [] if command == "validate" else ["-o", str(tmp_path / "o")]
        assert main([command, str(small_path), *output, *flag]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [[], ["solve"], ["--bogus"]])
    def test_missing_or_unknown_command_exits_two(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("usage: ")

    @pytest.mark.parametrize("argv", [["--help"], ["plan", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: ")

    def test_output_path_that_is_a_file_exits_two(self, small_path, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        assert main(["plan", str(small_path), "-o", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert taken.read_text() == "kept"
        assert [path.name for path in tmp_path.iterdir()] == ["taken"]

    @pytest.mark.parametrize("command", ["plan", "simulate"])
    def test_model_over_the_variable_limit_exits_two(self, small_path, tmp_path,
                                                     capsys, command):
        doc = json.loads(small_path.read_text())
        doc["horizon"]["n_tau"] = 400000
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        assert main([command, str(big), "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: model would need ")

    def test_no_plan_within_the_node_limit_exits_four(self, two_start_path, tmp_path,
                                                      capsys):
        out = tmp_path / "o"
        assert main(["plan", str(two_start_path), "-o", str(out),
                     "--nodes-limit", "0"]) == 4
        assert capsys.readouterr().err == "solver stopped: unknown\n"
        assert not (out / "plan.json").exists()

    def test_plan_round_trips(self, small_path, tmp_path):
        scenario, _ = load_scenario(small_path.read_text())
        outcome = solve_scenario(scenario)
        doc = report.plan_to_dict(outcome.plan, scenario)
        again = report.plan_from_dict(doc, scenario)
        assert again == outcome.plan

    def test_plan_total_is_the_sum_of_its_steps(self, small_path):
        scenario, _ = load_scenario(small_path.read_text())
        plan = solve_scenario(scenario).plan
        doc = report.plan_to_dict(plan, scenario)
        doc["total_cost"] += 100.0
        again = report.plan_from_dict(doc, scenario)
        assert again.total_cost == sum(step.total for step in plan.breakdown)
        assert report.plan_to_dict(again, scenario)["total_cost"] == plan.total_cost


class TestSimulate:
    def test_simulate_writes_logs(self, small_path, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", str(small_path), "-o", str(out), "--dot"]) == 0
        doc = json.loads((out / "mission.json").read_text())
        assert doc["status"] == "completed"
        csv_text = (out / "mission_costs.csv").read_text()
        assert csv_text.startswith("step,")

    def test_deterministic_runs_byte_identical(self, small_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["simulate", str(small_path), "-o", str(out),
                         "--deterministic"]) == 0
        assert ((out_a / "mission.json").read_bytes()
                == (out_b / "mission.json").read_bytes())
        assert ((out_a / "mission_costs.csv").read_bytes()
                == (out_b / "mission_costs.csv").read_bytes())

    def test_variable_counts_shrink_with_horizon(self, small_path, tmp_path):
        out = tmp_path / "shrink"
        main(["simulate", str(small_path), "-o", str(out)])
        doc = json.loads((out / "mission.json").read_text())
        counts = [s["model_variables"] for s in doc["steps"]]
        assert counts == sorted(counts, reverse=True)
        assert len(set(counts)) == len(counts)

    def test_requires_ground_truth(self, small_path, tmp_path, capsys):
        doc = json.loads(small_path.read_text())
        del doc["ground_truth"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(doc))
        assert main(["simulate", str(bare), "-o", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("command, written", [
        ("simulate", "mission.json"), ("ablate", "mission_full.json"),
        ("sweep-beta", "beta_sweep.csv")])
    def test_unreachable_goal_exits_three_and_writes_the_mission(
            self, small_path, tmp_path, capsys, command, written):
        doc = json.loads(small_path.read_text())
        doc["horizon"]["n_T"] = 2      # two hops cannot fit
        doc["ground_truth"] = {edge: trace[:2]
                               for edge, trace in doc["ground_truth"].items()}
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main([command, str(bad), "-o", str(out)]) == 3
        assert "status infeasible" in capsys.readouterr().out
        if written.endswith(".json"):
            assert json.loads((out / written).read_text())["status"] == "infeasible"
        assert (out / written).is_file()

    @pytest.mark.parametrize("command, written", [
        ("simulate", "mission.json"), ("ablate", "mission_full.json"),
        ("sweep-beta", "beta_sweep.csv")])
    def test_solver_limit_mission_exits_four(self, two_start_path, tmp_path, capsys,
                                             command, written):
        out = tmp_path / "o"
        assert main([command, str(two_start_path), "-o", str(out),
                     "--nodes-limit", "0"]) == 4
        assert "status solver-limit" in capsys.readouterr().out
        if written.endswith(".json"):
            assert json.loads((out / written).read_text())["status"] == "solver-limit"
        assert (out / written).is_file()

    def test_mission_log_round_trips(self, small_path):
        scenario, truth = load_scenario(small_path.read_text())
        log = run_mission(scenario, truth)
        doc = report.mission_to_dict(log, scenario)
        again = report.mission_from_dict(doc, scenario)
        assert report.mission_to_dict(again, scenario) == doc


class TestMissionLoader:
    @pytest.fixture(scope="class")
    def mission(self, small_path):
        scenario, truth = load_scenario(small_path.read_text())
        log = run_mission(scenario, truth)
        return scenario, log, json.dumps(report.mission_to_dict(log, scenario))

    def test_belief_is_read_by_edge_label(self, mission):
        scenario, log, text = mission
        doc = json.loads(text)
        for step in doc["steps"]:
            step["belief_after"].reverse()
        assert report.mission_from_dict(doc, scenario) == log

    @pytest.mark.parametrize("edit", ["drop", "twice", "unknown"])
    def test_belief_must_name_every_edge_once(self, mission, edit):
        scenario, _, text = mission
        doc = json.loads(text)
        belief = doc["steps"][0]["belief_after"]
        if edit == "drop":
            del belief[1]
        elif edit == "twice":
            belief[1] = dict(belief[0])
        else:
            belief[1]["edge"] = "0-2"
        with pytest.raises(ParseError, match="belief_after"):
            report.mission_from_dict(doc, scenario)

    @pytest.mark.parametrize("edit", ["unknown", "missing"])
    def test_step_keys_must_match_the_writer(self, mission, edit):
        scenario, _, text = mission
        doc = json.loads(text)
        if edit == "unknown":
            doc["steps"][0]["bound"] = 1.0
        else:
            del doc["steps"][0]["launch_increment"]
        with pytest.raises(ParseError, match=r"steps\[0\]"):
            report.mission_from_dict(doc, scenario)


    @pytest.mark.parametrize("edit", ["unknown", "missing"])
    def test_top_level_keys_must_match_the_writer(self, mission, edit):
        scenario, _, text = mission
        doc = json.loads(text)
        if edit == "unknown":
            doc["stauts"] = doc["status"]
        else:
            del doc["route_true_cost"]
        with pytest.raises(ParseError, match="document"):
            report.mission_from_dict(doc, scenario)

    def test_step_that_is_not_an_object(self, mission):
        scenario, _, text = mission
        doc = json.loads(text)
        doc["steps"][0] = list(doc["steps"][0])
        with pytest.raises(ParseError, match=r"steps\[0\] must be an object"):
            report.mission_from_dict(doc, scenario)

    @pytest.mark.parametrize("key", ["positions_after", "excursions", "observations",
                                     "belief_after"])
    def test_step_without_a_converted_key(self, mission, key):
        scenario, _, text = mission
        doc = json.loads(text)
        del doc["steps"][0][key]
        with pytest.raises(ParseError, match=rf"steps\[0\]: missing key '{key}'"):
            report.mission_from_dict(doc, scenario)

    @pytest.fixture(scope="class")
    def scouted(self, ablation_scenario):
        """The bundled scenario's mission at node limit 5, whose first step
        flies scouts and observes edges."""
        scenario, truth = ablation_scenario
        log = run_mission(scenario, truth, SolveOptions(node_limit=5))
        return scenario, json.dumps(report.mission_to_dict(log, scenario))

    @pytest.mark.parametrize("key, value", [
        ("index", "1"), ("index", 1.5), ("model_variables", 2.5),
        ("model_variables", None)])
    def test_step_counts_are_integers(self, scouted, key, value):
        scenario, text = scouted
        with pytest.raises(ParseError, match=rf"steps\[0\]\.{key} must be"):
            report.mission_from_dict(edited(text, ("steps", 0, key), value), scenario)

    @pytest.mark.parametrize("key", [
        "solve_seconds", "planned_objective", "route_true_increment",
        "scout_true_increment", "teaming_increment", "launch_increment"])
    def test_step_costs_are_numbers(self, scouted, key):
        scenario, text = scouted
        with pytest.raises(ParseError, match=rf"steps\[0\]\.{key} must be a number"):
            report.mission_from_dict(edited(text, ("steps", 0, key), "x"), scenario)

    @pytest.mark.parametrize("value", ["c", None, True])
    def test_observation_cost_is_a_number(self, scouted, value):
        scenario, text = scouted
        doc = edited(text, ("steps", 0, "observations", 0, 1), value)
        with pytest.raises(ParseError, match=r"steps\[0\]\.observations\[0\]\.1"):
            report.mission_from_dict(doc, scenario)

    @pytest.mark.parametrize("key, value", [
        ("weight", "w"), ("unc_lower", None), ("unc_upper", "1"), ("age", 1.5),
        ("age", "0")])
    def test_belief_entries_are_read_by_type(self, scouted, key, value):
        scenario, text = scouted
        entry = next(i for i, e in enumerate(json.loads(text)["steps"][0]["belief_after"])
                     if e["age"] is not None)
        doc = edited(text, ("steps", 0, "belief_after", entry, key), value)
        label = doc["steps"][0]["belief_after"][entry]["edge"]
        with pytest.raises(ParseError,
                           match=rf"steps\[0\]\.belief_after\[{label}\]\.{key}"):
            report.mission_from_dict(doc, scenario)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(status=3), "document.status must be a string"),
        (lambda d: d.update(steps={}), "document.steps must be a list"),
        (lambda d: d["steps"][0].update(positions_after=[3]),
         r"steps\[0\]\.positions_after\.0 must be a string"),
        (lambda d: d["steps"][0]["observations"][0].append(1.0),
         r"steps\[0\]\.observations\[0\] must be an \[edge, number\] pair"),
        (lambda d: d["steps"][0]["belief_after"][0].pop("edge"),
         r"steps\[0\]\.belief_after\[0\]: missing key 'edge'"),
        (lambda d: d["steps"][0]["belief_after"].__setitem__(0, 5),
         r"steps\[0\]\.belief_after\[0\] must be an object"),
        (lambda d: d["steps"][0]["belief_after"][0].update(wieght=1.0),
         r"steps\[0\]\.belief_after\[0\]: unknown keys \['wieght'\]"),
    ], ids=["status", "steps", "positions_after", "observation", "belief_edge",
            "belief_entry", "belief_key"])
    def test_labels_lists_and_pairs_are_read_by_type(self, scouted, edit, message):
        scenario, text = scouted
        doc = json.loads(text)
        edit(doc)
        with pytest.raises(ParseError, match=message):
            report.mission_from_dict(doc, scenario)

    def test_scouted_mission_writes_back_as_read(self, scouted):
        scenario, text = scouted
        log = report.mission_from_dict(json.loads(text), scenario)
        assert json.dumps(report.mission_to_dict(log, scenario)) == text


class TestPlanLoader:
    @pytest.fixture(scope="class")
    def plan(self, ablation_scenario):
        """The bundled scenario's 25-node plan, which flies scouts."""
        scenario, _ = ablation_scenario
        plan = solve_scenario(scenario, SolveOptions(node_limit=25)).plan
        return scenario, plan, json.dumps(report.plan_to_dict(plan, scenario))

    def test_scout_plan_round_trips(self, plan):
        scenario, plan, text = plan
        assert plan.scout_excursions
        assert report.plan_from_dict(json.loads(text), scenario) == plan

    def test_excursion_node_must_begin_its_walk(self, plan):
        scenario, _, text = plan
        doc = json.loads(text)
        excursion = doc["excursions"][0]
        excursion["node"] = next(label for label in scenario.graph.node_labels
                                 if label != excursion["walk"][0])
        with pytest.raises(ParseError, match=r"excursions\[0\]"):
            report.plan_from_dict(doc, scenario)

    @pytest.mark.parametrize("edit", ["unknown", "missing"])
    def test_excursion_keys_must_match_the_writer(self, plan, edit):
        scenario, _, text = plan
        doc = json.loads(text)
        if edit == "unknown":
            doc["excursions"][0]["launch"] = 1
        else:
            del doc["excursions"][0]["step"]
        with pytest.raises(ParseError, match=r"excursions\[0\]"):
            report.plan_from_dict(doc, scenario)

    @pytest.mark.parametrize("edit", ["unknown", "missing"])
    def test_top_level_keys_must_match_the_writer(self, plan, edit):
        scenario, _, text = plan
        doc = json.loads(text)
        if edit == "unknown":
            doc["routs"] = doc["routes"]
        else:
            del doc["total_cost"]
        with pytest.raises(ParseError, match="document"):
            report.plan_from_dict(doc, scenario)

    def test_step_that_is_not_an_object(self, plan):
        scenario, _, text = plan
        doc = json.loads(text)
        doc["steps"][0] = list(doc["steps"][0])
        with pytest.raises(ParseError, match=r"steps\[0\]"):
            report.plan_from_dict(doc, scenario)

    @pytest.mark.parametrize("edit", ["unknown", "missing"])
    def test_step_keys_must_match_the_writer(self, plan, edit):
        scenario, _, text = plan
        doc = json.loads(text)
        if edit == "unknown":
            doc["steps"][0]["bound"] = 1.0
        else:
            del doc["steps"][0]["launch_cost"]
        with pytest.raises(ParseError, match=r"steps\[0\]"):
            report.plan_from_dict(doc, scenario)


    @pytest.mark.parametrize("value", [1.7, "1", None])
    def test_excursion_step_is_an_integer(self, plan, value):
        scenario, _, text = plan
        with pytest.raises(ParseError, match=r"excursions\[0\]\.step must be"):
            report.plan_from_dict(edited(text, ("excursions", 0, "step"), value),
                                  scenario)

    @pytest.mark.parametrize("value", [1.5, "1", True])
    def test_inspection_step_is_an_integer(self, plan, value):
        scenario, _, text = plan
        with pytest.raises(ParseError, match=r"inspections\[0\]\.1 must be"):
            report.plan_from_dict(edited(text, ("inspections", 0, 1), value), scenario)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(routes=[[1, 2]]), r"document\.routes\.0\.0 must be a string"),
        (lambda d: d.update(routes=5), r"document\.routes must be a list"),
        (lambda d: d.update(steps=3), r"document\.steps must be a list"),
        (lambda d: d["excursions"][0].update(walk=5),
         r"excursions\[0\]\.walk must be a list"),
        (lambda d: d["excursions"][0].update(node=5),
         r"excursions\[0\]\.node must be a string"),
        (lambda d: d["inspections"].__setitem__(0, ["0-2", 1, 2]),
         r"inspections\[0\] must be an \[edge, number\] pair"),
        (lambda d: d["inspections"].__setitem__(0, 5),
         r"inspections\[0\] must be an \[edge, number\] pair"),
    ], ids=["route_labels", "routes", "steps", "walk", "node", "inspection_items",
            "inspection"])
    def test_labels_lists_and_pairs_are_read_by_type(self, plan, edit, message):
        scenario, _, text = plan
        doc = json.loads(text)
        edit(doc)
        with pytest.raises(ParseError, match=message):
            report.plan_from_dict(doc, scenario)

    @pytest.mark.parametrize("key, value", [
        ("step", 1.5), ("time_cost", "3"), ("traversal_cost", None),
        ("uncertainty_cost", True), ("launch_cost", [1.0])])
    def test_step_costs_are_read_by_type(self, plan, key, value):
        scenario, _, text = plan
        with pytest.raises(ParseError, match=rf"steps\[0\]\.{key} must be"):
            report.plan_from_dict(edited(text, ("steps", 0, key), value), scenario)


class TestAblateAndSweep:
    def test_ablate_writes_table(self, small_path, tmp_path):
        out = tmp_path / "abl"
        assert main(["ablate", str(small_path), "-o", str(out)]) == 0
        table = (out / "ablation.csv").read_text().splitlines()
        assert table[0] == "variant,status,route_true_cost,objective_true_cost"
        assert len(table) == 5

    def test_single_variant(self, small_path, tmp_path):
        out = tmp_path / "one"
        assert main(["ablate", str(small_path), "-o", str(out),
                     "--variant", "weights", "--dot"]) == 0
        assert (out / "mission_weights.json").exists()
        assert (out / "routes_weights.dot").read_text().startswith("graph team {")

    def test_sweep_beta_outputs(self, small_path, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep-beta", str(small_path), "-o", str(out),
                     "--beta", "0,0.3"]) == 0
        table = (out / "beta_sweep.csv").read_text().splitlines()
        assert table[0] == "edge,beta=0,beta=0.3"
        assert table[-1].startswith("total,")
        assert (out / "routes_beta0.dot").exists()

    @pytest.mark.parametrize("betas", ["0,x", "0,0.6"])
    def test_bad_beta_list_exits_two_before_writing(self, small_path, tmp_path,
                                                    capsys, betas):
        out = tmp_path / "sweep"
        assert main(["sweep-beta", str(small_path), "-o", str(out),
                     "--beta", betas]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_sweep_single_beta_matches_simulate(self, small_path, tmp_path):
        scenario, truth = load_scenario(small_path.read_text())
        log = run_mission(scenario, truth)
        out = tmp_path / "single"
        assert main(["sweep-beta", str(small_path), "-o", str(out),
                     "--beta", "0"]) == 0
        counts = report.scout_visit_counts(
            scenario, [e for s in log.steps for e in s.excursions])
        table = (out / "beta_sweep.csv").read_text().splitlines()
        total = int(table[-1].split(",")[1])
        assert total == sum(counts.values())


class TestDot:
    def test_dot_shades_visited_edges(self, small_path):
        scenario, truth = load_scenario(small_path.read_text())
        log = run_mission(scenario, truth)
        excursions = [e for s in log.steps for e in s.excursions]
        counts = report.scout_visit_counts(scenario, excursions)
        dot = report.routes_dot(scenario, excursions)
        assert dot.startswith("graph team {")
        assert "--" in dot
        if any(counts.values()):
            assert "color=gray20" in dot or "color=gray" in dot

    def test_plan_dot_draws_its_routes_bold_and_shades_scout_visits(
            self, ablation_path, tmp_path):
        out = tmp_path / "o"
        assert main(["plan", str(ablation_path), "-o", str(out), "--nodes-limit", "25",
                     "--dot"]) == 4
        scenario, _ = load_scenario(ablation_path.read_text())
        g = scenario.graph
        plan = report.plan_from_dict(json.loads((out / "plan.json").read_text()),
                                     scenario)
        routed = {g.uedge_of_location(loc) for route in plan.carrier_routes
                  for loc in route if not g.is_node(loc)}
        visits = report.scout_visit_counts(scenario, plan.scout_excursions)
        peak = max(visits.values())
        edges = (out / "routes.dot").read_text().splitlines()[3 + g.n_nodes:-1]
        assert routed and peak > 0
        assert [ue for ue, line in enumerate(edges) if "penwidth=3" in line] == sorted(
            routed)
        assert [ue for ue, line in enumerate(edges) if "color=gray20" in line] == [
            ue for ue, count in visits.items() if count == peak]

    def test_labels_with_quotes_and_backslashes_are_escaped(self):
        g = Graph(['a"x', "b\\"], [(0, 1, EdgeData(5.0, 1.0, 1.0, 1.0))])
        sc = Scenario(graph=g, carrier_count=1, scout_count=0, horizon=3,
                      scout_steps=2, scout_cost_scale=0.25, explore_weight=0.4,
                      decay_horizon=3, optimism=0.0, launch_scale=0.2,
                      starts=((0, 1),), goals=((1, 1),))
        scenario, _ = load_scenario(json.dumps(scenario_to_document(sc)))
        lines = report.routes_dot(scenario).splitlines()
        assert lines[3:5] == ['  "a\\"x";', '  "b\\\\";']
        assert lines[5].startswith('  "a\\"x" -- "b\\\\" [')
