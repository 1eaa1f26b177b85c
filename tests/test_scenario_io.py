import json
import math
from dataclasses import replace

import pytest

from conftest import minimal_document
from scoutplan import (
    GroundTruth,
    ParseError,
    ValidationError,
    load_scenario,
    load_scenario_file,
    scenario_to_document,
)


class TestLoader:
    def test_minimal_document(self):
        scenario, truth = load_scenario(minimal_document())
        assert scenario.graph.n_locations == 4      # 2 nodes + 2 directed edges
        assert truth is None

    def test_negative_lower_cost_bound_rejected(self):
        doc = minimal_document(edges=[{"a": "a", "b": "b", "w": 5.0,
                                       "u_lower": 6.0, "u_upper": 1.0, "r": 0}])
        with pytest.raises(ValidationError, match="negative lower cost bound"):
            load_scenario(doc)

    def test_bundled_ablation_scenario(self, ablation_path):
        scenario, truth = load_scenario_file(ablation_path)
        g = scenario.graph
        assert g.n_nodes == 8
        assert g.n_locations == g.n_nodes + 2 * len(g.uedges)
        assert scenario.horizon == 8
        assert scenario.scout_steps == 8
        assert scenario.scout_cost_scale == 0.25
        assert all(d.team_discount == 1.0 for _, _, d in g.uedges)
        assert scenario.starts == ((g.node_index("0"), 3),)
        assert scenario.goals[0][0] == g.node_index("7")
        assert truth is not None
        trap = next(i for i, (a, b, _) in enumerate(g.uedges)
                    if {g.node_labels[a], g.node_labels[b]} == {"6", "7"})
        assert truth.cost(trap, 1) == 30.0
        assert truth.cost(trap, 8) == 60.0

    def test_hyphen_in_node_label_rejected(self):
        # edge names join labels with '-': "n-1-b" would not split back
        doc = minimal_document(
            nodes=["n-1", "b"],
            edges=[{"a": "n-1", "b": "b", "w": 10.0, "u_lower": 2.0,
                    "u_upper": 5.0, "r": 0.5}],
            starts=[{"node": "n-1", "count": 1}])
        with pytest.raises(ValidationError, match="'n-1'"):
            load_scenario(doc)

    def test_parse_error_includes_line(self):
        with pytest.raises(ParseError, match="line"):
            load_scenario("{\n  broken\n}")

    def test_unknown_top_level_key_rejected(self):
        doc = json.loads(minimal_document())
        doc["extra"] = 1
        with pytest.raises(ParseError, match="extra"):
            load_scenario(json.dumps(doc))

    def test_unknown_edge_key_rejected(self):
        doc = json.loads(minimal_document())
        doc["edges"][0]["weight"] = 3
        with pytest.raises(ParseError, match="weight"):
            load_scenario(json.dumps(doc))

    def test_unknown_node_in_start(self):
        doc = json.loads(minimal_document())
        doc["starts"] = [{"node": "zz", "count": 1}]
        with pytest.raises(ValidationError, match="zz"):
            load_scenario(json.dumps(doc))

    def test_start_counts_must_match_team(self):
        doc = json.loads(minimal_document())
        doc["starts"] = [{"node": "a", "count": 2}]
        with pytest.raises(ValidationError, match="carrier_count"):
            load_scenario(json.dumps(doc))

    def test_optimism_outside_risk_averse_range(self):
        doc = json.loads(minimal_document())
        doc["params"]["beta"] = 0.6
        with pytest.raises(ValidationError, match="optimism"):
            load_scenario(json.dumps(doc))

    def test_scouts_cannot_outnumber_carriers(self):
        doc = json.loads(minimal_document())
        doc["team"]["n_K"] = 2
        with pytest.raises(ValidationError, match="scout_count"):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize("section, key", [
        ("team", "n_A"), ("horizon", "n_T"), ("params", "zeta"), ("starts", "count"),
    ])
    def test_missing_required_key_rejected(self, section, key):
        doc = json.loads(minimal_document())
        entry = doc[section][0] if section == "starts" else doc[section]
        del entry[key]
        with pytest.raises(ParseError, match=f"missing key '{key}'"):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize("section, key, value, kind", [
        ("team", "n_A", 1.9, "an integer"), ("horizon", "n_T", 3.5, "an integer"),
        ("params", "lambda", 2.2, "an integer"), ("starts", "count", 1.5, "an integer"),
        ("team", "n_K", True, "a number"), ("horizon", "n_tau", "2", "a number"),
        ("params", "zeta", None, "a number"), ("edges", "w", [10], "a number"),
    ])
    def test_non_numeric_field_rejected(self, section, key, value, kind):
        doc = json.loads(minimal_document())
        entry = doc[section][0] if section in ("starts", "edges") else doc[section]
        entry[key] = value
        with pytest.raises(ParseError, match=f"{key} must be {kind}"):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize("section, key", [
        ("nodes", 2), ("edges", "a"), ("edges", "b"), ("starts", "node"),
        ("goals", "node"),
    ])
    def test_non_string_label_rejected(self, section, key):
        # node "1" exists, so str() of the number 1 would name it
        doc = json.loads(minimal_document(
            nodes=["1", "b", "c"],
            edges=[{"a": "1", "b": "b", "w": 10.0, "u_lower": 2.0, "u_upper": 5.0}],
            starts=[{"node": "1", "count": 1}], goals=[{"node": "b", "min_count": 1}]))
        if section == "nodes":
            doc["nodes"][key] = None
        else:
            doc[section][0][key] = 1
        with pytest.raises(ParseError, match=f"{key} must be a string"):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize("section, entry", [
        ("starts", {"node": "a", "count": 1}), ("goals", {"node": "b", "min_count": 1}),
    ])
    def test_repeated_start_or_goal_rejected(self, section, entry):
        # one model row per entry: two a-starts of 1 would not make 2
        doc = json.loads(minimal_document(team={"n_A": 2, "n_K": 0},
                                          starts=[{"node": "a", "count": 2}]))
        doc[section] = [entry, entry]
        kind = section[:-1]
        with pytest.raises(ValidationError, match=f"{kind} location {entry['node']} "
                                                  "listed twice"):
            load_scenario(json.dumps(doc))

    def test_integral_float_count_accepted(self):
        doc = json.loads(minimal_document())
        doc["horizon"]["n_T"] = 3.0
        scenario, _ = load_scenario(json.dumps(doc))
        assert scenario.horizon == 3 and isinstance(scenario.horizon, int)

    @pytest.mark.parametrize("section, value, message", [
        ("team", [1, 0], "team must be an object"),
        ("edges", 5, "document.edges must be a list"),
        ("starts", {"node": "a"}, "document.starts must be a list"),
    ])
    def test_section_of_the_wrong_type_rejected(self, section, value, message):
        doc = json.loads(minimal_document())
        doc[section] = value
        with pytest.raises(ParseError, match=message):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize("field", ["explore_weight", "launch_scale"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_parameter_rejected(self, field, value):
        scenario, _ = load_scenario(minimal_document())
        with pytest.raises(ValidationError, match=f"{field} .* finite and >= 0"):
            replace(scenario, **{field: value})

    def test_inspection_decay_is_not_a_file_key(self):
        scenario, _ = load_scenario(minimal_document())
        assert scenario.inspection_decay
        assert "inspection_decay" not in json.dumps(scenario_to_document(scenario))

    def test_team_discount_warning(self):
        doc = json.loads(minimal_document())
        doc["edges"][0]["r"] = 50.0
        with pytest.warns(UserWarning, match="discount"):
            load_scenario(json.dumps(doc))


class TestGroundTruth:
    def test_truth_outside_interval_rejected(self):
        doc = json.loads(minimal_document())
        doc["ground_truth"] = {"a-b": [20.0, 10.0, 10.0]}
        with pytest.raises(ValidationError, match="outside"):
            load_scenario(json.dumps(doc))

    def test_truth_wrong_length_rejected(self):
        doc = json.loads(minimal_document())
        doc["ground_truth"] = {"a-b": [10.0]}
        with pytest.raises(ValidationError, match="steps"):
            load_scenario(json.dumps(doc))

    def test_truth_missing_edge_rejected(self):
        doc = json.loads(minimal_document())
        doc["ground_truth"] = {}
        with pytest.raises(ValidationError, match="missing"):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize("truth, message", [
        ([[10.0, 10.0, 10.0]], "ground_truth must be an object"),
        ({"a-b": 10.0}, "ground_truth.a-b must be a list"),
        ({"a-b": [10.0, None, 10.0]}, "ground_truth.a-b.1 must be a number"),
    ])
    def test_malformed_truth_rejected(self, truth, message):
        doc = json.loads(minimal_document())
        doc["ground_truth"] = truth
        with pytest.raises(ParseError, match=message):
            load_scenario(json.dumps(doc))

    def test_reversed_edge_key_accepted(self):
        doc = json.loads(minimal_document())
        doc["ground_truth"] = {"b-a": [10.0, 11.0, 9.0]}
        _, truth = load_scenario(json.dumps(doc))
        assert truth.cost(0, 2) == 11.0

    def test_constant_truth_matches_weights(self):
        scenario, _ = load_scenario(minimal_document())
        truth = GroundTruth.constant(scenario)
        truth.validate(scenario)
        assert truth.cost(0, 1) == 10.0


class TestRoundTrip:
    def test_document_round_trips(self, ablation_path):
        scenario, truth = load_scenario_file(ablation_path)
        doc = scenario_to_document(scenario, truth)
        again, truth2 = load_scenario(json.dumps(doc))
        assert scenario_to_document(again, truth2) == doc

    def test_immutability(self):
        scenario, _ = load_scenario(minimal_document())
        with pytest.raises(Exception):
            scenario.horizon = 5
