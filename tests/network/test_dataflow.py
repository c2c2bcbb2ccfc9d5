"""Unit tests for the plan graph and the plan annotations."""

import json
import os
from dataclasses import replace

import pytest

from repro.errors import PlanError
from repro.machine.specs import DESKTOP
from repro.network.dataflow import (
    ANNOTATIONS,
    PlanGraph,
    annotate_plan,
    canonical_pattern,
    expression_key,
)
from repro.network.ir import TensorNetwork
from repro.network.optimize import build_plan

#: Plans recorded from the optimizer-pass pipeline that annotate_plan
#: replaced (cse, dead, hoist over build_plan), one per fixture network
#: and path optimizer.  They pin the annotations; do not regenerate them
#: from annotate_plan unless an annotation is meant to change.
ANNOTATIONS_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "data", "network_annotations.json"
)
with open(ANNOTATIONS_PATH, encoding="utf-8") as _fh:
    RECORDED = json.load(_fh)


def chain():
    network = TensorNetwork.parse(
        "ab,bc,cd->ad", [(12, 12)] * 3, nnz=[40, 40, 40]
    )
    return network, build_plan(network, DESKTOP, "dp")


def twins():
    network = TensorNetwork.parse(
        "ij,jk,lm,mn->il", [(14, 14)] * 4, nnz=[40, 40, 40, 40]
    )
    return network, build_plan(network, DESKTOP, "dp")


class TestPlanGraph:
    def test_lifts_plan_to_ssa(self):
        network, plan = chain()
        graph = PlanGraph.from_plan(plan, network)
        assert graph.n_inputs == 3
        assert len(graph.ops) == len(plan.steps)
        # the output value is defined by the last op
        assert graph.values[graph.output_value].origin == (
            "step", len(plan.steps) - 1,
        )
        # every input value knows its operand position
        positions = {
            v.origin[1] for v in graph.values[: graph.n_inputs]
        }
        assert positions == {0, 1, 2}

    def test_rejects_tampered_skeleton(self):
        network, plan = chain()
        steps = list(plan.steps)
        steps[0] = replace(steps[0], sub_out=steps[0].sub_out[::-1] + "z")
        bad = replace(plan, steps=tuple(steps))
        with pytest.raises(PlanError):
            PlanGraph.from_plan(bad, network)

    def test_value_of_step(self):
        network, plan = chain()
        graph = PlanGraph.from_plan(plan, network)
        v = graph.value_of_step(0)
        assert v.origin == ("step", 0)
        assert v.sub == plan.steps[0].sub_out


class TestExpressionKeys:
    def test_isomorphic_steps_share_a_key(self):
        network, plan = twins()
        graph = PlanGraph.from_plan(plan, network)
        k0 = expression_key(graph, graph.value_of_step(0).id)
        k1 = expression_key(graph, graph.value_of_step(1).id)
        assert k0 == k1

    def test_dtypes_split_the_key(self):
        network, plan = twins()
        graph = PlanGraph.from_plan(plan, network)
        dtypes = ("float64", "float64", "float32", "float32")
        k0 = expression_key(graph, graph.value_of_step(0).id, dtypes)
        k1 = expression_key(graph, graph.value_of_step(1).id, dtypes)
        assert k0 != k1

    def test_canonical_pattern_renames_letters(self):
        network, plan = twins()
        p0 = canonical_pattern(plan.steps[0])
        p1 = canonical_pattern(plan.steps[1])
        assert p0 == p1


class TestAnnotatePlan:
    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_reproduces_recorded_plan(self, name):
        case = RECORDED[name]
        network = TensorNetwork.parse(
            case["subscripts"], [tuple(s) for s in case["shapes"]],
            nnz=case["nnz"],
        )
        plan = build_plan(network, DESKTOP, case["optimizer"])
        dtypes = case["dtypes"]
        annotated = annotate_plan(
            plan, network, tuple(dtypes) if dtypes is not None else None
        )
        assert json.loads(json.dumps(annotated.to_json())) == case["plan"]

    def test_records_cover_every_annotation(self):
        steps = [s for case in RECORDED.values() for s in case["plan"]["steps"]]
        assert any(s["cse_of"] >= 0 for s in steps)
        assert any(s["dead"] for s in steps)
        assert any(s["dead"] and s["kind"] == "outer" for s in steps)
        assert any(not s["dead"] for s in steps)
        assert any(s["hoist_l"] and not s["hoist_r"] for s in steps)

    def test_bare_plan_input_is_not_mutated(self):
        network, plan = twins()
        annotated = annotate_plan(plan, network)
        assert plan.passes == () and annotated.passes == ANNOTATIONS
        assert all(s.cse_of == -1 for s in plan.steps)
        assert any(s.cse_of >= 0 for s in annotated.steps)
