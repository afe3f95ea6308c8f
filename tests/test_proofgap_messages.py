"""The set of ``ProofGap`` messages ``phases.py`` can raise, held fixed.

An AST pass collects the message of every ``_ensure(cond, message)`` and
``ProofGap(message)`` call and of every (check, message) pair passed to
``_reduce``.  A literal is kept as it is; an f-string is kept as its template,
``{label}: path missing``, and any other expression as ``{expr}``.  The label
literals passed to ``_anchor_minimal``, ``_extremal_path`` and ``_reduce``,
which fill the ``{label}`` templates, are collected too.  The result must
equal ``data/proofgap_messages.json``; a change that means to add or drop a
check rewrites that file with

    PYTHONPATH=src python tests/test_proofgap_messages.py
"""

import ast
import json
import os

from prodtri import phases

CENSUS_PATH = os.path.join(os.path.dirname(__file__), "data", "proofgap_messages.json")
# keyword arguments of _reduce that take (check, message) pairs
PAIR_ARGS = ("filters", "kept", "good", "shrinks", "bounded")
# functions taking a label, with the label's position
LABEL_ARGS = {"_anchor_minimal": 3, "_extremal_path": 4, "_reduce": 3}


def _template(node: ast.expr) -> str:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_template(part) for part in node.values)
    if isinstance(node, ast.FormattedValue):
        return "{" + ast.unparse(node.value) + "}"
    return "{" + ast.unparse(node) + "}"


def _argument(call: ast.Call, position: int, keyword: str):
    if len(call.args) > position:
        return call.args[position]
    return next((k.value for k in call.keywords if k.arg == keyword), None)


def census(source: str) -> dict:
    messages, labels = set(), set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            continue
        name = node.func.id
        if name == "_ensure":
            messages.add(_template(_argument(node, 1, "message")))
        elif name == "ProofGap":
            messages.add(_template(_argument(node, 0, "message")))
        if name == "_reduce":
            for k in node.keywords:
                if k.arg in PAIR_ARGS:
                    assert isinstance(k.value, (ast.Tuple, ast.List)), ast.unparse(k.value)
                    for pair in k.value.elts:
                        messages.add(_template(pair.elts[1]))
        if name in LABEL_ARGS:
            label = _argument(node, LABEL_ARGS[name], "label")
            if isinstance(label, ast.Constant):
                labels.add(label.value)
    return {"messages": sorted(messages), "labels": sorted(labels)}


def _phases_source() -> str:
    with open(phases.__file__) as fh:
        return fh.read()


def test_proofgap_messages_match_the_census():
    with open(CENSUS_PATH) as fh:
        committed = json.load(fh)
    found = census(_phases_source())
    assert set(found["messages"]) - set(committed["messages"]) == set(), "messages added"
    assert set(committed["messages"]) - set(found["messages"]) == set(), "messages lost"
    assert found == committed


def test_census_sees_every_kind_of_message():
    found = census(_phases_source())
    assert "input does not validate" in found["messages"]  # _ensure
    assert "replayed circuit is not a flip" in found["messages"]  # ProofGap
    assert "inner: star did not shrink" in found["messages"]  # a _reduce pair
    assert "{label}: no unique minimal anchor" in found["messages"]  # an f-string
    assert "case 1" in found["labels"]


if __name__ == "__main__":
    with open(CENSUS_PATH, "w") as fh:
        json.dump(census(_phases_source()), fh, indent=1)
        fh.write("\n")
