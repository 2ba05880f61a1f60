import ast
from pathlib import Path

import pytest

import objectslam
from objectslam.ekf import INVARIANT, STANDARD
from objectslam.harness import FilterSpec
from objectslam.observability import FILTER_KINDS, FILTERS


@pytest.mark.parametrize("kind, convention, at_truth", [
    ("riekf", INVARIANT, False),
    ("stdekf", STANDARD, False),
    ("ideal", STANDARD, True),
])
def test_filter_spec_reads_convention_and_linearization_from_the_table(
        kind, convention, at_truth):
    for robust in (False, True):
        spec = FilterSpec(kind, robust)
        assert spec.convention is convention and spec.at_truth is at_truth
    assert FILTER_KINDS == tuple(FILTERS) == ("riekf", "stdekf", "ideal")


def test_unknown_filter_name_rejected():
    with pytest.raises(ValueError, match="unknown filter kind 'ekf'"):
        FilterSpec("ekf")


def _name_comparisons(path: Path) -> list:
    """Lines of path that compare a value with a filter-name literal. A
    Jacobian-log mode ("ideal" is one too) compared through a `.mode`
    attribute is not a filter name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if any(isinstance(o, ast.Attribute) and o.attr == "mode" for o in operands):
            continue
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and any(
                isinstance(o, ast.Constant) and o.value in FILTER_KINDS
                for o in operands):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_name_check_skips_jacobian_log_modes(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text('anchored = log.mode == "ideal"\n'
                    'at_truth = spec.kind == "ideal"\n'
                    'other = "stdekf" != name\n')
    assert _name_comparisons(path) == ["snippet.py:2", "snippet.py:3"]


def test_filter_names_resolve_only_through_the_table():
    # what a filter name means is FILTERS' business; only the command line,
    # which maps its choices onto names, may compare against one
    package = Path(objectslam.__file__).parent
    found = [hit for path in sorted(package.glob("*.py")) if path.name != "cli.py"
             for hit in _name_comparisons(path)]
    assert found == []
