import re
from pathlib import Path

import pytest

import objectslam

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _numpy_floor(dependencies: list) -> tuple:
    """(major, minor) of the declared `numpy>=X.Y` requirement."""
    for dep in dependencies:
        m = re.fullmatch(r"numpy\s*>=\s*(\d+)\.(\d+)(\.\d+)?", dep.strip())
        if m:
            return int(m[1]), int(m[2])
    raise AssertionError(f"no numpy>= floor among {dependencies}")


def test_declared_numpy_floor_has_every_function_the_package_calls():
    # np.vecdot is new in numpy 2.0: under an older floor every quaternion
    # conversion and every measurement-log read would raise AttributeError
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    floor = _numpy_floor(project["dependencies"])
    users = [p.name for p in sorted(Path(objectslam.__file__).parent.glob("*.py"))
             if "np.vecdot" in p.read_text()]
    assert not users or floor >= (2, 0), \
        f"numpy>={floor[0]}.{floor[1]} declared, but {users} call np.vecdot"
