"""Every source and test file parses under the oldest Python that pyproject.toml allows.

``requires-python`` is ``>=3.10``.  This checks grammar only: syntax such
as ``except*`` or a PEP 695 ``type`` statement fails here, but a call to a
library function added after 3.10 does not.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("src/tripure/*.py")) + sorted(ROOT.glob("tests/*.py"))


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_under_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
