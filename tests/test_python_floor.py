"""The package must import on the oldest Python that ``setup.py`` admits.

Tier-1 runs on one interpreter, so nothing else notices when a newer-only
construct slips into ``src/``.  Two checks guard the floor statically:
every module parses with ``feature_version`` set to the floor, and no
``dataclass(...)`` call passes ``slots=`` or ``kw_only=`` (keyword
arguments added in 3.10, which raise ``TypeError`` at import time before
that).
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SOURCES = sorted((REPO / "src").rglob("*.py"))
NEWER_DATACLASS_KEYWORDS = {"slots", "kw_only"}


def _python_floor():
    setup = (REPO / "setup.py").read_text(encoding="utf-8")
    match = re.search(r'python_requires\s*=\s*">=\s*(\d+)\.(\d+)"', setup)
    assert match, "setup.py declares no python_requires floor"
    return int(match.group(1)), int(match.group(2))


def _rel(path):
    return str(path.relative_to(REPO))


def test_modules_parse_at_the_floor():
    assert len(SOURCES) > 50
    floor = _python_floor()
    failures = []
    for path in SOURCES:
        try:
            ast.parse(
                path.read_text(encoding="utf-8"),
                filename=str(path),
                feature_version=floor,
            )
        except SyntaxError as exc:
            failures.append(f"{_rel(path)}:{exc.lineno} {exc.msg}")
    assert failures == []


def test_no_dataclass_keywords_newer_than_the_floor():
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name != "dataclass":
                continue
            used = {kw.arg for kw in node.keywords} & NEWER_DATACLASS_KEYWORDS
            if used:
                offenders.append(f"{_rel(path)}:{node.lineno} {sorted(used)}")
    assert offenders == []
