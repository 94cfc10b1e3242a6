"""The public API matches its golden snapshot, ``tests/golden/api.txt``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "capture_api.py"
GOLDEN = Path(__file__).parent / "golden" / "api.txt"


def test_api_matches_golden():
    """Signatures, members and equality of every name ``tropsquare``
    exports; regenerate with ``tools/capture_api.py`` only for an intended
    API change."""
    spec = importlib.util.spec_from_file_location("capture_api", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.api_text() == GOLDEN.read_text(encoding="utf-8")
