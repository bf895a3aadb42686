"""The sweep of `scripts/verify_all.py` against its pinned rows."""

import difflib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _verify_all():
    spec = importlib.util.spec_from_file_location("verify_all", ROOT / "scripts" / "verify_all.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_matches_its_pinned_rows():
    # every FAIL verdict of `verify --suite all` over 7 families x N = 2..4 at
    # nine time pairs; a change that moves a row rewrites the file (the
    # script's docstring says how) and names the rows it moved
    lines, total = _verify_all().sweep()
    pinned = (ROOT / "tests" / "data" / "verify_all.txt").read_text().splitlines()
    assert lines == pinned, "\n".join(difflib.unified_diff(pinned, lines, "pinned", "now",
                                                           lineterm=""))
    assert total == sum(int(line.split()[-2]) for line in pinned if line.startswith("(t, t*)"))
