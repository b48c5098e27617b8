"""The test configuration itself: checks that a misspelt mark cannot
silently deselect or skip a test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_unknown_mark_fails_collection(tmp_path):
    test_file = tmp_path / "test_typo.py"
    test_file.write_text(
        "import pytest\n\n\n@pytest.mark.slwo\ndef test_marked():\n    pass\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(test_file)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    # Exit code 2 is pytest's "interrupted": the module failed to collect.
    assert result.returncode == 2, result.stdout
    assert "Unknown pytest.mark.slwo" in result.stdout
