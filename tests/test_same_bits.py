"""tools/same_bits.py on a prefix of the benchmark's verify batch."""

import importlib.util
import json
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_bits.py"


def _tool():
    spec = importlib.util.spec_from_file_location("same_bits", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_bits_hashes_the_verify_outputs_of_a_batch_prefix(tmp_path):
    tool = _tool()
    # One potential per (family, d) cell is the batch's first twelve.
    assert tool.wl.verify_batch(1, 1) == tool.wl.verify_batch(1)[:12]
    lines = tool.hashes("verify-random", 1, tmp_path, per_cell=1)
    assert [line.split("  ")[1] for line in lines] == [
        "verify-random/batch.json", "verify-random/results.json"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split("  ")[0])
               for line in lines)
    results = json.loads(
        (tmp_path / "verify-random" / "results.json").read_text())
    assert len(results) == 12
    assert all(result["all_passed"] for result in results)
    assert tool.hashes("verify-random", 1, tmp_path / "again",
                       per_cell=1) == lines
