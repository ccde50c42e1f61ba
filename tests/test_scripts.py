import subprocess
import sys
from pathlib import Path

WITNESS_SPLIT = Path(__file__).resolve().parents[1] / "scripts" / "witness_split.py"


def test_witness_split_prints_every_stage():
    out = subprocess.run(
        [sys.executable, str(WITNESS_SPLIT), "--seed", "1", "--repeat", "1", "--count", "20"],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    rows = {line.split("|")[1].strip() for line in out.splitlines() if line.startswith("| ")}
    stages = ("parse_text", "forward", "to_text", "reverse", "two arc sets", "witness walks",
              "table reads", "render_overlay", "total")
    assert rows == {"stage", *stages}
