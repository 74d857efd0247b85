import re
import subprocess
import sys
from pathlib import Path

import pytest

TIMED = Path(__file__).resolve().parent.parent / "ci" / "timed.py"
LINE = re.compile(r"raw_s=(\S+) ref_s=(\S+) samples=(\d+) speed=(\S+) maxrss_mb=(\S+)")


@pytest.mark.parametrize("code", [0, 3])
def test_timed_prints_one_line_of_fields_and_exits_with_the_commands_code(code):
    run = subprocess.run([sys.executable, str(TIMED), "--", sys.executable, "-S", "-c", f"raise SystemExit({code})"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == code and run.stdout == ""
    raw, ref, samples, speed, maxrss = LINE.fullmatch(run.stderr.rstrip("\n")).groups()
    assert float(raw) > 0.0 and float(ref) > 0.0 and int(samples) >= 0
    assert float(speed) == pytest.approx(float(raw) / float(ref), rel=0.01, abs=0.001)
    # the launcher keeps the timer's numpy (about 28 MB resident) out of the child's peak: python -S reads about 9 MB
    assert 0.0 < float(maxrss) < 20.0


def test_timed_refuses_a_command_line_without_the_separator():
    run = subprocess.run([sys.executable, str(TIMED), sys.executable, "-c", "pass"], capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 2 and run.stderr.startswith("usage:")
