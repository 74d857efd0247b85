"""Time one command in reference seconds, with its peak resident memory.

    python ci/timed.py -- <command...>

This process pins itself, and so the command, to one CPU and samples the
host speed with perfbench's HostMeter while the command runs, then prints one
line to stderr and exits with the command's exit code (128 + N if signal N
ended it):

    raw_s=<wall seconds> ref_s=<reference seconds> samples=<meter samples during the run>
    speed=<raw_s / ref_s; 1.0 is the reference host, higher is slower> maxrss_mb=<command's peak RSS>

A run shorter than perfbench's MIN_SAMPLES meter periods is scaled by the
samples nearest to it. The meter costs about 3% of the CPU.

A child's peak RSS counts the resident pages of the process it was started
from until it execs, and this process holds numpy for the meter. So the
command is started by a small `python -S` launcher, which times it, waits for
it and reports its ru_maxrss. The floor that leaves is the launcher's own
resident set, about 9 MB: `python -S -c pass` reads that, not this process's
size.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys
import time

_spec = importlib.util.spec_from_file_location(
    "hostspeed", pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "hostspeed.py")
hostspeed = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(hostspeed)

LAUNCHER = """
import os, sys, time
fd = int(sys.argv[1])
os.set_inheritable(fd, False)
start = time.perf_counter()
try:
    pid = os.posix_spawnp(sys.argv[2], sys.argv[2:], os.environ)
except OSError as e:
    print(f"timed.py: {sys.argv[2]}: {e.strerror}", file=sys.stderr)
    sys.exit(127)
_, status, usage = os.wait4(pid, 0)
end = time.perf_counter()
os.write(fd, f"{start!r} {end!r} {usage.ru_maxrss}".encode())
code = os.waitstatus_to_exitcode(status)
sys.exit(code if code >= 0 else 128 - code)
"""


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--":
        print("usage: python ci/timed.py -- <command...>", file=sys.stderr)
        return 2
    hostspeed.pin_to_one_cpu()
    read_end, write_end = os.pipe()
    with hostspeed.HostMeter() as meter:
        launcher = subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER, str(write_end), *argv[1:]],
                                    pass_fds=(write_end,))
        os.close(write_end)
        code = launcher.wait()  # blocks in waitpid: no polling step
        with os.fdopen(read_end, "rb") as report:
            fields = report.read().split()
        if not fields:  # the command never started; the launcher said why
            return code
        while len(meter.samples) < hostspeed.MIN_SAMPLES:  # a run shorter than the meter needs its nearest samples
            time.sleep(hostspeed.PERIOD_S)
    start, end, maxrss_kb = float(fields[0]), float(fields[1]), int(fields[2])
    raw = end - start  # perf_counter is the system's monotonic clock, shared with the launcher
    ref = meter.to_reference(start, end)
    samples = sum(start <= t <= end for t, _ in meter.samples)
    print(f"raw_s={raw:.6f} ref_s={ref:.6f} samples={samples} speed={raw / ref:.3f} maxrss_mb={maxrss_kb / 1024:.1f}",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
