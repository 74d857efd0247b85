"""Traced stand-in for `python -m thz_ris_planner.cli` in one fresh interpreter.

    python3 cli_child.py SPANS_JSON SUBCOMMAND CLI_ARGS...

Runs the CLI with CLI_ARGS and exits with its code, after writing to
SPANS_JSON the spans of the package import, of config.load_config as
called by the CLI, and of cli.main. Times come from time.perf_counter(), the
same clock as the parent's.
"""

import json
import sys
import time

spans_path, sub, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
main_span = f"cli.main.{sub}"
spans = []

start = time.perf_counter()
import thz_ris_planner.cli as cli  # noqa: E402

spans.append(["import", start, time.perf_counter(), "bench.job", True])

load_config = cli.load_config


def traced_load_config(path):
    t0 = time.perf_counter()
    ok = False
    try:
        cfg = load_config(path)
        ok = True
        return cfg
    finally:
        spans.append(["config.load_config", t0, time.perf_counter(), main_span, ok])


cli.load_config = traced_load_config
code = 1
t0 = time.perf_counter()
try:
    code = cli.main(argv)
finally:
    spans.append([main_span, t0, time.perf_counter(), "bench.job", code in (0, 2)])
    with open(spans_path, "w") as fh:
        json.dump(spans, fh)
sys.exit(code)
