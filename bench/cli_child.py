"""Traced CLI process for the glhj-cli workload.

    python3 bench/cli_child.py <spawn monotonic ns> <z3calc arguments...>

Imports z3calc.cli, installs the tracer, runs cli.main(argv) with its
stdout captured, and prints one JSON object: the exit code, the captured
stdout, the start-up time (spawn to z3calc.cli imported) and the trace.
"""

import contextlib
import io
import json
import sys
import time

t_spawn = int(sys.argv[1])
import z3calc.cli  # noqa: E402

t_ready = time.monotonic_ns()

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
buf = io.StringIO()
try:
    with contextlib.redirect_stdout(buf):
        try:
            rc = z3calc.cli.main(sys.argv[2:])
        except SystemExit as e:
            rc = e.code
finally:
    tracer.uninstall()
print(json.dumps({"rc": rc, "stdout": buf.getvalue(),
                  "startup_s": (t_ready - t_spawn) / 1e9, "trace": tracer.dump()}))
