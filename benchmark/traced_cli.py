"""Run one anosovlab CLI command with every traced function wrapped.

Usage: ``python3 benchmark/traced_cli.py TRACE.json -- <cli arguments>``
with ``src`` on PYTHONPATH. The whole command runs inside a
``cli.command`` span. On exit the per-function totals, the exit code and
any wrapper left installed are written to TRACE.json, and the raw spans to
TRACE.json.npz. The exit code is the command's own.
"""

import json
import sys
import time

import tracer as tracing


def main(argv):
    trace_path, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: traced_cli.py TRACE.json -- <cli arguments>")
    from anosovlab import cli

    tracer = tracing.Tracer(time.perf_counter).install()
    try:
        code = tracer.span(tracing.COMMAND_SPAN, cli.main, cli_args)
    finally:
        tracer.uninstall()
    tracer.dump(trace_path + ".npz")
    with open(trace_path, "w") as handle:
        json.dump({"exit": code, "trace": tracer.fold(),
                   "leftover_wrappers": tracing.leftover_wrappers()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
