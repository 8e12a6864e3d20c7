"""Run one claimorder CLI command with the layer tracer installed.

Usage: python3 perfbench/cli_traced.py SPANS.json <claimorder arguments>

Stands in for ``python -m claimorder.cli`` in the traced pass of cli_cold and
writes the process's spans to SPANS.json when the command returns.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
from claimorder import cli  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
