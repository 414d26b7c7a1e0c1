"""Traced stand-in for ``python -m linedyn.cli``.

Usage: cli_child.py SPANS_PATH ARG...

Wraps the library's public functions, runs the CLI's ``main`` on the given
arguments (so the report bytes match an untraced call) and writes the
spans to SPANS_PATH as one JSON list.
"""

import json
import sys

import linedyn.cli
from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = linedyn.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
