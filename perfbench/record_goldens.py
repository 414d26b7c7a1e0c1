#!/usr/bin/env python3
"""Record the reports the cli workload compares against.

    python3 perfbench/record_goldens.py

Runs every command the cli workload can issue (fixed windows, the spec
files and the seeded pool) through ``python -m linedyn.cli --no-timing``
and stores each exit code with the sha256 of the report in
``perfbench/cli_goldens.json``.  Re-record only when a change to the
library's reports is intended; the benchmark otherwise treats any
difference as a wrong answer.
"""

import hashlib
import json
import sys

import inputs
from run import GOLDENS, ROOT, cli_argv, spawn


def main() -> int:
    goldens = {}
    for argv in inputs.cli_commands(inputs.write_cli_pool(ROOT)):
        code, out, _, _ = spawn(cli_argv(argv))
        if code not in (0, 1):
            print(f"{' '.join(argv)} exited with {code}", file=sys.stderr)
            return 1
        goldens[" ".join(argv)] = [code, hashlib.sha256(out).hexdigest()]
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(goldens)} goldens written to {GOLDENS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
