"""Runs one `too-sign` command with spans recorded (the traced cli run).

usage: python cli_child.py DUMP.json ARG...

ARG... are the arguments of `too-sign`.  The recorded spans go to DUMP.json
and the process exits with the command's own exit code.  Import of
`toosign.cli` is recorded as the span `cli.import`.
"""

import json
import sys
import time

import spans


def main() -> int:
    dump, args = sys.argv[1], sys.argv[2:]
    rec = spans.Recorder()
    rec.use("steps")
    start = time.perf_counter_ns()
    import toosign.cli

    rec.record("cli.import", time.perf_counter_ns() - start)
    code = 0
    with spans.installed(rec):
        try:
            rec.wrap("cli.main", toosign.cli.main)(args, prog_name="too-sign")
        except SystemExit as e:
            code = e.code
    with open(dump, "w") as f:
        json.dump(rec.buckets["steps"], f)
    return code


if __name__ == "__main__":
    sys.exit(main())
