"""Run one ``direx`` command as the console script would, optionally traced.

Usage: ``python3 perfbench/cli_child.py <direx arguments>``.  With the
environment variable ``PERFBENCH_TRACE`` set to a file, the direx layers
are traced and the spans written there when the command ends.
"""

import os
import sys

from direx import cli


def main() -> int:
    trace_path = os.environ.get("PERFBENCH_TRACE")
    if not trace_path:
        return cli.main(sys.argv[1:])
    from tracing import Tracer

    tracer = Tracer(process=sys.argv[1]).install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
