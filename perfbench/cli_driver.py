"""Run one onecenter CLI command with layer spans recorded.

    python3 perfbench/cli_driver.py SPANS_JSON ARGV...

Times ``import onecenter.cli``, installs the wrappers of tracing.py,
calls ``cli.main(ARGV)`` and writes every span to SPANS_JSON.  The CLI's
report goes to stdout as usual and the exit code is the CLI's own.
"""

import json
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import onecenter.cli as cli

    end = time.perf_counter()
    import tracing

    tracer = tracing.Tracer()
    tracer.add("cli.import", start, end, -1)
    undo = tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        undo()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main())
