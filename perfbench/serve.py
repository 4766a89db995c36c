"""Benchmark launcher for the co-design server.

Runs the CLI's ``serve`` entry in this process -- with the tracing
wrappers installed first when ``--trace`` is given -- and, once the
SIGTERM drain has returned, writes the process's peak RSS, its program
counters and (traced) every span to ``--stats``.

    python perfbench/serve.py --stats S.json [--trace] serve --port 0 ...
"""

import json
import sys
from pathlib import Path

import tracer
from worker import counter_totals, peak_rss_mb


def main() -> int:
    argv = sys.argv[1:]
    stats = Path(argv[argv.index("--stats") + 1])
    del argv[argv.index("--stats"):argv.index("--stats") + 2]
    traced = "--trace" in argv
    if traced:
        argv.remove("--trace")
        tracer.install()
    from repro.cli import main as cli_main

    code = cli_main(argv)
    stats.write_text(json.dumps({
        "rss_mb": peak_rss_mb(),
        "counters": counter_totals(),
        "spans": tracer.dump() if traced else None,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
