"""Launch ``imprecise serve DIR --cache-dir C --http HOST:PORT`` for the
``warm`` workload, traced or not, so both runs share one process layout.

    python3 perfbench/serve.py --out RECORD.json [--trace] -- \\
        STORE --cache-dir CACHE --http 127.0.0.1:0

Everything after ``--`` goes to ``repro.cli.main(["serve", ...])``.
With ``--trace`` the layer wrappers are installed before the server
starts.  When the server shuts down (SIGTERM), the launcher writes one
JSON record to ``--out``: the exit status, the process's peak resident
memory, the growth of the interned-event table, and the recorded spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args and serve_args[0] == "--":
        serve_args = serve_args[1:]

    from repro.cli import main as cli_main
    from repro.pxml.events import interned_count

    from perfbench import spans

    recorder = spans.Recorder()
    if args.trace:
        recorder.install(spans.SERVER_TARGETS + spans.SERVICE_TARGETS)
    interned_before = interned_count()
    status = cli_main(["serve", *serve_args])
    record = {
        "status": status,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "interned": interned_count() - interned_before,
        "spans": recorder.spans,
    }
    args.out.write_text(json.dumps(record), encoding="utf-8")
    return status


if __name__ == "__main__":
    # Import the package from the checkout, never this directory.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main(sys.argv[1:]))
