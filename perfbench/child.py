"""Run one CLI subcommand in a fresh interpreter and record how it went.

    python3 perfbench/child.py RESULT_JSON TRACE(0|1) -- <cat0-feas arguments>

Everything up to the end of ``load_config`` on the command's config is set-up;
the command itself is timed around ``cli.main``.  The result file holds the
monotonic clock reading at the end of set-up (the parent subtracts its spawn
time), the command's wall time, exit code and peak RSS, and, when tracing,
the per-layer aggregates and spans.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main() -> int:
    result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT TRACE -- ARGS...")
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import cat0feas.cli as cli
    from cat0feas.config import load_config

    load_config(argv[argv.index("--config") + 1])
    ready = time.perf_counter()
    code = cli.main(argv)
    cmd_s = time.perf_counter() - ready
    result = {
        "ready": ready,
        "cmd_s": cmd_s,
        "exit": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    Path(result_path).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
