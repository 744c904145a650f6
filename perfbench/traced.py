"""Run the radks CLI with every public radks function traced.

    python3 perfbench/traced.py SPANS_DIR [radks CLI arguments...]

Behaves like `python -m radks.cli ARGS` (same exit code and outputs) and
leaves one `spans-<pid>.jsonl` file per process in SPANS_DIR.  The tracer
is installed before the CLI runs, so a sweep pool forks with the wrapped
`radks.cli.simulate_run` already bound.
"""

from __future__ import annotations

import os
import sys

from tracer import Tracer, span_file


def main(argv: list[str]) -> int:
    spans_dir, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    os.register_at_fork(after_in_child=lambda: tracer.forked(spans_dir))
    import radks.cli

    try:
        return radks.cli.main(cli_args)
    finally:
        tracer.dump(span_file(spans_dir))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
