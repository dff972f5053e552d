"""Run one ``survfuse`` CLI command in this process, optionally traced.

    python3 benchmarks/launch.py --src SRC [--spans PATH] -- ARGS...

``SRC`` is the directory holding the ``survfuse`` package. Without
``--spans`` this is the plain CLI entry point. With it, every public
function of every survfuse module is wrapped (see ``tracer.py``) and the
spans are written to ``PATH`` when the command returns; their run id is
the file name of ``PATH``. The exit code is the CLI's.
"""

from __future__ import annotations

import argparse
import os
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True)
    parser.add_argument("--spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, args.src)
    from survfuse import cli

    if args.spans is None:
        return cli.main(cli_args)

    from tracer import Tracer

    tracer = Tracer(os.path.basename(args.spans))
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(args.spans)


if __name__ == "__main__":
    sys.exit(main())
