"""Traced `selfsim` CLI child: install the tracer, run selfsim.cli.main, write spans.

Usage: python3 cli_child.py SPANS_JSON <selfsim arguments...>
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import selfsim.cli

    tracer = Tracer()
    tracer.install()
    try:
        return selfsim.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
