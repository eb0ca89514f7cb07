"""Run one ``mmotlab`` command in a fresh process with layer tracing.

Usage: python3 cli_child.py SPANS_JSON ARG...

Behaves like the ``mmotlab`` console script called with ARG..., and also
writes the process's spans to SPANS_JSON: ``cli.import`` around
``import mmotlab.cli`` and the traced calls made by ``cli.main``.
"""

import json
import sys

from tracing import Tracer


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import mmotlab.cli
    try:
        with tracer.installed():
            return mmotlab.cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
