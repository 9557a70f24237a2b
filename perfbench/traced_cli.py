"""Run one qsym CLI command with spans around its layer calls.

    python3 perfbench/traced_cli.py SPANS.json <qsym arguments>

The traced counterpart of ``python -m qsym <qsym arguments>``: the
bench starts it with the same interpreter and PYTHONPATH, and it writes
the command's spans and counts to SPANS.json when the command ends.
"""

import sys

import qsym.cli
from spans import Tracer, instrument


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tr = Tracer()
    try:
        with instrument(tr):
            return qsym.cli.main(argv)
    finally:
        tr.write(out)


if __name__ == "__main__":
    sys.exit(main())
