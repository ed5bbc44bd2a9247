"""The process entry of `python -m rieszcap` and the `rieszcap` script.

A command runs with the garbage collector off.  Its cyclic garbage does
not grow with its work (a few hundred objects, mostly argparse's), so the
collections during the imports and at exit free nothing a command needs;
freezing before exit keeps the interpreter's shutdown collection from
walking the ~21,000 objects numpy and the package leave tracked.
`cli.main` stays the in-process entry and leaves the collector alone.
"""

import gc
import sys


def run() -> int:
    gc.disable()
    from .cli import main

    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
