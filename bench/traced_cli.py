"""Run one ``sarv`` command with the span tracer attached.

Usage: ``python bench/traced_cli.py SPANS.npz <sarv arguments...>``

The whole command is the root span ``cli.main``; spans and counters go to
``SPANS.npz`` when it returns.  Hooks that no longer match the code are
named on stderr and in the spans file, and the command runs regardless.
"""

import sys

from tracer import Tracer, install_hooks


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    import sarv.cli

    missing = install_hooks(tracer)
    for hook in missing:
        print(f"trace: hook not found: {hook}", file=sys.stderr)
    sid = tracer.open("cli.main")
    try:
        code = sarv.cli.main(args)
    finally:
        tracer.close(sid)
        tracer.dump(spans_path, missing)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
