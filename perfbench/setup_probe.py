"""One set-up, in a fresh interpreter: import, session, warm-up.

The parent times this process from launch to the ``ready`` line, so the
interpreter's start and the package import are part of the figure, as
they are for a user starting ``repro``:

    python3 perfbench/setup_probe.py compile
    python3 perfbench/setup_probe.py watch DOCUMENT.cj

``compile`` warms up with one paper program; ``watch`` opens DOCUMENT
as ``repro watch`` does, with its first, full inference.
"""

import sys


def main(argv):
    from repro import Session, pretty_target
    from repro.bench import REGJAVA_PROGRAMS

    session = Session()
    if argv[0] == "compile":
        pipe = session.pipeline(REGJAVA_PROGRAMS["sieve"].source)
        pretty_target(pipe.infer().unwrap().target)
        if not pipe.verify().ok:
            return 1
    elif argv[0] == "watch":
        with open(argv[1]) as fh:
            session.reinfer(fh.read(), document=argv[1])
    else:
        print(f"unknown probe {argv[0]!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
