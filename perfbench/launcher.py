"""Run one ``repro.cli`` serving command with layer-boundary spans.

Usage::

    python perfbench/launcher.py SPANS.json serve-http --load DIR ...

Installs :mod:`perfbench.tracing` wrappers, then hands the remaining
arguments to ``repro.cli.main`` unchanged, so the server is wired by
exactly the code ``serve-http`` / ``serve-follower`` use. On exit
(including SIGINT, which the CLI turns into a graceful shutdown) the
spans are written to ``SPANS.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: launcher.py SPANS.json <repro.cli arguments>", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.tracing import SpanStore, install
    from repro import cli

    store = SpanStore()
    wrapped = install(store)
    print(f"perfbench launcher: {len(wrapped)} boundaries wrapped", flush=True)
    try:
        return cli.main(argv[1:])
    finally:
        store.dump(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
