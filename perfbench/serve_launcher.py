"""Run ``stenso-serve`` with daemon-side layer spans (traced runs only).

Installs the benchmark's span wrappers in the daemon process, then hands
the remaining arguments to the real ``stenso-serve`` entry point.  When the
daemon shuts down, the span totals are written to ``--spans-out``::

    python perfbench/serve_launcher.py --spans-out spans.json -- \\
        --state-dir STATE --workers 2

Pool workers are separate spawned interpreters and run unwrapped.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans-out" or argv[2] != "--":
        print("usage: serve_launcher.py --spans-out FILE -- <stenso-serve args>", file=sys.stderr)
        return 2
    spans_out, serve_args = Path(argv[1]), argv[3:]

    import repro.cli.serve
    import repro.serve.daemon  # noqa: F401 — load every module whose names get wrapped
    import repro.synth.superoptimizer  # noqa: F401
    from spans import DAEMON_SPANS, SUITE_SPANS, SpanRecorder, install, wrapper_cost_s

    recorder = SpanRecorder()
    unwrapped = install(recorder, SUITE_SPANS + DAEMON_SPANS)
    try:
        return repro.cli.serve.main(serve_args)
    finally:
        spans = dict(recorder.snapshot(), wrapper_cost_s=wrapper_cost_s())
        spans_out.write_text(json.dumps({"spans": spans, "unwrapped": unwrapped}))


if __name__ == "__main__":
    raise SystemExit(main())
