"""Start ``repro serve`` with every layer wrapped; dump the spans on exit.

    python3 perfbench/serve_traced.py --dump DIR -- [repro serve arguments]

Installs the benchmark's span wrappers (engine and HTTP layers), then
hands over to ``repro.service.cli.main``.  When the server stops
(SIGTERM), ``DIR/spans.jsonl`` receives every span and
``DIR/summary.json`` the per-layer totals plus the telemetry registry.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--dump" or (len(argv) > 2 and argv[2] != "--"):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    dump = Path(argv[1])
    recorder = tracing.Recorder()
    undo = tracing.install(recorder, service=True)
    from repro.service.cli import main as serve_main
    from repro.telemetry import metrics

    try:
        code = serve_main(argv[3:])
    finally:
        undo()
    dump.mkdir(parents=True, exist_ok=True)
    recorder.write(dump / "spans.jsonl")
    (dump / "summary.json").write_text(json.dumps({
        "recorder": recorder.summary(),
        "registry": metrics().snapshot(),
    }))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
