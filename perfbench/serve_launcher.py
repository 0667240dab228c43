"""Start the service daemon with the benchmark's span wrappers installed.

    python3 perfbench/serve_launcher.py OUT_JSON serve --store DIR ...

Runs ``repro.cli.main(["serve", ...])`` in this process.  When SIGTERM
has drained the daemon and ``main`` returns, the per-layer totals and
the spans are written to ``OUT_JSON``.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import repro.cli
    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = repro.cli.main(cli_args)
    with open(out_path, "w") as f:
        json.dump({"layers": tracing.layer_metrics(tracer),
                   "spans": tracer.spans()}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
