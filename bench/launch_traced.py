"""Run ``rcm`` (``repro.cli.main``) with the benchmark's tracer installed.

Usage::

    python bench/launch_traced.py SPANS_JSON RCM_ARGUMENTS...

The traced runs of the ``cli-cold`` and ``service-mixed`` workloads start
their ``rcm simulate`` / ``rcm serve`` processes through this launcher: the
process is the one a user starts, plus the timing wrappers of
:mod:`spans` and one ``cli`` span around ``repro.cli.main``.  The spans are
written to ``SPANS_JSON`` when ``main`` returns, which for ``rcm serve`` is
after its SIGTERM drain.
"""

import sys

from spans import Tracer


def main(argv):
    spans_path, rcm_arguments = argv[0], argv[1:]
    tracer = Tracer().install(service=rcm_arguments[:1] == ["serve"])
    from repro.cli import main as rcm_main

    try:
        return tracer.wrap(rcm_main, "cli", "main")(rcm_arguments)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
