"""Run ``python -m qmarginal.cli`` under the span tracer.

    python traced_cli.py <summary.json> <cli arguments...>

Used by the traced run of the cli-files workload: the child imports the
CLI, wraps the qmarginal layers, runs ``main`` with the given arguments,
writes the folded spans and counts to <summary.json>, and exits with the
CLI's exit code.
"""

import sys

import qmarginal.cli  # noqa: F401  (imported before the wrappers go in, as -m would)

import tracer

if __name__ == "__main__":
    sys.exit(tracer.traced_cli_main(sys.argv[1], sys.argv[2:]))
