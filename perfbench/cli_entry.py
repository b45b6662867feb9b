"""Traced cold-CLI entry point: ``cli_entry.py SPANS_FILE <lambda-capacity args>``.

Installs the span wrappers, runs ``lambda_capacity.cli.main`` with the
remaining arguments, writes the spans to SPANS_FILE and exits with the
CLI's exit code.  ``src`` must be on PYTHONPATH.
"""

import sys

import tracer


def main() -> int:
    spans, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.Tracer()
    recorder.install()
    from lambda_capacity import cli

    try:
        return cli.main(argv)
    finally:
        recorder.save(spans)


if __name__ == "__main__":
    sys.exit(main())
