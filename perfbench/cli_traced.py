"""One traced `spincool` process: cli_traced.py SPANS_FILE OP_ID ARGV...

Imports spincool.cli, installs the tracer, runs spincool.cli.main(ARGV)
inside one op span, writes the spans to SPANS_FILE and exits with main's
exit code, as the `spincool` entry point would.
"""

import sys

import spincool.cli

from tracer import Tracer

if __name__ == "__main__":
    spans_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op(op_id):
            code = spincool.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_file)
    sys.exit(code)
