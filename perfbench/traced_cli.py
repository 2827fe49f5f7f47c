"""One traced CLI pass: ``traced_cli.py SPANS_OUT <hodgeform cli arguments>``.

Runs ``hodgeform.cli.main`` exactly as the ``hodgeform`` entry point does,
with every public library function wrapped by :class:`layertrace.Tracer`.
The parent passes its ``time.perf_counter()`` reading taken just before the
launch in ``PERFBENCH_LAUNCH``; the same clock is system-wide on Linux, so
the import figure covers interpreter start plus ``import hodgeform.cli``.
Spans are written once, after the pass, to SPANS_OUT; the clock reading
taken after that write is the last line on stdout, so the parent can tell
interpreter exit apart from the tracer's own bookkeeping.
"""

import os
import sys
import time

import hodgeform.cli

imported = time.perf_counter()

from layertrace import Tracer  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.begin_op()
    code = hodgeform.cli.main(argv)
    tracer.uninstall()
    tracer.write(spans_out, import_s=imported - float(os.environ["PERFBENCH_LAUNCH"]))
    print(repr(time.perf_counter()), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
