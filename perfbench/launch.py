"""Run one `sfpe` command in this process, optionally traced.

    python3 perfbench/launch.py [--trace SPANS_JSON] COMMAND --config CFG ...

Puts the checkout's `src` on the path, installs the layer wrappers of
`layertrace.py` when `--trace` is given, calls `sfpe.cli.main` with the
remaining arguments, writes the spans and exits with the command's code.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main(argv):
    spans_path = None
    if argv[:1] == ["--trace"]:
        spans_path, argv = argv[1], argv[2:]
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    from sfpe import cli

    code = cli.main(argv)
    if spans_path is not None:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
