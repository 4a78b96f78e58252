"""One cold benchmark session, run in a fresh interpreter by run.py.

Reads a JSON job from stdin: the source directory to import wres from,
the CLI argument lists to run in order, and whether to trace.  Imports
`wres.cli`, refuses to go on unless the imported package lives in that
source directory, then drives `wres.cli.main(argv)` in-process for each
command with stdout captured.  Writes one JSON result to stdout:
monotonic timestamps (comparable with the parent's clock), each
command's exit code and stdout, peak resident memory, the versions in
use and, when traced, the tracer's aggregates and spans.

Only the standard library is imported before wres, so the import time
the parent measures is the engine's.
"""

import io
import json
import os
import resource
import sys
import time


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    try:
        import wres.cli as cli
    except ImportError as exc:
        sys.stderr.write(f"cannot import wres from {src}: {exc}\n")
        return 3
    t_import = time.monotonic()
    cpu_import = time.process_time()

    import wres

    package = os.path.realpath(os.path.dirname(wres.__file__))
    if package != os.path.join(src, "wres"):
        sys.stderr.write(f"refusing to measure wres imported from {package}\n")
        return 3

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    real_stdout = sys.stdout
    for index, argv in enumerate(job["commands"]):
        if tracer is not None:
            tracer.set_command(index)
        sys.stdout = io.StringIO()
        error = None
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a crashing command is a failed command
            code, error = None, f"raised {exc!r}"
        finally:
            text = sys.stdout.getvalue()
            sys.stdout = real_stdout
        results.append({"argv": argv, "exit": code, "stdout": text, "error": error})
    t_end = time.monotonic()
    cpu_end = time.process_time()

    import numpy
    import scipy

    out = {
        "t_import": t_import,
        "t_end": t_end,
        "cpu_s": cpu_end - cpu_import,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "wres_file": wres.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "results": results,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["spans"] = tracer.spans()
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
