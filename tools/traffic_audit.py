"""Which functions of ``src/repro`` does a body of traffic never call?

    python tools/traffic_audit.py run a.db -m pytest benchmarks -q --benchmark-disable
    python tools/traffic_audit.py run a.db benchmarks/perf/run.py --workload rl_step --seconds 4
    python tools/traffic_audit.py report a.db

``run`` executes a module (``-m``) or script under ``sys.setprofile`` /
``threading.setprofile`` and appends the (file, function, first line) of every
call under ``src/repro`` to the db; ``report`` prints the non-abstract functions
of an ``ast`` walk that none of its dbs names.  pytest-benchmark unsets the
profiler inside ``benchmark.pedantic``, so pass ``--benchmark-disable``.
"""

import ast
import fileinput
import os
import runpy
import sys
import threading

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro")


def run(db, argv):
    called = set()  # code objects: one set insert per call keeps the profiler cheap
    def profiler(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.argv = argv[1:] if argv[0] == "-m" else argv
    sys.path[:0] = [os.path.dirname(SRC), os.path.dirname(os.path.abspath(argv[0]))]
    threading.setprofile(profiler)
    sys.setprofile(profiler)
    try:
        if argv[0] == "-m":
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    finally:
        sys.setprofile(None)
        with open(db, "a") as out:
            out.writelines(
                f"{os.path.relpath(c.co_filename, SRC)}\t{c.co_name}\t{c.co_firstlineno}\n"
                for c in called if c.co_filename.startswith(SRC))


def uncalled(tree, rel, called):
    """(first line, name, span) of each outermost non-abstract function no db names."""
    for node in ast.iter_child_nodes(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from uncalled(node, rel, called)
            continue
        first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
        if f"{rel}\t{node.name}\t{first}\n" in called:
            yield from uncalled(node, rel, called)
        elif not any("abstractmethod" in ast.unparse(d) for d in node.decorator_list):
            yield first, node.name, node.end_lineno - first + 1


def report(dbs):
    called = set(fileinput.input(dbs))
    functions = size = 0
    for folder, _, files in sorted(os.walk(SRC)):
        for path in sorted(os.path.join(folder, f) for f in files if f.endswith(".py")):
            rel = os.path.relpath(path, SRC)
            with open(path) as source:
                tree = ast.parse(source.read())
            for first, name, span in uncalled(tree, rel, called):
                print(f"{rel}:{first}\t{name}\t{span}")
                functions, size = functions + 1, size + span
    print(f"{functions} functions / {size} lines never called")


if __name__ == "__main__":
    if len(sys.argv) >= 4 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3:])
    elif len(sys.argv) >= 3 and sys.argv[1] == "report":
        report(sys.argv[2:])
    else:
        sys.exit(__doc__)
