"""Which functions of ``src/repro`` does a body of traffic never call?

    python tools/traffic_audit.py run a.db -m pytest benchmarks -q --benchmark-disable
    python tools/traffic_audit.py run a.db benchmarks/perf/run.py --workload rl_step --seconds 4
    python tools/traffic_audit.py report a.db [b.db ...] [--keep tools/traffic_keep.txt]

``run`` executes a module (``-m``) or script under ``sys.setprofile`` /
``threading.setprofile`` and appends the (file, function, first line) of every
call under ``src/repro`` to the db; ``report`` prints the non-abstract functions
of an ``ast`` walk that none of its dbs names.  pytest-benchmark unsets the
profiler inside ``benchmark.pedantic``, so pass ``--benchmark-disable``.

With ``--keep``, ``report`` prints only disagreements with the keep list — one
``file<TAB>qualified name<TAB># reason`` line per function allowed to go
uncalled — and exits non-zero on any: an uncalled function the list does not
name, or a listed one that no longer exists or is now called.
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


def uncalled(tree, rel, called, scope=""):
    """(first line, qualified name, span) of each outermost non-abstract
    function no db names."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from uncalled(node, rel, called, f"{scope}{node.name}.")
            continue
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from uncalled(node, rel, called, scope)
            continue
        first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
        if f"{rel}\t{node.name}\t{first}\n" in called:
            yield from uncalled(node, rel, called, f"{scope}{node.name}.")
        elif not any("abstractmethod" in ast.unparse(d) for d in node.decorator_list):
            yield first, scope + node.name, node.end_lineno - first + 1


def report(dbs, keep_path=None):
    called = set(fileinput.input(dbs))
    rows = []  # ((file, qualified name), "file:line<TAB>name<TAB>span")
    for folder, _, files in sorted(os.walk(SRC)):
        for path in sorted(os.path.join(folder, f) for f in files if f.endswith(".py")):
            rel = os.path.relpath(path, SRC)
            with open(path) as source:
                tree = ast.parse(source.read())
            for first, name, span in uncalled(tree, rel, called):
                rows.append(((rel, name), f"{rel}:{first}\t{name}\t{span}"))
    if keep_path is None:
        for _, row in rows:
            print(row)
        size = sum(int(row.rsplit("\t", 1)[1]) for _, row in rows)
        print(f"{len(rows)} functions / {size} lines never called")
        return 0
    found = dict(rows)
    keep, bad = set(), []
    with open(keep_path) as keep_file:
        for line in keep_file:
            if line.strip() and not line.startswith("#"):
                fields = line.rstrip("\n").split("\t")
                if len(fields) == 3 and fields[2].startswith("# "):
                    keep.add((fields[0], fields[1]))
                else:
                    bad.append(line)
    for line in bad:
        print(f"malformed in {keep_path} (want file<TAB>name<TAB># reason): {line}", end="")
    for key in sorted(found.keys() - keep):
        print(f"uncalled, not in {keep_path}: {found[key]}")
    for rel, name in sorted(keep - found.keys()):
        print(f"stale in {keep_path} (gone or now called): {rel}\t{name}")
    return 1 if bad or found.keys() ^ keep else 0


if __name__ == "__main__":
    if len(sys.argv) >= 4 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3:])
    elif len(sys.argv) >= 5 and sys.argv[1] == "report" and sys.argv[-2] == "--keep":
        sys.exit(report(sys.argv[2:-2], sys.argv[-1]))
    elif len(sys.argv) >= 3 and sys.argv[1] == "report" and "--keep" not in sys.argv:
        sys.exit(report(sys.argv[2:]))
    else:
        sys.exit(__doc__)
