"""Which functions of ``src/repro`` does a body of traffic never call?

    python tools/traffic_audit.py run a.db -m pytest benchmarks -q --benchmark-disable
    python tools/traffic_audit.py run a.db benchmarks/perf/run.py --workload rl_step --seconds 4
    python tools/traffic_audit.py report a.db [b.db ...] [--keep tools/traffic_keep.txt]
    python tools/traffic_audit.py options [--keep tools/option_keep.txt]

``run`` executes a module (``-m``) or script under ``sys.setprofile`` /
``threading.setprofile`` and appends the (file, function, first line) of every
call under ``src/repro`` to the db; ``report`` prints the non-abstract functions
of an ``ast`` walk that none of its dbs names.  pytest-benchmark unsets the
profiler inside ``benchmark.pedantic``, so pass ``--benchmark-disable``.

With ``--keep``, ``report`` prints only disagreements with the keep list — one
``file<TAB>qualified name<TAB># reason`` line per function allowed to go
uncalled — and exits non-zero on any: an uncalled function the list does not
name, or a listed one that no longer exists or is now called.

``options`` needs no db: from the source alone it prints every defaulted
parameter of a public ``src/repro`` callable that no call under ``src/``,
``benchmarks/`` or ``examples/`` passes, by keyword or by position (tests do
not count).  Calls are matched by the callee's name, so a same-named callee
that passes the parameter hides a hit; a ``*args`` / ``**kwargs`` call passes
every position / keyword, and ``super().__init__(...)`` and a subclass without
its own ``__init__`` call the base's.  Its keep list names each parameter
allowed to stay unset as ``file<TAB>Callable(param)<TAB># reason``.
"""

import ast
import fileinput
import os
import runpy
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")


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
    return check_keep(dict(rows), keep_path, "uncalled", "gone or now called")


def check_keep(found, keep_path, hit, stale):
    """Print where ``found`` ((file, name) -> row) and the keep list
    disagree; 1 on any disagreement or malformed line, else 0."""
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
        print(f"{hit}, not in {keep_path}: {found[key]}")
    for rel, name in sorted(keep - found.keys()):
        print(f"stale in {keep_path} ({stale}): {rel}\t{name}")
    return 1 if bad or found.keys() ^ keep else 0


def defaulted(tree, scope=""):
    """(callable, parameter, position or None if keyword-only) of each
    defaulted parameter of the public callables under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from defaulted(node, f"{scope}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            not node.name.startswith("_") or (scope and node.name == "__init__")
        ):
            args = node.args
            bound = scope and "staticmethod" not in map(ast.unparse, node.decorator_list)
            positional = (args.posonlyargs + args.args)[1 if bound else 0:]
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], first):
                yield scope + node.name, arg.arg, index
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield scope + node.name, arg.arg, None


def record_calls(tree, passed, heirs, bases=()):
    """Fold every call under ``tree`` into ``passed`` (callee name ->
    [most positions passed, keywords passed]) and every class without an
    ``__init__`` into ``heirs`` (base name -> such subclasses)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            names = [ast.unparse(b).rsplit(".", 1)[-1] for b in node.bases]
            if not any(getattr(n, "name", None) == "__init__" for n in node.body):
                for name in names:
                    heirs.setdefault(name, []).append(node.name)
            record_calls(node, passed, heirs, names)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            names = [getattr(func, "id", None) or getattr(func, "attr", None)]
            if names[0] == "__init__" and isinstance(func.value, ast.Call):
                names = bases  # super().__init__(...)
            for name in names:
                entry = passed.setdefault(name, [0, set()])
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                entry[0] = max(entry[0], float("inf") if starred else len(node.args))
                entry[1].update(k.arg or "**" for k in node.keywords)
        record_calls(node, passed, heirs, bases)


def options(keep_path=None):
    """Report the defaulted public parameters no non-test call passes."""
    passed, sources, heirs = {}, [], {}
    for top in ("src", "benchmarks", "examples"):
        for folder, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for path in sorted(os.path.join(folder, f) for f in files if f.endswith(".py")):
                with open(path) as source:
                    tree = ast.parse(source.read())
                record_calls(tree, passed, heirs)
                if path.startswith(SRC):
                    sources.append((os.path.relpath(path, SRC), tree))
    rows, total = [], 0
    for rel, tree in sources:
        for qualname, param, index in defaulted(tree):
            total += 1
            *owner, name = qualname.split(".")
            label = f"{'.'.join(owner)}({param})" if name == "__init__" else f"{qualname}({param})"
            callees = [owner[-1] if name == "__init__" else name]
            for callee in callees:
                if name == "__init__":
                    callees += [c for c in heirs.get(callee, ()) if c not in callees]
                positions, keywords = passed.get(callee, (0, ()))
                if param in keywords or "**" in keywords or (index is not None and positions > index):
                    break
            else:
                rows.append(((rel, label), f"{rel}\t{label}"))
    if keep_path is None:
        for _, row in rows:
            print(row)
        print(f"{len(rows)} of {total} defaulted public parameters never passed")
        return 0
    return check_keep(dict(rows), keep_path, "never passed", "gone or now passed")


if __name__ == "__main__":
    if len(sys.argv) >= 4 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3:])
    elif len(sys.argv) >= 5 and sys.argv[1] == "report" and sys.argv[-2] == "--keep":
        sys.exit(report(sys.argv[2:-2], sys.argv[-1]))
    elif len(sys.argv) >= 3 and sys.argv[1] == "report" and "--keep" not in sys.argv:
        sys.exit(report(sys.argv[2:]))
    elif sys.argv[1:] == ["options"]:
        sys.exit(options())
    elif len(sys.argv) == 4 and sys.argv[1:3] == ["options", "--keep"]:
        sys.exit(options(sys.argv[3]))
    else:
        sys.exit(__doc__)
