"""Which functions of ``src/repro`` does a body of traffic never call, and
which of its options does it only ever set to one value?

    python tools/traffic_audit.py run a.db -m pytest benchmarks -q --benchmark-disable
    python tools/traffic_audit.py run a.db benchmarks/perf/run.py --workload rl_step --seconds 4
    python tools/traffic_audit.py report a.db [b.db ...] [--keep tools/traffic_keep.txt]
    python tools/traffic_audit.py options a.db [b.db ...] [--keep tools/option_keep.txt]

``run`` executes a module (``-m``) or script under ``sys.setprofile`` /
``threading.setprofile`` and appends the (file, function, first line) of every
call under ``src/repro`` to the db; ``report`` prints the non-abstract functions
of an ``ast`` walk that none of its dbs names.  pytest-benchmark unsets the
profiler inside ``benchmark.pedantic``, so pass ``--benchmark-disable``.

``run`` also records the values the options take: at call entry, every
defaulted parameter of a public ``src/repro`` callable (``Callable(param)``),
and in each ``__post_init__`` of a public ``src/repro`` dataclass, every public
``init`` field with a default (``Class.field``).  A dataclass without a
``__post_init__`` (a record or report, which validates nothing) goes
unrecorded; every config and spec dataclass under src validates in one.  A
value's signature is its ``repr``; a ``repr`` holding a memory address, or
elided with ``...`` (as numpy prints a large array), counts as varying.
``options`` prints each option its dbs saw with exactly one signature: with
one value in use, it is a constant.

With ``--keep``, ``report`` / ``options`` print only disagreements with the
keep list — one ``file<TAB>name<TAB># reason`` line per function allowed to go
uncalled, or per option allowed to keep one value — and exit non-zero on any:
a hit the list does not name, or a listed one that no longer exists or is now
called / set to a second value.
"""

import ast
import dataclasses
import fileinput
import inspect
import os
import re
import runpy
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")  # "<... object at 0x7f...>"
RESUMABLE = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


def run(db, argv):
    called = set()  # code objects: one set insert per call keeps the profiler cheap
    specs = {}  # code -> what to record at its entry: (), parameters or __post_init__
    fields = {}  # dataclass -> (file, [(label, field name)])
    values = {}  # (file, label) -> set of signatures, None once it varies

    def record(rel, label, value):
        sigs = values.setdefault((rel, label), set())
        if sigs is not None and len(sigs) < 2:
            sig = repr(value)
            if ADDRESS.search(sig) or "..." in sig:
                values[rel, label] = None
            else:
                sigs.add(sig)

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add(code)
            spec = specs.get(code)
            if spec is None:
                spec = specs[code] = option_spec(frame)
            if spec == "__post_init__":
                cls = type(frame.f_locals["self"])
                if cls not in fields:
                    fields[cls] = dataclass_options(cls)
                rel, names = fields[cls]
                for label, name in names:
                    record(rel, label, getattr(frame.f_locals["self"], name))
            elif spec:
                rel, names = spec
                local = frame.f_locals
                for label, name in names:
                    record(rel, label, local[name])

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
            for (rel, label), sigs in values.items():
                for sig in ["varies"] if sigs is None else [f"={sig!r}" for sig in sigs]:
                    out.write(f"{rel}\t{label}\t{sig}\n")


def option_spec(frame):
    """What to record when ``frame``'s code is entered: "__post_init__",
    (file, [(label, parameter)]) for a public src callable with defaulted
    parameters, or ()."""
    code = frame.f_code
    if not code.co_filename.startswith(SRC) or code.co_flags & RESUMABLE:
        return ()  # a resumed generator's locals are no longer its arguments
    if code.co_name == "__post_init__":
        return "__post_init__"
    parts = code.co_qualname.split(".")
    if "<locals>" in parts or any(p.startswith("_") for p in parts[:-1]) or (
        parts[-1].startswith("_") and not (parts[-1] == "__init__" and len(parts) > 1)
    ):
        return ()
    func = sys.modules.get(frame.f_globals.get("__name__"))
    for part in parts:
        func = vars(func).get(part) if hasattr(func, "__dict__") else None
        func = getattr(func, "__func__", func)  # staticmethod / classmethod
    while func is not None and getattr(func, "__code__", None) is not code:
        func = getattr(func, "__wrapped__", None)
    if func is None:
        return ()
    positional = code.co_varnames[:code.co_argcount]
    defaulted = positional[len(positional) - len(func.__defaults__ or ()):]
    names = [*defaulted, *(func.__kwdefaults__ or {})]
    owner = ".".join(parts[:-1]) if parts[-1] == "__init__" else code.co_qualname
    rel = os.path.relpath(code.co_filename, SRC)
    return (rel, [(f"{owner}({name})", name) for name in names]) if names else ()


def dataclass_options(cls):
    """(file, [(label, field)]) of the public init fields with a default
    of ``cls`` (none unless it is a public dataclass defined under src)."""
    path = getattr(sys.modules.get(cls.__module__), "__file__", "") or ""
    if not (dataclasses.is_dataclass(cls) and path.startswith(SRC)) or cls.__name__.startswith("_"):
        return "", []
    names = [
        (f"{cls.__qualname__}.{f.name}", f.name) for f in dataclasses.fields(cls)
        if f.init and not f.name.startswith("_")
        and (f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING)
    ]
    return os.path.relpath(path, SRC), names


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


def options(dbs, keep_path=None):
    """Report the options their dbs saw with exactly one value."""
    seen = {}  # (file, label) -> set of signatures, None once it varies
    for line in fileinput.input(dbs):
        rel, label, value = line.rstrip("\n").split("\t", 2)
        if value == "varies":
            seen[rel, label] = None
        elif value.startswith("=") and seen.setdefault((rel, label), set()) is not None:
            seen[rel, label].add(value[1:])
    rows = [((rel, label), f"{rel}\t{label}\t{ast.literal_eval(next(iter(sigs)))}")
            for (rel, label), sigs in sorted(seen.items()) if sigs is not None and len(sigs) == 1]
    if keep_path is None:
        for _, row in rows:
            print(row)
        print(f"{len(rows)} of {len(seen)} recorded options took one value")
        return 0
    return check_keep(dict(rows), keep_path, "one value", "gone, uncalled or now varied")


if __name__ == "__main__":
    if len(sys.argv) >= 4 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3:])
    elif len(sys.argv) >= 5 and sys.argv[1] == "report" and sys.argv[-2] == "--keep":
        sys.exit(report(sys.argv[2:-2], sys.argv[-1]))
    elif len(sys.argv) >= 3 and sys.argv[1] == "report" and "--keep" not in sys.argv:
        sys.exit(report(sys.argv[2:]))
    elif len(sys.argv) >= 5 and sys.argv[1] == "options" and sys.argv[-2] == "--keep":
        sys.exit(options(sys.argv[2:-2], sys.argv[-1]))
    elif len(sys.argv) >= 3 and sys.argv[1] == "options" and "--keep" not in sys.argv:
        sys.exit(options(sys.argv[2:]))
    else:
        sys.exit(__doc__)
