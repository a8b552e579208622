"""Every library function is reached from the command line, and each of its
options is set there to a value other than its default, or is named here.

A fresh interpreter installs ``sys.setprofile``, imports ``gauss_deficit``
and runs ``cli.main`` over every command at beta 2 and 0.5 (count 3), once
more from a config file and once with ``--format csv``.  The guard fails on
a module-level function or method of the package that never ran, unless
UNREACHED names it with the reason it is kept, and on an entry of UNREACHED
that ran or names nothing.  The interpreter is fresh so that what runs at
import counts, and no cache filled by an earlier test hides a function.

The option guard reads the arguments of every call the commands make: it
fails on a parameter with a default that no call sets to another value,
unless UNSET names it with the reason it is kept, and on a stale entry of
UNSET.  Conversely it fails on a parameter with a default that no call
leaves at it, a default nothing takes, unless ALWAYS_SET names it with the
reason it is kept, and on a stale entry of ALWAYS_SET.  The functions of
UNREACHED are not read.

Run as a script, this file prints the unreached names, the unset options
and the always-set options as JSON.
"""
import contextlib
import functools
import importlib
import importlib.util
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile

# qualified name -> why it stays although no command runs it
UNREACHED = {
    "numerics.default_grid": "the benchmark's grid",
    "families.LogQuad.__call__": "a family as a value closure: the "
                                 "benchmark's untagged Gaussian",
    "flows._grid_density_family": "the untagged FP kernel: the benchmark's "
                                  "fp-flow workload",
    "flows._coarsest_stride": "the untagged FP kernel",
    "flows._refine_strides": "the untagged FP kernel",
    "flows._lattice_pass": "the untagged FP kernel",
    "flows._edge_weight": "the untagged FP kernel",
    "flows._merge_odd": "the untagged FP kernel",
    "flows.preservation_trace": "acceptance criterion 6 and the fp-flow "
                                "workload",
    "transport.caffarelli_check": "acceptance criterion 9",
    "cli._worker_count": "the benchmark's pool-wait metric",
}


# function.parameter -> why it stays although no command sets it
UNSET = {
    "families.field_from_family.nodes": "the untagged FP kernel's node "
                                        "arrays: the fp-flow workload",
    **{f"functionals._{name}.n": "the dimension: the paper states its "
                                 "constants in R^n; the tensorisation test "
                                 "sets it"
       for name in ("hc_ratio", "dn", "lsi_gauss", "talagrand_gauss",
                    "mikulincer", "beckner_b", "hj_t")},
}


# function.parameter -> why its default stays although every command call
# sets it
ALWAYS_SET = {
    "cli.main.argv": "the console script and python -m gauss_deficit call "
                     "main() bare, to read sys.argv",
}


def _library_functions():
    """{qualified name: function} of every module-level function and method
    written in a module of the package."""
    import gauss_deficit
    found = {}
    for info in pkgutil.iter_modules(gauss_deficit.__path__):
        if info.name == "__main__":  # runs the command line when imported
            continue
        module = importlib.import_module(f"gauss_deficit.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = (vars(obj).values() if inspect.isclass(obj)
                       else [obj])
            for member in members:
                if isinstance(member, property):
                    member = member.fget
                fn = inspect.unwrap(getattr(member, "__func__", member))
                code = getattr(fn, "__code__", None)
                # dataclass-generated methods are not written in the module
                if code is not None and code.co_filename == module.__file__:
                    found[f"{info.name}.{fn.__qualname__}"] = fn
    return found


def _options(fn):
    """[(name, default)] of the parameters of fn that have a default."""
    return [(p.name, p.default)
            for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty]


def _is_default(value, default) -> bool:
    if value is default:
        return True
    try:
        return bool(value == default)
    except (TypeError, ValueError):  # an array against a scalar default
        return False


def profile_commands():
    """(the functions that never ran from import through every command,
    the options no call set to a value other than the default, the options
    of functions that ran that no call left at the default)."""
    package = os.path.dirname(importlib.util.find_spec("gauss_deficit").origin)
    ran, early, changed, kept = set(), [], set(), set()
    options = None  # code -> [(parameter, default)], once imported

    def note(code, args):
        for key, default in options[code]:
            (kept if _is_default(args[key], default) else changed).add(
                (code, key))

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            ran.add(code)
            if options is None:
                if code.co_filename.startswith(package):
                    early.append((code, dict(frame.f_locals)))  # at import
            elif code in options:
                note(code, frame.f_locals)

    workdir = tempfile.TemporaryDirectory()
    config = os.path.join(workdir.name, "run.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write("# a config-file run\ncount = 3\nbeta = 2.0\n")
    sys.setprofile(profile)
    try:
        from gauss_deficit import cli
        functions = _library_functions()
        options = {fn.__code__: opts for name, fn in functions.items()
                   if name not in UNREACHED and (opts := _options(fn))}
        for code, args in early:
            if code in options:
                note(code, args)
        runs = [[command, "--beta", str(beta), "--count", "3"]
                for beta in (2.0, 0.5) for command in cli.COMMANDS]
        runs += [["verify-hc", "--config", config],
                 ["verify-lsi", "--count", "3", "--format", "csv"]]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for argv in runs:
                cli.main(argv)
    finally:
        sys.setprofile(None)
        workdir.cleanup()
    unreached = sorted(name for name, fn in functions.items()
                       if fn.__code__ not in ran)
    unset = sorted(f"{name}.{key}" for name, fn in functions.items()
                   for key, _ in options.get(fn.__code__, ())
                   if (fn.__code__, key) not in changed)
    # a function that never ran left no default either: the reach guard
    # reports it
    always_set = sorted(f"{name}.{key}" for name, fn in functions.items()
                        if fn.__code__ in ran
                        for key, _ in options.get(fn.__code__, ())
                        if (fn.__code__, key) not in kept)
    return unreached, unset, always_set


@functools.cache
def _profiled():
    """The unreached names, the unset options and the always-set options,
    from a fresh interpreter."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    done = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)), timeout=300)
    assert done.returncode == 0, done.stderr
    return [set(part) for part in json.loads(done.stdout)]


def test_every_function_is_reached():
    names = _profiled()[0]
    assert names - set(UNREACHED) == set()
    # an entry that a command now reaches, or that names nothing, is stale
    assert set(UNREACHED) - names == set()


def test_every_option_is_set():
    unset = _profiled()[1]
    assert unset - set(UNSET) == set()
    # an option a command now sets, or that names nothing, is stale
    assert set(UNSET) - unset == set()


def test_every_default_is_taken():
    always_set = _profiled()[2]
    assert always_set - set(ALWAYS_SET) == set()
    # an option a command now leaves at its default, or that names nothing,
    # is stale
    assert set(ALWAYS_SET) - always_set == set()


if __name__ == "__main__":
    print(json.dumps(profile_commands()))
