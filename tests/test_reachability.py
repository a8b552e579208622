"""Every library function is reached from the command line, or named here.

A fresh interpreter installs ``sys.setprofile``, imports ``gauss_deficit``
and runs ``cli.main`` over every command at beta 2 and 0.5 (count 3), once
more from a config file and once with ``--format csv``.  The guard fails on
a module-level function or method of the package that never ran, unless
UNREACHED names it with the reason it is kept, and on an entry of UNREACHED
that ran or names nothing.  The interpreter is fresh so that what runs at
import counts, and no cache filled by an earlier test hides a function.

Run as a script, this file prints the unreached names as JSON.
"""
import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys

# qualified name -> why it stays although no command runs it
UNREACHED = {
    "numerics.default_grid": "the benchmark's grid",
    "numerics.second_difference": "(log f)'' of a field without a d2log "
                                  "closure; every suite input has one",
    "families.LogQuad.__call__": "a family as a value closure: the "
                                 "benchmark's untagged Gaussian",
    "flows._grid_density_family": "the untagged FP kernel: the benchmark's "
                                  "fp-flow workload",
    "flows._lattice_pass": "the untagged FP kernel",
    "flows._edge_weight": "the untagged FP kernel",
    "flows._merge_odd": "the untagged FP kernel",
    "flows.preservation_trace": "acceptance criterion 6 and the fp-flow "
                                "workload",
    "transport.caffarelli_check": "acceptance criterion 9",
    "cli._worker_count": "the benchmark's pool-wait metric",
}


def _library_functions():
    """{qualified name: code} of every module-level function and method
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
                    found[f"{info.name}.{fn.__qualname__}"] = code
    return found


def unreached(workdir):
    """The functions that never ran from import through every command;
    ``workdir`` takes the config file."""
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    config = os.path.join(workdir, "run.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write("# a config-file run\ncount = 3\nbeta = 2.0\n")
    sys.setprofile(profile)
    try:
        from gauss_deficit import cli
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
    return sorted(name for name, code in _library_functions().items()
                  if code not in ran)


def test_every_function_is_reached(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    done = subprocess.run(
        [sys.executable, __file__, str(tmp_path)], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        timeout=300)
    assert done.returncode == 0, done.stderr
    names = set(json.loads(done.stdout))
    assert names - set(UNREACHED) == set()
    # an entry that a command now reaches, or that names nothing, is stale
    assert set(UNREACHED) - names == set()


if __name__ == "__main__":
    print(json.dumps(unreached(sys.argv[1])))
