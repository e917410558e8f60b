"""The benchmark's layer tracer (`bench/tracing.py`) wraps library functions
by module and name from outside.  A function that moves or is renamed leaves
its layer metric at 0 with no error, so this checks every name it wraps; the
tracer's source is only read, never imported or changed."""

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _wrapped() -> tuple:
    """The tracer's WRAPPED table of (span name, module, attribute)."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no WRAPPED table")


def test_every_wrapped_function_resolves():
    wrapped = _wrapped()
    assert wrapped
    for span, module, attr in wrapped:
        owner_name, _, fn_name = attr.rpartition(".")
        owner = importlib.import_module(module)
        if owner_name:  # a method, patched in its class's own namespace
            owner = getattr(owner, owner_name)
            assert fn_name in vars(owner), f"{span}: {attr} is not defined on its class"
        assert callable(getattr(owner, fn_name, None)), f"{span}: {module}.{attr} is gone"


def test_cli_binds_the_names_the_tracer_rebinds():
    from treelab import cli, networks

    assert cli.effective_conductance is networks.effective_conductance
    assert cli.sample_environment is networks.sample_environment
    # the tracer calls _replicated(one, count, workers) positionally
    assert len(inspect.signature(cli._replicated).parameters) == 3
