"""The top-level package exposes the documented public API."""

import dataclasses
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys

import repro

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.2.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            assert hasattr(repro, name), f"missing export {name}"

    def test_quickstart_snippet_from_docstring(self):
        """The usage example in the package docstring must run."""
        import numpy as np

        model = repro.make_sir_model()
        x0 = [0.7, 0.3]
        horizons = np.array([0.5, 1.0])
        imprecise = repro.pontryagin_transient_bounds(
            model, x0, horizons, observables=["I"], steps_per_unit=40,
        )
        uncertain = repro.uncertain_envelope(
            model, x0, np.insert(horizons, 0, 0.0), resolution=5,
        )
        assert imprecise.upper["I"][0] >= uncertain.upper["I"][1] - 1e-6

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.bounds
        import repro.ctmc
        import repro.engine
        import repro.geometry
        import repro.inclusion
        import repro.meanfield
        import repro.models
        import repro.ode
        import repro.params
        import repro.population
        import repro.reporting
        import repro.simulation
        import repro.steadystate  # noqa: F401

    def test_examples_import_and_define_main(self):
        """Every shipped example loads against the public API.

        Loading executes imports and definitions only (the run is behind
        an ``if __name__`` guard); the full executions are exercised
        manually and by the documented commands.
        """
        scripts = sorted(EXAMPLES_DIR.glob("*.py"))
        assert len(scripts) >= 5
        for script in scripts:
            spec = importlib.util.spec_from_file_location(script.stem, script)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            assert hasattr(module, "main"), script.name

    def test_subpackage_alls_resolve(self):
        import importlib

        for pkg in (
            "repro.params", "repro.geometry", "repro.ode", "repro.population",
            "repro.models", "repro.inclusion", "repro.meanfield",
            "repro.bounds", "repro.steadystate", "repro.simulation",
            "repro.engine", "repro.ctmc", "repro.analysis", "repro.reporting",
        ):
            module = importlib.import_module(pkg)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{pkg}.{name} missing"


def _public_callables():
    """``(qualified name, callable)`` for every public API entry point.

    Covers the exports of the top-level package and of the analysis
    subpackages, plus the public methods (and constructors) of every
    exported class.
    """
    import importlib

    for pkg in ("repro", "repro.scenarios", "repro.engine", "repro.ode",
                "repro.bounds", "repro.ctmc"):
        module = importlib.import_module(pkg)
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr == "__init__" or not attr.startswith("_"):
                        if isinstance(member, (staticmethod, classmethod)):
                            member = member.__func__
                        if inspect.isfunction(member):
                            yield f"{pkg}.{name}.{attr}", member
            elif callable(obj):
                yield f"{pkg}.{name}", obj


class TestNoArrayBackendKnob:
    """Batch kernels are the models' own numpy methods; nothing selects
    another array backend."""

    def test_no_public_callable_takes_a_backend(self):
        checked = 0
        for qualname, fn in _public_callables():
            try:
                params = inspect.signature(fn).parameters
            except (TypeError, ValueError):  # builtins without a signature
                continue
            checked += 1
            assert "backend" not in params, qualname
        assert checked > 100

    def test_analysis_plan_has_no_backend_field(self):
        from repro.scenarios import AnalysisPlan

        fields = {f.name for f in dataclasses.fields(AnalysisPlan)}
        assert "backend" not in fields

    def test_cli_rejects_backend_flag(self, tmp_path):
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "sir-transient",
             "--backend", "numpy", "--no-cache"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "--backend" in proc.stderr
