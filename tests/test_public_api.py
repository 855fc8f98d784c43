"""The documented public API is importable and complete."""

import importlib
import pkgutil

import repro


def _subpackages():
    for info in pkgutil.iter_modules(repro.__path__):
        if info.ispkg:
            yield importlib.import_module(f"repro.{info.name}")


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name
        for package in _subpackages():
            for name in package.__all__:
                assert hasattr(package, name), f"{package.__name__}.{name}"

    def test_key_entry_points(self):
        assert callable(repro.synthesize)
        assert callable(repro.synthesize_baseline)
        assert callable(repro.schedule_assay)
        assert callable(repro.schedule_assay_baseline)
        assert callable(repro.get_benchmark)

    def test_subpackages_importable(self):
        import repro.assay
        import repro.benchmarks
        import repro.components
        import repro.core
        import repro.experiments
        import repro.place
        import repro.route
        import repro.schedule
        import repro.viz

    def test_errors_hierarchy(self):
        from repro import errors

        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, Exception)
            if name != "ReproError":
                assert issubclass(exc, errors.ReproError)
