"""Experiment harness: regenerate every table and figure of Section V."""

#: Every harness module is also a ``python -m`` entry point.  Importing
#: them here eagerly would load each one before runpy executes it as
#: ``__main__`` (a ``RuntimeWarning``), so the names resolve lazily via
#: PEP 562.
_LAZY = {
    "BenchmarkComparison": "repro.experiments.runner",
    "SeedStudy": "repro.experiments.robustness",
    "fig8_series": "repro.experiments.fig8",
    "fig9_series": "repro.experiments.fig9",
    "format_grouped_bars": "repro.experiments.reporting",
    "format_table": "repro.experiments.reporting",
    "render_fig8": "repro.experiments.fig8",
    "render_fig9": "repro.experiments.fig9",
    "render_seed_study": "repro.experiments.robustness",
    "render_table1": "repro.experiments.table1",
    "run_all": "repro.experiments.runner",
    "run_benchmark": "repro.experiments.runner",
    "run_seed_study": "repro.experiments.robustness",
    "table1_rows": "repro.experiments.table1",
}


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


__all__ = sorted(_LAZY)
