"""Umbrella command: ``python -m repro <subcommand>``.

Subcommands:

* ``serve``        — run the synthesis service: HTTP/JSON job API with
  a persistent queue and content-addressed result cache; see
  :mod:`repro.serve` and ``docs/SERVICE.md``.
* ``submit``       — submit jobs to a running server (and query stats,
  follow progress, or drain it); see :mod:`repro.serve.client`.
* ``stats``        — summarise the run ledger, optionally only
  server-side runs (``--serve``); see :mod:`repro.obs.ledger`.
* ``trace2chrome`` — convert a ``--trace`` JSONL file to Chrome
  trace-event JSON for Perfetto; see :mod:`repro.obs.export`.
* anything else    — forwarded verbatim to the synthesis CLI
  (:mod:`repro.cli`), so ``python -m repro PCR --profile`` is
  ``repro-synthesize PCR --profile``.
"""

from __future__ import annotations

import sys


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if args and args[0] == "serve":
        from repro.serve.server import run_serve

        return run_serve(args[1:])
    if args and args[0] == "submit":
        from repro.serve.client import run_submit

        return run_submit(args[1:])
    if args and args[0] == "stats":
        from repro.obs.ledger import run_stats

        return run_stats(args[1:])
    if args and args[0] == "trace2chrome":
        from repro.obs.export import run_trace2chrome

        return run_trace2chrome(args[1:])
    from repro.cli import run

    return run(args)


if __name__ == "__main__":  # pragma: no cover - thin wrapper
    raise SystemExit(main())
