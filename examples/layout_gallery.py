#!/usr/bin/env python3
"""Layout gallery: placement/routing studies.

For each Table I benchmark this example

1. synthesises the chip with the proposed flow,
2. prints the ASCII layout with its channel network, and
3. writes one SVG per benchmark next to this script.

Usage::

    python examples/layout_gallery.py [benchmark ...]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import get_benchmark, synthesize
from repro.viz import layout_to_svg, render_routing

#: Small benchmarks by default; pass names to study the larger ones.
DEFAULT_BENCHMARKS = ("PCR", "IVD", "Synthetic1")


def main() -> None:
    names = sys.argv[1:] or list(DEFAULT_BENCHMARKS)
    out_dir = Path(__file__).resolve().parent
    for name in names:
        case = get_benchmark(name)
        result = synthesize(case.assay, case.allocation, seed=1)
        print(f"=== {name} ===")
        print(render_routing(result.routing))
        svg_path = out_dir / f"{name.lower()}.layout.svg"
        svg_path.write_text(layout_to_svg(result.routing), encoding="utf-8")
        print(f"wrote {svg_path.name}\n")


if __name__ == "__main__":
    main()
