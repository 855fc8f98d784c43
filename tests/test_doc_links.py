"""Every relative link in the repository's Markdown files resolves."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Inline links and images: ``[text](target)`` / ``![alt](target)``.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^(```|~~~).*?^\1", re.MULTILINE | re.DOTALL)


def _markdown_files():
    for path in sorted(ROOT.rglob("*.md")):
        # Skip hidden directories (.git, caches, virtualenvs) and the
        # build and cache directories tools leave behind.
        if not any(
            part.startswith(".") or part.endswith(".egg-info")
            or part in ("__pycache__", "build", "dist")
            for part in path.relative_to(ROOT).parts[:-1]
        ):
            yield path


def _relative_targets(path: Path):
    text = _FENCE.sub("", path.read_text(encoding="utf-8"))
    for target in _LINK.findall(text):
        if re.match(r"[a-z][a-z0-9+.-]*:", target) or target.startswith("#"):
            continue  # a URL (http:, mailto:, …) or an in-page anchor
        yield target.split("#", 1)[0]


def test_relative_markdown_links_resolve():
    broken = [
        f"{path.relative_to(ROOT)}: {target}"
        for path in _markdown_files()
        for target in _relative_targets(path)
        if not (path.parent / target).exists()
    ]
    assert not broken, "broken relative links:\n" + "\n".join(broken)
