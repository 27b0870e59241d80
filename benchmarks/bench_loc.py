"""Net ``src/`` line count: the size ledger, tracked like a benchmark.

Counts the physical lines of every ``src/**/*.py`` file in the working
tree (``change``) and at a git revision (``parent``, default ``HEAD``)
and writes ``{parent, change, delta}`` as JSON.  A change that deletes
code at equal behaviour shows up here as a negative ``delta``.  Standard
library only; the parent count reads blobs with ``git``.

Run from the repository root:

    python benchmarks/bench_loc.py                      # working tree vs HEAD
    python benchmarks/bench_loc.py --parent HEAD~1      # last commit vs its parent
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = ROOT / "benchmarks" / "baselines" / "BENCH_loc.json"


def _lines(text: str) -> int:
    """Physical lines, counted as ``wc -l`` does."""
    return text.count("\n")


def tree_lines(root: Path = ROOT) -> int:
    """Physical lines of ``src/**/*.py`` in the working tree."""
    return sum(
        _lines(path.read_text(encoding="utf-8"))
        for path in sorted((root / "src").rglob("*.py"))
    )


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True,
    ).stdout


def revision_lines(rev: str, root: Path = ROOT) -> int:
    """Physical lines of ``src/**/*.py`` at git revision ``rev``."""
    names = _git(root, "ls-tree", "-r", "--name-only", rev, "--", "src").splitlines()
    return sum(
        _lines(_git(root, "show", f"{rev}:{name}"))
        for name in sorted(names)
        if name.endswith(".py")
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD",
                        help="git revision to compare against (default: HEAD)")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help=f"output JSON path (default: {DEFAULT_OUT.relative_to(ROOT)})")
    args = parser.parse_args(argv)
    try:
        parent_rev = _git(ROOT, "rev-parse", args.parent).strip()
        parent = revision_lines(parent_rev)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"bench_loc: cannot read revision {args.parent!r}: {error}", file=sys.stderr)
        return 2
    change = tree_lines()
    record = {
        "metric": "src_python_lines",
        "parent_rev": parent_rev,
        "parent": parent,
        "change": change,
        "delta": change - parent,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
