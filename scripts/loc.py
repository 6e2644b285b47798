#!/usr/bin/env python3
"""Workspace non-test Rust line count, tracked as a scalar in CI.

Counts non-blank, non-comment lines before the first `#[cfg(test)]` of
every `src/**/*.rs` and `crates/*/src/**/*.rs`. The `crates/compat/*`
shims stand in for published crates and are reported separately, not in
`non_test_loc`. `--file PATH` (repeatable, relative to the root) also
prints that one file's count by the same rule.

Usage: loc.py [REPO_ROOT] [--file PATH]...
"""
import argparse
from pathlib import Path


def code_lines(path: Path) -> int:
    n = 0
    in_block = False
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if in_block:
            in_block = "*/" not in line
            continue
        if line.startswith("#[cfg(test)]"):
            break
        if not line or line.startswith("//"):
            continue
        if line.startswith("/*"):
            in_block = "*/" not in line
            continue
        n += 1
    return n


def tree(src: Path) -> int:
    return sum(code_lines(p) for p in sorted(src.rglob("*.rs")))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", nargs="?", default=".", type=Path)
    ap.add_argument("--file", action="append", default=[], metavar="PATH")
    args = ap.parse_args()
    root = args.root
    crates = {"umzi (facade)": tree(root / "src")}
    for src in sorted((root / "crates").glob("*/src")):
        crates[src.parent.name] = tree(src)
    compat = sum(tree(src) for src in (root / "crates" / "compat").glob("*/src"))
    print(f"non_test_loc={sum(crates.values())}")
    for name, n in crates.items():
        print(f"  {name:<16}{n:>7}")
    print(f"compat_shim_loc={compat}")
    for rel in args.file:
        print(f"file_loc[{rel}]={code_lines(root / rel)}")


if __name__ == "__main__":
    main()
