#!/usr/bin/env python3
"""qip_lint: repo-invariant linter for the qip codebase.

Enforces the C++ conventions that clang-tidy/compilers don't catch for us
(CONTRIBUTING.md "Layout and conventions"), with a baseline file so
pre-existing, reviewed exceptions stay green while new violations fail.
The finding/baseline/suppression mechanics live in tools/qip_checklib.py
and are shared with the AST analyzer (tools/analyze/qip_analyze.py); the
old `archive-magic` and `simd-confined` regex rules moved there as the
token-level `confinement` check, which doesn't trip on strings/comments.

Rules
-----
raw-alloc        No raw `new[]` / `malloc` / `calloc` / `realloc` / `free`
                 in src/ — containers and RAII only.
raw-cast         No `reinterpret_cast` in src/ — decode paths especially
                 must use memcpy-based ByteReader primitives; reviewed
                 write-side uses are baselined.
pragma-once      Every header under src/ starts with `#pragma once`.
include-order    Within each contiguous `#include` block, paths are
                 lexicographically sorted (quoted and angle includes are
                 not mixed inside one block).
std-endl         No `std::endl` in src/ (flushes in hot loops); use '\n'.
nodiscard        Status/value-returning codec APIs in src/ headers
                 (encode/decode/compress/decompress/codec_*/container
                 names) carry [[nodiscard]].
codec-options    Per-codec *Config structs must not redeclare the common
                 CodecOptions fields (error_bound, qp, radius, kind,
                 pool); they inherit them from CodecOptions.

Usage
-----
    tools/qip_lint.py [--repo DIR] [--update-baseline]

Exit code 0 when every finding is baselined, 1 otherwise. Run with
--update-baseline only for violations that were explicitly reviewed, and
commit the updated tools/qip_lint_baseline.json with a justification in
the commit message. An inline `// qip-lint: allow(<rule>)` comment on the
offending line also suppresses a finding.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from qip_checklib import (  # noqa: E402
    Baseline, Finding, clean_lines, collect_allows, report)

RULES = (
    "raw-alloc",
    "raw-cast",
    "pragma-once",
    "include-order",
    "std-endl",
    "nodiscard",
    "codec-options",
)

RAW_ALLOC_RE = re.compile(
    r"\bnew\s+[A-Za-z_][\w:<>]*\s*\[|\b(?:malloc|calloc|realloc|free)\s*\("
)
RAW_CAST_RE = re.compile(r"\breinterpret_cast\s*<")
STD_ENDL_RE = re.compile(r"\bstd::endl\b")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*([<"][^>"]+[>"])')

# Member declarations of the common CodecOptions fields inside per-codec
# *Config structs. A leading type token keeps call sites and `cfg.qp = x`
# assignments from tripping it; the struct-body tracking in lint_file
# keeps function parameters out.
CODEC_OPTION_FIELD_RE = re.compile(
    r"^\s*(?:double|float|int|bool|std::size_t|std::int32_t|QPConfig|"
    r"InterpKind|ThreadPool\s*\*)\s*&?\s*"
    r"(?:error_bound|qp|radius|kind|pool)\s*[={;]"
)
CODEC_CONFIG_STRUCT_RE = re.compile(r"\bstruct\s+\w*Config\b")
CODEC_OPTIONS_HOME = "src/compressors/core/options.hpp"

# Codec-ish API names whose non-void results must not be silently dropped.
NODISCARD_NAME = (
    r"\w*(?:encode|decode|compress|decompress)\w*"
    r"|codec_seal|inspect_container|read_dims|stage_bytes"
)
# A declaration line: a return-type token (identifier/template/ref char)
# followed by whitespace, then the API name and an open paren. Call sites
# (`foo(`, `Obj::foo(`, `= foo(`, `return foo(`) don't match.
NODISCARD_DECL_RE = re.compile(
    r"^\s*(?!return\b)(?!.*[=!]=)(?!.*\breturn\b)(?!#)(?!.*\bvoid\s+\w)"
    r"[\w:\[\]<>,&*\s]*[\w>&*]\s+(" + NODISCARD_NAME + r")\s*\("
)


def iter_source_files(repo: Path):
    for pattern in ("src/**/*.hpp", "src/**/*.cpp"):
        yield from sorted(repo.glob(pattern))


def lint_file(repo: Path, path: Path) -> list[Finding]:
    rel = path.relative_to(repo).as_posix()
    raw_lines = path.read_text().splitlines()
    findings: list[Finding] = []
    allows = collect_allows(raw_lines, "qip-lint")
    cleaned = clean_lines(raw_lines)

    def add(rule: str, line_no: int, text: str):
        if rule in allows.get(line_no, set()):
            return
        findings.append(Finding(rule, rel, line_no, text))

    # --- line-oriented rules ---
    for idx, line in enumerate(cleaned, 1):
        if RAW_ALLOC_RE.search(line):
            add("raw-alloc", idx, raw_lines[idx - 1])
        if RAW_CAST_RE.search(line):
            add("raw-cast", idx, raw_lines[idx - 1])
        if STD_ENDL_RE.search(line):
            add("std-endl", idx, raw_lines[idx - 1])

    # --- codec-options: *Config struct bodies must not redeclare the
    # CodecOptions surface they inherit ---
    if (rel.startswith("src/compressors/") and rel.endswith(".hpp")
            and rel != CODEC_OPTIONS_HOME):
        depth = 0
        in_config = False
        for idx, line in enumerate(cleaned, 1):
            if not in_config:
                if CODEC_CONFIG_STRUCT_RE.search(line) and ";" not in line:
                    in_config = True
                    depth = line.count("{") - line.count("}")
                continue
            if CODEC_OPTION_FIELD_RE.match(line):
                add("codec-options", idx, raw_lines[idx - 1])
            depth += line.count("{") - line.count("}")
            if depth <= 0:
                in_config = False

    # --- pragma-once: first non-blank, non-comment line of a header ---
    if path.suffix == ".hpp":
        first = next(
            ((i, l) for i, l in enumerate(cleaned, 1) if l.strip()), None
        )
        if first is None or first[1].strip() != "#pragma once":
            add("pragma-once", first[0] if first else 1,
                "header must start with #pragma once")

    # --- include-order: each contiguous include block sorted, unmixed ---
    block: list[tuple[int, str]] = []

    def flush_block():
        nonlocal block
        if len(block) > 1:
            paths = [t for _, t in block]
            if paths != sorted(paths):
                add("include-order", block[0][0],
                    "unsorted include block: " + ", ".join(paths))
            kinds = {t[0] for t in paths}
            if len(kinds) > 1:
                add("include-order", block[0][0],
                    "mixed <...> and \"...\" in one include block")
        block = []

    for idx, line in enumerate(cleaned, 1):
        m = INCLUDE_RE.match(line)
        if m:
            block.append((idx, m.group(1)))
        else:
            flush_block()
    flush_block()

    # --- nodiscard on codec APIs in headers ---
    if path.suffix == ".hpp":
        for idx, line in enumerate(cleaned, 1):
            m = NODISCARD_DECL_RE.match(line)
            if not m:
                continue
            window = " ".join(cleaned[max(0, idx - 3):idx])
            if "[[nodiscard]]" not in window:
                add("nodiscard", idx, raw_lines[idx - 1])

    return findings


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repo", type=Path,
                    default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--update-baseline", action="store_true")
    args = ap.parse_args()

    repo = args.repo.resolve()
    files = list(iter_source_files(repo))
    if not files:
        print(f"qip_lint: error: no sources under {repo}/src — wrong --repo?",
              file=sys.stderr)
        return 2

    findings: list[Finding] = []
    for path in files:
        findings.extend(lint_file(repo, path))

    baseline = Baseline(repo / "tools" / "qip_lint_baseline.json")
    return report("qip_lint", findings, baseline, args.update_baseline,
                  len(files), sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
