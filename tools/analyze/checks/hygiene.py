"""codec API hygiene check.

Registry-reachable entry points are the compressor surface every caller
(the CLI, the transfer pipeline, the future qipd daemon) programs
against, so they carry two obligations:

* ``codec-nodiscard`` — a non-void codec-API definition (encode/decode/
  compress/decompress/codec_seal/inspect_container/
  read_dims/stage_bytes names) must be ``[[nodiscard]]``: dropping a
  codec result is always a bug. (qip_lint has a line-regex twin for
  declarations; this AST form sees through multi-line heads.)
* ``typed-errors`` — decode paths and registry lookups must throw the
  typed hierarchy (``DecodeError``, ``UnknownCodecError``), never raw
  ``std::runtime_error``: callers distinguish hostile-archive failures
  from internal assertions by type (see src/util/status.hpp).
"""

from __future__ import annotations

import re

from . import common

RULES = ("codec-nodiscard", "typed-errors")

# The archive-decode surface. src/util/ is deliberately absent:
# field_io.hpp is the CLI's *disk* I/O layer — its runtime_errors report
# local file problems to the operator, not hostile-archive conditions a
# caller would classify by type.
HYGIENE_DIRS = ("src/compressors/", "src/encode/", "src/lossless/",
                "src/quant/", "src/parallel/", "src/transfer/",
                "src/core/", "src/predict/")

API_NAME_RE = re.compile(
    r"^\w*(?:encode|decode|compress|decompress)\w*$"
    r"|^codec_seal$|^inspect_container$"
    r"|^read_dims$|^stage_bytes$")

REGISTRY_NAME_RE = re.compile(r"^(?:find|make|create)_\w*(?:compressor|codec)")


def run(ctx) -> None:
    if not ctx.rel.startswith(HYGIENE_DIRS):
        return
    index = ctx.index
    toks = index.tokens
    for fn in index.functions:
        if not fn.body:
            continue
        head = index.text(*fn.head)
        # -- codec-nodiscard -----------------------------------------------
        if ctx.rel.endswith(".hpp") and API_NAME_RE.match(fn.name):
            returns_value = head and "void" not in head.split()
            has_type = any(t.kind == "id" for t in
                           toks[fn.head[0]:fn.name_idx])
            if returns_value and has_type and "nodiscard" not in head:
                ctx.add("codec-nodiscard", toks[fn.name_idx].line,
                        f"codec entry point {fn.name}() returns a value "
                        "but is not [[nodiscard]]")
        # -- typed-errors --------------------------------------------------
        if not (common.is_decode_context(fn) or
                REGISTRY_NAME_RE.match(fn.name)):
            continue
        lo, hi = fn.body
        for i in range(lo, hi):
            if toks[i].kind == "id" and toks[i].text == "runtime_error" and \
                    i > lo and toks[i - 1].text in ("::", "throw"):
                # Look back past `std ::` for the throw keyword.
                j = i - 1
                while j > lo and toks[j].text in ("::", "std"):
                    j -= 1
                if toks[j].text != "throw":
                    continue
                kind = "UnknownCodecError" if \
                    REGISTRY_NAME_RE.match(fn.name) else "DecodeError"
                ctx.add("typed-errors", toks[i].line,
                        f"in {fn.name}(): raw std::runtime_error in a "
                        f"decode-facing path; throw {kind} so callers can "
                        "classify the failure (src/util/status.hpp)")
