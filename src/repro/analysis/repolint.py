"""Project lint pass: AST-enforced repo rules.

Run as ``python -m repro.analysis.repolint src/`` (any mix of files and
directories).  Exit status is 0 when clean, 1 when findings exist, 2 on
usage errors.  The rules are the repo's own coding contract, enforced in
CI next to ruff/mypy; they are deliberately few and all stdlib-AST
checkable (the shared machinery lives in
:mod:`repro.analysis.astutil`; the determinism rules ``DD5xx`` live in
:mod:`repro.analysis.detcheck`):

``RL000``
    File does not parse (``SyntaxError``); reported as a finding so the
    gate fails on it like any other rule.
``RL001``
    No mutable default arguments (list/dict/set displays,
    comprehensions, or calls to ``list``/``dict``/``set``/``bytearray``
    in a parameter default).
``RL002``
    No bare ``except:`` handlers.
``RL003``
    Functions taking truth-table integers (a parameter named ``bits``,
    ``tt``, ``truth`` or ``truth_table``) must document the arity
    convention in their docstring (mention ``2**``, ``arity`` or
    ``variable``): a truth-table ``int`` is meaningless without the
    variable count that fixes its width.
``RL004``
    Public functions and public methods of public classes must be fully
    annotated (every parameter and the return type).
``RL006``
    No stale suppressions: a ``# repolint: disable=RL00x`` comment
    whose listed RL code suppresses nothing on that line (either the
    finding it once silenced is gone, or the code was never a repolint
    rule).  Codes of other analyzers (``DD5xx``) are ignored here —
    detcheck owns those.

Suppress a finding with a ``# repolint: disable=RL00x`` comment on the
offending line (the ``def``/``except``/``import`` line).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import List, Sequence

from repro.analysis.astutil import (
    Finding,
    apply_suppressions,
    iter_sources,
    parse_module,
    suppression_comments,
)

RULES = {
    "RL000": "unparsable file",
    "RL001": "mutable default argument",
    "RL002": "bare except",
    "RL003": "truth-table parameter without documented arity",
    "RL004": "public function not fully annotated",
    "RL006": "stale repolint suppression",
}

#: Backwards-compatible alias: repolint findings are plain
#: :class:`repro.analysis.astutil.Finding` rows since the toolkit split.
LintFinding = Finding

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "Counter", "deque"}
_TT_PARAM_NAMES = {"bits", "tt", "truth", "truth_table", "truth_bits"}
_TT_DOC_TOKENS = ("2**", "2 **", "arity", "variable")
#: Shape of a code RL006 takes responsibility for.  Anything else in a
#: disable comment (a DD5xx code, prose caught by the docstring of a
#: linter...) is not this rule's business.
_RL_CODE_RE = re.compile(r"^RL\d{3}$")


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one Python source text; returns all unsuppressed findings."""
    tree, syntax_finding = parse_module(source, path, syntax_code="RL000")
    if tree is None:
        return [syntax_finding] if syntax_finding is not None else []
    findings: List[Finding] = []
    _walk(tree, path, findings, class_public=True, depth=0)
    comments = suppression_comments(source)
    kept, used = apply_suppressions(findings, comments)
    kept.extend(_check_stale_suppressions(path, comments, used))
    return sorted(kept, key=lambda f: (f.line, f.col, f.code))


def _check_stale_suppressions(
    path: str, comments: dict, used: dict
) -> List[Finding]:
    """RL006 — disable comments whose RL codes silenced nothing.

    A line listing ``RL006`` itself opts out (that is how a stale-looking
    comment kept deliberately, e.g. in documentation, is excused).
    """
    out: List[Finding] = []
    for line, listed in sorted(comments.items()):
        if "RL006" in listed:
            continue
        for code in listed:
            if not _RL_CODE_RE.match(code):
                continue
            if code in used.get(line, set()):
                continue
            why = (
                "suppresses nothing on this line"
                if code in RULES
                else "is not a repolint rule"
            )
            out.append(
                Finding(path, line, 0, "RL006", f"{RULES['RL006']}: {code} {why}")
            )
    return out


def lint_paths(paths: Sequence[Path]) -> List[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    findings: List[Finding] = []
    for file, text in iter_sources(paths):
        findings.extend(lint_source(text, str(file)))
    return findings


def _walk(
    node: ast.AST, path: str, findings: List[Finding], class_public: bool, depth: int
) -> None:
    """Recurse, tracking whether the enclosing class chain is public and
    whether we are at module/class level (``depth`` counts enclosing
    function bodies: nested helpers are not part of the public surface)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            if child.type is None:
                findings.append(
                    Finding(path, child.lineno, child.col_offset, "RL002", RULES["RL002"])
                )
            _walk(child, path, findings, class_public, depth)
        elif isinstance(child, ast.ClassDef):
            _walk(
                child,
                path,
                findings,
                class_public and not child.name.startswith("_"),
                depth,
            )
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _check_function(child, path, findings, class_public, depth)
            _walk(child, path, findings, class_public, depth + 1)
        else:
            _walk(child, path, findings, class_public, depth)


def _check_function(
    fn: "ast.FunctionDef | ast.AsyncFunctionDef",
    path: str,
    findings: List[Finding],
    class_public: bool,
    depth: int,
) -> None:
    args = fn.args
    all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]

    # RL001 — mutable defaults apply to every function, public or not.
    for default in [*args.defaults, *[d for d in args.kw_defaults if d is not None]]:
        if _is_mutable_literal(default):
            findings.append(
                Finding(path, default.lineno, default.col_offset, "RL001", RULES["RL001"])
            )

    # RL003 — truth-table parameters need a documented arity convention.
    if any(a.arg in _TT_PARAM_NAMES for a in all_args):
        doc = ast.get_docstring(fn) or ""
        if not any(token in doc for token in _TT_DOC_TOKENS):
            findings.append(
                Finding(
                    path,
                    fn.lineno,
                    fn.col_offset,
                    "RL003",
                    f"{RULES['RL003']} (function {fn.name!r})",
                    symbol=fn.name,
                )
            )

    # RL004 — annotation coverage of the public surface: module-level
    # functions and methods of public classes, excluding underscore
    # names (dunders included) and nested helpers.
    if depth > 0 or fn.name.startswith("_") or not class_public:
        return
    skip = {"self", "cls"}
    missing = [a.arg for a in all_args if a.annotation is None and a.arg not in skip]
    for extra in (args.vararg, args.kwarg):
        if extra is not None and extra.annotation is None:
            missing.append(extra.arg)
    problems = []
    if missing:
        problems.append(f"unannotated parameter(s): {', '.join(missing)}")
    if fn.returns is None:
        problems.append("missing return annotation")
    if problems:
        findings.append(
            Finding(
                path,
                fn.lineno,
                fn.col_offset,
                "RL004",
                f"{RULES['RL004']} (function {fn.name!r}: {'; '.join(problems)})",
                symbol=fn.name,
            )
        )


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; returns the process exit status."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or any(a in ("-h", "--help") for a in argv):
        print(__doc__)
        return 0 if argv else 2
    paths = [Path(a) for a in argv]
    for p in paths:
        if not p.exists():
            print(f"repolint: no such path: {p}", file=sys.stderr)
            return 2
    findings = lint_paths(paths)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"repolint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
