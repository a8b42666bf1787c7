"""AST visitor toolkit for the source linter.

:mod:`repro.analysis.repolint` (the ``RLxxx`` repo rules and the
``DD5xx`` determinism rules) and :mod:`repro.analysis.purity` (the
DD504 call-graph facts) are pure-stdlib AST code over the project
source.  This module holds the machinery they share so a rule module
only contains rules:

* :class:`Finding` — one ``path:line:col: CODE message`` finding.
* suppression handling — one comment syntax for every rule,
  ``# repolint: disable=CODE[,CODE...]`` on the offending line.
  :func:`suppression_comments` returns every code spelled anywhere (for
  staleness checking); :func:`apply_suppressions` drops the findings a
  comment covers and reports which codes actually fired.
* :func:`python_files` / :func:`iter_sources` — deterministic source
  discovery under a mix of files and directories.
* :func:`parse_module` — ``ast.parse`` with the ``SyntaxError`` turned
  into an ``RL000`` finding instead of an exception.
* :class:`ImportMap` — best-effort resolution of local names to dotted
  module paths (``from os import urandom as u`` makes ``u`` resolve to
  ``os.urandom``), including lazy in-function imports.
* :func:`dotted_name` — the textual dotted name of a call target.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: The suppression comment marker.  One syntax for every rule:
#: ``# repolint: disable=RL004`` and ``# repolint: disable=DD501`` work
#: the same way.
DISABLE_MARK = "repolint: disable="


@dataclass(frozen=True)
class Finding:
    """One static-analysis finding, pointing at ``path:line:col``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def python_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    out: Set[Path] = set()
    for p in paths:
        if p.is_dir():
            out.update(p.rglob("*.py"))
        elif p.suffix == ".py":
            out.add(p)
    return sorted(out)


def iter_sources(paths: Sequence[Path]) -> Iterator[Tuple[Path, str]]:
    """Yield ``(path, source_text)`` for every Python file under ``paths``."""
    for file in python_files(paths):
        yield file, file.read_text(encoding="utf-8")


def parse_module(
    source: str, path: str
) -> Tuple[Optional[ast.Module], Optional[Finding]]:
    """Parse ``source``; a ``SyntaxError`` becomes an ``RL000`` finding
    instead of an exception, so the gate fails on an unparsable file
    like on any other rule."""
    try:
        return ast.parse(source, filename=path), None
    except SyntaxError as exc:
        return None, Finding(
            path,
            exc.lineno or 0,
            exc.offset or 0,
            "RL000",
            f"unparsable file: {exc.msg}",
        )


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def suppression_comments(source: str) -> Dict[int, List[str]]:
    """Map line number -> raw codes listed in a disable comment there.

    Every spelled code is kept (valid or not, this analyzer's or
    another's); filtering against a rule universe is the caller's job.
    """
    out: Dict[int, List[str]] = {}
    for i, line in enumerate(source.splitlines(), start=1):
        if DISABLE_MARK in line:
            codes = line.split(DISABLE_MARK, 1)[1]
            listed = [c.strip() for c in codes.split(",") if c.strip()]
            if listed:
                out[i] = listed
    return out


def apply_suppressions(
    findings: Sequence[Finding], comments: Dict[int, List[str]]
) -> Tuple[List[Finding], Dict[int, Set[str]]]:
    """Drop findings whose line carries a matching disable comment.

    Returns ``(kept_findings, used)`` where ``used[line]`` is the set of
    codes that actually suppressed something on that line — the
    staleness rule (RL006) compares it against what the comment lists.
    """
    used: Dict[int, Set[str]] = {}
    kept: List[Finding] = []
    for f in findings:
        listed = comments.get(f.line, [])
        if f.code in listed:
            used.setdefault(f.line, set()).add(f.code)
        else:
            kept.append(f)
    return kept, used


# ----------------------------------------------------------------------
# Names
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """The textual dotted name of a ``Name``/``Attribute`` chain
    (``a.b.c``), or ``None`` for anything more dynamic."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportMap:
    """Best-effort local-name -> dotted-path resolution for one module.

    Collects every ``import`` / ``from ... import`` binding anywhere in
    the tree (lazy in-function imports included — they still bind the
    same dotted target).  ``resolve("u")`` returns ``"os.urandom"`` after
    ``from os import urandom as u``; :meth:`resolve_dotted` rewrites the
    leading segment of an ``a.b.c`` chain through the map, so
    ``import time as t`` makes ``t.time`` resolve to ``time.time``.
    Relative imports keep their module text (no package context here).
    """

    def __init__(self, tree: ast.Module) -> None:
        self.bindings: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    self.bindings[local] = target
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.bindings[local] = f"{mod}.{alias.name}" if mod else alias.name

    def resolve(self, name: str) -> str:
        """Resolve a bare local name (identity when unknown)."""
        return self.bindings.get(name, name)

    def resolve_dotted(self, dotted: str) -> str:
        """Resolve the leading segment of a dotted chain."""
        head, sep, rest = dotted.partition(".")
        resolved = self.bindings.get(head)
        if resolved is None:
            return dotted
        return resolved + sep + rest if rest else resolved

    def call_target(self, call: ast.Call) -> Optional[str]:
        """The resolved dotted target of a call, or ``None``."""
        name = dotted_name(call.func)
        return self.resolve_dotted(name) if name else None
