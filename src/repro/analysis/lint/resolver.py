"""Per-file AST context: imports, name resolution, suppressions.

Every rule sees the same :class:`ModuleContext` — one parse per file,
one shared import/symbol resolver — so adding a rule never adds a parse
pass.  The resolver is deliberately syntactic: it resolves dotted call
names through the module's import aliases (``from ..faults import hooks
as _faults`` makes ``_faults.fire`` resolve to ``faults.hooks.fire``)
without executing anything, which is what lets the lint plane run on
broken or partially-written trees.
"""

from __future__ import annotations

import ast
import re
import tokenize
from io import StringIO
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from .findings import Suppression

#: Strict suppression grammar (hash, "repro:", the ignore keyword, a
#: bracketed rule list, then "-- <justification>"); spelled out in the
#: parse_suppressions docstring so this comment never matches itself.
_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*ignore\[([A-Z0-9]{4,8}(?:\s*,\s*[A-Z0-9]{4,8})*)\]"
    r"\s*--\s*(.*)$")

#: Loose form used to detect *malformed* suppression attempts.
_SUPPRESSION_HINT_RE = re.compile(r"#\s*repro:\s*ignore\b")


def parse_suppressions(source: str
                       ) -> Tuple[List[Suppression], List[Tuple[int, str]]]:
    """Extract suppression comments from ``source``.

    Returns ``(suppressions, malformed)`` where ``malformed`` lists
    ``(line, reason)`` pairs for comments that *look like* suppressions
    but fail the strict grammar or carry an empty justification.
    Comments are found with :mod:`tokenize`, so a ``# repro: ignore``
    inside a string literal is never misread as a directive.
    """
    suppressions: List[Suppression] = []
    malformed: List[Tuple[int, str]] = []
    comments: List[Tuple[int, str, bool]] = []  # (line, text, standalone)
    try:
        tokens = list(tokenize.generate_tokens(StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return suppressions, malformed
    code_lines = set()
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            line = tok.start[0]
            prefix = source.splitlines()[line - 1][:tok.start[1]]
            comments.append((line, tok.string, not prefix.strip()))
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE,
                              tokenize.INDENT, tokenize.DEDENT,
                              tokenize.ENCODING, tokenize.ENDMARKER,
                              tokenize.COMMENT):
            code_lines.add(tok.start[0])
    for line, text, standalone in comments:
        if not _SUPPRESSION_HINT_RE.search(text):
            continue
        match = _SUPPRESSION_RE.search(text)
        if match is None:
            malformed.append((
                line,
                "malformed suppression; expected "
                "'# repro: ignore[RPRxxx] -- <justification>'"))
            continue
        justification = match.group(2).strip()
        if not justification:
            malformed.append((
                line, "suppression has an empty justification; state why "
                      "the finding is exempt"))
            continue
        rules = tuple(r.strip() for r in match.group(1).split(","))
        target = line
        if standalone:
            later = sorted(l for l in code_lines if l > line)
            target = later[0] if later else line
        suppressions.append(Suppression(
            line=line, target_line=target, rules=rules,
            justification=justification, raw=text))
    return suppressions, malformed


class ModuleContext:
    """One parsed source file plus its resolver state.

    Attributes
    ----------
    path / rel:
        Absolute path and project-root-relative posix path.
    tree:
        The parsed AST; every node carries a ``parent`` backlink.
    imports:
        Alias table: local name -> dotted module path with relative-
        import dots stripped (``from ..faults import hooks as _faults``
        maps ``_faults`` to ``faults.hooks``).
    """

    def __init__(self, path: Path, rel: str, source: str) -> None:
        self.path = path
        self.rel = rel
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                child.parent = node  # type: ignore[attr-defined]
        self.imports: Dict[str, str] = {}
        self._collect_imports()
        self.suppressions, self.malformed_suppressions = \
            parse_suppressions(source)

    # ------------------------------------------------------------------
    # Location helpers.
    # ------------------------------------------------------------------
    @property
    def repro_parts(self) -> Tuple[str, ...]:
        """Path components below the innermost ``repro`` package dir.

        ``src/repro/serve/service.py`` -> ``("serve", "service.py")``;
        an empty tuple when the file is not inside a ``repro`` package
        (tests, benchmarks).  Rules use this for layer scoping so they
        behave identically on the real tree and on fixture trees.
        """
        parts = Path(self.rel).parts
        for i in range(len(parts) - 1, -1, -1):
            if parts[i] == "repro":
                return tuple(parts[i + 1:])
        return ()

    def in_layer(self, *layers: str) -> bool:
        """True when the module lives under ``repro/<layer>/``."""
        parts = self.repro_parts
        return bool(parts) and parts[0] in layers

    @property
    def top_parts(self) -> Tuple[str, ...]:
        return Path(self.rel).parts

    @property
    def basename(self) -> str:
        return Path(self.rel).name

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    # ------------------------------------------------------------------
    # Name resolution.
    # ------------------------------------------------------------------
    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                module = (node.module or "").lstrip(".")
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    dotted = (f"{module}.{alias.name}" if module
                              else alias.name)
                    self.imports[local] = dotted

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        """Dotted name of ``call``'s callee, through import aliases.

        ``open(...)`` -> ``"open"``; ``time.sleep(...)`` ->
        ``"time.sleep"``; ``_faults.fire(...)`` ->
        ``"faults.hooks.fire"`` under the stack's conventional alias.
        Calls on computed expressions (subscripts, call results) resolve
        to the attribute chain that is syntactically visible, rooted at
        ``"?"`` — enough for receiver-name heuristics, never mistaken
        for a module path.
        """
        return self.resolve_name(call.func)

    def resolve_name(self, node: ast.AST) -> Optional[str]:
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            base = self.imports.get(node.id, node.id)
            parts.append(base)
        else:
            parts.append("?")
        return ".".join(reversed(parts))

    # ------------------------------------------------------------------
    # Structural walks shared by rules.
    # ------------------------------------------------------------------
    def async_functions(self) -> Iterator[ast.AsyncFunctionDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield node

    def classes(self) -> Iterator[ast.ClassDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                yield node


def direct_body_walk(func: ast.AST) -> Iterator[ast.AST]:
    """Yield nodes executed *in the frame of* ``func``.

    Descends the body but stops at nested function/lambda definitions:
    code inside a nested ``def``/``lambda`` is deferred work (e.g. a
    thunk handed to ``Backend.run_io_async``), not something the
    enclosing frame executes when it runs.
    """
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))

