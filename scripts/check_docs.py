#!/usr/bin/env python
"""Documentation checks: links, doctests, and doc/implementation drift.

Eight passes, all offline:

1. **Link check** — every relative link / image target in the repo's
   markdown docs must exist on disk.  ``http(s):``/``mailto:`` URLs and
   pure ``#anchor`` fragments are skipped (no network in CI), but an
   anchorless path's file part is still checked (``DESIGN.md#9-...`` →
   ``DESIGN.md``).
2. **Doctest pass** — every module under ``src/repro`` whose source
   contains a ``>>>`` prompt is imported and run through ``doctest``;
   a module advertising examples that no longer execute fails the build.
3. **Markdown doctests** — ``>>>`` examples embedded in the checked
   markdown files (e.g. docs/OPERATIONS.md) are executed the same way,
   so operator-guide snippets cannot rot.
4. **CLI flag cross-check** — every ``--flag`` that
   ``python -m repro.experiments --help`` defines (introspected from
   ``build_parser()``) must appear in at least one checked doc, and every
   ``--flag`` the docs mention for that CLI must still exist.
5. **Makefile target cross-check** — every target in the Makefile must be
   mentioned as ``make <target>`` (in inline code or a fenced block) in at
   least one checked doc, and every ``make <target>`` the docs mention
   must name a real target.
6. **Autoscaler knob cross-check** — the knob table in
   docs/OPERATIONS.md must name exactly ``AutoscalerConfig``'s fields:
   none missing, none stale.
7. **Hook-site cross-check** — each row of DESIGN.md's
   "kind | emitted by | key fields" table must name a module, class or
   function under ``repro`` whose source calls ``rec.<kind>(`` for every
   kind of the row, so a moved or renamed hook site cannot leave a stale row.
8. **Class-member cross-check** — every ``Name.member`` in a checked doc's
   inline code whose ``Name`` is a class under ``src/repro`` must name a
   member that class or one of its bases under ``src/repro`` defines (a
   ``def``, a class attribute, a ``__slots__`` entry or a ``self.member =``
   assignment, read from the AST), so a renamed field cannot leave a stale
   name behind.  ROADMAP.md and CHANGES.md are history and not checked.

Exit status is non-zero on any failure, so CI gates on
``python scripts/check_docs.py`` (``make check-docs``).
"""

from __future__ import annotations

import argparse
import ast
import doctest
import importlib
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: markdown files whose links we guarantee (docs/ is globbed in addition)
DOC_FILES = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]

#: inline links/images: [text](target) — target up to the first unescaped ')'
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: schemes that point off-disk and are deliberately not fetched
_EXTERNAL = ("http://", "https://", "mailto:")


def iter_doc_files() -> list[Path]:
    files = [REPO / name for name in DOC_FILES if (REPO / name).exists()]
    files.extend(sorted((REPO / "docs").glob("**/*.md")))
    return files


def check_links(files: list[Path]) -> list[str]:
    errors = []
    for md in files:
        text = md.read_text(encoding="utf-8")
        # links inside fenced code blocks are illustrative, not navigable
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (md.parent / path_part).resolve()
            if not resolved.exists():
                errors.append(f"{md.relative_to(REPO)}: broken link -> {target}")
    return errors


def iter_doctest_modules() -> list[str]:
    src = REPO / "src"
    names = []
    for py in sorted((src / "repro").rglob("*.py")):
        if ">>>" in py.read_text(encoding="utf-8"):
            rel = py.relative_to(src).with_suffix("")
            parts = list(rel.parts)
            if parts[-1] == "__init__":
                parts.pop()
            names.append(".".join(parts))
    return names


def run_doctests(module_names: list[str]) -> list[str]:
    errors = []
    for name in module_names:
        module = importlib.import_module(name)
        result = doctest.testmod(module)
        if result.attempted == 0:
            errors.append(f"{name}: contains '>>>' but doctest found no examples")
        elif result.failed:
            errors.append(f"{name}: {result.failed}/{result.attempted} doctest(s) failed")
        else:
            print(f"[doctest] {name}: {result.attempted} example(s) OK")
    return errors


def run_markdown_doctests(files: list[Path]) -> list[str]:
    """Execute ``>>>`` examples embedded in the checked markdown files.

    :class:`doctest.DocTestParser` skips the prose between examples, so
    markdown needs no special fencing — any ``>>>`` block is run with a
    fresh namespace per file and its output compared exactly.
    """
    parser = doctest.DocTestParser()
    errors = []
    for md in files:
        text = md.read_text(encoding="utf-8")
        if ">>>" not in text:
            continue
        name = str(md.relative_to(REPO))
        test = parser.get_doctest(text, {}, name, str(md), 0)
        runner = doctest.DocTestRunner(verbose=False)
        result = runner.run(test, out=lambda s: None)
        if result.failed:
            errors.append(f"{name}: {result.failed}/{result.attempted} "
                          f"markdown doctest(s) failed (run with doctest "
                          f"verbose for details)")
        else:
            print(f"[doctest] {name}: {result.attempted} example(s) OK")
    return errors


#: --flags mentioned in docs near the experiments CLI are validated against
#: build_parser(); matches e.g. "--service-out" but not "--" em-dash runs
_FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]+\b")

#: flags that belong to other CLIs the docs also mention (scripts/*.py,
#: pytest, pip, git...) — not part of the experiments CLI surface
_FOREIGN_FLAGS = {
    "--baseline", "--candidate", "--measure-overhead", "--repeats",
    "--n-jobs", "--out", "--skip-doctests", "--jobs", "--setting",
    "--legacy", "--no-header", "--cache-clear", "--cov", "--help",
    "--workers", "--events", "--check", "--runs", "--warmup",
    "--benchmark-only", "--format", "--top", "--validate-chrome",
}


def cli_flags() -> list[str]:
    from repro.experiments.__main__ import build_parser

    flags = []
    for action in build_parser()._actions:
        flags.extend(opt for opt in action.option_strings if opt.startswith("--"))
    return flags


def check_cli_flags(corpus: str) -> list[str]:
    """Two-way drift check between the experiments CLI and the docs."""
    defined = set(cli_flags())
    errors = [
        f"CLI flag {flag} (python -m repro.experiments) is documented "
        f"nowhere in the checked markdown files"
        for flag in sorted(defined)
        if flag != "--help" and flag not in corpus
    ]
    mentioned = set(_FLAG_RE.findall(corpus))
    errors.extend(
        f"docs mention unknown flag {flag}: not defined by "
        f"python -m repro.experiments (stale doc or typo?)"
        for flag in sorted(mentioned - defined - _FOREIGN_FLAGS)
    )
    return errors


def makefile_targets() -> list[str]:
    targets = []
    for line in (REPO / "Makefile").read_text(encoding="utf-8").splitlines():
        m = re.match(r"^([A-Za-z0-9][A-Za-z0-9_-]*):", line)
        if m:
            targets.append(m.group(1))
    return targets


#: fenced blocks and inline code spans — where docs write commands
_CODE_RE = re.compile(r"```.*?```|`[^`]+`", re.DOTALL)
_MAKE_RE = re.compile(r"(?<![\w-])make\s+([A-Za-z0-9][\w-]*)")


def mentioned_make_targets(corpus: str) -> set[str]:
    """Targets named as ``make <target>`` inside the corpus's code."""
    return {
        m.group(1)
        for code in _CODE_RE.findall(corpus)
        for m in _MAKE_RE.finditer(code)
    }


def check_make_targets(corpus: str, targets: list[str] | None = None) -> list[str]:
    """Two-way drift check between the Makefile and the docs."""
    defined = makefile_targets() if targets is None else targets
    mentioned = mentioned_make_targets(corpus)
    errors = [
        f"Makefile target '{t}' is not mentioned as 'make {t}' in any "
        f"checked markdown file"
        for t in defined
        if t not in mentioned
    ]
    errors.extend(
        f"docs mention 'make {t}', but the Makefile has no target '{t}' "
        f"(stale doc or typo?)"
        for t in sorted(mentioned - set(defined))
    )
    return errors


#: the line that introduces the autoscaler knob table in docs/OPERATIONS.md
KNOB_TABLE = "`AutoscalerConfig` knobs:"


def documented_knobs(text: str) -> set[str]:
    """Names in backticks in the first column of the table after
    :data:`KNOB_TABLE`."""
    names: set[str] = set()
    for line in text.partition(KNOB_TABLE)[2].lstrip().splitlines():
        if not line.startswith("|"):
            break
        names.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    return names


def autoscaler_fields() -> list[str]:
    from dataclasses import fields

    from repro.service.autoscaler import AutoscalerConfig

    return [f.name for f in fields(AutoscalerConfig)]


def check_autoscaler_knobs(text: str, known: list[str] | None = None) -> list[str]:
    """Two-way drift check between ``AutoscalerConfig`` and the knob table."""
    known = autoscaler_fields() if known is None else known
    documented = documented_knobs(text)
    errors = [
        f"AutoscalerConfig.{name} is missing from the knob table in docs/OPERATIONS.md"
        for name in known
        if name not in documented
    ]
    errors.extend(
        f"docs/OPERATIONS.md knob table names `{name}`, which is not an "
        f"AutoscalerConfig field (stale doc or typo?)"
        for name in sorted(documented - set(known))
    )
    return errors


#: the header row of DESIGN.md's trace hook-site table
HOOK_TABLE = "| kind | emitted by | key fields |"


def hook_rows(text: str) -> list[tuple[list[str], str]]:
    """(kinds, site) of each row of the table headed :data:`HOOK_TABLE`."""
    rows = []
    # the first line after the header is the |---| separator
    for line in text.partition(HOOK_TABLE)[2].strip().splitlines()[1:]:
        if not line.startswith("|"):
            break
        cells = line.split("|")
        rows.append((re.findall(r"`(\w+)`", cells[1]), cells[2].strip().strip("`")))
    return rows


def _member(body: list, name: str, methods: bool):
    """The def or class ``name`` in ``body`` (or, with ``methods``, a method
    of a class in it); ``None`` if there is none."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in body:
        if isinstance(node, defs) and node.name == name:
            return node
    if methods:
        for node in body:
            if isinstance(node, ast.ClassDef):
                found = _member(node.body, name, False)
                if found is not None:
                    return found
    return None


def site_source(site: str, root: Path | None = None) -> str | None:
    """Source of what a dotted ``site`` under ``repro`` names: a module,
    then a class or function in it (a method name alone matches a method
    of any of its classes), then a member of that; ``None`` if nothing."""
    root = REPO / "src" / "repro" if root is None else root
    parts = site.split(".")
    for n in range(len(parts), 0, -1):
        path = root.joinpath(*parts[:n])
        for file in (path.with_suffix(".py"), path / "__init__.py"):
            if not file.is_file():
                continue
            text = file.read_text(encoding="utf-8")
            node = ast.parse(text)
            for i, name in enumerate(parts[n:]):
                node = _member(node.body, name, methods=i == 0)
                if node is None:
                    return None
            return ast.get_source_segment(text, node) if n < len(parts) else text
    return None


def check_hook_sites(text: str, root: Path | None = None) -> list[str]:
    """Every kind of every hook-table row is emitted where the row says."""
    rows = hook_rows(text)
    if not rows:
        return [f"DESIGN.md has no hook-site table headed {HOOK_TABLE!r}"]
    errors = []
    for kinds, site in rows:
        source = site_source(site, root)
        if source is None:
            errors.append(f"DESIGN.md hook table: `{site}` names no module, "
                          f"class or function under repro")
            continue
        errors.extend(
            f"DESIGN.md hook table: `{site}` does not call rec.{kind}("
            for kind in kinds
            if f"rec.{kind}(" not in source
        )
    return errors


def _class_defines(cls: ast.ClassDef) -> set[str]:
    """Members ``cls`` defines: defs, nested classes, class attributes,
    ``__slots__`` entries and ``self.<name> =`` assignments in its body."""
    names: set[str] = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                    if target.id == "__slots__" and isinstance(node.value, (ast.Tuple, ast.List)):
                        names.update(e.value for e in node.value.elts
                                     if isinstance(e, ast.Constant))
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for t in target.elts if isinstance(target, ast.Tuple) else [target]:
                if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                        and t.value.id == "self"):
                    names.add(t.attr)
    return names


def repro_classes(root: Path | None = None) -> dict[str, tuple[set[str], set[str]]]:
    """``name -> (members, base names)`` for every class under ``repro``;
    classes sharing a name share one entry (the union of both)."""
    root = REPO / "src" / "repro" if root is None else root
    classes: dict[str, tuple[set[str], set[str]]] = {}
    for py in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(py.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                members, bases = classes.setdefault(node.name, (set(), set()))
                members.update(_class_defines(node))
                bases.update(b.id if isinstance(b, ast.Name) else b.attr
                             for b in node.bases
                             if isinstance(b, (ast.Name, ast.Attribute)))
    return classes


#: ``Name.member`` inside inline code; the lookahead lets pairs overlap, so
#: ``pkg.Cls.member`` yields ``pkg.Cls`` and ``Cls.member``
_MEMBER_RE = re.compile(r"(?<!\w)([A-Za-z_]\w*)(?=\.([A-Za-z_]\w*))")


def check_class_members(text: str, name: str, classes: dict | None = None) -> list[str]:
    """Every ``Class.member`` the inline code of doc ``name`` mentions is
    defined on ``Class`` or on one of its bases (``classes``, by default
    :func:`repro_classes`)."""
    classes = repro_classes() if classes is None else classes

    def defines(cls: str, member: str, seen: set[str]) -> bool:
        if cls in seen or cls not in classes:
            return False
        seen.add(cls)
        members, bases = classes[cls]
        return member in members or any(defines(b, member, seen) for b in bases)

    inline = re.findall(r"`[^`]+`", re.sub(r"```.*?```", "", text, flags=re.DOTALL))
    refs = {m.groups() for code in inline for m in _MEMBER_RE.finditer(code)}
    return [
        f"{name}: `{cls}.{member}` names no member of class {cls} "
        f"(or its bases) under repro"
        for cls, member in sorted(refs)
        if cls in classes and not defines(cls, member, set())
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--skip-doctests", action="store_true",
                        help="only check markdown links and doc drift")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO / "src"))
    files = iter_doc_files()
    errors = check_links(files)
    print(f"[links] checked {len(files)} markdown file(s)")

    # drift checks read the raw text: flags and targets normally live in
    # fenced example blocks, which the link pass strips away
    corpus = "\n".join(f.read_text(encoding="utf-8") for f in files)
    flag_errors = check_cli_flags(corpus)
    target_errors = check_make_targets(corpus)
    print(f"[cli] {len(cli_flags())} flag(s) cross-checked "
          f"({len(flag_errors)} problem(s))")
    print(f"[make] {len(makefile_targets())} target(s) cross-checked "
          f"({len(target_errors)} problem(s))")
    knob_errors = check_autoscaler_knobs(
        (REPO / "docs" / "OPERATIONS.md").read_text(encoding="utf-8")
    )
    print(f"[knobs] {len(autoscaler_fields())} AutoscalerConfig field(s) "
          f"cross-checked ({len(knob_errors)} problem(s))")
    design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    hook_errors = check_hook_sites(design)
    print(f"[hooks] {len(hook_rows(design))} hook-table row(s) cross-checked "
          f"({len(hook_errors)} problem(s))")
    classes = repro_classes()
    member_errors = [
        err for f in files
        for err in check_class_members(f.read_text(encoding="utf-8"),
                                       str(f.relative_to(REPO)), classes)
    ]
    print(f"[members] class members named in the docs cross-checked "
          f"({len(member_errors)} problem(s))")
    errors.extend(flag_errors)
    errors.extend(target_errors)
    errors.extend(knob_errors)
    errors.extend(hook_errors)
    errors.extend(member_errors)

    if not args.skip_doctests:
        errors.extend(run_doctests(iter_doctest_modules()))
        errors.extend(run_markdown_doctests(files))

    for err in errors:
        print(f"ERROR: {err}", file=sys.stderr)
    if not errors:
        print("docs OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
