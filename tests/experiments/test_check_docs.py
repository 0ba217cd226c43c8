"""The docs drift check must catch Makefile targets the docs get wrong."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
import check_docs  # noqa: E402

TARGETS = ["test", "bench-sim"]


def test_make_targets_clean_when_docs_match():
    corpus = "Run `make test`, then\n\n```\nmake bench-sim   # timing\n```\n"
    assert check_docs.check_make_targets(corpus, TARGETS) == []


def test_docs_mentioning_a_missing_target_fail():
    corpus = "`make test` and `make bench-sim`; compare with `make bench-gone`."
    errors = check_docs.check_make_targets(corpus, TARGETS)
    assert len(errors) == 1 and "'make bench-gone'" in errors[0]


def test_undocumented_target_fails():
    errors = check_docs.check_make_targets("`make test`", TARGETS)
    assert len(errors) == 1 and "'bench-sim'" in errors[0]


def test_prose_and_wrapped_code_mentions():
    """Prose ("make sure") is not a command; a code span wrapped across
    lines still is."""
    corpus = "Make sure to make sure.  See `make\ntest` and `make bench-sim`."
    assert check_docs.mentioned_make_targets(corpus) == {"test", "bench-sim"}


KNOBS = ["interval", "min_workers", "max_workers"]
TABLE = """`AutoscalerConfig` knobs:

| knob | default | meaning |
|---|---|---|
| `interval` | 1.0 | sampling period |
| `min_workers` / `max_workers` | 1 / 0 | fleet bounds |

Prose after the table mentions `cooldown`, which is not a row.
"""


def test_knob_table_clean_when_it_names_every_field():
    assert check_docs.documented_knobs(TABLE) == set(KNOBS)
    assert check_docs.check_autoscaler_knobs(TABLE, KNOBS) == []


def test_knob_missing_from_the_table_fails():
    errors = check_docs.check_autoscaler_knobs(TABLE, KNOBS + ["cooldown"])
    assert len(errors) == 1 and "AutoscalerConfig.cooldown is missing" in errors[0]


def test_stale_knob_in_the_table_fails():
    errors = check_docs.check_autoscaler_knobs(TABLE, ["interval", "min_workers"])
    assert len(errors) == 1 and "`max_workers`" in errors[0]


def test_operations_guide_names_every_autoscaler_field():
    text = (Path(check_docs.REPO) / "docs" / "OPERATIONS.md").read_text(encoding="utf-8")
    assert check_docs.check_autoscaler_knobs(text) == []



HOOKS = """| kind | emitted by | key fields |
|---|---|---|
| `ping` | `pkg.mod.Agent.beat` | `worker` |
| `pong` / `pang` | `pkg.mod` | ids |

Prose after the table.
"""


def _hook_package(root: Path, beat: str = "rec.ping(0)", reply: str = "rec.pang(2)") -> Path:
    (root / "pkg").mkdir(parents=True)
    (root / "pkg" / "__init__.py").write_text("")
    (root / "pkg" / "mod.py").write_text(
        "class Agent:\n"
        f"    def beat(self, rec):\n        {beat}\n\n"
        f"def reply(rec):\n    rec.pong(1)\n    {reply}\n"
    )
    return root


def test_hook_table_clean_when_every_site_emits_its_kinds(tmp_path):
    assert check_docs.hook_rows(HOOKS) == [(["ping"], "pkg.mod.Agent.beat"),
                                           (["pong", "pang"], "pkg.mod")]
    assert check_docs.check_hook_sites(HOOKS, _hook_package(tmp_path)) == []


def test_hook_site_without_the_call_fails(tmp_path):
    """A row naming a method that no longer emits its kind, a multi-kind
    row missing one kind, a row naming a moved method, and a missing table
    each fail."""
    errors = check_docs.check_hook_sites(HOOKS, _hook_package(tmp_path / "a", beat="pass"))
    assert errors == ["DESIGN.md hook table: `pkg.mod.Agent.beat` does not call rec.ping("]
    errors = check_docs.check_hook_sites(HOOKS, _hook_package(tmp_path / "b", reply="pass"))
    assert errors == ["DESIGN.md hook table: `pkg.mod` does not call rec.pang("]
    moved = HOOKS.replace("Agent.beat", "Agent.moved")
    errors = check_docs.check_hook_sites(moved, _hook_package(tmp_path / "c"))
    assert len(errors) == 1 and "`pkg.mod.Agent.moved` names no module" in errors[0]
    assert "no hook-site table" in check_docs.check_hook_sites("prose only")[0]


def test_design_hook_table_names_every_emitting_site():
    text = (Path(check_docs.REPO) / "DESIGN.md").read_text(encoding="utf-8")
    assert len(check_docs.hook_rows(text)) >= 10
    assert check_docs.check_hook_sites(text) == []


MEMBERS_DOC = """`Child.run` and `Child.base_hook` and `pkg.mod.Child.slot`;
`Child.LIMIT`, `Child.width` and `Child.height`.  `Child.gone` is stale.
`Elsewhere.anything` is no class under the package, and a fenced block
is an example, not a reference:

```
Child.fenced_gone
```
"""


def _member_package(root: Path) -> Path:
    (root / "pkg").mkdir(parents=True)
    (root / "pkg" / "mod.py").write_text(
        "class Base:\n"
        "    __slots__ = ('slot',)\n\n"
        "    def base_hook(self):\n        pass\n\n"
        "class Child(Base):\n"
        "    LIMIT = 3\n\n"
        "    def __init__(self):\n        self.width = 1\n        self.height: int = 2\n\n"
        "    def run(self):\n        pass\n"
    )
    return root


def test_docs_naming_a_missing_class_member_fail(tmp_path):
    """Defs, class attributes and self assignments resolve, and so do a
    base's defs and __slots__ entries; a member no class defines fails,
    once."""
    classes = check_docs.repro_classes(_member_package(tmp_path))
    errors = check_docs.check_class_members(MEMBERS_DOC, "X.md", classes)
    assert errors == ["X.md: `Child.gone` names no member of class Child (or its bases) under repro"]


def test_docs_name_only_defined_class_members():
    classes = check_docs.repro_classes()
    for doc in check_docs.iter_doc_files():
        text = doc.read_text(encoding="utf-8")
        assert check_docs.check_class_members(text, doc.name, classes) == []
