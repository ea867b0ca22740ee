"""The docs restate no code by hand: every passage that does is a
generated block, and the committed blocks equal what ``tests.docgen``
renders from the code today (``python -m tests.docgen`` rewrites them).
"""

from __future__ import annotations

import re

import pytest

from tests import docgen

DOCS = {path.relative_to(docgen.ROOT).as_posix(): path
        for path in docgen.doc_paths()}


@pytest.mark.parametrize("doc", sorted(DOCS))
def test_generated_blocks_equal_the_rendered_ones(doc):
    text = DOCS[doc].read_text(encoding="utf-8")
    stale = [name for name, body in docgen.blocks(text)
             if body != docgen.render(name)]
    assert stale == [], f"run `python -m tests.docgen` to refresh {doc}"


def test_every_marker_opens_a_known_block_and_every_block_is_used():
    used = set()
    for doc, path in DOCS.items():
        text = path.read_text(encoding="utf-8")
        opened = re.findall(r"<!-- generated: ([\w-]+) -->", text)
        names = [name for name, _body in docgen.blocks(text)]
        assert opened == names, f"{doc}: a marker without its close"
        assert text.count("<!-- /generated -->") == len(names), doc
        assert set(names) <= set(docgen.BLOCKS), doc
        used |= set(names)
    assert used == set(docgen.BLOCKS)


def test_readme_design_and_api_list_every_subcommand():
    for doc in ("README.md", "DESIGN.md", "docs/API.md"):
        text = DOCS[doc].read_text(encoding="utf-8")
        listed = {name for name, _body in docgen.blocks(text)}
        assert listed & {"cli-synopsis", "cli-commands"}, doc


def test_a_hand_edit_inside_a_block_is_caught():
    text = "a\n<!-- generated: retry-policy -->\nstale\n<!-- /generated -->\n"
    fresh = docgen.rewrite(text)
    assert fresh != text
    assert docgen.blocks(fresh) == [("retry-policy",
                                     docgen.render("retry-policy"))]
    assert docgen.rewrite(fresh) == fresh
