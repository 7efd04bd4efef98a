"""The mutation sampler in tools/mutants.py, on a small fixture: each mutant
changes one token and leaves a file that parses, with its comments and
strings intact. No sample is run here: one mutant is one tier-1 run."""
import io
import tokenize

from conftest import ROOT, load_module

mutants = load_module("mutants", "tools/mutants.py")


FIXTURE = '''"""A docstring with < and + and 3, which no mutant touches."""
from os import path  # noqa: F401 (a comment every mutant keeps)

LIMIT = 0x10


def f(a, b, *, c=2):
    # a < b + 1 in a comment
    if a < b and b != c:
        return a + b * 3 // 2 % 5 ** 2
    a -= 1.5
    return -a if a >= LIMIT or b == 0 else f"{a}<{b}"
'''


def tokens(source):
    return list(tokenize.generate_tokens(io.StringIO(source).readline))


def test_each_mutant_changes_one_token_and_parses():
    sites = mutants.sites(FIXTURE)
    assert sites
    comments = [t.string for t in tokens(FIXTURE) if t.type in (tokenize.COMMENT, tokenize.STRING)]
    for site in sites:
        mutated = mutants.apply(FIXTURE, site)
        assert mutated != FIXTURE
        compile(mutated, "<mutant>", "exec")
        assert [t.string for t in tokens(mutated) if t.type in (tokenize.COMMENT, tokenize.STRING)] == comments
        before, after = tokens(FIXTURE), tokens(mutated)
        changed = [(x.string, y.string) for x, y in zip(before, after) if x.string != y.string]
        assert changed == [(site.old, site.new)]


def test_every_kind_of_site_is_found_and_none_that_would_not_parse():
    flips = {(m.old, m.new) for m in mutants.sites(FIXTURE)}
    assert {("<", "<="), (">=", ">"), ("!=", "=="), ("==", "!=")} <= flips  # comparisons
    assert {("+", "-"), ("*", "//"), ("//", "*"), ("%", "//"), ("**", "*"), ("-=", "+=")} <= flips
    assert {("and", "or"), ("or", "and")} <= flips
    assert {("0x10", "17"), ("2", "3"), ("3", "4")} <= flips  # int constants, not the float
    assert not [old for old, _ in flips if old == "1.5"]
    # the bare * of the signature would not parse as //; the unary minus flips
    assert ("-", "+") in flips
    stars = [m for m in mutants.sites(FIXTURE) if m.old == "*"]
    assert [m.row for m in stars] == [10]


def test_the_draw_is_fixed_by_the_seed():
    sites = mutants.sites(FIXTURE)
    assert mutants.draw(sites, 3, 5) == mutants.draw(sites, 3, 5)
    assert sorted(mutants.draw(sites, 3, 100)) == sorted(sites)


def test_every_allowed_survivor_names_a_line_of_its_file():
    """An entry whose line is gone no longer matches any mutant: update the
    list with the code. Each entry's mutant still parses in place."""
    for (path, line, mutant), reason in mutants.load_allowed().items():
        source = (ROOT / path).read_text(encoding="utf-8")
        matches = [text for text in source.splitlines(True) if text.strip() == line]
        assert matches, (path, line)
        original = matches[0]
        assert mutant != line and reason
        compile(source.replace(original, original.replace(line, mutant), 1), path, "exec")
