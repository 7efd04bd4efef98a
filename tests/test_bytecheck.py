"""The byte check in tools/bytecheck.py, on two commits of a temporary git
repository that holds this package's src/: the corpus runs for real, on
blocks of up to 48 bits so that it stays quick."""
import shutil
import subprocess

from conftest import ROOT, load_module

bytecheck = load_module("bytecheck", "tools/bytecheck.py")

FAMILIES = ["blocks", "burst", "gen", "long", "tradeoff", "verify"]


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)


def commit_pair(tmp_path, edit):
    """A repository of two commits of src/, the second with edit(cli source)
    in place of wimax_il/cli.py."""
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "src", repo / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    git(repo, "init", "-q")
    cli = repo / "src" / "wimax_il" / "cli.py"
    for text in (cli.read_text(), edit(cli.read_text())):
        cli.write_text(text)
        git(repo, "add", "-A")
        git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "c")
    return repo


def check(tmp_path, capsys, edit):
    code = bytecheck.bytecheck(commit_pair(tmp_path, edit), "HEAD~1", "HEAD", 48)
    lines = capsys.readouterr().out.splitlines()
    return code, lines


def test_a_change_that_keeps_every_byte_passes(tmp_path, capsys):
    code, lines = check(tmp_path, capsys, lambda text: text + "# a comment changes no output\n")
    assert code == 0
    assert [line.split(":")[0] for line in lines] == FAMILIES
    assert all(line.endswith(" -> same") for line in lines)


def test_a_one_byte_change_fails_and_names_its_family(tmp_path, capsys):
    """tradeoff's 'wrote' line loses one byte; burst's, the same text
    elsewhere in cli.py, keeps it."""
    def edit(text):
        head, tail = text.split("def cmd_tradeoff", 1)
        return head + "def cmd_tradeoff" + tail.replace("wrote JSON report to", "wrote JSON report t", 1)

    code, lines = check(tmp_path, capsys, edit)
    assert code == 1
    assert lines[-1] == "differ: tradeoff"
    assert sum(not line.endswith(" -> same") for line in lines[:-1]) == 1
