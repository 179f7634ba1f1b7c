"""Property test of the CLI: random subcommands and flag values, good and bad,
through ``cli.main`` exit 0, 1 or 2 without an uncaught exception, and an exit
2 prints one line to stderr.

Most flag values are drawn of the type argparse converts them to (an int for
an int flag, one of the choices for a choice flag), so that most argvs reach
the command; the rest are values argparse refuses itself (a non-number for an
int or float flag, an unknown choice), whose usage error must be one line as
well.  Sizes (``--n``, ``--samples``, ``--cap``) stay small to keep each call
short.
"""

import contextlib
import io
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab.cli import CONSTRUCTIONS, DECIDERS, main
from factorlab.corpus import NAMED, by_name

FUZZ = settings(derandomize=True, max_examples=300, deadline=None)

FILES = {
    "edge": by_name("single-edge").to_text(),
    "k222": by_name("k222").to_text(),
    "edge4": "4 5 2\n0 1 2 3\n1 2 3 4\n",
    "path2": "2 4 3\n0 1\n1 2\n2 3\n",
    "empty": "3 0 0\n",
    "malformed": "3 4 2\n0 1 2\n",
}
# Placeholders replaced by paths in the test: the files above, a missing file
# and a directory.
PATHS = st.sampled_from([*FILES, "missing", "dir"])

small_ints = st.integers(min_value=-2, max_value=8)
floats = st.floats(min_value=-0.5, max_value=1.5) | st.sampled_from([math.nan, math.inf, 0.0, 1.0])
# Values argparse cannot convert to an int ("1.5" and "1e3" are floats).
not_numbers = st.sampled_from(["abc", "", "1.5", "0x1", "1e3"])
words = st.sampled_from(["z", "abc", "", "-1", "0", "3", "true", "false", "maybe",
                         "found", "absent", "inconclusive", "2,2,2", "[[0],[1],[2]]", "[[", "[]"])


def or_refused(values=small_ints, refused=not_numbers):
    """``values`` 7 times in 8, else a value argparse may refuse to convert."""
    return st.one_of(*[values] * 7, refused)


def choices(values):
    return or_refused(st.sampled_from(values), st.sampled_from(["nope", ""]))


@st.composite
def argvs(draw):
    def flag(name, values):
        # Each flag is left out 3 times in 4, so that most commands get past
        # their checks.  "--p=-1e-09", since argparse reads a bare "-1e-09" as
        # an option.
        return [f"{name}={draw(values)}"] if draw(st.integers(0, 3)) == 3 else []

    command = draw(st.sampled_from(["decide", "lattice", "construct", "verify", "corpus"]))
    if command == "decide":
        argv = ["decide", draw(choices(sorted(DECIDERS))), "@" + draw(PATHS)]
        argv += flag("--s", or_refused()) + flag("--expect", choices(["true", "false"]))
    elif command == "lattice":
        argv = ["lattice", "@" + draw(PATHS), f"--s={draw(or_refused())}"]
    elif command == "construct":
        argv = ["construct", draw(choices(sorted(CONSTRUCTIONS))),
                f"--n={draw(or_refused(st.integers(min_value=-1, max_value=14)))}",
                f"--seed={draw(or_refused())}"]
        argv += [f"--s={draw(or_refused())}", f"--p={draw(or_refused(floats))}"]
        argv += flag("--k", or_refused(st.integers(min_value=1, max_value=5))) + flag("--part-sizes", words)
    elif command == "verify":
        task = draw(choices(["cover", "factor", "denseness", "rooted"]))
        argv = ["verify", task, "--F=@" + draw(PATHS), "--H=@" + draw(PATHS)]
        if task == "rooted":
            argv.append(f"--w={draw(words | small_ints.map(str))}")
        if task == "denseness":
            argv.append(f"--p={draw(floats)}")
        argv += flag("--vstar", or_refused())
        argv += flag("--mu", or_refused(floats)) + flag("--seed", or_refused())
        argv += flag("--samples", or_refused(st.integers(min_value=-1, max_value=20)))
        argv += flag("--cap", or_refused(st.integers(min_value=-1, max_value=50)))
        argv += flag("--mode", choices(["sampled", "exhaustive"]))
        argv += flag("--family", words) + flag("--expect", words)
    else:
        argv = ["corpus", draw(st.sampled_from(["list", "nope", *sorted(NAMED)]))]
    return argv + flag("--out", st.sampled_from(["@out", "@dir"]))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fuzz")
    out = {"missing": str(root / "missing.hg"), "dir": str(root), "out": str(root / "out" / "report")}
    (root / "out").mkdir()
    for name, text in FILES.items():
        (root / f"{name}.hg").write_text(text)
        out[name] = str(root / f"{name}.hg")
    return out


@FUZZ
@given(argvs())
def test_random_commands_exit_cleanly(paths, argv):
    argv = [re.sub(r"@(\w+)$", lambda m: paths[m.group(1)], tok) for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors exit from parse_args
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 2:
        assert len(err.getvalue().strip().splitlines()) == 1, (argv, err.getvalue())
