"""Property test of the CLI: random subcommands and flag values, good and bad,
through ``cli.main`` exit 0, 1 or 2 without an uncaught exception, and an exit
2 prints one line to stderr.

Each property, variant and task draws only the flags its parser holds, and
always its required ones, so that most argvs reach the command.  Most flag
values are drawn from those the flag's parser accepts (an int for an int
flag, a non-negative one for a seed, one of the choices for a choice flag);
the rest are values the parser refuses (a non-number for an int or float
flag, a negative seed, a cap or sample count below 1, an unknown choice, text that is not
JSON), whose usage error must be one line as well.  One argv in 8 also gets a flag
of another variant, drawn with well-typed values only, and must exit 2 with
one line naming that flag.  Sizes (``--n``, ``--samples``, ``--cap``) stay
small to keep each call short.
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
files = PATHS.map(lambda name: "@" + name)
seeds = (st.integers(min_value=0, max_value=8), not_numbers | st.integers(-2, -1).map(str))
unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
outside_unit = st.sampled_from(["-0.5", "0", "1", "1.5", "nan", "inf", "abc"])

# (command, variant) -> {flag: (values, values argparse refuses or None,
# required)}: the flags each parser holds, ``--out`` aside.  Lattice and
# corpus have no variants.
EXPECT_BOOL = (st.sampled_from(["true", "false"]), st.sampled_from(["nope", ""]), False)
PAIR = {"--F": (files, None, True), "--H": (files, None, True)}
CAP = {"--cap": (st.integers(min_value=1, max_value=50), not_numbers | st.sampled_from(["0", "-1"]), False)}
CONSTRUCT = {"--n": (st.integers(min_value=-1, max_value=14), not_numbers, True),
             "--seed": (*seeds, True),
             "--k": (st.integers(min_value=1, max_value=5), not_numbers, False)}
PART_SIZES = (st.sampled_from(["2,2,2", "3", "0", "-1", "4,5,1", "4,6"]),
              st.sampled_from(["abc", "", "z", "2,,2", "[[0],[1],[2]]"]), False)
DENSENESS = {"--H": (files, None, True), "--p": (unit, outside_unit, True)}
VARIANTS = {
    **{("decide", prop): {"--expect": EXPECT_BOOL} for prop in DECIDERS if prop != "trans"},
    ("decide", "trans"): {"--s": (small_ints, not_numbers, True), "--expect": EXPECT_BOOL},
    ("lattice", None): {"--s": (small_ints, not_numbers, True)},
    ("construct", "lemma51"): {**CONSTRUCT, "--part-sizes": PART_SIZES},
    ("construct", "obs62"): {**CONSTRUCT, "--s": (small_ints, not_numbers, True), "--part-sizes": PART_SIZES},
    ("construct", "gnp"): {**CONSTRUCT, "--p": (floats, not_numbers, True)},
    ("verify", "cover"): {**PAIR, "--expect": EXPECT_BOOL},
    ("verify", "factor"): {**PAIR, **CAP, "--expect": (st.sampled_from(["found", "absent", "inconclusive"]),
                                                       st.sampled_from(["true", "fnd", ""]), False)},
    ("verify", "rooted"): {**PAIR, **CAP, "--w": (words | small_ints.map(str), None, True),
                           "--vstar": (small_ints, not_numbers, False),
                           "--expect": (st.integers(min_value=0, max_value=60), not_numbers | st.just("-1"), False)},
    ("verify", "denseness"): {**DENSENESS,
                              "--samples": (st.integers(min_value=1, max_value=20),
                                            not_numbers | st.sampled_from(["0", "-1"]), False),
                              "--seed": (*seeds, False),
                              "--family": (st.sampled_from(["[[1],[2],[3]]", "[[1, 2], [3]]", "[]", "[[0]]",
                                                            "0", "true", "[1]"]),
                                           st.sampled_from(["[[", "abc", "", "2,2,2"]), False)},
    ("verify", "exhaustive-denseness"): DENSENESS,
    ("corpus", None): {},
}
ALL_FLAGS = {flag: spec for flags in VARIANTS.values() for flag, spec in flags.items()}
assert set(CONSTRUCTIONS) | set(DECIDERS) <= {variant for _, variant in VARIANTS}


@st.composite
def argvs(draw):
    """An argv, and the flag of another variant it carries (None if none)."""
    key = draw(st.sampled_from(sorted(VARIANTS, key=str)))
    command, variant = key
    foreign = draw(st.integers(0, 7)) == 7

    def value(values, refused):
        # A refused value 1 time in 8, never next to a foreign flag, so that
        # the flag is what argparse reports.
        if foreign or refused is None or draw(st.integers(0, 7)):
            return draw(values)
        return draw(refused)

    argv = [command]
    if variant is not None:
        argv.append(variant if foreign or draw(st.integers(0, 7)) else draw(st.sampled_from(["nope", ""])))
    if command in ("decide", "lattice"):
        argv.append(draw(files))
    elif command == "corpus":
        argv.append(draw(st.sampled_from(["list", "nope", *sorted(NAMED)])))
    for name, (values, refused, required) in VARIANTS[key].items():
        # Each optional flag is left out 3 times in 4, so that most commands
        # get past their checks.  "--p=-1e-09", since argparse reads a bare
        # "-1e-09" as an option.
        if required or draw(st.integers(0, 3)) == 3:
            argv.append(f"{name}={value(values, refused)}")
    if draw(st.integers(0, 3)) == 3:
        argv.append(f"--out={draw(st.sampled_from(['@out', '@dir']))}")
    flag = None
    if foreign:
        flag = draw(st.sampled_from(sorted(set(ALL_FLAGS) - set(VARIANTS[key]))))
        argv.append(f"{flag}={draw(ALL_FLAGS[flag][0])}")
    return argv, flag


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
def test_random_commands_exit_cleanly(paths, drawn):
    argv, foreign = drawn
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
    if foreign is not None:
        assert code == 2 and f"unrecognized arguments: {foreign}=" in err.getvalue(), (argv, err.getvalue())
