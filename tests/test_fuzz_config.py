"""Hypothesis fuzz over config JSON: no instance makes the CLI crash.

Each example writes one config and runs one subcommand through ``cli.main``
in-process, with ``--max-enum 4096``.  The exit code must be one the CLI
documents (0, 2 or 3; ``lcp`` may also say 1, "not LCP"), no exception may
escape, and stderr holds at most one line.  Every field is sometimes junk of
another type.  Sizes stay bounded so that no example can run long: primes
below 10^4, e and r at most 3, group orders up to 40, and orders past the
256 limit, which are refused before a table is built.
"""

import contextlib
import io
import json
import signal

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from lcpcodes import cli

# One example should take well under a second; this only turns a hang into
# a failure that names the example.
EXAMPLE_TIME_LIMIT_S = 10

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from(["p", "n", "x"]), st.integers(-2, 2), max_size=1),
)


def rarely(good, odd):
    """``good``, but one draw in ten ``odd`` (the simplest draw, which
    Hypothesis favours, is a good one)."""
    return st.integers(0, 9).flatmap(lambda k: odd if k == 9 else good)


def sometimes_junk(good):
    return rarely(good, JUNK)


def ints(low, high, odd):
    """An int field: mostly in [low, high], rarely from ``odd``, or junk."""
    return sometimes_junk(rarely(st.integers(low, high), odd))


PRIMES = rarely(st.sampled_from([2, 3, 5, 7, 101, 7919, 9973]), st.integers(-2, 9999))
SHAPE = {"e": ints(1, 3, st.integers(-1, 0)), "r": ints(1, 3, st.integers(-1, 0))}
COMPONENTS = rarely(
    st.fixed_dictionaries({"p": sometimes_junk(PRIMES)}, optional=SHAPE),
    st.fixed_dictionaries(
        {"p": PRIMES, "modulus": sometimes_junk(st.lists(st.integers(-3, 12), max_size=4))},
        optional=SHAPE,
    ),
)
MODULI = rarely(st.sampled_from([6, 2, 3, 4, 9, 10, 12]), st.integers(-2, 9999))
RINGS = sometimes_junk(
    st.one_of(MODULI, st.lists(sometimes_junk(COMPONENTS), min_size=1, max_size=2))
)


def family(name, key, good):
    return st.fixed_dictionaries({"family": st.just(name), key: good})


PAST_LIMIT = st.one_of(st.integers(-1, 0), st.integers(257, 10**6))
SMALL_GROUPS = st.one_of(
    family("cyclic", "n", st.integers(1, 3)), family("dihedral", "n", st.integers(1, 2))
)
FACTORS = rarely(SMALL_GROUPS, family("cyclic", "n", st.just(20)))
GROUPS = sometimes_junk(
    rarely(
        st.one_of(
            family("cyclic", "n", ints(1, 40, PAST_LIMIT)),
            family("dihedral", "n", ints(1, 20, PAST_LIMIT)),
            family("symmetric", "m", ints(1, 4, st.sampled_from([-1, 0, 6]))),
            st.fixed_dictionaries(
                {
                    "family": st.just("product"),
                    "factors": sometimes_junk(
                        rarely(
                            st.lists(FACTORS, min_size=2, max_size=3),
                            st.lists(FACTORS, max_size=1),
                        )
                    ),
                }
            ),
        ),
        st.one_of(
            st.fixed_dictionaries({"table": sometimes_junk(st.sampled_from(["", ".", "missing.txt"]))}),
            st.fixed_dictionaries({"family": JUNK}),
        ),
    )
)

# an int suits Z_m rings, a list of one part per component any ring
PARTS = st.one_of(st.integers(-5, 50), st.lists(st.integers(-5, 50), min_size=1, max_size=4))
COEFFICIENTS = sometimes_junk(
    st.one_of(st.integers(-5, 10**5), st.lists(sometimes_junk(PARTS), min_size=1, max_size=2))
)
PAIRS = sometimes_junk(st.tuples(ints(0, 3, st.integers(-1, 45)), COEFFICIENTS).map(list))
GENERATORS = sometimes_junk(st.lists(sometimes_junk(st.lists(PAIRS, max_size=3)), max_size=2))
CODES = sometimes_junk(st.fixed_dictionaries({"C": GENERATORS, "D": GENERATORS}))

CONFIGS = st.fixed_dictionaries(
    {"ring": RINGS, "group": GROUPS, "codes": CODES},
    optional={"seed": sometimes_junk(st.integers(0, 10**6))},
)
COMMANDS = st.sampled_from(
    [["lcp", "C", "D"], ["mindist", "C"], ["dual", "C"], ["code", "C"], ["crt", "C"], ["info"]]
)


class ExampleTooSlow(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise ExampleTooSlow(f"example ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)
@given(doc=CONFIGS, command=COMMANDS, as_json=st.booleans())
def test_cli_survives_any_config(tmp_path_factory, doc, command, as_json):
    path = tmp_path_factory.getbasetemp() / "fuzz_config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["--config", str(path), "--max-enum", "4096"] + ["--json"] * as_json + command
    out, err = io.StringIO(), io.StringIO()
    with time_limit(EXAMPLE_TIME_LIMIT_S), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    event(f"{command[0]} exit {code}")
    assert code in ({0, 1, 2, 3} if command[0] == "lcp" else {0, 2, 3})
    assert err.getvalue().count("\n") <= 1
