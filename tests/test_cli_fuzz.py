"""Every subcommand of the CLI, run in-process on drawn argv: each run ends in
one of the documented exit codes or in argparse's usage exit, never in any
other exception.

Each command form (``cli.READS``) gets the flags it reads most of the time and
any other flag its command takes now and then; each value is mostly an
ordinary one and otherwise zero, negative, huge, non-finite or malformed.
Sizes stay small (p <= 8; at most 64 replicates, trials or simulations; one
to three workers), so no process pool starts.  The covariance sampler draws
an n x p sample per replicate, so n stays at most 1000 wherever a command
simulates; elsewhere it reaches 10^30.
"""

import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from subspace_bounds.cli import READS, SEED_ENV_VAR, TAKES, main

EXIT_CODES = {0, 2, 3, 4, 5}
OUT = "<out>"  # replaced by a path in the example's temporary directory

SPECTRA = [
    "exp:1,4", "exp:0.5,8", "exp:0.02,6", "poly:1,6", "poly:0,5", "spike:2,1,1,3",
    "spike:3,1,2,5", "spike:10,0,1,4", '{"lambdas": [3, 2, 1], "d": 1}',
    '{"lambdas": [3, 2, 2, 0.5], "d": 2}',
]
ODD_SPECTRA = [
    "spike:2,2,1,4", "spike:1,2,1,3", "spike:1e300,1e-300,1,3", "spike:1e-300,1e-310,1,3",
    "exp:1e300,4", "exp:-1000,4", "exp:1e-300,4", "poly:-1e300,4", "poly:1e300,4", "exp:1,1",
    "exp:1,0", "exp:1,-3", "exp:", "exp:1", "exp:a,b", "exp:1,nan", "exp:nan,4", "exp:inf,4",
    "exp:1,4.5", "poly:1,inf", "spike:2,1,4,3", "spike:2,1,0,3", "spike:2,1,1", "spike:nan,1,1,3",
    "nope:1", "", '{"lambdas": [1, NaN], "d": 1}', '{"lambdas": [1, Infinity, 0], "d": 1}',
    '{"lambdas": [], "d": 0}', '{"lambdas": [3, 2, 1], "d": 5}', '{"lambdas": [3, 2, 1]}',
    '{"lambdas": "ab", "d": 1}', '{"d": 1}', "{bad", '{"lambdas": [1e308, 1e308, -1e308], "d": 1}',
]
HUGE = [2**31, 2**63, 10**30, -(2**63)]
ODD_FLOATS = ["0", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "abc"]
ODD_SIGMAS = ["0", "1e300", "1e-300", "1e-150", "nan", "inf", "-inf", "-1"]


def _mostly(ordinary, odd):
    """Ordinary values about seven times in eight, odd ones otherwise."""
    return st.sampled_from([False] * 7 + [True]).flatmap(lambda o: odd if o else ordinary)


counts = _mostly(st.integers(1, 64), st.integers(-3, 0))
odd_dims = st.one_of(st.integers(-2, 10), st.sampled_from(HUGE))
small_n = _mostly(st.integers(1, 1000), st.integers(-3, 0))
POOLS = {
    "spectrum": _mostly(st.sampled_from(SPECTRA), st.sampled_from(ODD_SPECTRA)),
    "d": _mostly(st.integers(1, 3), odd_dims),
    "n": _mostly(
        st.sampled_from([1, 8, 50, 1000, 10**5, 10**6]), st.one_of(small_n, st.sampled_from(HUGE))
    ),
    "sigma": _mostly(st.sampled_from(["0.1", "0.5", "1", "2"]), st.sampled_from(ODD_SIGMAS)),
    "delta": _mostly(st.sampled_from(["1", "0.5", "3", "auto"]), st.sampled_from(ODD_FLOATS)),
    "mu": _mostly(st.sampled_from(["auto", "1.5", "2"]), st.sampled_from(ODD_FLOATS)),
    "format": _mostly(st.sampled_from(["json", "csv"]), st.just("xml")),
    "p": _mostly(st.integers(2, 8), st.integers(-2, 1)),
    "trials": counts,
    "reps": counts,
    "simulate": counts,
    "seed": _mostly(st.integers(0, 20), st.one_of(st.integers(-5, -1), st.sampled_from(HUGE))),
    "workers": _mostly(st.integers(1, 3), st.integers(-1, 0)),
    "alpha": _mostly(st.sampled_from(["1", "0.5", "2"]), st.sampled_from(ODD_FLOATS)),
    "d-min": _mostly(st.integers(1, 3), odd_dims),
    "out": st.just(OUT),
}


def _flags(draw, reads, others, pools=POOLS) -> list[str]:
    """--flag value pairs: most flags in reads, and now and then one of others."""
    chosen = [f for f in reads if draw(st.sampled_from([True] * 7 + [False]))]
    chosen += [f for f in [draw(st.sampled_from([None] * 16 + others))] if f]
    return [arg for flag in chosen for arg in (f"--{flag}", str(draw(pools[flag])))]


@st.composite
def commands(draw):
    """(argv, value of the seed variable or None)."""
    command = draw(st.sampled_from(list(READS)))
    form = draw(st.sampled_from(list(READS[command])))
    reads = READS[command][form]
    pools = POOLS
    if command == "bound":
        head = [form, *_flags(draw, ["format"], [])]
    elif command == "simulate":
        head = [*form.split()[:2], "--reps", str(draw(counts))]
        pools = {**POOLS, "n": small_n}
    elif command == "verify":
        head = [form]
    else:
        simulate = form == "--simulate"
        d_min = draw(POOLS["d-min"])
        d_max = _mostly(st.integers(d_min, d_min + 3), odd_dims)
        p = _mostly(st.integers(5, 8), st.integers(-2, 4))
        n = small_n if simulate else POOLS["n"]
        pools = {**POOLS, "p": p, "n": n, "d-min": st.just(d_min), "d-max": d_max}
        head = ["--family", draw(st.sampled_from(["exp", "poly"]))]
        head += _flags(draw, ["alpha", "d-min", "d-max"] + (["simulate"] if simulate else []), [], pools)
    others = [flag for flag in TAKES[command] if flag not in reads]
    argv = [command, *head, *_flags(draw, reads, others, pools)]
    seed_env = draw(st.sampled_from([None] * 6 + ["7", "-3", "abc", str(2**64)]))
    return argv, seed_env


# Inputs that once ended in a traceback, run on every pass besides the drawn ones.
SIMULATE_HS = ["simulate", "--loss", "hs", "--spectrum", "exp:1,3", "--d", "1", "--reps", "2"]
DENOISE = ["bound", "denoise", "--spectrum", "exp:1,3", "--d", "1"]
FOUND = [
    ([*SIMULATE_HS, "--n", "5", "--seed", "-1"], None),
    ([*SIMULATE_HS, "--n", "5"], "-3"),
    (["verify", "lp-oracle", "--trials", "1", "--seed", "-1"], None),
    (["verify", "loss-identity", "--p", "2", "--d", "1", "--trials", "1", "--seed", "-5"], None),
    ([*DENOISE, "--sigma", "1e300"], None),
    ([*DENOISE, "--sigma", "1e300", "--delta", "auto"], None),
    ([*SIMULATE_HS, "--sigma", "1e300"], None),
    (["report", "--family", "poly", "--p", "4", "--n", "0"], None),
    (["simulate", "--loss", "excess", "--spectrum", "spike:1e300,1e-300,1,3", "--n", "5",
      "--reps", "2"], None),
]


def _with_found(test):
    for command in reversed(FOUND):
        test = example(command)(test)
    return test


@settings(derandomize=True, deadline=None, max_examples=400)
@given(commands())
@_with_found
def test_any_argv_ends_in_a_known_exit_code(command):
    argv, seed_env = command
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop(SEED_ENV_VAR, None)
        if seed_env is not None:
            os.environ[SEED_ENV_VAR] = seed_env
        argv = [os.path.join(tmp, "artifact") if a == OUT else a for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
        else:
            assert code in EXIT_CODES, argv
