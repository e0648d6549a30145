"""Property test of the CLI exit-code contract over `synth` argv.

Every invocation must exit 0, 2, 3 or 4; stderr must be empty or exactly
one JSON {"error", "message"} line; no exception may escape and no
warning may be emitted (either would print non-JSON text on stderr).
"""
import contextlib
import io
import json
import math
import warnings

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from hurstlab import cli

#: The Schur route is O(n^2) per (h, n); keep its examples small.
DENSE_FUZZ_MAX = 1024

_H_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0, -0.5, 0.5,
                     1e-300, 0.999999999999, 1.0 + 1e-15]),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
_BIG_FLOATS = st.one_of(
    st.sampled_from([0.0, 1.0, 1e308, -1e308, 1e300, -1e300, math.inf,
                     -math.inf, math.nan, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_SEEDS = st.one_of(st.integers(0, 10),
                   st.integers(2 ** 64 - 2, 2 ** 80),
                   st.integers(-2 ** 80, -1))


@st.composite
def synth_argv(draw):
    kind = draw(st.sampled_from(["prices", "white-noise", "fgn", "fbm",
                                 "bogus"]))
    if kind in ("fgn", "fbm"):
        n = draw(st.one_of(st.integers(-3, DENSE_FUZZ_MAX),
                           st.integers(4098, 70000)))
    else:
        n = draw(st.integers(-3, 70000))
    argv = ["synth", f"--kind={kind}", f"--n={n}",
            f"--seed={draw(_SEEDS)}"]
    if draw(st.booleans()):
        argv.append(f"--h={draw(_H_VALUES)!r}")
    if draw(st.booleans()):
        argv.append(f"--vol={draw(_BIG_FLOATS)!r}")
    if draw(st.booleans()):
        argv.append(f"--drift={draw(_BIG_FLOATS)!r}")
    return argv


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=synth_argv())
def test_synth_argv_keeps_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    event(f"exit {code}")
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2, 3, 4)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
        assert out.getvalue().startswith("date,")
    else:
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}
        assert out.getvalue() == ""
