"""A seeded sweep of `periodic` and `classify` across the coefficient range.

Maps of degree 2-4, with and without a denominator, at coefficient scales
10^0 to 10^300, plus maps whose coefficients mix 1..10 with 10^300, run
through `cli.run` with every warning an error.  Each run must end in exit 0,
1 or 2 within RUN_SECONDS, let no exception escape and write no warning.
The seed and the grid are fixed; a failure is a defect to fix, not a draw to
change.  Named cases pin maps that once ended in a wrong verdict or a warning.
"""

import io
import json
import random
import time

import pytest

from dynamo.cli import run

SEED = 37
DEGREES = (2, 3, 4)
SCALES = (10**0, 10**8, 10**16, 10**30, 10**100, 10**300)
MIXED_MAPS = 24  # degree 3, coefficients in [-10, 10], 40 % of them times 10^300
RUN_SECONDS = 10.0
RUNS = (["periodic", "--period", "1"], ["periodic", "--period", "2"], ["classify", "--json"])


def _coeff(rng, scale, top=False):
    c = rng.randint(1, 10) * rng.choice((-1, 1)) if top else rng.randint(-10, 10)
    return c * scale if rng.random() < 0.5 else c


def _grid() -> list:
    """(id, num, den) of the seeded maps: the scale grid, then the mixed maps."""
    rng = random.Random(SEED)
    maps = []
    for d in DEGREES:
        for scale in SCALES:
            for rational in (False, True):
                num = [_coeff(rng, scale) for _ in range(d)] + [_coeff(rng, scale, top=True)]
                den = ([_coeff(rng, scale) for _ in range(d)] + [_coeff(rng, scale, top=True)]
                       if rational else [1])
                maps.append((f"d{d}-1e{len(str(scale)) - 1}-{'rat' if rational else 'poly'}",
                             num, den))
    for k in range(MIXED_MAPS):
        num, den = ([rng.randint(-10, 10) * (10**300 if rng.random() < 0.4 else 1)
                     for _ in range(n)] for n in (4, 3))
        maps.append((f"mixed-{k}", num, den))
    return maps


# z^3 - 303z and seven monic cubics whose escaping critical orbits merged into
# infinity as floats and read as ChebyshevConjugate
ESCAPING_CUBICS = [(0, -303, 0), (-104, -378, 26), (154, -391, -10), (290, 355, -17),
                   (207, 192, 3), (346, -395, -8), (-170, -382, 6), (121, -362, -13)]
NAMED = [(f"cubic{list(c)}", [*c, 1], [1]) for c in ESCAPING_CUBICS] + [
    # den * den underflowed in the multiplier at the fixed point -6.7e-301: nan
    ("pole", [2, 3 * 10**300, 6, -1], [1, -4, -10**300]),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, num, den", [pytest.param(*case, id=case[0])
                                            for case in _grid() + NAMED])
def test_sweep_ends_in_an_exit_code(tmp_path, capsys, name, num, den):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"num": [str(c) for c in num], "den": [str(c) for c in den]}))
    for argv in RUNS:
        out, t0 = io.StringIO(), time.perf_counter()
        code = run([*argv, "--map", str(path)], out=out)
        seconds = time.perf_counter() - t0
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err and "Warning" not in err, (argv, err)
        assert seconds < RUN_SECONDS, (argv, seconds)
        if name.startswith("cubic") and argv[0] == "classify":
            assert code == 0
            assert json.loads(out.getvalue())["result"]["verdict"] == "NonExceptional"
