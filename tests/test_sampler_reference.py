"""Backward-orbit samples against a recorded reference.

tests/data/sampler_reference.json holds `sample_invariant_measure` output for
seven maps of degree 2 to 4 and one `pullback_to_hypersurface` sample.  Every
sample must match within 1e-12 * (1 + |v|) with the same chart flag, so a
branch index never moves; degree-2 maps must match bit for bit, since their
fibers use the closed form.  Re-record with

    PYTHONPATH=src python tests/test_sampler_reference.py

only when the branch convention is meant to change.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from dynamo.hypersurface import diagonal_surface
from dynamo.measure import pullback_to_hypersurface, sample_invariant_measure
from dynamo.projective import map_from_json

REFERENCE = Path(__file__).parent / "data" / "sampler_reference.json"

MAPS = {
    "sq": {"num": ["0", "0", "1"]},                                  # z^2
    "basilica": {"num": ["-1", "0", "1"]},                           # z^2 - 1
    "cheb2": {"num": ["-2", "0", "1"]},                              # z^2 - 2
    "inv": {"num": ["1", "0", "1"], "den": ["0", "0", "2"]},         # (z^2 + 1) / (2 z^2)
    "cubic": {"num": ["1", "0", "0", "1"]},                          # z^3 + 1
    "cheb3": {"num": ["0", "-3", "0", "1"]},                         # z^3 - 3z
    "lattes": {"num": ["1", "0", "2", "0", "1"],                     # Lattes doubling
               "den": ["0", "-4", "0", "4"]},                        # on y^2 = x^3 - x
}
SEEDS = (3, 11)
N_SAMPLES = 200
DEPTH = 30
# diagonal x1 = x2 under (z^2 - 1, z^3 + 1), solved in block 1
PULLBACK = {"maps": ["basilica", "cubic"], "i": 1, "seed": 5}


def _pack(values, inverted):
    return {"re": values.real.tolist(), "im": values.imag.tolist(),
            "inverted": inverted.astype(int).tolist()}


def _unpack(rec):
    values = np.array(rec["re"]) + 1j * np.array(rec["im"])
    return values, np.array(rec["inverted"], dtype=bool)


def _pullback():
    maps = [map_from_json(MAPS[name]) for name in PULLBACK["maps"]]
    return pullback_to_hypersurface(diagonal_surface(2, 1, 2), maps, PULLBACK["i"],
                                    N_SAMPLES, DEPTH, seed=PULLBACK["seed"])


def record() -> dict:
    samples = []
    for name, spec in MAPS.items():
        F = map_from_json(spec)
        for seed in SEEDS:
            m = sample_invariant_measure(F, N_SAMPLES, DEPTH, seed=seed)
            samples.append({"map": name, "seed": seed,
                            **_pack(m.values[:, 0], m.inverted[:, 0])})
    pb = _pullback()
    pullback = {**PULLBACK, "discarded": pb.discarded,
                "columns": [_pack(pb.measure.values[:, k], pb.measure.inverted[:, k])
                            for k in range(pb.measure.width)]}
    return {"n_samples": N_SAMPLES, "depth": DEPTH, "maps": MAPS,
            "samples": samples, "pullback": pullback}


def _assert_close(got_v, got_i, ref_v, ref_i, exact):
    assert np.array_equal(got_i, ref_i)
    if exact:
        assert got_v.tobytes() == ref_v.tobytes()
    else:
        assert np.all(np.abs(got_v - ref_v) <= 1e-12 * (1 + np.abs(ref_v)))


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


def test_reference_covers_every_map_and_seed(reference):
    assert reference["maps"] == MAPS
    assert {(s["map"], s["seed"]) for s in reference["samples"]} == {
        (name, seed) for name in MAPS for seed in SEEDS}


@pytest.mark.parametrize("name", list(MAPS))
def test_samples_match_reference(reference, name):
    F = map_from_json(MAPS[name])
    for rec in reference["samples"]:
        if rec["map"] != name:
            continue
        m = sample_invariant_measure(F, reference["n_samples"], reference["depth"],
                                     seed=rec["seed"])
        ref_v, ref_i = _unpack(rec)
        _assert_close(m.values[:, 0], m.inverted[:, 0], ref_v, ref_i, exact=F.degree == 2)


def test_pullback_matches_reference(reference):
    rec = reference["pullback"]
    pb = _pullback()
    assert pb.discarded == rec["discarded"]
    for k, col in enumerate(rec["columns"]):
        ref_v, ref_i = _unpack(col)
        _assert_close(pb.measure.values[:, k], pb.measure.inverted[:, k], ref_v, ref_i,
                      exact=False)


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(record(), separators=(",", ":")) + "\n")
