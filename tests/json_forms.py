"""JSON forms of maps and hypersurfaces, the inverses of the package's readers.

Only the round-trip tests write these forms; `map_from_json` and
`hypersurface_from_json` read them back.
"""


def map_to_json(F) -> dict:
    return {"num": [str(c) for c in F.f0], "den": [str(c) for c in F.f1]}


def hypersurface_to_json(H) -> dict:
    return {
        "n": H.n,
        "multidegree": list(H.multidegree),
        "terms": [{"exps": list(e), "coeff": str(c)} for e, c in H.terms],
    }
