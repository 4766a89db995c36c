"""The canonical JSON text every cache key and manifest hash is built on.

:func:`repro.parallel.grid.canonical_json` is called for every cache
lookup, store and manifest, so it is kept fast, and its output must
not move: a changed byte is a changed cache key.  This pins the text
of a corpus byte for byte: every value the result cache keys while
``experiments.run_all`` runs, every value one tune run per named space
keys or ranks, and the manifests of the service's job catalog (LU, FW
and MM designs, every experiment as a sweep, and fault, campaign and
tune jobs).

Regenerate (only when a change of the cache keys is intended) with
``PYTHONPATH=src python tests/test_canonical_golden.py``.
"""

from __future__ import annotations

from pathlib import Path

from repro import experiments as E
from repro.parallel import ResultCache, cache as cache_mod, grid
from repro.service import normalize_request
from repro.tune import NAMED_SPACES, TuneSpec, named_space, run_tune
from repro.tune import search as search_mod, space as space_mod

_GOLDEN = Path(__file__).parent / "golden" / "canonical_json.txt"

#: The service's job catalog: every job shape a client submits.
_CATALOG = (
    [("design", {"app": "lu", "n": n, "p": p}) for n in range(6000, 24001, 3000)
     for p in (3, 4, 6)]
    + [("design", {"app": "fw", "n": n}) for n in (3072, 18432, 36864)]
    + [("design", {"app": "mm", "n": n}) for n in (6000, 24000)]
    + [("sweep", {"experiments": [eid]}) for eid in E.ALL_EXPERIMENTS]
    + [("sweep", {"experiments": ["fig5", "fig7"]})]
    + [("faults", {"apps": [app], "policies": [policy], "scenarios": [scenario], "seed": 7})
       for app in ("lu", "fw") for policy in ("degrade-static", "repartition")
       for scenario in ("degraded-link", "brownout")]
    + [("campaign", {"apps": [app], "replicates": 2, "stalls": stalls, "seed": 3})
       for app in ("lu", "fw") for stalls in (4, 0)]
    + [("tune", {"space": space, "seed": 5}) for space in sorted(NAMED_SPACES)]
)


def _corpus(tmp_path: Path, monkeypatch) -> list[str]:
    """The sorted distinct texts the corpus's values canonicalise to."""
    texts: set[str] = set()

    def record(value):
        text = grid.canonical_json(value)
        texts.add(text)
        return text

    for module in (cache_mod, search_mod, space_mod):
        monkeypatch.setattr(module, "canonical_json", record)
    E.run_all(jobs=1, cache=ResultCache(tmp_path / "experiments"))
    for name in sorted(NAMED_SPACES):
        run_tune(TuneSpec(space=named_space(name)), jobs=1,
                 cache=ResultCache(tmp_path / f"tune-{name}"))
    for kind, params in _CATALOG:
        record(normalize_request(kind, params))
    return sorted(texts)


def test_canonical_json_text_of_the_corpus_is_pinned(tmp_path, monkeypatch):
    want = _GOLDEN.read_text(encoding="utf-8").splitlines()
    got = _corpus(tmp_path, monkeypatch)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":  # pragma: no cover
    import tempfile

    import pytest

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        _GOLDEN.write_text("\n".join(_corpus(Path(tmp), mp)) + "\n", encoding="utf-8")
    print(f"wrote {_GOLDEN}")
