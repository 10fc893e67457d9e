"""The domain map regenerated from the package equals the committed tests/DOMAIN.json."""

import json

import domain


def test_domain_map_matches_the_committed_file():
    # a cell that moves on purpose is committed with `python tests/domain.py --write`
    committed = json.loads(domain.MAP_PATH.read_text(encoding="utf-8"))
    regenerated = domain.domain_map()
    for key in ("cells", "grid"):
        moved = [(old, new) for old, new in zip(committed[key], regenerated[key]) if old != new]
        assert not moved, (key, moved[:5])
    assert domain.dumps(regenerated) == domain.MAP_PATH.read_text(encoding="utf-8")
    assert len(regenerated["cells"]) == 742 and len(regenerated["grid"]) == 252
