"""The domain map regenerated from the package equals the committed tests/DOMAIN.json."""

import json

import pytest

import domain
from psusyent import AlphaProfile, TruncationError, algebra, build_state
from psusyent.verify import eigenstate_residual


def test_domain_map_matches_the_committed_file():
    # a cell that moves on purpose is committed with `python tests/domain.py --write`
    committed = json.loads(domain.MAP_PATH.read_text(encoding="utf-8"))
    regenerated = domain.domain_map()
    for key in ("cells", "grid"):
        moved = [(old, new) for old, new in zip(committed[key], regenerated[key]) if old != new]
        assert not moved, (key, moved[:5])
    assert domain.dumps(regenerated) == domain.MAP_PATH.read_text(encoding="utf-8")
    assert len(regenerated["cells"]) == 742 and len(regenerated["grid"]) == 252


def test_explicit_cutoffs_hold_the_residual_at_the_rule_and_are_rejected_below_it():
    # over every ok cell: at the rule's cutoff (the default rule without its
    # floor of 32) the state holds its residual bound, and one level below is
    # rejected, a TruncationError naming that cutoff unless it is below p + 2
    cells = json.loads(domain.MAP_PATH.read_text(encoding="utf-8"))["cells"]
    ok = [cell for cell in cells if cell["verdict"] == "ok"]
    assert len(ok) == 347
    for cell in ok:
        p, z_abs = cell["p"], cell["z_abs"]
        profile = AlphaProfile.from_dict(domain.profile_object(cell["kind"], p))
        z = z_abs * domain.PHASE
        needed = algebra._cutoff(z_abs, p, p + 2)
        state = build_state(p, z, profile, n_max=needed)
        assert eigenstate_residual(state) <= domain.RESIDUAL_BOUND, cell
        with pytest.raises(ValueError) as err:
            build_state(p, z, profile, n_max=needed - 1)
        if needed > p + 2:
            assert type(err.value) is TruncationError, cell
            assert err.value.required_n_max == needed, cell
