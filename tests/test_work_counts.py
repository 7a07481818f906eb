"""Work counts of two claim paths: dense squares, products and pairings.

Counts of algorithmic work do not drift with the host, so they pin what a
change saved.  A count may fall only together with the numbers here.
"""

from e8voa import cli, griess, mckay

# (owner, attribute); mckay holds its own names for conformal_check and inner
COUNTED = [(griess, "conformal_check"), (griess, "product"), (griess, "inner"),
           (griess, "apply_sigma"), (griess.HammingFamilies, "e_hat"),
           (mckay, "conformal_check"), (mckay, "inner")]


def _counting(monkeypatch):
    """Count the calls of every COUNTED attribute by name."""
    counts = {}
    for owner, name in COUNTED:
        def counted(*args, _name=name, _honest=getattr(owner, name), **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _honest(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return counts


def test_the_conway_rows_square_e_hat_once_per_node(monkeypatch):
    # the families apply sigma to build f-hat; build them before counting
    for i in range(9):
        griess.build_node_family(i)
    counts = _counting(monkeypatch)
    for i in range(9):
        mckay.conway_report(i)
    # e-hat on the nine nodes and the six omega_tilde rows, each square a
    # product and a pairing, and node 4's w_5A norm; no sigma is applied
    assert counts == {"conformal_check": 15, "product": 15, "inner": 16}


def test_the_hamming_claims_square_and_pair_each_frame_once(monkeypatch):
    griess.build_hamming_family()
    counts = _counting(monkeypatch)
    claims = [(claim, check) for claim, check in cli._hamming_claims()
              if not claim.startswith("griess/tau/")]
    assert all(r["pass"] for r in cli.run_claims(claims))
    # each Hamming vector built once; per frame 16 squares (a product and a
    # pairing each) and the 120 products and pairings of a < b
    assert counts == {"e_hat": 16, "conformal_check": 32,
                      "product": 32 + 240, "inner": 32 + 240}
