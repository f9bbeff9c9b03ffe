import json

import pytest

from szverify import linalg4 as la
from szverify import triples as tr
from szverify.errors import VerificationError

# Frozen from the first full search run at q = 8.
EXPECTED_CANDIDATES = 49
EXPECTED_IOTA_REJECTIONS = 15
EXPECTED_WITNESSES = 3
EXPECTED_SIGMA_ORDERS = [(7, 13, 5), (7, 7, 7), (7, 13, 13)]


@pytest.fixture(scope="module")
def report(ctx8, group8):
    return tr.search_rank4(ctx8, group8)


def test_candidate_and_success_counts(report):
    assert report.q == 8
    assert report.group_order == 29120
    assert report.candidates == EXPECTED_CANDIDATES
    assert len(report.details) == EXPECTED_CANDIDATES
    assert report.successes == ()


def test_restricted_subgroups_all_small_and_solvable(report):
    orders = {d.subgroup_order for d in report.details}
    assert orders == {2, 14}
    assert all(d.solvable for d in report.details)
    assert all(d.subgroup_order < report.group_order
               for d in report.details)
    assert all(29120 % d.subgroup_order == 0 for d in report.details)


def test_reduction_status(report):
    red = report.reduction
    assert red.closed_form_size == 8
    assert red.scan_size == 456
    assert not red.fixed_set_equal
    assert red.iota_pairs_rejected == EXPECTED_IOTA_REJECTIONS
    assert red.membership_lemma_held


def test_witnesses_generate_whole_group(ctx8, group8, report):
    assert len(report.witnesses) == EXPECTED_WITNESSES
    assert [w.sigma_orders for w in report.witnesses] \
        == EXPECTED_SIGMA_ORDERS
    for w in report.witnesses:
        assert w.subgroup_order == group8.order
        conds = tr.involution_conditions(ctx8, w.triple)
        assert conds == (True, True, True)
        assert w.triple.product(ctx8) == ctx8.iota
        assert w.sigma1_inv_in_scan and w.sigma3_inv_in_scan
        # both inverses sit in the scanned fixed set, never both in the
        # closed form: the restricted search space cannot see them
        assert not (w.sigma1_inv_in_closed_form
                    and w.sigma3_inv_in_closed_form)
        assert tr.fixed_set_membership_lemma(ctx8, w.triple)


def test_no_certification(report):
    assert not report.certifies_nonexistence


def test_report_json_shape_and_determinism(ctx8, group8, report):
    d = report.to_json_dict()
    assert list(d)[0] == "schema"
    assert d["schema"] == "szverify-triples v1"
    assert d["candidates"] == EXPECTED_CANDIDATES
    assert d["successes"] == []
    assert len(d["details"]) == EXPECTED_CANDIDATES
    assert len(d["witnesses_outside_restriction"]) == EXPECTED_WITNESSES
    assert d["certifies_nonexistence"] is False
    again = tr.search_rank4(ctx8, group8).to_json_dict()
    assert json.dumps(d, sort_keys=False) == json.dumps(again,
                                                        sort_keys=False)


def test_pair_detail_rejection_reason(report):
    for d in report.details:
        j = d.to_json_dict(report.group_order)
        assert j["rejection_reason"] == "proper subgroup"
        assert j["subgroup_order"] in (2, 14)


def test_involution_conditions_negative(ctx8):
    trip = tr.ChiralTriple(ctx8.iota, ctx8.iota, ctx8.iota)
    conds = tr.involution_conditions(ctx8, trip)
    # product iota^3 = iota is an involution; both partial products are
    # the identity, which is not
    assert conds == (True, False, False)


def test_membership_lemma_preconditions(ctx8):
    trip = tr.ChiralTriple(la.identity(), la.identity(), ctx8.iota)
    # product is iota but partial product sigma1 sigma2 = I is not an
    # involution
    with pytest.raises(ValueError):
        tr.fixed_set_membership_lemma(ctx8, trip)
    trip2 = tr.ChiralTriple(ctx8.iota, ctx8.iota, ctx8.iota)
    with pytest.raises(ValueError):
        tr.fixed_set_membership_lemma(ctx8, trip2)


def test_torus_checks_q8(ctx8):
    assert tr.torus_inversion_check(ctx8)
    assert tr.torus_commutation_check(ctx8)


def test_torus_checks_q32(ctx32):
    """Exhaustive at q = 32 too: 31 torus elements, 961 ordered pairs."""
    assert tr.torus_inversion_check(ctx32)
    assert tr.torus_commutation_check(ctx32)


def test_witness_triples_from_fresh_search(ctx8, group8):
    ws = tr.find_rank4_witnesses(ctx8, group8, count=1)
    assert len(ws) == 1
    assert ws[0].subgroup_order == group8.order


def test_witness_walk_order(ctx8, group8, involutions8):
    """The walk builds (iota w1, w1 w3 iota, iota w3): w1 the first
    involution other than iota, then w3 in increasing canonical order.
    The involutions come from kernels.involution_mask."""
    f = ctx8.field
    iota = ctx8.iota
    ws = tr.find_rank4_witnesses(ctx8, group8, count=3)
    invs = [w for w in involutions8 if w != iota]
    w1 = invs[0]
    # position of each candidate triple in the walk, w3 increasing
    walk = {(la.mat_mul(f, iota, w1),
             la.mat_mul(f, w1, la.mat_mul(f, w3, iota)),
             la.mat_mul(f, iota, w3)): i for i, w3 in enumerate(invs[1:])}
    got = [w.triple.mats() for w in ws]
    assert len(got) == 3
    assert all(mats in walk for mats in got)
    steps = [walk[mats] for mats in got]
    assert steps == sorted(set(steps))
