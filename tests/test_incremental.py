"""The carried validity check against the full one, the tree slots a
run carries against fresh edge bitsets, the facet-indexed
precedence digraph, with and without a shared adjacency run state, against
the all-pairs scan, and the digraph's on-demand reachability against a full
closure."""

import gc
import json
import os
import random
import sys
import weakref
from collections import Counter
from math import comb

import pytest

from prodtri import orders, phases, triangulation
from prodtri.core import Circuit, Dims, Simplex, alternating_path, col_neighbors
from prodtri.flips import FlipCertificate, apply_flip, enumerate_flips, supports_flip
from prodtri.oracle import spanning_trees
from prodtri.orders import (
    PrecedenceDigraph,
    _Adjacency,
    _alternating_from,
    _move_masks,
    build_precedence,
    select_extremal,
    toward_row,
    toward_row_free,
)
from prodtri.phases import (
    FlipSequence,
    FlipStep,
    ProofGap,
    _Driver,
    apply_sequence,
    compute_TI,
    compute_TII,
    connect,
    phase_one,
    phase_three,
    phase_two,
    staircase,
)
from prodtri.triangulation import (
    LocalTriangulation,
    Triangulation,
    _edge_members,
    _TreeSlots,
    _validated_slots,
    proper,
    star,
    validate,
)
from reference import (
    adjacency_move,
    all_pairs_moves,
    all_pairs_precedence,
    facet_pairs,
    is_spanning_tree,
    reachability,
    split_circuit,
    swap_edges,
)

WALK_PATH = os.path.join(os.path.dirname(__file__), "data", "walk_4x8.json")
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_digests.json")
BENCH_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "golden.json")


@pytest.fixture(scope="module")
def walk48():
    """A 40-step random walk from staircase(8) whose connect takes mirrored
    branches in phases one and two."""
    with open(WALK_PATH) as fh:
        doc = json.load(fh)
    dims = Dims(doc["m"], doc["n"])
    tri = Triangulation(dims, [Simplex(dims, int(x, 16)) for x in doc["trees"]])
    assert tri.digest() == doc["start"]
    return tri


def _assert_carried(slots: _TreeSlots, tri: Triangulation) -> None:
    """The carried edge bitsets are ``_edge_members`` of the masks in their
    slots, a free slot holding none, and the live slots hold tri's trees.
    A flip keeps the tree count, so the added trees fill exactly the slots
    the removed ones freed.  The slot map names the same slot for each
    tree."""
    width = slots.live.bit_length()
    masks = [slots.mask(1 << p) if slots.live >> p & 1 else 0 for p in range(width)]
    assert slots.live == (1 << len(tri.maximal)) - 1
    assert sorted(x for x in masks if x) == [t.mask for t in tri.maximal]
    assert slots.members == _edge_members(tri.dims, masks)
    assert slots.slot_of == {x: 1 << p for p, x in enumerate(masks) if x}


class _Cases:
    """Wraps the cases of ``phases`` that a run may mirror.  ``open`` holds
    (case, r0, r1) of each case running, innermost last, and ``entered``
    that of every case entered."""

    NAMES = ("_case_one", "_case_two", "_case_three_claim", "_phase_two_case")

    def __init__(self, monkeypatch):
        self.open, self.entered = [], []
        for name in self.NAMES:
            monkeypatch.setattr(phases, name, self._wrap(name, getattr(phases, name)))

    def _wrap(self, name, case):
        def run(*args, r0=0, r1=1):
            self.open.append((name, r0, r1))
            self.entered.append((name, r0, r1))
            try:
                case(*args, r0=r0, r1=r1)
            finally:
                self.open.pop()

        return run

    def mirrored(self) -> bool:
        """Whether the innermost running case has rows 0 and 1 exchanged."""
        return bool(self.open) and self.open[-1][1:] == (1, 0)

    def mirrored_entries(self) -> int:
        return sum(r0 == 1 for _, r0, _ in self.entered)


class _CrossCheck:
    """Wraps the two checks of a checked run: ``_validated_slots``, the full
    check with which the driver and the replay validate their start and
    fill their slots, and ``_TreeSlots.flip`` on the carried slots after
    every flip.  Every flip's verdict is compared with the full ``validate``
    of the same triangulation, and the carried bitsets, the start's
    included, with fresh ones.  Counts the full checks and keeps each
    distinct slot state that flipped."""

    def __init__(self):
        self.compared = 0
        self.full = 0
        self.carriers: list[_TreeSlots] = []

    def install(self, monkeypatch):
        real = _TreeSlots.flip

        def flip(slots, tri, added):
            report = real(slots, tri, added)
            assert report.ok == validate(tri).ok
            _assert_carried(slots, tri)
            self.compared += 1
            if not any(s is slots for s in self.carriers):
                self.carriers.append(slots)
            return report

        def full(tri):
            self.full += 1
            slots, report = _validated_slots(tri)
            _assert_carried(slots, tri)
            return slots, report

        monkeypatch.setattr(_TreeSlots, "flip", flip)
        monkeypatch.setattr(phases, "_validated_slots", full)


def test_incremental_matches_full_on_corpus(corpus43, monkeypatch):
    cross = _CrossCheck()
    cross.install(monkeypatch)
    rng = random.Random(11)
    flips = 0
    for tri in rng.sample(corpus43.triangulations, 50):
        before = cross.full
        flips += len(connect(tri, check=True))
        assert cross.full == before + 1  # the input, once
    assert flips > 0
    assert cross.compared == flips


def test_incremental_matches_full_on_committed_walk(walk48, monkeypatch):
    cross = _CrossCheck()
    cross.install(monkeypatch)
    cases = _Cases(monkeypatch)
    seq = connect(walk48, check=True)
    assert cases.mirrored_entries(), "the walk no longer reaches a mirrored branch"
    assert cross.full == 1
    assert cross.compared == len(seq) > 0
    assert len(cross.carriers) == 1  # the driver's slots, mirrored cases included
    cross.full = cross.compared = 0
    assert apply_sequence(walk48, seq, check=True) == staircase(8)
    assert (cross.full, cross.compared) == (1, len(seq))


@pytest.mark.parametrize("phase", ["two", "three"])
def test_phases_called_directly_validate_their_start_once(phase, corpus43, monkeypatch):
    """Phase two or three called alone validates its start on entry, as
    ``connect`` does, then checks each flip from its added trees; with the
    start's trees swapped for an invalid set, it stops on entry."""
    rng = random.Random(12)
    for tri in rng.sample(corpus43.triangulations, 200):
        _, start = phase_one(tri, check=False)
        if phase == "three":
            _, start = phase_two(start, check=False)
        run = phase_two if phase == "two" else phase_three
        if len(run(start, check=False)[0]):
            break
    else:
        raise AssertionError(f"no sample member flips in phase {phase}")
    cross = _CrossCheck()
    cross.install(monkeypatch)
    for _ in range(2):  # no state records the first run's check
        cross.full = cross.compared = 0
        seq, _ = run(start, check=True)
        assert (cross.full, cross.compared) == (1, len(seq))
    cross.full = cross.compared = 0
    with pytest.raises(ProofGap, match="input does not validate"):
        run(_invalid_start(start), check=True)
    assert (cross.full, cross.compared) == (1, 0)


def _forge_one_flip(monkeypatch, at: int) -> list:
    """Makes the at-th certificate that ``phases`` obtains add, in place of
    its first added tree, a spanning tree improper with a tree the flip
    keeps; returns the list that receives (state, forged certificate)."""
    real = phases.supports_flip
    forged, seen = [], [0]

    def forging(tri, X):
        res = real(tri, X)
        if isinstance(res, FlipCertificate):
            seen[0] += 1
            if seen[0] == at:
                kept = [t for t in tri.maximal if t not in res.removed]
                u = next(
                    u
                    for u in spanning_trees(tri.dims)
                    if u not in tri.maximal and not all(proper(u, s) for s in kept)
                )
                res = FlipCertificate(res.circuit, res.link, res.removed, (u,) + res.added[1:])
                forged.append((tri, res))
        return res

    monkeypatch.setattr(phases, "supports_flip", forging)
    return forged


def test_carried_check_catches_an_improper_flip(corpus43, monkeypatch):
    """A flip whose result holds a tree improper with a kept tree stops a
    checked connect and a checked replay at that flip, the first or a
    later one: its check searches the carried slots from the added trees
    only."""
    rng = random.Random(21)
    tri = next(t for t in rng.sample(corpus43.triangulations, 50) if len(connect(t)) >= 4)
    seq = connect(tri)
    for at in (1, 3):
        with monkeypatch.context() as mp:
            forged = _forge_one_flip(mp, at)
            with pytest.raises(ProofGap, match="flip produced an invalid triangulation"):
                connect(tri, check=True)
            assert len(forged) == 1
        with monkeypatch.context() as mp:
            forged = _forge_one_flip(mp, at)
            with pytest.raises(ProofGap, match="replay produced an invalid triangulation"):
                apply_sequence(tri, seq, check=True)
            assert len(forged) == 1


def test_checked_connect_searches_once_per_flip(corpus43, walk48, monkeypatch):
    """One circuit search per flip plus the entry validation, and the edge
    bitsets built once per run, for the entry validation whose slots the
    driver carries, however many flips; an unchecked run builds none."""
    searches, builds = [], []
    real_search = triangulation._improper_partners
    real_build = triangulation._edge_members

    def search(dims, ts, members, cand):
        searches.append(len(ts))
        return real_search(dims, ts, members, cand)

    def build(dims, masks):
        builds.append(dims)
        return real_build(dims, masks)

    monkeypatch.setattr(triangulation, "_improper_partners", search)
    monkeypatch.setattr(triangulation, "_edge_members", build)
    inputs = [walk48] + random.Random(22).sample(corpus43.triangulations, 20)
    for tri in inputs:
        for check in (True, False):
            searches.clear()
            builds.clear()
            seq = connect(tri, check=check)
            if check:
                assert len(searches) == len(seq) + 1
                assert searches[0] == len(tri.maximal)  # the entry validation
                assert len(builds) == 1
            else:
                assert searches == builds == []
    assert len(seq) > 0


def _swap01(tri: Triangulation) -> Triangulation:
    """tri with rows 0 and 1 exchanged, edge by edge."""
    return Triangulation(tri.dims, [swap_edges(t, 0, 1) for t in tri.maximal])


def test_swapped_exchanges_rows_0_and_1(walk48):
    """The rows-0/1 exchange that the mirrored-case cross-checks rest on,
    against the edge sets.  On every state a connect of the committed walk
    visits, each tree's image holds edge (r, j) exactly where the tree
    holds it with rows 0 and 1 exchanged, and the image of the state is a
    valid triangulation; both parts of every circuit of the sequence map
    the same way.  Applied twice the exchange is the identity."""
    other = {0: 1, 1: 0}

    def exchanged(s: Simplex) -> set:
        return {(other.get(i, i), j) for i, j in s}

    seq = connect(walk48, check=False)
    states = _states(walk48, seq)
    assert seq.steps and any(_swap01(tri) != tri for tri in states)
    for tri in states:
        swapped = _swap01(tri)
        assert validate(swapped).ok
        assert _swap01(swapped) == tri
        for t in tri.maximal:
            image = swap_edges(t, 0, 1)
            assert set(image) == exchanged(t)
            assert swap_edges(image, 0, 1) == t
    for step in seq.steps:
        X = step.circuit
        for mask in (X.minus_mask, X.plus_mask):
            part = Simplex(X.dims, mask)
            assert set(swap_edges(part, 0, 1)) == exchanged(part)


def _forge(T: Triangulation, removed, added) -> FlipCertificate:
    genuine = enumerate_flips(T)[0]
    return FlipCertificate(genuine.circuit, genuine.link, tuple(removed), tuple(added))


def _improper_replacement(T: Triangulation):
    """(kept-out tree, spanning tree improper with some survivor)."""
    for t in T.maximal:
        survivors = [s for s in T.maximal if s != t]
        for u in spanning_trees(T.dims):
            if u not in T.maximal and not all(proper(u, s) for s in survivors):
                return t, u
    raise AssertionError("no improper replacement found")


def _invalid_start(T: Triangulation) -> Triangulation:
    """T with one tree swapped for a spanning tree improper with another."""
    out, into = _improper_replacement(T)
    return Triangulation(T.dims, [t for t in T.maximal if t != out] + [into])


def _cyclic_replacement(T: Triangulation):
    """(kept-out tree, tree-sized edge set with a cycle)."""
    t = T.maximal[0]
    n = T.dims.n
    for i in range(T.dims.m):
        for j in range(n):
            if (i, j) in t:
                continue
            grown = t.with_edge(i, j)
            for e in grown:
                cyclic = grown.without_edge(*e)
                if cyclic != t and not is_spanning_tree(cyclic):
                    return t, cyclic
    raise AssertionError("no cyclic replacement found")


@pytest.mark.parametrize("kind", ["improper_pair", "not_spanning", "cardinality"])
def test_forged_certificates_are_rejected_by_both_checks(kind, monkeypatch):
    T = staircase(3)
    assert validate(T).ok  # so the check below searches from the added trees
    if kind == "improper_pair":
        out, into = _improper_replacement(T)
        forged = _forge(T, [out], [into])
    elif kind == "not_spanning":
        out, into = _cyclic_replacement(T)
        forged = _forge(T, [out], [into])
    else:
        forged = _forge(T, [T.maximal[0]], [])
    new = apply_flip(T, forged)
    assert not _TreeSlots(T).flip(new, forged.added).ok
    full = validate(new)
    assert not full.ok and kind in {tag for tag, _ in full.violations}
    # and through the driver
    monkeypatch.setattr(phases, "supports_flip", lambda tri, X: forged)
    drv = _Driver(T, check=True)
    with pytest.raises(ProofGap, match="flip produced an invalid triangulation"):
        drv.flip(forged.circuit, "I")


def _reference_violations(tri: Triangulation, fresh) -> tuple:
    """``_check``'s report from a pairwise loop over the depth-first
    reference."""
    trees = tri.maximal
    out = [("not_spanning", trees[p]) for p in fresh if not is_spanning_tree(trees[p])]
    for a in range(len(trees)):
        for b in range(a + 1, len(trees)):
            if (a in fresh or b in fresh) and split_circuit(
                tri.dims, trees[a].mask, trees[b].mask
            ):
                out.append(("improper_pair", (trees[a], trees[b])))
    expected = comb(tri.dims.m + tri.dims.n - 2, tri.dims.m - 1)
    if len(trees) != expected:
        out.append(("cardinality", (len(trees), expected)))
    return tuple(out)


@pytest.mark.parametrize("n", [3, 4])
def test_both_checks_report_violations_in_pairwise_order(n):
    """A valid staircase loses five trees and gains three other spanning
    trees and one tree-sized member with a cycle; both checks list the same
    violations, in the same order, as the pairwise reference."""
    T = staircase(n)
    assert validate(T).ok
    rng = random.Random(f"violations:{n}")
    out, cyclic = _cyclic_replacement(T)
    kept = [t for t in T.maximal if t != out]
    for t in rng.sample(kept, 4):
        kept.remove(t)
    strangers = [u for u in spanning_trees(T.dims) if u not in T.maximal]
    added = rng.sample(strangers, 3) + [cyclic]
    forged = Triangulation(T.dims, kept + added)
    fresh = [p for p, t in enumerate(forged.maximal) if t in added]
    want = _reference_violations(forged, fresh)
    tags = [tag for tag, _ in want]
    assert tags.count("improper_pair") >= 3 and tags.count("not_spanning") == 1
    assert "cardinality" in tags
    assert _TreeSlots(T).flip(forged, added).violations == want
    assert want == _reference_violations(forged, range(len(forged.maximal)))
    assert validate(forged).violations == want


def test_replay_validates_fully_on_entry(monkeypatch):
    """An improper pair that a replayed flip never touches is caught only by
    a full check, so a checked replay runs one on its start, once, before
    it checks each flip from the added trees."""
    T = staircase(3)
    for cert in enumerate_flips(T):
        for t in T.maximal:
            for u in spanning_trees(T.dims):
                if u in T.maximal or t in cert.removed:
                    continue
                bad = Triangulation(T.dims, [s for s in T.maximal if s != t] + [u])
                try:
                    there = supports_flip(bad, cert.circuit)
                except ValueError:  # links differ without a witness
                    continue
                if not isinstance(there, FlipCertificate) or u in there.removed:
                    continue
                after = apply_flip(bad, there)
                if validate(after).ok:
                    continue
                # the flip's own check, from the added trees, would pass it
                if not _TreeSlots(bad).flip(after, there.added).ok:
                    continue
                seq = FlipSequence(
                    T.dims, bad.digest(), after.digest(), (FlipStep(cert.circuit, "I", ()),)
                )
                assert apply_sequence(bad, seq, check=False) == after
                cross = _CrossCheck()
                cross.install(monkeypatch)
                with pytest.raises(ProofGap, match="input does not validate"):
                    apply_sequence(bad, seq, check=True)
                assert (cross.full, cross.compared) == (1, 0)
                return
    raise AssertionError("no flip survives an improper replacement")


def test_checked_entry_points_refuse_an_invalid_start(monkeypatch):
    """With check, connect, phases one to three called alone and the replay
    of a one-step and of a zero-step sequence refuse a start with an
    improper pair on entry, whether or not a flip follows; without check,
    none of them validates it."""
    bad = _invalid_start(staircase(3))
    assert not validate(bad).ok
    cert = enumerate_flips(bad)[0]
    after = apply_flip(bad, cert)
    one = FlipSequence(bad.dims, bad.digest(), after.digest(), (FlipStep(cert.circuit, "I", ()),))
    zero = FlipSequence(bad.dims, bad.digest(), bad.digest(), ())
    runs = [connect, phase_one, phase_two, phase_three]
    runs += [lambda tri, check, seq=seq: apply_sequence(tri, seq, check) for seq in (one, zero)]
    entries = []
    real = phases._validated_slots
    monkeypatch.setattr(phases, "_validated_slots", lambda tri: entries.append(tri) or real(tri))
    for run in runs:
        entries.clear()
        with pytest.raises(ProofGap, match="input does not validate"):
            run(bad, check=True)
        assert entries == [bad]
        entries.clear()
        try:
            run(bad, check=False)
        except ProofGap as gap:  # the case analysis may still fail on it
            assert str(gap) != "input does not validate"
        assert entries == []
    assert apply_sequence(bad, one, check=False) == after
    assert apply_sequence(bad, zero, check=False) == bad


def test_genuine_flips_pass_both_checks():
    T = staircase(3)
    assert validate(T).ok
    for cert in enumerate_flips(T):
        new = apply_flip(T, cert)
        assert _TreeSlots(T).flip(new, cert.added).ok
        assert validate(new).ok


def test_incremental_refuses_a_mismatched_flip():
    T = staircase(3)
    assert validate(T).ok
    stranger = next(u for u in spanning_trees(T.dims) if u not in T.maximal)
    with pytest.raises(ValueError, match="added"):
        _TreeSlots(T).flip(T, [stranger])
    other = apply_flip(T, enumerate_flips(T)[0])
    with pytest.raises(ValueError, match="not held by the slots"):
        _TreeSlots(T).flip(other, [])


# ------------------------------------------------------------ facet index


def _filters(m: int):
    out = [toward_row(i) for i in range(m)]
    out += [toward_row_free(i1, i2) for i1 in range(m) for i2 in range(m) if i1 != i2]
    return out


def _same_arcs(tri, filters, adjacency=None):
    moves = all_pairs_moves(tri)
    for accept in filters:
        fast = build_precedence(tri, accept, adjacency)
        slow = all_pairs_precedence(tri, accept, moves)
        assert fast.arcs == slow.arcs
        assert fast.nodes == slow.nodes


def test_facet_index_matches_all_pairs_on_corpus(corpus43):
    rng = random.Random(5)
    for tri in rng.sample(corpus43.triangulations, 40):
        _same_arcs(tri, _filters(4))


def test_facet_index_matches_all_pairs_on_stars(corpus43):
    rng = random.Random(6)
    for tri in rng.sample(corpus43.triangulations, 30):
        t = rng.choice(tri.maximal)
        edges = list(t)
        for base in (edges[:1], rng.sample(edges, 2)):
            local = star(tri, Simplex.from_edges(tri.dims, base))
            assert isinstance(local, LocalTriangulation)
            _same_arcs(local, _filters(4))


def test_facet_index_matches_all_pairs_on_walk_states(walk48):
    seq = connect(walk48, check=False)
    tri = walk48
    filters = [toward_row(2), toward_row_free(2, 3), toward_row_free(0, 3)]
    for k, step in enumerate(seq.steps):
        if k % 6 == 0:
            _same_arcs(tri, filters)
        tri = apply_flip(tri, supports_flip(tri, step.circuit))


def _tree_sized_sets(rng: random.Random, dims: Dims, count: int) -> list:
    """count collections of 30 random edge sets of m + n - 1 edges each,
    trees or not."""
    m, n = dims
    out = []
    for _ in range(count):
        masks = set()
        while len(masks) < 30:
            masks.add(sum(1 << e for e in rng.sample(range(m * n), m + n - 1)))
        out.append(Triangulation(dims, [Simplex(dims, x) for x in masks]))
    return out


def test_facet_index_matches_all_pairs_on_tree_sized_sets(trees43):
    """Collections that are no triangulation: random spanning trees, some
    pairs of which do not meet properly, and tree-sized edge sets, some of
    which hold a cycle."""
    rng = random.Random(4)
    collections = [Triangulation(Dims(4, 3), rng.sample(trees43, 30)) for _ in range(10)]
    for tri in collections + _tree_sized_sets(rng, Dims(4, 3), 10):
        _same_arcs(tri, _filters(4))


def test_build_precedence_refuses_members_that_are_not_tree_sized():
    d = Dims(2, 2)
    base = Simplex.from_edges(d, [(0, 0)])
    forest = Simplex.from_edges(d, [(0, 0), (1, 1)])
    local = LocalTriangulation(d, base, [forest])
    with pytest.raises(ValueError, match="tree-sized"):
        build_precedence(local, toward_row(0))


def test_run_state_refuses_an_arriving_member_that_is_not_tree_sized(corpus43):
    """A run state checks the members that arrive: after accepting valid
    collections, it refuses one whose single new member is not tree-sized,
    with the message a fresh state gives, and stays as it was."""
    rng = random.Random(10)
    tri, other = rng.sample(corpus43.triangulations, 2)
    adjacency = _Adjacency(tri.dims)
    build_precedence(other, toward_row(0), adjacency)
    build_precedence(tri, toward_row(0), adjacency)
    kept = _snapshot(adjacency)
    short = tri.maximal[0].without_edge(*tri.maximal[0].edges[0])
    bad = LocalTriangulation(tri.dims, Simplex(tri.dims), [*tri.maximal[1:], short])
    with pytest.raises(ValueError, match="tree-sized") as err:
        build_precedence(bad, toward_row(0), adjacency)
    with pytest.raises(ValueError) as fresh:
        build_precedence(bad, toward_row(0))
    assert str(err.value) == str(fresh.value)
    assert _snapshot(adjacency) == kept
    _same_arcs(tri, _filters(4), adjacency)


# ------------------------------------------------------------ run state


def test_shared_table_matches_all_pairs_on_walk_states(walk48):
    """One run state serves every state connect passes through and the
    rows-0/1 swap of each; every state is compared with four of the
    filters in turn, so each filter meets a quarter of the states."""
    states = [walk48]
    for step in connect(walk48, check=False).steps:
        states.append(apply_flip(states[-1], supports_flip(states[-1], step.circuit)))
    assert len(states) >= 4
    filters = _filters(4)
    adjacency = _Adjacency(walk48.dims)
    for k, tri in enumerate(states):
        for state in (tri, _swap01(tri)):
            _same_arcs(state, [filters[(4 * k + r) % 16] for r in range(4)], adjacency)


def test_shared_table_matches_all_pairs_on_corpus(corpus43):
    rng = random.Random(7)
    sample = rng.sample(corpus43.triangulations, 60)
    adjacency = _Adjacency(corpus43.dims)
    for tri in sample[:20]:
        build_precedence(tri, toward_row(0), adjacency)
    assert adjacency.links.keys() == {t.mask for t in sample[19].maximal}
    assert any(adjacency.links.values())
    for tri in sample[20:]:
        _same_arcs(tri, _filters(4), adjacency)


def test_shared_table_matches_all_pairs_on_stars(corpus43):
    rng = random.Random(8)
    adjacency = _Adjacency(corpus43.dims)
    for tri in rng.sample(corpus43.triangulations, 10):
        build_precedence(tri, toward_row(1), adjacency)
    for tri in rng.sample(corpus43.triangulations, 20):
        t = rng.choice(tri.maximal)
        edges = list(t)
        for base in (edges[:1], rng.sample(edges, 2)):
            _same_arcs(star(tri, Simplex.from_edges(tri.dims, base)), _filters(4), adjacency)


def test_table_never_answers_for_other_dims(corpus43):
    """A run state is bound to its dims: the same masks read as 3x4
    members are refused, not answered from the 4x3 classifications, and
    leave the state as it was; a state of their own answers for them."""
    rng = random.Random(9)
    adjacency = _Adjacency(corpus43.dims)
    other = Dims(3, 4)
    for tri in rng.sample(corpus43.triangulations, 20):
        build_precedence(tri, toward_row(0), adjacency)
        assert adjacency.dims == tri.dims and adjacency.links
        kept = _snapshot(adjacency)
        reread = Triangulation(other, [Simplex(other, t.mask) for t in tri.maximal])
        with pytest.raises(ValueError, match="run state of"):
            build_precedence(reread, toward_row(0), adjacency)
        assert _snapshot(adjacency) == kept
        _same_arcs(reread, _filters(3), _Adjacency(other))


def test_driver_run_owns_its_table(walk48, monkeypatch):
    """A driver owns one run state, fresh and its own, and every digraph of
    its run is built on it, mirrored cases included."""
    drv = _Driver(walk48, check=True)
    home = drv.adjacency
    assert isinstance(home, _Adjacency) and not home.links
    assert home is not _Driver(walk48).adjacency
    cases = _Cases(monkeypatch)
    calls = _record_digraphs(monkeypatch)
    _, start = phase_one(walk48, _driver=drv)
    phase_two(start, _driver=drv)
    assert cases.mirrored_entries()
    assert calls and all(adjacency is home for _, adjacency, _, _ in calls)
    assert drv.adjacency is home and home.links
    _assert_carried(drv.slots, drv.T)


def _golden_inputs(prefix: str = "") -> list:
    """The golden inputs whose names start with prefix, in file order."""
    with open(GOLDEN_PATH) as fh:
        entries = json.load(fh)["inputs"]
    out = []
    for e in entries:
        if e["name"].startswith(prefix):
            dims = Dims(e["m"], e["n"])
            out.append(Triangulation(dims, [Simplex(dims, int(x, 16)) for x in e["trees"]]))
    return out


def _golden_witnesses() -> list:
    return _golden_inputs("witness:")


@pytest.fixture(scope="module")
def golden_runs():
    """One checked connect of each golden input, as (the ``_move_masks``
    calls of each run, counted by pair; each case-3 claim of the runs as
    (whether its other side set was empty on entry, the inner picks it
    made))."""
    real_moves = orders._move_masks
    real_claim, real_path = phases._case_three_claim, phases._extremal_path
    counts, labels, runs, claims = Counter(), [], [], []

    def counting(dims, a, b):
        counts[a, b] += 1
        return real_moves(dims, a, b)

    def extremal_path(drv, trees, move, ends, label):
        labels.append(label)
        return real_path(drv, trees, move, ends, label)

    def claim(drv, X, tau_I, sigma_I, c1, c2, *, r0, r1):
        other_empty = not phases._case_three_side(drv.T, X, c1, r1, r0)
        start = len(labels)
        real_claim(drv, X, tau_I, sigma_I, c1, c2, r0=r0, r1=r1)
        claims.append((other_empty, labels[start:].count("case 3 inner")))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orders, "_move_masks", counting)
        mp.setattr(phases, "_extremal_path", extremal_path)
        mp.setattr(phases, "_case_three_claim", claim)
        for tri in _golden_inputs():
            counts.clear()
            connect(tri, check=True)
            runs.append(counts.copy())
    return runs, claims


def _states(tri: Triangulation, seq: FlipSequence) -> list:
    """The states that replaying seq from tri visits, tri first."""
    states = [tri]
    for step in seq.steps:
        states.append(apply_flip(states[-1], supports_flip(states[-1], step.circuit)))
    return states


def test_swapped_driver_matches_a_fresh_state(walk48, monkeypatch):
    """After every flip a mirrored case applies in a checked run, on the
    committed walk and the eight golden branch witnesses, the defect sets
    are those of the working triangulation and the slots hold its trees in
    fresh bitsets; every run keeps its one run state to the end."""
    drivers, mirrored_flips = [], []
    cases = _Cases(monkeypatch)
    real_init, real_apply = _Driver.__init__, _Driver.apply

    def init(drv, *args, **kwargs):
        real_init(drv, *args, **kwargs)
        drivers.append((drv, drv.adjacency))

    def apply(drv, cert, phase, **inner):
        real_apply(drv, cert, phase, **inner)
        if cases.mirrored():
            mirrored_flips.append(phase)
            assert drv.TI == compute_TI(drv.T) and drv.TII == compute_TII(drv.T)
            _assert_carried(drv.slots, drv.T)

    monkeypatch.setattr(_Driver, "__init__", init)
    monkeypatch.setattr(_Driver, "apply", apply)
    witnesses = _golden_witnesses()
    assert len(witnesses) == 8
    mirrored_runs = 0
    for tri in [walk48] + witnesses:
        drivers.clear()
        mirrored_flips.clear()
        seq = connect(tri, check=True)
        ((drv, home),) = drivers
        assert drv.adjacency is home
        assert drv.T == staircase(tri.dims.n) and len(drv.steps) == len(seq)
        _assert_carried(drv.slots, drv.T)
        mirrored_runs += bool(mirrored_flips)
    assert mirrored_runs >= 2


def test_a_gap_in_a_mirrored_case_names_a_state_the_run_visits(walk48, monkeypatch):
    """``supports_flip`` refuses the first asserted flip of a mirrored
    phase-one case in a checked connect of the committed walk.  The
    ``ProofGap`` gives the digest of the state the run had reached, which
    replaying its sequence visits, and the circuit the run records at that
    step, in the run's own rows."""
    seq = connect(walk48, check=False)
    states = _states(walk48, seq)
    cases = _Cases(monkeypatch)
    refused = []
    real_flip = _Driver.flip

    def flip(drv, X, phase, **inner):
        if phase == "I" and cases.mirrored() and not refused:
            refused.append(len(drv.steps))
            monkeypatch.setattr(phases, "supports_flip", lambda tri, X: None)
        real_flip(drv, X, phase, **inner)

    monkeypatch.setattr(_Driver, "flip", flip)
    with pytest.raises(ProofGap, match="^asserted flip is unsupported$") as err:
        connect(walk48, check=True)
    (k,) = refused
    gap = err.value.context
    assert gap["phase"] == "I" and gap["result"] is None
    assert gap["digest"] == states[k].digest()
    assert gap["circuit"] == seq.steps[k].circuit


# The move filters of a mirrored case, r0, r1 = 1, 0, each with the filter
# of the canonical case, as the arguments of toward_row_free: (r1, r0) of
# case 1 and phase two, (r1, 3) of case 2, (r0, 3) and (r1, 2) of case 3.
MIRRORED_FILTERS = {(0, 1): (1, 0), (0, 3): (1, 3), (1, 3): (0, 3), (0, 2): (1, 2)}


def _mask_arcs(dg: PrecedenceDigraph) -> set:
    return {(dg.nodes[a].mask, dg.nodes[b].mask) for a, b in dg.arcs}


def test_mirrored_cases_see_the_image_of_the_canonical_case(walk48, monkeypatch):
    """What running a mirrored case on the run's own state rests on.  On
    every state of the committed walk and the eight golden branch
    witnesses, each filter of a mirrored case gives the image, under
    ``reference.swap_edges`` on rows 0 and 1, of the arcs the canonical
    filter gives on the swapped state.  Every pick a mirrored case makes in
    those runs is the image of the canonical pick on the swapped state."""
    cases = _Cases(monkeypatch)
    filters, picks = {}, []
    real_path = phases._extremal_path

    def tagged(i1, i2):
        accept = toward_row_free(i1, i2)
        filters[accept] = (i1, i2)
        return accept

    def extremal_path(drv, trees, move, ends, label):
        found = real_path(drv, trees, move, ends, label)
        if cases.mirrored():
            picks.append((drv.T, list(trees), filters[move], found[0]))
        return found

    monkeypatch.setattr(phases, "toward_row_free", tagged)
    monkeypatch.setattr(phases, "_extremal_path", extremal_path)
    witnesses = _golden_witnesses()
    assert len(witnesses) == 8
    for start in [walk48] + witnesses:
        home, image = _Adjacency(start.dims), _Adjacency(start.dims)
        for tri in _states(start, connect(start, check=False)):
            swapped = _swap01(tri)
            back = {swap_edges(t, 0, 1).mask: t.mask for t in tri.maximal}
            for renamed, canonical in MIRRORED_FILTERS.items():
                arcs = _mask_arcs(build_precedence(tri, toward_row_free(*renamed), home))
                mirror = build_precedence(swapped, toward_row_free(*canonical), image)
                assert arcs == {(back[a], back[b]) for a, b in _mask_arcs(mirror)}
    # no committed input runs the inner reduction of a mirrored case-3
    # claim, so its filter (0, 2) makes no pick; its arcs are checked above
    assert {renamed for *_, renamed, _ in picks} == {(0, 1), (0, 3), (1, 3)}
    for tri, trees, renamed, pick in picks:
        mirror = build_precedence(_swap01(tri), toward_row_free(*MIRRORED_FILTERS[renamed]))
        canonical = select_extremal([swap_edges(t, 0, 1) for t in trees], mirror)
        assert swap_edges(canonical, 0, 1) == pick


def _maximal_count(tri: Triangulation, trees, move) -> int:
    """How many of the candidate trees are maximal in the move filter's
    quasiorder on tri, read off the all-pairs digraph's closure."""
    dg = all_pairs_precedence(tri, move, all_pairs_moves(tri))
    reach = reachability(len(dg.nodes), dg.arcs)
    spots = {dg.nodes.index(t) for t in trees}
    return sum(all(p in reach[q] for q in reach[p] & spots) for p in spots)


def _swapped_circuit(X: Circuit) -> Circuit:
    d = X.dims
    minus, plus = (swap_edges(Simplex(d, x), 0, 1).mask for x in (X.minus_mask, X.plus_mask))
    return Circuit(d, minus, plus)


def test_mirrored_case_three_claims_run_their_inner_reduction(monkeypatch):
    """The inner reduction of a case-3 claim with rows 0 and 1 exchanged,
    which no committed input reaches through ``connect``.  Every canonical
    claim of the golden inputs that makes an inner pick is rerun, on the
    rows-0/1 image of its entry state in a fresh checked driver, as the
    mirrored claim (``r0, r1 = 1, 0``).  Each completes, makes an inner
    pick, and flips the image of each canonical flip up to the first pick
    that had more than one maximal candidate, after which the two runs may
    choose differently."""
    real_claim, real_path = phases._case_three_claim, phases._extremal_path
    picks, claims = [], {}

    def extremal_path(drv, trees, move, ends, label):
        found = real_path(drv, trees, move, ends, label)
        picks.append((label, len(drv.steps), drv.T, trees, move))
        return found

    def claim(drv, *args, r0, r1):
        start, entry = len(drv.steps), drv.T
        picks.clear()
        real_claim(drv, *args, r0=r0, r1=r1)
        if (r0, r1) == (0, 1) and any(label == "case 3 inner" for label, *_ in picks):
            flips = [step.circuit for step in drv.steps[start:]]
            ties = [at - start for _, at, *pick in picks if _maximal_count(*pick) > 1]
            claims[entry.digest()] = (entry, args, flips, min(ties, default=len(flips)))

    monkeypatch.setattr(phases, "_extremal_path", extremal_path)
    monkeypatch.setattr(phases, "_case_three_claim", claim)
    for tri in _golden_inputs():
        connect(tri, check=False)
    assert len(claims) == 4
    compared = 0
    for entry, (X, tau_I, sigma_I, c1, c2), flips, untied in claims.values():
        drv = _Driver(_swap01(entry), check=True)
        picks.clear()
        real_claim(
            drv, _swapped_circuit(X), swap_edges(tau_I, 0, 1), swap_edges(sigma_I, 0, 1),
            c1, c2, r0=1, r1=0,
        )
        assert any(label == "case 3 inner" for label, *_ in picks)
        mirrored = [step.circuit for step in drv.steps]
        assert mirrored[:untied] == [_swapped_circuit(Y) for Y in flips[:untied]]
        if untied == len(flips):
            assert len(mirrored) == len(flips)
        compared += untied
    assert compared


def test_case_three_claims_with_an_empty_other_side_make_no_inner_pick(golden_runs):
    """A conjecture, tallied over the case-3 claims of the 213 golden
    inputs, the eight branch witnesses included: a claim entered with its
    other side set empty makes no inner pick (mirrored claims are all such,
    as a claim mirrors only when the canonical side set is empty).  Some
    claims entered with both side sets non-empty make one, so the tally is
    not vacuous."""
    _, claims = golden_runs
    tally = Counter((other_empty, inner > 0) for other_empty, inner in claims)
    assert tally == {(True, False): 18, (False, True): 4, (False, False): 2}


def test_driver_defect_sets_match_a_full_computation(walk48, corpus43, monkeypatch):
    """After every ``apply`` of a run's driver, on the committed walk, the
    eight golden branch witnesses and 50 corpus members, checked and
    unchecked, mirrored cases included, the defect sets the driver carries
    equal those of a full pass over the working triangulation.  The full
    pass runs once per run, at the driver's entry."""
    full_TI, full_TII = compute_TI, compute_TII
    entries = Counter()

    def counting(name, real):
        def count(tri):
            entries[name] += 1
            return real(tri)

        return count

    for name in ("compute_TI", "compute_TII"):
        monkeypatch.setattr(phases, name, counting(name, getattr(phases, name)))
    applied = []
    real_apply = _Driver.apply

    def apply(drv, cert, phase, **inner):
        real_apply(drv, cert, phase, **inner)
        applied.append(phase)
        assert drv.TI == full_TI(drv.T) and drv.TII == full_TII(drv.T)

    monkeypatch.setattr(_Driver, "apply", apply)
    cases = _Cases(monkeypatch)
    rng = random.Random(54)
    inputs = [walk48] + _golden_witnesses() + rng.sample(corpus43.triangulations, 50)
    for tri in inputs:
        for check in (False, True):
            entries.clear()
            applied.clear()
            seq = connect(tri, check=check)
            assert entries == Counter(compute_TI=1, compute_TII=1), (tri, check)
            assert len(applied) == len(seq)
    assert cases.mirrored_entries()


def test_trusted_constructor_matches_init(corpus43, walk48):
    """The trusted constructor against ``__init__`` on every 4x3 member,
    which the enumeration builds with it, and on every state of a connect
    of the committed walk, as ``apply_flip`` builds it: the same dims,
    trees, digest and hash."""

    def same(tri, fresh):
        assert type(tri.dims) is Dims and tri.dims == fresh.dims
        assert tri == fresh and hash(tri) == hash(fresh) and tri.digest() == fresh.digest()

    assert len(corpus43.triangulations) == 4488
    for tri in corpus43.triangulations:
        same(tri, Triangulation(tri.dims, reversed(tri.maximal)))
    tri = walk48
    for step in connect(walk48, check=False).steps:
        tri = apply_flip(tri, supports_flip(tri, step.circuit))
        same(tri, Triangulation(tri.dims, reversed(tri.maximal)))


def _sorted_links(adjacency: _Adjacency) -> dict:
    return {x: sorted(links.items()) for x, links in adjacency.links.items()}


def _snapshot(adjacency: _Adjacency) -> tuple:
    """Copies of a run state's neighbour lists and facet index, which
    its next update changes in place."""
    return _sorted_links(adjacency), {f: sorted(h) for f, h in adjacency.facets.items()}


def _record_digraphs(monkeypatch) -> list:
    """(collection, run state, its neighbour lists, its facet index) of
    every build_precedence call of phases, the lists and the index as the
    call left them."""
    calls = []

    def recording(tri, move_filter, adjacency=None):
        digraph = build_precedence(tri, move_filter, adjacency)
        calls.append((tri, adjacency, *_snapshot(adjacency)))
        return digraph

    monkeypatch.setattr(phases, "build_precedence", recording)
    return calls


def test_move_masks_match_adjacency_move(corpus43, trees43, walk48, monkeypatch):
    """The mask core against the reference move, on every pair sharing a
    facet of 40 corpus members, of every state that connect builds a
    digraph on, of 20 random sets of spanning trees, where some pairs do
    not meet properly, and of 20 random sets of tree-sized edge sets, where
    some members hold a cycle."""
    calls = _record_digraphs(monkeypatch)
    connect(walk48, check=False)
    rng = random.Random(13)
    collections = rng.sample(corpus43.triangulations, 40) + [tri for tri, *_ in calls]
    collections += [Triangulation(Dims(4, 3), rng.sample(trees43, 30)) for _ in range(20)]
    collections += _tree_sized_sets(rng, Dims(4, 3), 20)
    checked = adjacent = 0
    for tri in collections:
        for a, b in facet_pairs(tri):
            for x, y in ((a, b), (b, a)):
                move = adjacency_move(Simplex(tri.dims, x), Simplex(tri.dims, y))
                assert _move_masks(tri.dims, x, y) == (move and move.masks())
                adjacent += move is not None
                checked += 1
    assert adjacent > 0 and checked > adjacent


def _assert_fresh(tri, links, facets):
    """The facet index and neighbour lists a run state carries for tri
    against a fresh state's, and against the all-pairs scan: the members
    sharing a facet are the pairs that compare as such, and each member's
    list holds the partners that meet it properly, each with the entering
    side of the crossing toward it."""
    fresh = _Adjacency(tri.dims)
    fresh.update(tri.dims, {t.mask for t in tri.maximal})
    assert {f: sorted(h) for f, h in facets.items()} == {
        f: sorted(h) for f, h in fresh.facets.items()
    }
    sharing = {(a, b) for h in facets.values() for a in h for b in h if a < b}
    assert sharing == facet_pairs(tri)
    assert links == _sorted_links(fresh)
    want = {t.mask: [] for t in tri.maximal}
    for a, b in sharing:
        for x, y in ((a, b), (b, a)):
            move = _move_masks(tri.dims, x, y)
            if move is not None:
                want[x].append((y, move[1]))
    assert links == {x: sorted(found) for x, found in want.items()}


def test_run_state_index_matches_a_fresh_one_after_every_flip(walk48, monkeypatch):
    """The facet index and neighbour lists a run carries, at every digraph
    of a connect of the committed walk, and after every flip of the walk
    and of the eight golden branch witnesses, across the rows-0/1 swap too,
    against a fresh state's and the all-pairs scan."""
    calls = _record_digraphs(monkeypatch)
    seq = connect(walk48, check=False)
    assert len(calls) > 10
    for tri, _, links, facets in calls:
        _assert_fresh(tri, links, facets)
    witnesses = _golden_witnesses()
    assert len(witnesses) == 8
    for start in [walk48] + witnesses:
        adjacency = _Adjacency(start.dims)
        for tri in _states(start, connect(start, check=False)):
            for state in (tri, _swap01(tri), tri):
                adjacency.update(state.dims, {t.mask for t in state.maximal})
                _assert_fresh(state, _sorted_links(adjacency), adjacency.facets)


def test_connect_classifies_each_pair_once(walk48, monkeypatch):
    """Phases one and two share the run's classifications: no pair is
    classified twice, and fewer pairs are classified than when each phase
    starts from a fresh state."""
    counts = Counter()

    def counting(dims, a, b):
        counts[dims, a, b] += 1
        return _move_masks(dims, a, b)

    monkeypatch.setattr(orders, "_move_masks", counting)
    connect(walk48, check=False)
    assert counts and max(counts.values()) == 1
    shared = len(counts)
    counts.clear()
    _, start = phase_one(walk48, check=False)
    phase_two(start, check=False)
    assert sum(counts.values()) > shared


def test_run_state_classifies_each_met_pair_once(walk48, monkeypatch):
    """On the committed walk and the eight golden branch witnesses, an
    unchecked connect builds every digraph on one run state, mirrored cases
    included, and calls ``_move_masks`` once for each distinct pair its
    digraphs meet."""
    classified = []

    def counting(dims, a, b):
        classified.append((a, b))
        return _move_masks(dims, a, b)

    monkeypatch.setattr(orders, "_move_masks", counting)
    calls = _record_digraphs(monkeypatch)
    witnesses = _golden_witnesses()
    assert len(witnesses) == 8
    for tri in [walk48] + witnesses:
        classified.clear()
        calls.clear()
        connect(tri, check=False)
        met = {pair for tri, *_ in calls for pair in facet_pairs(tri)}
        assert len({id(adjacency) for _, adjacency, _, _ in calls}) == 1
        assert sorted(classified) == sorted(met) and met, tri


def test_connect_classification_counts_on_committed_inputs(golden_runs):
    """Each pair is classified once while both trees stay: no checked
    connect of a golden input classifies a pair twice, and the totals of
    ``_move_masks`` calls are those of the committed inputs, 9,653 over the
    213 golden inputs (checked) and 1,505 over the two committed 4x8 walks
    (unchecked).  A count that grows means pairs classified again, or an
    input that would need a memo of past classifications."""
    runs, _ = golden_runs
    assert len(runs) == 213
    assert all(max(counts.values(), default=1) == 1 for counts in runs)
    assert sum(sum(counts.values()) for counts in runs) == 9653
    with open(BENCH_GOLDEN_PATH) as fh:
        walks = json.load(fh)["walk_4x8"]
    assert len(walks) == 2
    calls = []

    def counting(dims, a, b):
        calls.append((a, b))
        return _move_masks(dims, a, b)

    d = Dims(4, 8)
    total = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orders, "_move_masks", counting)
        for walk in walks:
            calls.clear()
            connect(Triangulation(d, [Simplex(d, int(x, 16)) for x in walk["trees"]]), check=False)
            assert len(set(calls)) == len(calls)
            total += len(calls)
    assert total == 1505


def _module_containers() -> dict:
    return {
        (name, attr): len(value)
        for name, mod in list(sys.modules.items())
        if name == "prodtri" or name.startswith("prodtri.")
        for attr, value in vars(mod).items()
        if not attr.startswith("__") and isinstance(value, (dict, list, set))
    }


def test_connect_leaves_no_module_level_state(walk48):
    before = _module_containers()
    assert before  # e.g. prodtri.__all__
    connect(walk48, check=False)
    build_precedence(staircase(9), toward_row(2))  # a plain call: a fresh state
    assert _module_containers() == before


def test_connect_leaves_no_run_state_alive(walk48, monkeypatch):
    """With the cyclic collector off, a connect, checked or unchecked, makes
    one run state, and it does not outlive the run: nothing it holds refers
    back to it, so reference counting frees it with the run.  A cycle would
    keep every run's state until the collector ran."""
    alive = []

    class Tracked(_Adjacency):
        __slots__ = ("__weakref__",)

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            alive.append(weakref.ref(self))

    monkeypatch.setattr(phases, "_Adjacency", Tracked)
    gc.disable()
    try:
        for check in (False, True):
            alive.clear()
            connect(walk48, check=check)
            assert len(alive) == 1 and alive[0]() is None, check
    finally:
        gc.enable()


# ------------------------------------------------------------ reachability


def _same_reachability(dg, candidate_sets):
    """Every query of the digraph, and ``select_extremal`` on a fresh copy
    for each candidate set, against Warshall's closure of its arcs."""
    nodes = dg.nodes
    reach = reachability(len(nodes), dg.arcs)
    for cands in candidate_sets:
        cands = sorted(set(cands))
        pos = [dg.node_index[t] for t in cands]
        maximal = [
            t
            for t, p in zip(cands, pos)
            if not any(q in reach[p] and p not in reach[q] for q in pos)
        ]
        assert select_extremal(cands, PrecedenceDigraph(nodes, dg.arcs)) == maximal[0]
    for a, t in enumerate(nodes):
        for b, t2 in enumerate(nodes):
            up, down = b in reach[a], a in reach[b]
            assert dg.reaches(t, t2) == up
            assert dg.strictly_below(t, t2) == (up and not down)
            assert dg.equivalent(t, t2) == (up and down)
    cyclic = any(a == b for a, b in dg.arcs) or any(
        b in reach[a] and a in reach[b] for a in range(len(nodes)) for b in range(a)
    )
    assert dg.is_acyclic() == (not cyclic)
    return cyclic


def test_reachability_matches_a_closure(corpus43, walk48, monkeypatch):
    """On 40 corpus members under every filter, on every digraph connect
    builds, with the candidates it picks from, when it picks, before the
    run state's next update, and on a 3-cycle with a tail."""
    rng = random.Random(8)
    cyclic = 0
    for tri in rng.sample(corpus43.triangulations, 40):
        for accept in _filters(4):
            dg = build_precedence(tri, accept)
            subsets = [rng.sample(tri.maximal, rng.randint(1, len(tri.maximal))) for _ in range(3)]
            cyclic += _same_reachability(dg, [tri.maximal] + subsets)
    assert cyclic  # the free filters make some classes
    picked = []

    def recording(candidates, digraph):
        candidates = list(candidates)
        pick = select_extremal(candidates, digraph)
        _same_reachability(digraph, [candidates, digraph.nodes])
        picked.append(len(candidates))
        return pick

    monkeypatch.setattr(phases, "select_extremal", recording)
    connect(walk48, check=False)
    assert len(picked) > 10 and max(picked) > 1
    d = Dims(2, 3)
    t = [Simplex(d, x) for x in range(1, 7)]
    # 0 -> 1 -> 2 -> 0, then 2 -> 3 -> 4, and 5 -> 0
    dg = PrecedenceDigraph(t, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 0)])
    assert _same_reachability(dg, [t, t[:3], [t[5], t[3]]])
    assert dg.equivalent(t[0], t[2]) and dg.strictly_below(t[5], t[4])
    assert select_extremal(t, dg) == t[4]
    assert select_extremal(t[:3], dg) == min(t[:3])
    assert PrecedenceDigraph(t, [(2, 3), (3, 4), (5, 0)]).is_acyclic()


def test_selections_expand_only_what_their_candidates_reach(walk48, monkeypatch):
    """On the committed walk, every digraph ``connect`` builds is first
    expanded by its selection, and only at nodes some candidate reaches;
    the selections together expand fewer nodes than their digraphs hold."""
    expanded = total = 0

    def recording(candidates, digraph):
        candidates = list(candidates)
        assert all(succ is None for succ in digraph._succ)
        pick = select_extremal(candidates, digraph)
        reached = 0
        for t in candidates:
            reached |= digraph._reach_of(digraph.node_index[t])
        done = {p for p, succ in enumerate(digraph._succ) if succ is not None}
        assert done <= {p for p in range(len(digraph.nodes)) if reached >> p & 1}
        nonlocal expanded, total
        expanded += len(done)
        total += len(digraph.nodes)
        return pick

    monkeypatch.setattr(phases, "select_extremal", recording)
    connect(walk48, check=False)
    assert 0 < expanded < total


def _literal_alternating(tau: Simplex, base: Simplex, i0: int) -> bool:
    """The definition ``unique_minimal`` tests: the path from row i0 to
    every row is 1-alternating with respect to the base."""
    return all(alternating_path(tau, base, i0, i, 1) is not None for i in range(tau.dims.m))


def test_anchor_search_matches_the_alternating_path_definition(walk48, monkeypatch):
    """On every star a connect of the committed walk and of the eight golden
    branch witnesses asks ``unique_minimal`` about, the one search from the
    anchor row decides each tree as the literal definition does, leaf
    columns off the base included, and the anchor is the one tree that
    passes."""
    asked = []
    real = phases.unique_minimal

    def recording(local, i0):
        asked.append((local, i0))
        return real(local, i0)

    monkeypatch.setattr(phases, "unique_minimal", recording)
    witnesses = _golden_witnesses()
    assert len(witnesses) == 8
    leaf_off_base = 0
    for tri in [walk48] + witnesses:
        connect(tri, check=False)
    assert asked
    for local, i0 in asked:
        base = local.base
        hits = []
        for tau in local.maximal:
            literal = _literal_alternating(tau, base, i0)
            assert _alternating_from(local.dims, tau.mask, base.mask, i0) == literal
            if literal:
                hits.append(tau)
                leaf_off_base += any(
                    (i, j) not in base and len(col_neighbors(tau, j)) == 1 for i, j in tau
                )
        assert hits == [real(local, i0)]
    assert leaf_off_base  # the leaves the search leaves unconstrained occur
