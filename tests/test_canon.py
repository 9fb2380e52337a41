"""Canonical keys, equivalence, and automorphism orders."""

import hashlib
import math
import random
from collections import deque

import numpy as np
import pytest
from helpers import (
    brute_automorphism_order,
    brute_equivalent,
    normalize_params,
    random_packing,
    random_relabel,
    reference_refine,
    reference_sift_close_order,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cubepack import canon
from cubepack.canon import (
    CANON_MAX_DIM,
    CanonicalKey,
    ColoredGraph,
    _Canonicalizer,
    _PermGroup,
    automorphism_order,
    canonical_key,
    class_orbit_leaders,
    encode,
)
from cubepack.census import cube_expansion, torus_limit_census
from cubepack.constructions import (
    factorization_packing,
    fixtures,
    h_matrix,
    hn_tiling,
    load_fixture,
    one_factorization,
    rod_tiling,
)
from cubepack.extend import FRESH, enumerate_extension_classes
from cubepack.model import (
    CUBE,
    ONE,
    TORUS,
    ZERO,
    ResourceGuardError,
    empty_packing,
    literal,
    make_packing,
)

T = literal


def test_key_is_invariant_under_relabeling():
    rng = random.Random(21)
    for space in (TORUS, CUBE):
        for _ in range(25):
            p = random_packing(rng, space, rng.randint(1, 3), rng.randint(1, 4))
            key = canonical_key(p)
            for _ in range(4):
                q = random_relabel(rng, p)
                assert canonical_key(q) == key


def test_key_matches_brute_force_equivalence():
    rng = random.Random(22)
    for space in (TORUS, CUBE):
        pool = [random_packing(rng, space, 2, rng.randint(1, 3)) for _ in range(12)]
        for p in pool:
            for q in pool:
                same = canonical_key(p) == canonical_key(q)
                assert same == brute_equivalent(p, q)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    space=st.sampled_from((TORUS, CUBE)),
    dim=st.integers(1, 3),
    m=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_key_decides_equivalence_under_random_relabelings(space, dim, m,
                                                          seed):
    # a relabelled copy is equivalent and shares the key; a relabelled
    # second packing shares it exactly when brute force finds it equivalent
    rng = random.Random(seed)
    p = random_packing(rng, space, dim, m)
    q = random_relabel(rng, p)
    assert brute_equivalent(p, q) and canonical_key(q) == canonical_key(p)
    r = random_relabel(rng, random_packing(rng, space, dim, m))
    assert (canonical_key(r) == canonical_key(p)) == brute_equivalent(p, r)


def test_key_generators_are_read_only_and_not_compared():
    p = load_fixture("rod")
    key = canonical_key(p)
    searched = canon._canon_result.__wrapped__(p)
    assert searched is not key and len(key.gens) > 0
    assert searched == key and hash(searched) == hash(key)
    assert CanonicalKey(key.bytes, None) == key
    with pytest.raises(ValueError):
        key.gens[0, 0] = 0


def test_insertion_order_does_not_change_key():
    p = make_packing(TORUS, 2, [(T(0), T(1)), (T(0, 1), T(2))])
    q = make_packing(TORUS, 2, [(T(0, 1), T(2)), (T(0), T(1))])
    assert canonical_key(p) == canonical_key(q)
    assert canonical_key(p) == canonical_key(normalize_params(q))


def test_different_spaces_and_dims_never_compare_equal():
    p = make_packing(TORUS, 1, [(T(0),)])
    q = make_packing(CUBE, 1, [(T(0),)])
    assert canonical_key(p) != canonical_key(q)
    r = make_packing(TORUS, 2, [(T(0), T(1))])
    assert canonical_key(p) != canonical_key(r)


@pytest.mark.parametrize("dim", [CANON_MAX_DIM + 1, 2000])
def test_canonical_form_refuses_dimensions_past_the_cap(dim):
    # the search recurses once per individualized vertex; past the cap the
    # library refuses with a typed error instead of exhausting the stack
    p = empty_packing(TORUS, dim)
    with pytest.raises(ResourceGuardError):
        canonical_key(p)
    with pytest.raises(ResourceGuardError):
        automorphism_order(p)


def test_automorphism_orders_match_brute_force():
    rng = random.Random(23)
    for space in (TORUS, CUBE):
        for _ in range(25):
            p = random_packing(rng, space, rng.randint(1, 3), rng.randint(1, 3))
            assert automorphism_order(p) == brute_automorphism_order(p)


def test_automorphism_order_hand_examples():
    p = make_packing(TORUS, 2, [(T(0), T(1))])
    assert automorphism_order(p) == 2
    q = make_packing(TORUS, 2, [(T(0), T(1)), (T(0, 1), T(1, 1))])
    assert automorphism_order(q) == 4
    r = make_packing(TORUS, 1, [(T(0),), (T(0, 1),)])
    assert automorphism_order(r) == 2
    s = make_packing(CUBE, 2, [(T(0), T(1))])
    assert automorphism_order(s) == 2


def test_automorphism_order_divides_group_bound():
    rng = random.Random(24)
    for space in (TORUS, CUBE):
        for _ in range(20):
            p = random_packing(rng, space, rng.randint(1, 3), rng.randint(1, 4))
            bound = (
                2 ** p.dim
                * math.factorial(p.dim)
                * math.factorial(p.m)
                * 2 ** p.nparams
            )
            assert bound % automorphism_order(p) == 0


def test_encode_produces_simple_graph():
    p = make_packing(CUBE, 2, [(ZERO, T(0)), (ONE, T(1))])
    g = encode(p)
    for u, nbrs in enumerate(g.adj):
        assert u not in nbrs
        for v in nbrs:
            assert u in g.adj[v]
    assert len(g.colors) == len(g.adj)


def test_schreier_sims_orders():
    g = _PermGroup(4)
    g.add((1, 2, 3, 0))
    g.add((1, 0, 2, 3))
    assert g.order() == 24
    h = _PermGroup(6)
    h.add((1, 2, 3, 4, 5, 0))
    assert h.order() == 6
    k = _PermGroup(5)
    assert k.order() == 1


def test_automorphism_order_is_computed_lazily(monkeypatch):
    orders = []
    graph_aut_order = canon._graph_aut_order

    def spy(gens):
        orders.append(gens.shape)
        return graph_aut_order(gens)

    monkeypatch.setattr(canon, "_graph_aut_order", spy)
    canon._canon_result.cache_clear()
    for p in (rod_tiling(3), hn_tiling(3), load_fixture("rod")):
        canonical_key(p)
    cube_expansion(3, 4)
    assert orders == []
    records = torus_limit_census(3)
    assert len(orders) == len(records)
    # no order is kept: each call computes it again from the generators
    for r in records:
        assert automorphism_order(r.rep) == r.aut
    assert len(orders) == 2 * len(records)


def test_automorphism_order_reuses_the_cached_search(monkeypatch):
    runs = []
    run = _Canonicalizer.run

    def spy(self):
        runs.append(self.nv)
        return run(self)

    monkeypatch.setattr(_Canonicalizer, "run", spy)
    canon._canon_result.cache_clear()
    p = load_fixture("rod")
    canonical_key(p)
    automorphism_order(p)
    assert len(runs) == 1


def test_class_orbit_leaders_follow_the_cached_generators():
    canon._canon_result.cache_clear()
    # the empty square: classes of one fresh count form one orbit under
    # the coordinate swap and the two reflections
    square = empty_packing(CUBE, 2)
    classes = enumerate_extension_classes(square)
    assert [c.coords for c in classes[:3]] == [(ZERO, ZERO), (ZERO, ONE),
                                               (ZERO, FRESH)]
    assert class_orbit_leaders(square, classes, canonical_key(square).gens) \
        == [0, 0, 2, 0, 0, 2, 2, 2, 8]
    # one torus cube (t0, t1): the swap of coordinates and parameters pairs
    # (t0, t1+1) with (t0+1, t1) and (t0+1, *) with (*, t1+1)
    cube = make_packing(TORUS, 2, [(T(0), T(1))])
    classes = enumerate_extension_classes(cube)
    assert [c.coords for c in classes] == [
        (T(0), T(1, 1)), (T(0, 1), T(1)), (T(0, 1), T(1, 1)),
        (T(0, 1), FRESH), (FRESH, T(1, 1))]
    assert class_orbit_leaders(cube, classes, canonical_key(cube).gens) \
        == [0, 0, 2, 3, 3]


def test_class_orbit_leaders_need_a_closed_class_list():
    canon._canon_result.cache_clear()
    square = empty_packing(CUBE, 2)
    with pytest.raises(AssertionError):
        class_orbit_leaders(square, enumerate_extension_classes(square)[:1],
                            canonical_key(square).gens)


def _search_generators(p):
    """The generators an uncached canonical-form search stores for p."""
    return canon._canon_result.__wrapped__(p).gens


def _assert_reference_order(gens):
    nv = gens.shape[1]
    assert canon._graph_aut_order(gens) == reference_sift_close_order(
        gens.tolist(), nv)


@pytest.mark.parametrize("build", [
    lambda: rod_tiling(5),
    lambda: rod_tiling(6),
    lambda: hn_tiling(5),
    lambda: factorization_packing(one_factorization(8)),
    lambda: h_matrix(7),
], ids=["rod5", "rod6", "hn5", "k8", "h7"])
def test_orders_match_the_tuple_sift_and_close_on_built_packings(build):
    _assert_reference_order(_search_generators(build()))


@pytest.mark.parametrize("name", sorted(fixtures()))
def test_orders_match_the_tuple_sift_and_close_on_fixtures(name):
    _assert_reference_order(_search_generators(load_fixture(name)))


@st.composite
def _generator_sets(draw):
    nv = draw(st.integers(1, 8))
    gens = draw(st.lists(st.permutations(range(nv)), max_size=4))
    return np.array(gens, dtype=np.int32).reshape(len(gens), nv)


@settings(max_examples=200, deadline=None)
@given(_generator_sets())
def test_orders_match_the_tuple_sift_and_close_on_small_groups(gens):
    _assert_reference_order(gens)


# SHA-256 over the key bytes of the corpus below, in order, as computed by
# the bitmap-certificate canonicalizer.  A faster search must leave it alone.
KEY_DIGEST = "a4caa7ddf0ae6ada9c86a2adc2f2110e4436a03a2d51e8ab65e7500c39952645"


def _key_corpus():
    corpus = [rod_tiling(n) for n in (3, 4, 5)]
    corpus += [hn_tiling(5), factorization_packing(one_factorization(8)),
               h_matrix(7)]
    corpus += [load_fixture(name) for name in sorted(fixtures())]
    corpus += [r.rep for r in torus_limit_census(3, include_zero_prob=True)]
    assert len(corpus) == 39
    return corpus


def test_key_bytes_are_pinned():
    digest = hashlib.sha256()
    for p in _key_corpus():
        digest.update(canonical_key(p).bytes)
    assert digest.hexdigest() == KEY_DIGEST


# The search's generator rows and its leaf count on the KEY_DIGEST corpus:
# the generators feed _PermGroup and class_orbit_leaders, so a faster
# search must find the same ones, in the same order, at the same leaves.
GENS_DIGEST = "ff7129362f33e67730fe2754706003ba25c8838ac77c8020d5eb4cb85126828b"
SEARCH_LEAVES = 369


def test_search_generators_are_pinned(monkeypatch):
    corpus = _key_corpus()
    leaves = 0
    real_leaf = _Canonicalizer._leaf

    def counting_leaf(self, perm):
        nonlocal leaves
        leaves += 1
        return real_leaf(self, perm)

    monkeypatch.setattr(_Canonicalizer, "_leaf", counting_leaf)
    digest = hashlib.sha256()
    for p in corpus:
        gens = canon._canon_result.__wrapped__(p).gens
        digest.update(f"{gens.dtype}|{gens.shape}|".encode())
        digest.update(np.ascontiguousarray(gens).tobytes())
    assert (digest.hexdigest(), leaves) == (GENS_DIGEST, SEARCH_LEAVES)


def _reference_bitmap(graph, perm):
    """Upper-triangle adjacency bitmap of the relabelled graph, row-major."""
    nv = len(graph.colors)
    adj = [set(nbrs) for nbrs in graph.adj]
    bits = bytearray((nv * (nv - 1) // 2 + 7) // 8)
    k = 0
    for i in range(nv):
        for j in range(i + 1, nv):
            if perm[j] in adj[perm[i]]:
                bits[k >> 3] |= 128 >> (k & 7)
            k += 1
    return bytes(bits)


@st.composite
def _graph_and_two_orders(draw):
    nv = draw(st.integers(1, 9))
    pairs = [(u, w) for u in range(nv) for w in range(u + 1, nv)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs),
                            max_size=len(pairs)))
    adj = [[] for _ in range(nv)]
    for (u, w), edge in zip(pairs, present):
        if edge:
            adj[u].append(w)
            adj[w].append(u)
    graph = ColoredGraph((0,) * nv, tuple(tuple(nbrs) for nbrs in adj))
    order = st.permutations(range(nv))
    return graph, draw(order), draw(order)


@settings(max_examples=300, deadline=None)
@given(_graph_and_two_orders())
def test_certificate_orders_leaves_like_the_bitmap(case):
    graph, a, b = case
    canon = _Canonicalizer(graph, (0,))
    ca, cb = canon._certificate(a), canon._certificate(b)
    ra, rb = _reference_bitmap(graph, a), _reference_bitmap(graph, b)
    assert (ca > cb) - (ca < cb) == (ra > rb) - (ra < rb)
    assert canon._bitmap(ca) == ra


@pytest.mark.xfail(
    strict=True,
    reason="_PermGroup's sift-and-close misses products with higher-level "
    "transversal elements: it reports 32 for the rod fixture, whose group "
    "has order 48",
)
def test_rod_automorphism_order_matches_brute_force():
    p = load_fixture("rod")
    assert automorphism_order(p) == brute_automorphism_order(p)


@st.composite
def _colored_graph_and_vertex(draw):
    nv = draw(st.integers(1, 14))
    pairs = [(u, w) for u in range(nv) for w in range(u + 1, nv)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs),
                            max_size=len(pairs)))
    adj = [[] for _ in range(nv)]
    for (u, w), edge in zip(pairs, present):
        if edge:
            adj[u].append(w)
            adj[w].append(u)
    colors = draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv))
    return tuple(tuple(nbrs) for nbrs in adj), colors, draw(st.integers(0, nv - 1))


def _individualize(state, v):
    """Split v off the front of its cell, as the search does; False when
    v is alone in its cell already."""
    lab, cell_of, cell_end = state
    start = cell_of[v]
    end = cell_end[start]
    if end - start == 1:
        return False
    rest = [u for u in lab[start:end] if u != v]
    lab[start:end] = [v] + rest
    cell_end[start] = start + 1
    cell_end[start + 1] = end
    for u in rest:
        cell_of[u] = start + 1
    return True


def _cells(state):
    """The partition as lab, cell_of and the cell ends read at cell starts."""
    lab, cell_of, cell_end = state
    ends, s = [], 0
    while s < len(lab):
        s = cell_end[s]
        ends.append(s)
    return lab, cell_of, ends


def _refine_both(adj, state, splitters, ncells):
    """Refine state in place by _refine and a copy by the oracle; check
    they agree and return the cell count."""
    ref = tuple(x[:] for x in state)
    reference_refine(adj, *ref, deque(splitters))
    got = canon._refine(adj, *state, deque(splitters), ncells)
    assert _cells(state) == _cells(ref)
    assert got == len(_cells(ref)[2])
    return got


@settings(max_examples=400, deadline=None)
@given(_colored_graph_and_vertex())
def test_refine_matches_the_plain_rule(case):
    # the root refinement, then v individualized in the refined partition
    # and refined from [v] alone, and v individualized in the unrefined
    # colour partition and refined from every cell: the cases _refine's
    # precondition allows
    adj, colors, v = case
    cells, root = canon._initial_partition(colors)
    ncells = _refine_both(adj, root, cells, len(cells))
    if _individualize(root, v):
        _refine_both(adj, root, [[v]], ncells + 1)
    _, raw = canon._initial_partition(colors)
    if _individualize(raw, v):
        lab, _, ends = _cells(raw)
        parts = [lab[s:e] for s, e in zip([0] + ends, ends)]
        _refine_both(adj, raw, parts, len(parts))


def _root_packings():
    """Fixtures, empty packings and seeded random growth, dimensions 1-4."""
    rng = random.Random(27)
    packings = [load_fixture(name) for name in sorted(fixtures())]
    for space in (TORUS, CUBE):
        for dim in range(1, 5):
            packings.append(empty_packing(space, dim))
            packings += [random_packing(rng, space, dim,
                                        rng.randint(1, 2 ** dim))
                         for _ in range(12)]
    return packings


def test_root_queues_every_colour_class_that_can_split():
    # encode's colour partition is equitable with respect to every colour
    # class the root refinement leaves unqueued: all vertices of one colour
    # count as many neighbours in that class
    for p in _root_packings():
        graph = encode(p)
        queued = (canon.TORUS_ROOT_SPLITTERS if p.space == TORUS
                  else canon.CUBE_ROOT_SPLITTERS)
        for c in set(graph.colors) - set(queued):
            count = {}
            for v, nbrs in enumerate(graph.adj):
                k = sum(graph.colors[w] == c for w in nbrs)
                assert count.setdefault(graph.colors[v], k) == k, (p, c)
