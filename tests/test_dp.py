"""Exact DP solvers over nice decompositions, their state budget, and the
pattern-search driver."""

import random
import re

import pytest

import reference_dp
from conftest import (DIGON, complete_graph, cycle_graph, embed_outerplanar,
                      path_graph, star_graph, witness_entry)
from shallowtd import dp
from shallowtd.decomp import (FORGET, INTRODUCE, JOIN, LEAF,
                              NiceDecomposition, TreeDecomposition,
                              heuristic_td, make_nice, narrower_td)
from shallowtd.dp import (SolutionCheckError, check_mapping, check_solution,
                          dp_ds, dp_mis, dp_subiso, dp_vc, subiso_driver,
                          verify_subiso)
from shallowtd.generators import grid, random_planar_triangulation, wall
from shallowtd.graph import GraphInputError, build_graph, parse_graph
from shallowtd.oracles import oracle_solve, subiso_backtracking


def nice(g):
    return make_nice(heuristic_td(g))


# every engine, each as solve(nd, g); the pattern search looks for an edge
ENGINES = [pytest.param(dp_mis, id="mis"),
           pytest.param(dp_vc, id="vc"),
           pytest.param(dp_ds, id="ds"),
           pytest.param(lambda nd, g: dp_subiso(nd, g, path_graph(2)),
                        id="subiso")]


class TestMisVc:
    def test_p4(self):
        g = path_graph(4)
        assert len(dp_mis(nice(g), g)) == 2
        cover = dp_vc(nice(g), g)
        assert len(cover) == 2
        assert all(u in cover or v in cover for u, v in g.edges)

    def test_c6(self):
        g = cycle_graph(6)
        assert len(dp_mis(nice(g), g)) == 3

    def test_triangle_cover(self, triangle):
        assert len(dp_vc(nice(triangle), triangle)) == 2

    def test_grid33(self):
        g = grid(3, 3).graph
        assert len(dp_mis(nice(g), g)) == 5
        assert len(dp_vc(nice(g), g)) == 4

    def test_random_vs_oracle(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(3, 14)
            edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                     if rng.random() < 0.25]
            g = build_graph(n, edges)
            nd = nice(g)
            mis = dp_mis(nd, g)
            vc = dp_vc(nd, g)
            assert len(mis) == oracle_solve("mis", g)[0]
            assert len(vc) == oracle_solve("vc", g)[0]
            assert len(mis) + len(vc) == n


class TestDs:
    def test_star(self):
        g = star_graph(5)
        assert dp_ds(nice(g), g, set(range(6))) == {0}

    def test_c6(self):
        g = cycle_graph(6)
        assert len(dp_ds(nice(g), g, set(range(6)))) == 2

    def test_empty_required(self):
        g = cycle_graph(5)
        assert dp_ds(nice(g), g, set()) == set()

    def test_required_subset(self):
        g = path_graph(7)
        s = dp_ds(nice(g), g, {0, 1})
        assert len(s) == 1 and s <= {0, 1}

    @pytest.mark.parametrize("bad", [7, -1], ids=["past-the-host",
                                                 "negative"])
    def test_a_required_non_host_vertex_is_refused(self, monkeypatch, bad):
        # a vertex past the host would index out of its lists, and a
        # negative one would wrap to the last vertex and fail the check
        walks = []
        monkeypatch.setattr(dp, "_walk", lambda *a: walks.append(a))
        g = path_graph(3)
        with pytest.raises(GraphInputError,
                           match=f"requires vertex {bad}, not a vertex of "
                                 "the 3-vertex host"):
            dp_ds(nice(g), g, {1, bad})
        assert walks == []

    def test_random_vs_oracle(self):
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randint(3, 12)
            edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                     if rng.random() < 0.3]
            g = build_graph(n, edges)
            s = dp_ds(nice(g), g, set(range(n)))
            assert len(s) == oracle_solve("ds", g)[0]


class TestSubisoDp:
    def test_p3_in_triangle(self, triangle):
        nd = nice(triangle)
        found = dp_subiso(nd, triangle, path_graph(3))
        assert found is not None
        assert dp_subiso(nd, triangle, path_graph(3), induced=True) is None

    def test_k4_in_grid_absent(self):
        g = grid(5, 5).graph
        assert dp_subiso(nice(g), g, complete_graph(4)) is None

    def test_c6_in_wall2(self):
        g = wall(2)[1].graph
        found = dp_subiso(nice(g), g, cycle_graph(6))
        assert found is not None
        assert verify_subiso(g, cycle_graph(6), found, False)

    def test_agrees_with_oracle_random(self):
        rng = random.Random(3)
        patterns = [path_graph(3), path_graph(4), cycle_graph(4),
                    complete_graph(3)]
        for _ in range(15):
            n = rng.randint(4, 12)
            edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                     if rng.random() < 0.3]
            g = build_graph(n, edges)
            nd = nice(g)
            for h in patterns:
                for induced in (False, True):
                    mine = dp_subiso(nd, g, h, induced)
                    ref = subiso_backtracking(g, h, induced).mapping
                    assert (mine is None) == (ref is None)
                    if mine is not None:
                        assert verify_subiso(g, h, mine, induced)

    def test_pattern_too_big(self):
        g = grid(4, 4).graph
        with pytest.raises(GraphInputError):
            dp_subiso(nice(g), g, path_graph(9))

    def test_largest_pattern_star(self):
        # a star with MAX_PATTERN vertices: its leaves are one twin class
        h = star_graph(dp.MAX_PATTERN - 1)
        g = star_graph(dp.MAX_PATTERN + 1)
        for induced in (False, True):
            found = dp_subiso(nice(g), g, h, induced)
            assert found is not None and found[0] == 0
            assert verify_subiso(g, h, found, induced)
        small = star_graph(dp.MAX_PATTERN - 2)
        assert dp_subiso(nice(small), small, h) is None
        e = embed_outerplanar(g)
        assert verify_subiso(g, h, subiso_driver(e, h), False)


class TestTwinClasses:
    @pytest.mark.parametrize("h, classes", [
        (complete_graph(5), [[0, 1, 2, 3, 4]]),
        (star_graph(3), [[0], [1, 2, 3]]),             # claw: centre, leaves
        (cycle_graph(4), [[0, 2], [1, 3]]),            # opposite pairs
        (path_graph(4), [[0], [1], [2], [3]]),
        (build_graph(1, []), [[0]]),
        # K4 - e: the ends of the missing edge are false twins, the other
        # two true twins; relabelled so that no class is a run of ids
        (build_graph(4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)]),
         [[0, 2], [1, 3]]),
    ])
    def test_partition(self, h, classes):
        assert dp._twin_classes(h) == classes

    def test_class_finishes_on_both_sides_of_a_join(self):
        # the decomposition of a star branches at its centre, so leaves of
        # the claw finish on both sides of a join and add up in one count
        g = build_graph(4, [(0, 3), (1, 3), (2, 3)])
        nd = nice(g)
        assert JOIN in nd.kind
        for induced in (False, True):
            found = dp_subiso(nd, g, star_graph(3), induced)
            assert found == {0: 3, 1: 0, 2: 1, 3: 2}

    def test_twins_share_the_sorted_images(self):
        g = complete_graph(6)
        found = dp_subiso(nice(g), g, complete_graph(4))
        assert sorted(found) == [0, 1, 2, 3]
        assert list(found.values()) == sorted(found.values())

    def test_wrong_image_count_is_a_check_error(self):
        # a witness tree that gives a two-member class one image raises
        # the typed error, not an assert that python -O strips
        one_link = (0, 5, None)
        with pytest.raises(SolutionCheckError, match="got 1 images"):
            dp._class_images(one_link, [[0, 1]])
        joined = (None, None, (0, 5, None), (0, 5, None))
        with pytest.raises(SolutionCheckError):
            dp._class_images(joined, [[0, 1]])
        assert dp._class_images((None, None, (0, 7, None), (0, 5, None)),
                                [[0, 1]]) == {0: 5, 1: 7}


class TestSubisoDriver:
    def test_c4_in_grid(self):
        e = grid(4, 4)
        found = subiso_driver(e, cycle_graph(4))
        assert found is not None
        assert verify_subiso(e.graph, cycle_graph(4), found, False)

    def test_nonplanar_host_rejected(self):
        from shallowtd.generators import toroidal_grid
        with pytest.raises(GraphInputError):
            subiso_driver(toroidal_grid(3, 3), cycle_graph(3))

    def test_nonplanar_host_rejected_before_the_pattern_size(self):
        from shallowtd.generators import toroidal_grid
        with pytest.raises(GraphInputError,
                           match="level slicing requires a planar embedding"):
            subiso_driver(toroidal_grid(3, 3), path_graph(9))

    def test_component_smaller_than_the_pattern_is_skipped(self):
        # a four-vertex pattern never needs the first component, DIGON, and
        # is found in the C4 beside it
        e = parse_graph(DIGON.replace("v 3", "v 7") +
                        "e 3 4\ne 4 5\ne 5 6\ne 6 3\n"
                        "rot 3 6 13\nrot 4 7 8\nrot 5 9 10\nrot 6 11 12\n")
        found = subiso_driver(e, cycle_graph(4))
        assert found is not None
        assert verify_subiso(e.graph, cycle_graph(4), found, False)

    def test_p5_in_p3_absent(self):
        e = embed_outerplanar(path_graph(3))
        assert subiso_driver(e, path_graph(5)) is None

    def test_c6_in_wall3(self):
        e = wall(3)[1]
        assert subiso_driver(e, cycle_graph(6)) is not None

    def test_disconnected_pattern_rejected(self):
        e = grid(3, 3)
        with pytest.raises(GraphInputError):
            subiso_driver(e, build_graph(3, [(0, 1)]))

    def test_induced_agrees_with_oracle(self):
        e = grid(5, 5)
        for h, induced, expect in [
            (cycle_graph(4), True, True),     # a grid face is induced C4
            (cycle_graph(6), True, False),    # every grid 6-cycle has a chord
            (complete_graph(3), False, False),
            (path_graph(5), True, True),
        ]:
            found = subiso_driver(e, h, induced=induced)
            ref = subiso_backtracking(e.graph, h, induced).mapping
            assert (found is not None) == expect == (ref is not None)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_triangulations_agree_with_oracle(self, seed):
        # Stacked triangulations always contain K4, never K5 (planar), and
        # no induced C4 (they are chordal); the claw is there in both modes.
        e = random_planar_triangulation(30 + 20 * seed, seed)
        for h, induced, expect in [
            (complete_graph(4), False, True),
            (complete_graph(4), True, True),
            (complete_graph(5), False, False),
            (star_graph(3), False, True),
            (star_graph(3), True, None),
            (cycle_graph(4), True, False),
        ]:
            found = subiso_driver(e, h, induced=induced)
            ref = subiso_backtracking(e.graph, h, induced).mapping
            assert (found is None) == (ref is None)
            if expect is not None:
                assert (found is not None) == expect
            if found is not None:
                assert verify_subiso(e.graph, h, found, induced)


class TestResultChecks:
    """Infeasible results raise SolutionCheckError, not an assert that
    python -O strips."""

    @pytest.mark.parametrize("problem, good, bad", [
        ("mis", {0, 2}, {0, 1}),
        ("vc", {1, 2}, {1}),
        ("ds", {1, 2}, {0}),
    ])
    def test_check_solution(self, problem, good, bad):
        g = path_graph(4)
        check_solution(problem, g, good)
        with pytest.raises(SolutionCheckError):
            check_solution(problem, g, bad)

    def test_ds_checks_only_required(self):
        g = path_graph(4)
        check_solution("ds", g, {0}, required={0, 1})
        with pytest.raises(SolutionCheckError, match="vertex 2"):
            check_solution("ds", g, {0}, required={1, 2})

    def test_self_loop_constrains_nothing(self):
        g = build_graph(3, [(0, 0), (0, 1), (1, 2)])
        for problem, solve in (("mis", dp_mis), ("vc", dp_vc)):
            s = solve(nice(g), g)
            assert len(s) == oracle_solve(problem, g)[0]
            check_solution(problem, g, s)

    def test_check_mapping(self):
        g, h = path_graph(4), path_graph(3)
        check_mapping(g, h, {0: 0, 1: 1, 2: 2}, False)
        with pytest.raises(SolutionCheckError):
            check_mapping(g, h, {0: 0, 1: 2, 2: 3}, False)   # 0-2 not an edge
        with pytest.raises(SolutionCheckError):
            check_mapping(g, h, {0: 0, 1: 1, 2: 0}, False)   # not injective
        with pytest.raises(SolutionCheckError):
            check_mapping(cycle_graph(3), h, {0: 0, 1: 1, 2: 2}, True)

    def test_solvers_check_their_witness(self, monkeypatch):
        g = path_graph(4)
        monkeypatch.setattr(dp, "_run_subset_dp", lambda nd, g:
                            {0: witness_entry([0, 1])})
        with pytest.raises(SolutionCheckError, match="not independent"):
            dp_mis(nice(g), g)
        with pytest.raises(SolutionCheckError, match="misses edge"):
            dp_vc(nice(g), g)

    def test_a_mismatched_decomposition_is_refused_before_the_witness_check(
            self, triangle):
        # no bag holds edges 0-2 and 1-2, so the engine would never check
        # them; every vertex is forgotten once, and the edge count refuses
        # the form before a witness exists
        split = make_nice(TreeDecomposition(nodes=2, tree_edges=[(0, 1)],
                                            bags=[(0, 1), (2,)]))
        for solve in (dp_mis, dp_vc):
            with pytest.raises(GraphInputError,
                               match="bags hold 1 of the 3 host edges"):
                solve(split, triangle)


class TestForgetCount:
    """A nice decomposition that forgets some host vertex twice or never
    is refused with a typed error before any table is built: the engines
    would otherwise count the vertex twice, or never choose it."""

    # leaf, introduce 0, introduce 1, forget 0, forget 1: vertex 2 of the
    # path 0-1-2 is in no bag
    NO_VERTEX_2 = NiceDecomposition(
        [LEAF, INTRODUCE, INTRODUCE, FORGET, FORGET],
        [(), (0,), (1,), (2,), (3,)], [None, 0, 1, 0, 1], 4)

    @pytest.mark.parametrize("solve", ENGINES)
    def test_a_vertex_in_no_bag_is_refused(self, monkeypatch, solve):
        walks = []
        monkeypatch.setattr(dp, "_walk", lambda *a: walks.append(a))
        with pytest.raises(GraphInputError,
                           match="nice decomposition never forgets vertex 2"):
            solve(self.NO_VERTEX_2, build_graph(3, [(0, 1), (1, 2)]))
        assert walks == []

    @pytest.mark.parametrize("g", [
        pytest.param(build_graph(2, [(0, 1)]), id="edge"),
        pytest.param(build_graph(3, [(0, 1), (0, 2)]), id="vertex-in-no-bag")])
    def test_a_vertex_in_two_disconnected_subtrees_is_refused(
            self, monkeypatch, g):
        # vertex 0 is in the first and the last bag of the path, not in the
        # middle one, so two forgets name it; with the second host, vertex
        # 2 is never forgotten either, and the first fault met is named
        split = make_nice(TreeDecomposition(
            nodes=3, tree_edges=[(0, 1), (1, 2)], bags=[(0, 1), (1,), (0, 1)]))
        walks = []
        monkeypatch.setattr(dp, "_walk", lambda *a: walks.append(a))
        for engine in ENGINES:
            solve, = engine.values
            with pytest.raises(GraphInputError, match="nice decomposition "
                               "forgets vertex 0 twice"):
                solve(split, g)
        assert walks == []


class TestEdgeCount:
    """A nice decomposition whose bags leave some host edge out is refused
    with a typed error before any table is built: the engines would never
    check that edge, and answer for a host without it."""

    # the path 0-1-2 under a form of its first edge: no bag holds 1-2, so
    # dp_ds would return {1, 2} and dp_subiso miss the path itself
    PATH3 = build_graph(3, [(0, 1), (1, 2)])
    DROPS_1_2 = make_nice(heuristic_td(build_graph(3, [(0, 1)])))

    @pytest.mark.parametrize("solve", ENGINES + [
        pytest.param(lambda nd, g: dp_subiso(nd, g, path_graph(3)),
                     id="subiso-path3")])
    def test_an_edge_in_no_bag_is_refused(self, monkeypatch, solve):
        walks = []
        monkeypatch.setattr(dp, "_walk", lambda *a: walks.append(a))
        with pytest.raises(GraphInputError, match="nice decomposition bags "
                           "hold 1 of the 2 host edges"):
            solve(self.DROPS_1_2, self.PATH3)
        assert walks == []

    @pytest.mark.parametrize("solve", ENGINES)
    def test_loops_and_parallel_edges_need_no_bag(self, solve):
        # a loop joins no two bag vertices, and a parallel edge is held
        # with its first copy
        g = build_graph(3, [(0, 1), (1, 1), (1, 2), (2, 1)])
        solve(make_nice(heuristic_td(self.PATH3)), g)


class TestHostVertexCheck:
    """A nice decomposition naming a vertex outside the host is refused
    with a typed error before any table is built."""

    @pytest.mark.parametrize("bag, bad", [((0, 7), 7), ((-1, 0), -1)],
                             ids=["past-the-host", "negative"])
    @pytest.mark.parametrize("solve", ENGINES)
    def test_a_non_host_vertex_is_refused(self, monkeypatch, solve, bag,
                                          bad):
        walks = []
        monkeypatch.setattr(dp, "_walk", lambda *a: walks.append(a))
        nd = make_nice(TreeDecomposition(nodes=1, tree_edges=[], bags=[bag]))
        with pytest.raises(GraphInputError,
                           match=f"names vertex {bad}, not a vertex of the "
                                 f"3-vertex host"):
            solve(nd, path_graph(3))
        assert walks == []


# leaf, introduce 2, introduce 1, forget 2, introduce 0, forget 0, forget 1
PATH3_NICE = nice(path_graph(3))
# nodes 3-6 (leaf, introduce 0, introduce 1, forget 0) and 0-2, 7 (leaf,
# introduce 1, introduce 2, forget 2) meet at join 8; node 9 forgets 1
PATH3_JOIN = make_nice(TreeDecomposition(3, [(0, 1), (0, 2)],
                                         [(1,), (0, 1), (1, 2)]))


def _path3_nice(root=None, form=PATH3_NICE, **changes):
    """`form` with the list entries in `changes` ({field: {node: value}})
    replaced and `root` (by default the form's) as its root."""
    fields = {"kind": list(form.kind),
              "children": list(form.children),
              "vertex": list(form.vertex)}
    for name, entries in changes.items():
        for node, value in entries.items():
            fields[name][node] = value
    return NiceDecomposition(**fields,
                             root=form.root if root is None else root)


class TestNiceShapeCheck:
    """A nice decomposition not shaped as make_nice builds one is refused
    with a typed error before any table is built."""

    @pytest.mark.parametrize("nd, message", [
        pytest.param(_path3_nice(children={3: (4,)}),
                     "node 3 lists child 4, not an earlier node",
                     id="child-after-its-parent"),
        pytest.param(_path3_nice(vertex={4: None}),
                     "names vertex None, not a vertex of the 3-vertex host",
                     id="introduce-of-no-vertex"),
        pytest.param(_path3_nice(root=5),
                     "root 5 among 7 nodes; the root must be the last",
                     id="root-not-last"),
        pytest.param(_path3_nice(kind={3: JOIN}),
                     "node 3 of kind 'join' has 1 children",
                     id="join-with-one-child"),
        pytest.param(NiceDecomposition([], [], [], 0),
                     "root 0 among 0 nodes", id="no-nodes"),
        pytest.param(_path3_nice(kind={5: LEAF}, children={5: ()}),
                     "node 4 is neither the root nor a child",
                     id="orphan-node"),
        # node 7 claims node 2 before node 5 does
        pytest.param(_path3_nice(form=PATH3_JOIN, children={5: (2,)}),
                     "node 5 lists child 2, not an earlier node without "
                     "another parent", id="child-of-two-parents"),
        pytest.param(NiceDecomposition(PATH3_NICE.kind, PATH3_NICE.children,
                                       PATH3_NICE.vertex[:-1], 6),
                     "lists 7 kinds, 7 child tuples and 6 vertices",
                     id="short-vertex-list")])
    @pytest.mark.parametrize("solve", ENGINES)
    def test_a_malformed_nice_form_is_refused(self, monkeypatch, solve, nd,
                                              message):
        walks = []
        monkeypatch.setattr(dp, "_walk", lambda *a: walks.append(a))
        with pytest.raises(GraphInputError, match=re.escape(message)):
            solve(nd, path_graph(3))
        assert walks == []

    @pytest.mark.parametrize("solve", ENGINES)
    def test_an_introduce_the_bag_above_lacks_is_refused(self, monkeypatch,
                                                         solve):
        # node 4 introduces 2 under a bag of 0 and 1
        walks = []
        monkeypatch.setattr(dp, "_walk", lambda *a: walks.append(a))
        with pytest.raises(GraphInputError, match="introduces vertex 2 at "
                           "node 4, but the bag above does not hold it"):
            solve(_path3_nice(vertex={4: 2}), path_graph(3))
        assert walks == []


def _form(*nodes):
    """The nice decomposition of (kind, children, vertex) nodes in id
    order, the last the root."""
    kind, children, vertex = map(list, zip(*nodes))
    return NiceDecomposition(kind, children, vertex, len(nodes) - 1)


class TestForgetSweep:
    """The independent-set forget, one sweep over its child table, on
    hand-built forms of the 4-cycle, whose two maximum independent sets
    tie: a forget sits above an introduce of another vertex (nodes 4 and
    6 of the first form; their introduces are fold points, where the
    forget also reads "u in"), above an introduce of the same vertex (node
    4 of the second, no fold) or above a join (node 11 of the third).  The
    MIS witness, and so the VC witness, its complement, equal the
    frozenset reference's."""

    FORMS = {
        # bags {0}, {0,1}, {0,1,3}, {1,3}, {1,2,3}, {2,3}, {3}, {}
        "introduce-of-another": (_form(
            (LEAF, (), None), (INTRODUCE, (0,), 0), (INTRODUCE, (1,), 1),
            (INTRODUCE, (2,), 3), (FORGET, (3,), 0), (INTRODUCE, (4,), 2),
            (FORGET, (5,), 1), (FORGET, (6,), 2), (FORGET, (7,), 3)),
            [3, 5]),
        # bags {1}, {1,3}, {1,2,3}, {1,3}, {0,1,3}, {1,3}, {3}, {}
        "introduce-of-the-same": (_form(
            (LEAF, (), None), (INTRODUCE, (0,), 1), (INTRODUCE, (1,), 3),
            (INTRODUCE, (2,), 2), (FORGET, (3,), 2), (INTRODUCE, (4,), 0),
            (FORGET, (5,), 0), (FORGET, (6,), 1), (FORGET, (7,), 3)),
            []),
        # {1,3} plus 0 on the left and 2 on the right, joined, then {3}, {}
        "join": (_form(
            (LEAF, (), None), (INTRODUCE, (0,), 1), (INTRODUCE, (1,), 3),
            (INTRODUCE, (2,), 0), (FORGET, (3,), 0),
            (LEAF, (), None), (INTRODUCE, (5,), 3), (INTRODUCE, (6,), 1),
            (INTRODUCE, (7,), 2), (FORGET, (8,), 2),
            (JOIN, (4, 9), None), (FORGET, (10,), 1), (FORGET, (11,), 3)),
            [])}

    @pytest.mark.parametrize("name", FORMS)
    def test_witnesses_match_the_reference(self, name):
        nd, folds = self.FORMS[name]
        g = cycle_graph(4)
        fold = bytearray(nd.node_count)
        dp._positions(nd, g, fold)
        assert [node for node in range(nd.node_count) if fold[node]] == folds
        mis, vc = dp_mis(nd, g), dp_vc(nd, g)
        assert mis == reference_dp.reference_mis(nd, g)
        # the cover is the complement of the independent set; the reference
        # cover engine, which breaks the tie its own way, checks its size
        assert vc == set(range(g.n)) - mis
        assert len(vc) == len(reference_dp.reference_vc(nd, g))
        assert len(mis) == oracle_solve("mis", g)[0] == 2


class TestForgetCharge:
    """Each engine counts and links a chosen vertex once, at its forget:
    on decompositions with joins the root chain holds one link per witness
    vertex (one per pattern vertex for a found pattern), and the MIS and
    DS root values are the witness sizes."""

    HOSTS = [pytest.param(grid(6, 6).graph, id="grid6x6"),
             pytest.param(wall(3)[1].graph, id="wall3"),
             pytest.param(random_planar_triangulation(40, 1).graph,
                          id="triangulation40")]

    @staticmethod
    def root_entry(monkeypatch, solve, key):
        """solve()'s result and the entry under `key` of its root table."""
        roots = []
        walk = dp._walk

        def kept(*args):
            roots.append(walk(*args))
            return roots[-1]

        monkeypatch.setattr(dp, "_walk", kept)
        return solve(), roots[0][key]

    @pytest.mark.parametrize("g", HOSTS)
    @pytest.mark.parametrize("solve", [dp_mis, dp_ds], ids=["mis", "ds"])
    def test_one_link_per_chosen_vertex(self, monkeypatch, g, solve):
        nd = make_nice(narrower_td(g))
        assert JOIN in nd.kind
        witness, root = self.root_entry(monkeypatch, lambda: solve(nd, g), 0)
        assert len(list(dp._links(root))) == len(witness) == root[0]
        assert dp._unroll(root) == witness

    @pytest.mark.parametrize("g, h", [
        pytest.param(grid(6, 6).graph, cycle_graph(4), id="c4-grid6x6"),
        pytest.param(grid(6, 6).graph, path_graph(5), id="p5-grid6x6"),
        pytest.param(wall(3)[1].graph, cycle_graph(6), id="c6-wall3"),
        pytest.param(wall(3)[1].graph, star_graph(3), id="claw-wall3"),
        pytest.param(random_planar_triangulation(40, 1).graph,
                     complete_graph(3), id="triangle-triangulation40"),
        pytest.param(random_planar_triangulation(40, 1).graph,
                     star_graph(3), id="claw-triangulation40")])
    def test_one_link_per_pattern_vertex(self, monkeypatch, g, h):
        nd = make_nice(narrower_td(g))
        assert JOIN in nd.kind
        sizes = tuple(map(len, dp._twin_classes(h)))
        goal = (sizes, tuple(0 for _ in sizes))
        found, root = self.root_entry(monkeypatch,
                                      lambda: dp_subiso(nd, g, h), goal)
        assert found is not None
        assert sorted(v for _c, v, _rest in dp._links(root)) == sorted(
            found.values())


class TestStateBudget:
    """Every engine refuses a table past dp.MAX_STATES with a typed error
    naming the table size, the width and the budget."""

    # one bag over the path 0-1-2; the independent-set engine's largest
    # table is the five independent subsets of the bag
    BAG = make_nice(TreeDecomposition(nodes=1, tree_edges=[],
                                      bags=[(0, 1, 2)]))

    def test_a_table_at_the_budget_is_solved(self, monkeypatch):
        monkeypatch.setattr(dp, "MAX_STATES", 5)
        assert dp_mis(self.BAG, path_graph(3)) == {0, 2}

    @pytest.mark.parametrize("solve", ENGINES)
    def test_a_table_past_the_budget_is_refused(self, monkeypatch, solve):
        monkeypatch.setattr(dp, "MAX_STATES", 4)
        message = (r"table reached \d+ states on a decomposition of width 2;"
                   r" the budget is 4$")
        with pytest.raises(GraphInputError, match=message):
            solve(self.BAG, path_graph(3))

    @pytest.mark.parametrize("solve", [dp_mis, dp_vc], ids=["mis", "vc"])
    def test_a_skipped_introduce_table_is_refused_at_its_size(
            self, monkeypatch, solve):
        # the introduce of vertex 2 feeds the forget of vertex 0, which
        # reads the three-state table below it; the five-state table the
        # introduce skips is still refused, at its own size
        monkeypatch.setattr(dp, "MAX_STATES", 4)
        with pytest.raises(GraphInputError, match="reached 5 states"):
            solve(self.BAG, path_graph(3))

    @staticmethod
    def refused_size(solve) -> int:
        with pytest.raises(GraphInputError) as refusal:
            solve()
        return int(re.search(r"reached (\d+) states", str(refusal.value))[1])

    def test_a_dominating_set_join_stops_at_the_budget(self, monkeypatch):
        # every table before the first join that passes 2^13 states holds
        # at most 8,080; that join's whole table would hold 26,532
        monkeypatch.setattr(dp, "MAX_STATES", 1 << 13)
        g = grid(8, 8).graph
        assert self.refused_size(lambda: dp_ds(nice(g), g)) <= 2 * (1 << 13)

    def test_a_pattern_join_stops_at_the_budget(self, monkeypatch):
        # six isolated vertices and the edge 5-6, in one-vertex bags and
        # the bag {5, 6} around the hub 7; the pattern is two edges and
        # four isolated vertices.  Every table before the last join holds
        # at most 9 states, and that join's whole table would hold 27
        g = build_graph(8, [(5, 6)])
        td = TreeDecomposition(
            nodes=7, tree_edges=[(0, i) for i in range(1, 7)],
            bags=[(7,), (0,), (1,), (2,), (3,), (4,), (5, 6)])
        h = build_graph(8, [(0, 1), (2, 3)])
        monkeypatch.setattr(dp, "MAX_STATES", 9)
        size = self.refused_size(
            lambda: dp_subiso(make_nice(td), g, h, induced=True))
        assert size <= 2 * 9

    @pytest.mark.parametrize("g, h, budget", [
        pytest.param(grid(3, 3).graph, path_graph(3), 7, id="p3-grid3x3"),
        pytest.param(grid(2, 3).graph, cycle_graph(4), 4, id="c4-grid2x3")])
    def test_a_pattern_introduce_stops_at_the_budget(self, monkeypatch, g, h,
                                                     budget):
        # an introduce offers the new vertex to every twin class, so one
        # introduce's whole table would hold 15 and 9 states here
        monkeypatch.setattr(dp, "MAX_STATES", budget)
        size = self.refused_size(lambda: dp_subiso(nice(g), g, h))
        assert size <= 2 * budget

    def test_the_pattern_join_prunes_overfull_states(self, monkeypatch):
        # the star's decomposition joins at the centre, where the claw's
        # leaves finish on both sides; pairing states whose finished leaves
        # overfill the class would take the search to 8 states
        g = star_graph(5)
        td = TreeDecomposition(
            nodes=6, tree_edges=[(0, i) for i in range(1, 6)],
            bags=[(0,)] + [(0, i) for i in range(1, 6)])
        monkeypatch.setattr(dp, "MAX_STATES", 6)
        found = dp_subiso(make_nice(td), g, star_graph(3))
        assert found == {0: 0, 1: 3, 2: 4, 3: 5}
