import hashlib

import pytest

from treesweep.forest import (ArgumentError, Forest, Graph, enumerate_trees,
                              path_tree, serialize, spider_tree, star_tree,
                              theorem1_tree)
from treesweep.oracle import (CapacityError, es_exact,
                              gap_characterization_check, ns_exact,
                              pathwidth_exact, pn_exact, pn_plus_exact,
                              stable_exact)

from helpers import cycle_graph, grid_graph, three_paths_on_a_junction


def test_process_number_examples():
    assert pn_exact(star_tree(5)) == 1
    assert pn_exact(path_tree(4)) == 2
    assert pn_exact(cycle_graph(5)) == 3
    assert pn_exact(cycle_graph(6)) == 3
    assert pn_exact(grid_graph(3, 3)) == 4
    assert pn_exact(path_tree(1)) == 0
    assert pn_exact(path_tree(3)) == 1


def test_pn_plus_examples():
    single = path_tree(1)
    assert pn_plus_exact(single, 0) == 1  # place and remove, one agent
    p2 = path_tree(2)
    assert pn_plus_exact(p2, 1) == 1
    # a tree with vector (1,2): value 1 but two agents to finish at the root
    p3 = path_tree(3)
    assert pn_exact(p3) == 1
    assert pn_plus_exact(p3, 2) == 2
    assert pn_plus_exact(p3, 1) == 1  # at the center one agent suffices


def test_stability_examples():
    assert stable_exact(star_tree(4), 0)          # star at its center
    assert stable_exact(path_tree(4), 3)          # two agents finish at an end
    t1 = theorem1_tree(1)
    assert stable_exact(t1, t1.n - 1)


def test_pathwidth_examples():
    assert pathwidth_exact(path_tree(6)) == 1
    assert pathwidth_exact(star_tree(4)) == 1
    assert pathwidth_exact(path_tree(1)) == 0
    assert pathwidth_exact(theorem1_tree(2)) == 2
    assert pathwidth_exact(cycle_graph(5)) == 2


def test_search_numbers():
    assert ns_exact(path_tree(1)) == 1
    assert ns_exact(path_tree(2)) == 2
    assert ns_exact(star_tree(3)) == 2
    assert es_exact(path_tree(2)) == 1
    assert es_exact(path_tree(4)) in (ns_exact(path_tree(4)) - 1,
                                      ns_exact(path_tree(4)))
    assert es_exact(star_tree(3)) == 2
    assert es_exact(spider_tree(2, 2, 2)) == 2
    assert es_exact(path_tree(1)) == 0


def test_relations_small(trees_up_to_8):
    for t in trees_up_to_8:
        pw = pathwidth_exact(t)
        pn = pn_exact(t)
        ns = ns_exact(t)
        es = es_exact(t)
        assert ns == pw + 1
        assert pw <= pn <= pw + 1
        assert es in (ns - 1, ns)
        for r in t.vertices:
            plus = pn_plus_exact(t, r)
            assert pn <= plus <= pn + 1 or (t.n == 1 and plus == 1)


# sha256 of the lines `_golden_lines` yields: pn, ns, es and pw on every tree
# of up to 9 vertices, pn+ at every root of the trees of up to 8, and pn, ns
# and pw on the cycles C3..C7 and the 2x2, 2x3 and 3x3 grids.
ORACLE_GOLDEN = "2ee3103cd7f822381422230e020a9b2c0c42939ca13555431b4a24c1be20a610"


def _golden_lines():
    for n in range(1, 10):
        for t in enumerate_trees(n):
            key = serialize(t).replace("\n", ";")
            yield (f"{key} pn={pn_exact(t)} ns={ns_exact(t)} es={es_exact(t)} "
                   f"pw={pathwidth_exact(t)}")
            if n <= 8:
                plus = " ".join(str(pn_plus_exact(t, r)) for r in sorted(t.vertices))
                yield f"{key} pn+={plus}"
    graphs = ([(f"C{k}", cycle_graph(k)) for k in range(3, 8)]
              + [(f"grid{r}x{c}", grid_graph(r, c)) for r, c in ((2, 2), (2, 3), (3, 3))])
    for name, g in graphs:
        yield f"{name} pn={pn_exact(g)} ns={ns_exact(g)} pw={pathwidth_exact(g)}"


def test_oracle_values_golden():
    text = "\n".join(_golden_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_GOLDEN


# sha256 of the lines `_rooted_golden_lines` yields: pn+ and stability at
# every root of every tree of 9 and 10 vertices.
ROOTED_GOLDEN = "43be17c0faf39520a32f6f4443fc873eb50f061b638a9b6977e8bf4d9d6cb017"


def _rooted_golden_lines():
    for n in (9, 10):
        for t in enumerate_trees(n):
            key = serialize(t).replace("\n", ";")
            roots = sorted(t.vertices)
            plus = " ".join(str(pn_plus_exact(t, r)) for r in roots)
            stable = " ".join(str(int(stable_exact(t, r))) for r in roots)
            yield f"{key} pn+={plus} stable={stable}"


def test_rooted_oracle_values_golden():
    text = "\n".join(_rooted_golden_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == ROOTED_GOLDEN


def test_theorem1_growth():
    for k in (0, 1, 2):
        assert pn_exact(theorem1_tree(k)) == k


def test_capacity_limits():
    import treesweep.forest as forest
    big = forest.random_tree(14, 0)
    with pytest.raises(CapacityError):
        pn_exact(big)
    with pytest.raises(CapacityError):
        es_exact(forest.random_tree(11, 0))


@pytest.mark.parametrize("call,error,message", [
    (lambda: pn_plus_exact(path_tree(13), 0), CapacityError,
     "pn+ oracle limited to n <= 12"),
    (lambda: pn_plus_exact(path_tree(5), 9), ArgumentError, "vertex 9 not in graph"),
    (lambda: pathwidth_exact(path_tree(17)), CapacityError,
     "pathwidth oracle limited to n <= 16"),
    (lambda: ns_exact(path_tree(12)), CapacityError, "ns oracle limited to n <= 11"),
    (lambda: gap_characterization_check(Forest(range(4), [(0, 1), (2, 3)])),
     ArgumentError, "gap check expects a single tree"),
], ids=["pn-plus-cap", "pn-plus-absent", "pathwidth-cap", "ns-cap", "gap-forest"])
def test_oracle_error_paths(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


def test_pathwidth_of_the_empty_graph_is_zero():
    assert pathwidth_exact(Graph()) == 0


def test_gap_characterization_small(trees_up_to_8):
    for t in trees_up_to_8:
        assert gap_characterization_check(t)
        assert gap_characterization_check(t, "es")


@pytest.mark.parametrize("param", ["ns", "pw", "bogus"])
def test_gap_characterization_takes_pn_or_es_only(param):
    with pytest.raises(ArgumentError, match="'pn' or 'es'"):
        gap_characterization_check(spider_tree(2, 2, 2), param)


def test_gap_characterization_in_regime():
    f = three_paths_on_a_junction()
    assert pathwidth_exact(f) == 2 and pn_exact(f) == 3
    assert gap_characterization_check(f)
    # the growth construction at level 2 has no gap and still agrees
    assert gap_characterization_check(theorem1_tree(2))
