"""T2 — ordering quality and analysis cost.

Paper analogue: the justification for nested dissection — fill and operation
count versus minimum-degree-style and bandwidth orderings, plus elimination
tree height (the parallelism proxy).
"""

from harness import banner

from repro.gen import get_paper_matrix
from repro.graph import AdjacencyGraph
from repro.ordering import get_ordering, ordering_quality
from repro.util.tables import format_table

INSTANCES = ["cube-s", "cube-m", "plate-m", "elast-s"]
ORDER_NAMES = ["natural", "rcm", "amd", "nd", "nd-c"]


def test_t2_ordering_quality_table(benchmark):
    rows = []
    for name in INSTANCES:
        lower = get_paper_matrix(name).build()
        graph = AdjacencyGraph.from_symmetric_lower(lower)
        for oname in ORDER_NAMES:
            perm = get_ordering(oname)(graph)
            q = ordering_quality(lower, perm)
            rows.append(
                [
                    name,
                    oname,
                    q.n,
                    q.nnz_factor,
                    round(q.fill_ratio, 2),
                    q.factor_flops / 1e6,
                    q.etree_height,
                ]
            )
    banner("T2", "Ordering quality: fill, flops, etree height per ordering")
    print(
        format_table(
            ["matrix", "ordering", "n", "nnz(L)", "fill", "Mflops", "tree height"],
            rows,
        )
    )

    # ND must beat natural on every 3D instance (the paper-family claim).
    by_key = {(r[0], r[1]): r for r in rows}
    for name in ("cube-s", "cube-m"):
        assert by_key[(name, "nd")][5] < by_key[(name, "natural")][5]

    lower = get_paper_matrix("cube-s").build()
    graph = AdjacencyGraph.from_symmetric_lower(lower)
    amd = get_ordering("amd")
    benchmark(lambda: amd(graph))
