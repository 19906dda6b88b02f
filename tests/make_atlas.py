"""Rebuild `atlas.txt`, the Atlas of Graphs fixture, byte for byte.

The Atlas of Graphs (Read & Wilson, "An Atlas of Graphs", 1998) lists
all 1,253 graphs with 0-7 vertices up to isomorphism; networkx ships it
as `networkx.graph_atlas_g()`.  The fixture holds them in atlas order,
each as a "# G<index>" comment line followed by the graph in the
edge-list format of `widthlab.graph.parse_edge_list` ("n m", then one
"u v" line per edge with u < v, sorted).

networkx is needed only to regenerate the fixture; the tests read
`atlas.txt` and never import it.  Run from the repository root:

    python tests/make_atlas.py
"""

from pathlib import Path

import networkx as nx

FIXTURE = Path(__file__).with_name("atlas.txt")


def atlas_text() -> str:
    lines = [
        "# The Atlas of Graphs (Read & Wilson, 1998): every graph with 0-7 vertices",
        "# up to isomorphism, in atlas order.  Built by tests/make_atlas.py from",
        "# networkx.graph_atlas_g(); do not edit by hand.",
    ]
    for index, g in enumerate(nx.graph_atlas_g()):
        edges = sorted((min(u, v), max(u, v)) for u, v in g.edges())
        lines.append(f"# G{index}")
        lines.append(f"{g.number_of_nodes()} {len(edges)}")
        lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    FIXTURE.write_text(atlas_text())
