#!/usr/bin/env python3
"""Survey burning statistics and configuration-space homology over small families.

Prints, for each graph: number of burnings, burning number, whether any
burning map is a homomorphism, the dimension of the configuration space, and
its integer homology.  Useful for spotting patterns past the worked examples.
"""

import argparse

from graphburning import (
    burning_count,
    burning_number,
    complete_graph,
    configuration_space,
    cube_graph,
    cycle_graph,
    homology,
    iter_burnings,
    path_graph,
)


def survey(name, g):
    has_hom = any(b.is_homomorphism for b in iter_burnings(g))
    c = configuration_space(g)
    groups = homology(c)
    hom_text = ", ".join(str(grp) for grp in groups)
    print(f"{name:14s} burnings={burning_count(g):5d} b={burning_number(g)} "
          f"hom={'y' if has_hom else 'n'} dim={c.dimension} H*=[{hom_text}]")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8,
                        help="largest family parameter to survey")
    args = parser.parse_args()
    for n in range(1, args.max_n + 1):
        survey(f"path({n})", path_graph(n))
    for n in range(3, args.max_n + 1):
        survey(f"cycle({n})", cycle_graph(n))
    for n in range(1, min(args.max_n, 6) + 1):
        survey(f"complete({n})", complete_graph(n))
    survey("cube", cube_graph())


if __name__ == "__main__":
    main()
