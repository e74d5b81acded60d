"""Raw group-action tables: the eight fixed actions and seeded random ones.

An action is a dict with ``elements``, ``mul``, ``unit``, ``carrier`` and
``act`` (keyed (g, x)), built without the program so that the same
tables feed both the program and the reference computations.  Also the
way back: a plain copy of a program 2-category's tables.
"""

from __future__ import annotations


def _cyclic(n):
    elements = [f"g{i}" for i in range(n)]
    mul = {(elements[i], elements[j]): elements[(i + j) % n] for i in range(n) for j in range(n)}
    return elements, mul


def _action(n, carrier, image):
    """C_n acting on ``carrier``; ``image(i, x)`` is g_i applied to x."""
    elements, mul = _cyclic(n)
    act = {(f"g{i}", x): image(i, x) for i in range(n) for x in carrier}
    return {"elements": elements, "mul": mul, "unit": "g0", "carrier": list(carrier), "act": act}


def regular(n):
    carrier = [f"x{j}" for j in range(n)]
    return _action(n, carrier, lambda i, x: f"x{(i + int(x[1:])) % n}")


def trivial(n, points):
    return _action(n, points, lambda i, x: x)


def fixed_actions():
    """The eight actions of the acceptance battery, rebuilt from their definitions."""
    swap3 = _action(2, ["a", "b", "c"], lambda i, x: {"a": "b", "b": "a"}.get(x, x) if i else x)
    c4_fixed = _action(
        4, ["a0", "a1", "a2", "a3", "e"],
        lambda i, x: x if x == "e" else f"a{(i + int(x[1])) % 4}",
    )
    three_pairs = _action(
        2, ["a0", "a1", "b0", "b1", "c0", "c1"],
        lambda i, x: f"{x[0]}{(int(x[1]) + i) % 2}",
    )
    parity = _action(6, ["p", "q"], lambda i, x: x if i % 2 == 0 else {"p": "q", "q": "p"}[x])
    return {
        "swap-on-3": swap3,
        "regular-c3": regular(3),
        "trivial-c2": trivial(2, ["p", "q"]),
        "regular-c4": regular(4),
        "c4-plus-fixed-point": c4_fixed,
        "trivial-c6-point": trivial(6, ["p"]),
        "c2-three-pairs": three_pairs,
        "c6-parity-swap": parity,
    }


def random_action(rng, n, size):
    """C_n on ``size`` points split into random orbits, with shuffled names.

    Orbit sizes are drawn from the divisors of n, so each orbit is the
    rotation action of C_n on Z/k.  The table sizes of its delooped
    slices depend only on (n, size), so every seed costs the same.
    """
    divisors = [k for k in range(1, n + 1) if n % k == 0]
    orbit_sizes = []
    left = size
    while left:
        k = rng.choice([d for d in divisors if d <= left])
        orbit_sizes.append(k)
        left -= k
    names = [f"p{j}" for j in range(size)]
    rng.shuffle(names)
    image = {}
    start = 0
    for k in orbit_sizes:
        orbit = names[start:start + k]
        for i in range(n):
            for j, x in enumerate(orbit):
                image[(i, x)] = orbit[(j + i) % k]
        start += k
    carrier = sorted(names)
    rng.shuffle(carrier)
    return _action(n, carrier, lambda i, x: image[(i, x)])


def build(ga, raw):
    """A fresh validated GroupAction over the raw tables (``ga`` is morpheq.group_action)."""
    group = ga.FiniteGroup(raw["elements"], raw["mul"], raw["unit"])
    return ga.GroupAction(group, raw["carrier"], raw["act"])


def tables_of(d):
    """Plain-dict copy of a Finite2Category's tables."""
    return {
        "objects": list(d.objects),
        "one_cells": {a.id: (a.dom, a.cod) for a in d.one_cells.values()},
        "identity": dict(d.skeleton.identity),
        "compose": dict(d.skeleton.compose_table),
        "two_cells": {c.id: (c.src, c.tgt) for c in d.two_cells.values()},
        "identity2": dict(d.identity2),
        "vcomp": dict(d.vcomp_table),
        "whisker_left": dict(d.wl_table),
        "whisker_right": dict(d.wr_table),
    }
