"""Truncated nerves: level groups, simplicial identities, bar multiplication.

The nerve of a 2-group is a simplicial group whose level p consists of
composable p-strings of morphisms; each string is pinned down by its start
object and the kernel parts of its arrows, so level p has |G| * |H|^p
elements.  The semidirect product with the pair 2-group multiplies levelwise
by a twisted componentwise rule.  Each check multiplies every string by the
strings of 0 and of the level's generators, which covers every pair, as a
bijection that is a hom on generators is an isomorphism; the report counts
the pairs so covered.
"""

from cech2.crossed_modules import aut_two_group
from cech2.fixtures import z2z4_crossed_module
from cech2.groups import cyclic_group, inversion_action
from cech2.nerve import (
    check_bar_multiplication,
    check_level_iso,
    check_simplicial_identities,
    nerve_two_group,
)

for xm in (z2z4_crossed_module(), aut_two_group(cyclic_group(3))):
    nsg = nerve_two_group(xm, 4)
    ids = check_simplicial_identities(nsg)
    iso = check_level_iso(nsg, xm)
    sizes = [g.order for g in nsg.levels]
    predicted = [xm.G.order * xm.H.order**p for p in range(5)]
    print(f"nerve of {xm.name}:")
    print(f"  level orders      {sizes}")
    print(f"  |G| * |H|^p       {predicted}")
    print(f"  simplicial identities: {ids['ok']}, string model agrees: {iso['ok']}")

print()
z2, z3 = cyclic_group(2), cyclic_group(3)
bar = check_bar_multiplication(z2, z3, inversion_action(z2, z3), 2)
print("bar multiplication for Z2 acting on Z3 by inversion:")
print(f"  pairs checked per level: {bar['pairs']}, all match: {bar['ok']}")
