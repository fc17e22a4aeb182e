"""Large-class memory ceiling: the Lemma 2 witness on aux of H(5) and Phi(4).

    PYTHONPATH=src python ci/memory_ceiling.py

Builds the aux class of H(5) and Phi(4), 262,144 members over 360 points,
and checks the witness on it.  Exits 1 when the witness is not shattered,
when ``product_patterns`` on the witness differs from the built class read
there, or when the process's peak RSS (``ru_maxrss``, in KB on Linux)
passes 600 MB.
"""

import resource
import sys

from priverm.constructions import construct_lemma2_witness, construct_theorem1
from priverm.core import product_index
from priverm.vc import aux_mask, build_aux_class, is_shattered, product_patterns

CEILING_MB = 600

H, _ = construct_theorem1(5)
_, Phi = construct_theorem1(4)
witness = construct_lemma2_witness(H, Phi)
aux = build_aux_class(H, Phi)
idx = [product_index(t.x, t.xstar, t.y, Phi.domain.size) for t in witness]
shattered = is_shattered(aux, idx)
points = [(t.x, t.xstar, t.y) for t in witness]
built = {sum(h.bits[p] << j for j, p in enumerate(idx)) for h in aux}
same = product_patterns(H, Phi, points, aux_mask) == built
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"{len(witness)} triples, shattered {shattered}, "
      f"product_patterns equal to the built class {same}, "
      f"peak RSS {peak:.0f} MB (ceiling {CEILING_MB} MB)")
sys.exit(not (shattered and same) or peak > CEILING_MB)
