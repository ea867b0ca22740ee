"""Real-workload kernels from the paper's evaluation (Section IV-D).

* :mod:`repro.apps.isx` — the ISx integer bucket-sort mini-app [34]:
  distribution phase + local sort, weak-scaled.  The HCL version exploits
  ``HCL::priority_queue`` so data sorts *as it arrives* and the sort cost
  hides behind communication; the BCL version pushes into circular queues
  and pays an explicit local sort.
* :mod:`repro.apps.genome` — synthetic genome / short-read generator (the
  stand-in for Meraculous's proprietary input data).
* :mod:`repro.apps.kmer` — Meraculous k-mer counting: a histogram over all
  k-mers of the read set, built in a distributed hash map.
* :mod:`repro.apps.contig` — Meraculous contig generation: de Bruijn graph
  traversal over an unordered map of k-mer -> extensions.

Every kernel runs against both backends ("hcl" and "bcl") on identical
inputs and *verifies its output* (sortedness, exact counts, genome-substring
contigs), so the benchmark numbers come from correct executions.
"""

from repro.apps.genome import GenomeData, synthesize_genome
from repro.apps.isx import run_isx
from repro.apps.kmer import run_kmer_counting
from repro.apps.contig import run_contig_generation

__all__ = [
    "GenomeData",
    "synthesize_genome",
    "run_isx",
    "run_kmer_counting",
    "run_contig_generation",
]
