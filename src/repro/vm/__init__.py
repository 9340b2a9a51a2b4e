"""Virtual-memory machinery: per-node page tables (the mapping decision
CC-NUMA vs. S-COMA vs. unmapped is per node, per page).

TLB shootdowns and the RAD's LPA<->GPA translation are charged as the
paper's fixed Table 2 page-operation costs (see
:class:`repro.common.params.CostParams`); no result reads TLB contents
or the translation table, so neither is modelled as state.
"""

from repro.vm.page_table import (
    MAP_CC,
    MAP_LOCAL,
    MAP_SCOMA,
    MAP_UNMAPPED,
    PageTable,
)

__all__ = [
    "MAP_CC",
    "MAP_LOCAL",
    "MAP_SCOMA",
    "MAP_UNMAPPED",
    "PageTable",
]
