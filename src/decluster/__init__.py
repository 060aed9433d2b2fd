"""Declustering toolkit: digital nets, latin colorings, exact discrepancy.

Blocks of a d-dimensional grid are assigned to M disks so that any
axis-aligned range query is spread as evenly as possible. The package
builds such assignments from digital (0,m,d)-nets, verifies their
structural guarantees, and measures the worst-case imbalance exactly.
"""

from .coloring import (
    LatinColoring,
    Scheme,
    color_grid,
    export_map_csv,
    load_scheme,
    make_baseline,
    save_scheme,
    scheme_from_dict,
    scheme_to_dict,
    scheme_to_json_bytes,
    verify_latin,
)
from .discrepancy import (
    Box,
    DiscReport,
    ScaledValue,
    WitnessCertificate,
    complement_decompose,
    disc_report,
    find_positive_witness,
    periodic_box_counts,
    report_to_dict,
    save_report,
)
from .errors import (
    BudgetExceededError,
    DeclusterError,
    InvalidNetError,
    NetConstructionError,
    ParameterError,
    SchemeFormatError,
)
from .gf import PrimePowerField, field_for, field_for_order, find_irreducible, is_prime
from .nets import (
    DigitalNet,
    ElementaryInterval,
    GeneratorSet,
    NetCheck,
    NetParams,
    net_from_generators,
    pascal_power_generators,
    save_net,
    verify_net,
)
from .schemegen import (
    Factorization,
    SweepRow,
    factorize_canonical,
    generate_scheme,
    regenerate_scheme,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Box",
    "DeclusterError",
    "DigitalNet",
    "DiscReport",
    "ElementaryInterval",
    "Factorization",
    "GeneratorSet",
    "InvalidNetError",
    "LatinColoring",
    "NetCheck",
    "NetConstructionError",
    "NetParams",
    "ParameterError",
    "PrimePowerField",
    "ScaledValue",
    "Scheme",
    "SchemeFormatError",
    "SweepRow",
    "WitnessCertificate",
    "color_grid",
    "complement_decompose",
    "disc_report",
    "export_map_csv",
    "factorize_canonical",
    "field_for",
    "field_for_order",
    "find_irreducible",
    "find_positive_witness",
    "generate_scheme",
    "is_prime",
    "load_scheme",
    "make_baseline",
    "net_from_generators",
    "pascal_power_generators",
    "periodic_box_counts",
    "regenerate_scheme",
    "report_to_dict",
    "save_net",
    "save_report",
    "save_scheme",
    "scheme_from_dict",
    "scheme_to_dict",
    "scheme_to_json_bytes",
    "sweep",
    "verify_latin",
    "verify_net",
]
