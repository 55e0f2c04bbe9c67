"""Catalog of named singularities: the fourteen exceptional unimodular
polynomials plus ADE and simple-elliptic examples.

Entries carry the expected central charge, Milnor number, and transpose
partner so the catalog doubles as a self-test fixture.  A custom catalog
file can be supplied through the CLI flag or the PRIMFORM_CATALOG
environment variable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .algebra import Poly, parse_rational
from .milnor import WeightedPolynomial

CATALOG_ENV_VAR = "PRIMFORM_CATALOG"

EXCEPTIONAL_NAMES = (
    "E12", "E13", "E14", "Z11", "Z12", "Z13", "W12",
    "W13", "Q10", "Q11", "Q12", "S11", "S12", "U12",
)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    family: str
    variables: tuple[str, ...]
    weights: tuple[Fraction, ...]
    poly: Poly
    expected_central_charge: Fraction | None
    expected_milnor_number: int | None
    expected_transpose: str | None

    def weighted_polynomial(self) -> WeightedPolynomial:
        return WeightedPolynomial(self.variables, self.weights, self.poly)

    def render(self) -> str:
        return self.poly.render(self.variables)


def _entry_from_dict(raw: dict) -> CatalogEntry:
    variables = tuple(raw["variables"])
    weights = tuple(parse_rational(w) for w in raw["weights"])
    poly = Poly.from_records(raw["polynomial"], len(variables))
    expected = raw.get("expected", {})
    c_hat = expected.get("central_charge")
    mu = expected.get("milnor_number")
    return CatalogEntry(
        name=raw["name"],
        family=raw.get("family", ""),
        variables=variables,
        weights=weights,
        poly=poly,
        expected_central_charge=parse_rational(c_hat) if c_hat is not None else None,
        expected_milnor_number=int(mu) if mu is not None else None,
        expected_transpose=expected.get("transpose_name"),
    )


def load_catalog(path: str | None = None) -> dict[str, CatalogEntry]:
    """Load a catalog file; falls back to env var, then the packaged data."""
    if path is None:
        path = os.environ.get(CATALOG_ENV_VAR)
    if path is None:
        text = resources.files("primform.data").joinpath("catalog.json").read_text()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        entries = [_entry_from_dict(item) for item in json.loads(text)["entries"]]
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed catalog {path or 'catalog.json'}: {exc!r}") from exc
    catalog = {}
    for entry in entries:
        if entry.name in catalog:
            raise ValueError(f"duplicate catalog entry {entry.name!r}")
        catalog[entry.name] = entry
    return catalog
