"""Catalog of named singularities: the fourteen exceptional unimodular
polynomials plus ADE and simple-elliptic examples.

Each entry is an immutable named tuple that carries the expected central
charge, Milnor number, and transpose partner, so the catalog doubles as a
self-test fixture.  A custom catalog file can be supplied through the CLI
flag or the PRIMFORM_CATALOG environment variable.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from importlib import resources

from .algebra import SSeries, as_list, parse_rational, variable_names
from .milnor import WeightedPolynomial

CATALOG_ENV_VAR = "PRIMFORM_CATALOG"

EXCEPTIONAL_NAMES = (
    "E12", "E13", "E14", "Z11", "Z12", "Z13", "W12",
    "W13", "Q10", "Q11", "Q12", "S11", "S12", "U12",
)


class CatalogEntry(
    namedtuple(
        "CatalogEntry",
        "name variables weights poly expected_central_charge"
        " expected_milnor_number expected_transpose",
    )
):
    """A named polynomial; an expected_* field is None if the catalog has none."""

    __slots__ = ()

    def weighted_polynomial(self) -> WeightedPolynomial:
        return WeightedPolynomial(self.variables, self.weights, self.poly)


def _entry_from_dict(raw: dict) -> CatalogEntry:
    name = raw["name"]
    if type(name) is not str:
        raise ValueError(f"name must be a string, got {name!r}")
    variables = variable_names(as_list(raw["variables"], "variables"))
    weights = tuple(parse_rational(w) for w in as_list(raw["weights"], "weights"))
    poly = SSeries.from_records(as_list(raw["polynomial"], "polynomial"), len(variables))
    expected = raw.get("expected", {})
    c_hat = expected.get("central_charge")
    mu = expected.get("milnor_number")
    if mu is not None and type(mu) is not int:
        raise ValueError(f"milnor_number must be an integer, got {mu!r}")
    transpose = expected.get("transpose_name")
    if transpose is not None and type(transpose) is not str:
        raise ValueError(f"transpose_name must be a string, got {transpose!r}")
    return CatalogEntry(
        name=name,
        variables=variables,
        weights=weights,
        poly=poly,
        expected_central_charge=parse_rational(c_hat) if c_hat is not None else None,
        expected_milnor_number=mu,
        expected_transpose=transpose,
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
    except (
        AttributeError, KeyError, RecursionError, TypeError, ValueError, ZeroDivisionError
    ) as exc:
        raise ValueError(f"malformed catalog {path or 'catalog.json'}: {exc!r}") from exc
    catalog = {}
    for entry in entries:
        if entry.name in catalog:
            raise ValueError(f"duplicate catalog entry {entry.name!r}")
        catalog[entry.name] = entry
    return catalog
