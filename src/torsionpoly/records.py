"""Knot-record ingestion.

Line-oriented sections `[section]` with `key = value` pairs, only those the
parser reads; polynomials use the canonical text grammar and words the
letter grammar, so the files diff cleanly.  Complex numbers are written as
`re im` pairs.  The record's types live here, so a record parses without
the numeric engine.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .charvar import APoly, apoly_normalize
from .front import RecordError, bundled_record_text, record_text  # noqa: F401
from .polys import MultiPoly, PolyError, from_text, nearly_vanishes
from .words import Presentation, WordError, parse_word

RATIONAL_BITS = 64       # bounds the exact work a record number starts
RECORD_DEGREE = 64       # bounds the total degree of a record polynomial


class TorsionSymError(ValueError):
    pass


@dataclass(frozen=True)
class ParamTorsion:
    """Torsion parametrized by auxiliary variables on a constraint variety."""

    tau_expr: MultiPoly
    constraints: Tuple[MultiPoly, ...]
    aux_vars: Tuple[str, ...]
    trace_var: str

    @classmethod
    def create(cls, tau_expr, constraints, aux_vars, trace_var, hints):
        """Check that the hints, a point given as a value for each variable,
        satisfy every constraint."""
        aux_used = [v for v in aux_vars if tau_expr.degree_in(v) > 0]
        if aux_used and not constraints:
            raise TorsionSymError("auxiliary variables without constraints")
        for c in constraints:
            if not nearly_vanishes(c, hints):
                raise TorsionSymError("hint violates constraint")
        return cls(tau_expr, tuple(constraints), tuple(aux_vars), trace_var)


@dataclass(frozen=True)
class PositiveRealRoot:
    """Root selection rule: the positive real root (4_1 longitude convention)."""


@dataclass(frozen=True)
class NearestToHint:
    """Root selection rule: nearest to a stored numeric hint."""

    hint: complex


def _parse_complex(tokens: List[str], where: str) -> complex:
    """A finite `re [im]`: nan and inf would compare false against every
    tolerance downstream."""
    try:
        value = complex(*map(float, tokens)) if len(tokens) in (1, 2) else None
    except ValueError:
        value = None
    if value is None or not cmath.isfinite(value):
        raise RecordError(f"{where}: expected finite `re [im]`, got {' '.join(tokens)!r}")
    return value


# a number in Fraction's grammar: sign, numerator, then a denominator, or
# fraction digits and an exponent
_NUMBER = re.compile(r"\s*([-+]?)(?=\d|\.\d)(\d*|\d+(?:_\d+)*)"
                     r"(?:/(\d+(?:_\d+)*)"
                     r"|(?:\.(\d*|\d+(?:_\d+)*))?(?:[eE]([-+]?\d+(?:_\d+)*))?)\s*")
_DIGITS = 2 * RATIONAL_BITS     # significant digits a number may be written with


def _rational(text: str, what: str) -> Fraction:
    """The exact rational a text such as `-3/4`, `2.5` or `1e3` names;
    ValueError for any other text, a zero denominator included, and for a
    numerator or denominator over RATIONAL_BITS bits.

    Fraction expands a decimal exponent in full, and refuses a digit string
    of over 4300 digits with a message that names neither the key nor the
    cap, so a number is sized from its text and converted from its
    significant digits.  A written numerator or denominator, or an
    exponent, of more than _DIGITS significant digits is refused whatever
    it reduces to.  A decimal's significant digits, with its trailing zeros
    moved into the exponent k, form an integer b, and its value is b·10^k:
    for |k| > RATIONAL_BITS the denominator is at least 2^-k or the value
    at least 10^k, and a b of more than _DIGITS digits leaves a numerator
    of at least b/10^RATIONAL_BITS >= 10^RATIONAL_BITS."""
    too_long = ValueError(f"{what} has a numerator or denominator over "
                          f"{RATIONAL_BITS} bits")
    m = _NUMBER.fullmatch(text)
    if m is None:
        value = Fraction(text)      # not a number: Fraction's own error
    else:
        sign, num, den, frac, exp = (g.replace("_", "") if g else ""
                                     for g in m.groups())
        exp_sign = -1 if exp.startswith("-") else 1
        num, den, exp = (g.lstrip("+-").lstrip("0") for g in (num, den, exp))
        if max(map(len, (num, den, exp))) > _DIGITS:
            raise too_long
        if m[3]:
            if not den:
                raise ValueError(f"zero denominator in {text!r}")
            value = Fraction(int(num or "0"), int(den))
        else:
            digits = num + frac
            body = digits.rstrip("0")
            k = exp_sign * int(exp or "0") - len(frac) + len(digits) - len(body)
            body = body.lstrip("0")
            if not body:
                return Fraction(0)
            if abs(k) > RATIONAL_BITS or len(body) > _DIGITS:
                raise too_long
            value = (Fraction(int(body) * 10 ** k) if k >= 0
                     else Fraction(int(body), 10 ** -k))
        if sign == "-":
            value = -value
    if max(value.numerator.bit_length(),
           value.denominator.bit_length()) > RATIONAL_BITS:
        raise too_long
    return value


def _degree_capped(p: MultiPoly) -> MultiPoly:
    """p, or PolyError when its total degree passes RECORD_DEGREE."""
    if max(map(sum, p.as_dict()), default=0) > RECORD_DEGREE:
        raise PolyError(f"total degree over {RECORD_DEGREE}")
    return p


@dataclass
class RawSection:
    name: str
    line: int
    entries: List[Tuple[str, str, int]] = field(default_factory=list)
    read: set = field(default_factory=set)      # the keys the parser asked for

    def get(self, key: str) -> Optional[Tuple[str, int]]:
        """(value, line) of the key's one entry, or None."""
        found = self.get_all(key)
        if len(found) > 1:
            raise RecordError(f"[{self.name}] line {found[1][1]}: duplicate key {key!r}")
        return found[0] if found else None

    def require(self, key: str) -> Tuple[str, int]:
        found = self.get(key)
        if found is None:
            raise RecordError(f"[{self.name}] line {self.line}: missing key {key!r}")
        return found

    def note(self, key: str) -> str:
        """The value of an optional free-text key, or ''."""
        found = self.get(key)
        return found[0] if found else ""

    def get_all(self, key: str) -> List[Tuple[str, int]]:
        self.read.add(key)
        return [(v, ln) for k, v, ln in self.entries if k == key]


def _parse_sections(text: str) -> Dict[str, RawSection]:
    sections: Dict[str, RawSection] = {}
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise RecordError(f"[{name}] line {ln}: duplicate section")
            current = RawSection(name, ln)
            sections[name] = current
            continue
        place = f"[{current.name}] line {ln}" if current else f"line {ln}"
        if "=" not in line:
            raise RecordError(f"{place}: expected `key = value`")
        if current is None:
            raise RecordError(f"{place}: entry outside any [section]")
        key, value = line.split("=", 1)
        current.entries.append((key.strip(), value.strip(), ln))
    return sections


@dataclass
class Rho0Data:
    trace_value: Fraction
    rule: object                  # PositiveRealRoot | NearestToHint


@dataclass
class KnotRecord:
    name: str
    presentation: Presentation
    presentation_note: str
    apoly: Optional[APoly]
    branch_hint: Optional[Tuple[float, float]]
    param_torsion: Optional[ParamTorsion]
    trace_of: str
    torsion_note: str
    trace_field_poly: Optional[MultiPoly]
    trace_field_embedding: Optional[complex]
    rho0: Dict[str, Rho0Data]
    mu_note: str
    riley_seed: complex
    # Symbolic objects derived from this record, filled lazily by
    # `pipelines`; not part of the record's value.
    artifacts: dict = field(default_factory=dict, init=False, compare=False,
                            repr=False)


def _parse_rule(text: str, where: str):
    toks = text.split()
    if toks == ["positive-real"]:
        return PositiveRealRoot()
    if toks and toks[0] == "hint":
        return NearestToHint(_parse_complex(toks[1:], where))
    raise RecordError(f"{where}: unknown root-selection rule {text!r}")


def parse_record(text: str) -> KnotRecord:
    sections = _parse_sections(text)
    end = max(1, len(text.splitlines()))    # where a missing section is noticed

    def section(name: str) -> RawSection:
        if name not in sections:
            raise RecordError(f"[{name}] line {end}: the record ends without this section")
        return sections[name]

    knot = section("knot")
    name, _ = knot.require("name")

    pres_sec = section("presentation")
    try:
        gens = int(pres_sec.require("generators")[0])
        relators = [parse_word(v, gens) for v, _ in pres_sec.get_all("relator")]
        pres = Presentation.create(
            gens, relators,
            parse_word(pres_sec.require("meridian")[0], gens),
            parse_word(pres_sec.require("longitude")[0], gens))
        if len(relators) != gens - 1:
            raise WordError(
                f"presentation is not deficiency one: {len(relators)} relators "
                f"on {gens} generators")
        if not pres.abelianization_ok():
            raise WordError("abelianization is not infinite cyclic")
    except ValueError as exc:
        raise RecordError(f"[presentation] line {pres_sec.line}: {exc}") from exc

    apoly = None
    branch_hint = None
    if "apoly" in sections:
        sec = sections["apoly"]
        triples = []
        for v, ln in sec.get_all("term"):
            toks = v.split()
            if len(toks) != 3:
                raise RecordError(f"[apoly] line {ln}: expected `a b c`")
            try:
                a, b = int(toks[0]), int(toks[1])
                if abs(a) + abs(b) > RECORD_DEGREE:
                    raise ValueError(f"term total degree over {RECORD_DEGREE}")
                triples.append((a, b, _rational(toks[2], "term coefficient")))
            except ValueError as exc:
                raise RecordError(f"[apoly] line {ln}: {exc}") from exc
        if not triples:
            raise RecordError(f"[apoly] line {sec.line}: no terms")
        apoly = apoly_normalize(triples)
        bh = sec.get("branch_hint")
        if bh is not None:
            toks, where = bh[0].split(), f"[apoly] line {bh[1]}"
            if len(toks) != 2:
                raise RecordError(f"{where}: branch_hint needs two numbers")
            hint = _parse_complex(toks, where)
            branch_hint = (hint.real, hint.imag)

    param = None
    trace_of = ""
    torsion_note = ""
    if "param_torsion" in sections:
        sec = sections["param_torsion"]
        trace_of, ln = sec.require("trace_of")
        if trace_of not in ("lambda", "mu"):
            raise RecordError(f"[param_torsion] line {ln}: "
                              f"trace_of must be lambda or mu, got {trace_of!r}")
        aux = tuple(sec.require("aux_vars")[0].split())
        trace_var, _ = sec.require("trace_var")
        allvars = aux + (trace_var,)

        def polynomial(entry):
            text, ln = entry
            try:
                return _degree_capped(from_text(text, allvars))
            except PolyError as exc:
                raise RecordError(f"[param_torsion] line {ln}: {exc}") from exc

        tau_expr = polynomial(sec.require("tau_expr"))
        constraints = [polynomial(e) for e in sec.get_all("constraint")]
        hints = {}
        for v, ln in sec.get_all("hint"):
            toks = v.split()
            if len(toks) < 2 or toks[0] not in allvars:
                raise RecordError(f"[param_torsion] line {ln}: bad hint {v!r}")
            hints[toks[0]] = _parse_complex(toks[1:], f"[param_torsion] line {ln}")
        missing = [v for v in allvars if v not in hints]
        if missing:
            raise RecordError(
                f"[param_torsion] line {sec.line}: missing hint for {missing[0]!r}")
        try:
            param = ParamTorsion.create(tau_expr, constraints, aux, trace_var, hints)
        except TorsionSymError as exc:
            raise RecordError(f"[param_torsion] line {sec.line}: {exc}") from exc
        torsion_note = sec.note("note")

    if apoly is None and param is None:
        raise RecordError(f"[apoly] line {end}: the record needs [apoly] or [param_torsion]")

    tf_poly = None
    tf_emb = None
    if "trace_field" in sections:
        sec = sections["trace_field"]
        poly, ln = sec.require("poly")
        try:
            tf_poly = _degree_capped(from_text(poly, ["x"]))
        except PolyError as exc:
            raise RecordError(f"[trace_field] line {ln}: {exc}") from exc
        emb, ln = sec.require("embedding")
        tf_emb = _parse_complex(emb.split(), f"[trace_field] line {ln}")

    rho0: Dict[str, Rho0Data] = {}
    mu_note = ""
    riley_seed = complex(0.5, 0.9)
    if "rho0" in sections:
        sec = sections["rho0"]
        mu_note = sec.note("mu_note")
        for curve in ("lambda", "mu"):
            tv = sec.get(f"{curve}_trace_value")
            rule = sec.get(f"{curve}_rule")
            if tv is None and rule is None:
                continue
            if tv is None or rule is None:
                raise RecordError(f"[rho0] line {sec.line}: {curve} needs both "
                                  "trace_value and rule")
            try:
                trace_value = _rational(tv[0], f"{curve}_trace_value")
            except ValueError as exc:
                raise RecordError(f"[rho0] line {tv[1]}: {exc}") from exc
            rho0[curve] = Rho0Data(trace_value,
                                   _parse_rule(rule[0], f"[rho0] line {rule[1]}"))
        seed = sec.get("riley_seed")
        if seed is not None:
            riley_seed = _parse_complex(seed[0].split(), f"[rho0] line {seed[1]}")

    record = KnotRecord(
        name=name,
        presentation=pres,
        presentation_note=pres_sec.note("note"),
        apoly=apoly,
        branch_hint=branch_hint,
        param_torsion=param,
        trace_of=trace_of,
        torsion_note=torsion_note,
        trace_field_poly=tf_poly,
        trace_field_embedding=tf_emb,
        rho0=rho0,
        mu_note=mu_note,
        riley_seed=riley_seed,
    )
    # the format is what this parser reads: any other section or key is
    # refused, so that a misspelled optional key cannot pass unnoticed
    for sec in sections.values():
        if not sec.read:
            raise RecordError(f"[{sec.name}] line {sec.line}: unknown section")
        for key, _, ln in sec.entries:
            if key not in sec.read:
                raise RecordError(f"[{sec.name}] line {ln}: unknown key {key!r}")
    return record


def ingest_knot(path_or_name: str) -> KnotRecord:
    """Load a record from a path, or from the bundled corpus by knot name."""
    return parse_record(record_text(path_or_name))

