"""Knot-record ingestion.

Line-oriented sections `[section]` with `key = value` pairs; polynomials use
the canonical text grammar and words the letter grammar, so the files diff
cleanly.  Complex numbers are written as `re im` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import mpmath as mp

from .charvar import APoly, apoly_normalize
from .front import RecordError, bundled_record_text, record_text  # noqa: F401
from .polys import PolyError, UniPoly, from_text
from .torsion_num import Presentation, TorsionNumError, parse_word
from .torsion_sym import NearestToHint, ParamTorsion, PositiveRealRoot, TorsionSymError


def _parse_complex(tokens: List[str], where: str) -> complex:
    try:
        if len(tokens) == 1:
            return complex(float(tokens[0]), 0.0)
        if len(tokens) == 2:
            return complex(float(tokens[0]), float(tokens[1]))
    except ValueError:
        pass
    raise RecordError(f"{where}: expected `re [im]`, got {' '.join(tokens)!r}")


@dataclass
class RawSection:
    name: str
    line: int
    entries: List[Tuple[str, str, int]] = field(default_factory=list)

    def get(self, key: str, default=None) -> Optional[str]:
        vals = [v for k, v, _ in self.entries if k == key]
        if len(vals) > 1:
            raise RecordError(f"[{self.name}] line {self.line}: duplicate key {key!r}")
        return vals[0] if vals else default

    def require(self, key: str) -> str:
        v = self.get(key)
        if v is None:
            raise RecordError(f"[{self.name}] line {self.line}: missing key {key!r}")
        return v

    def get_all(self, key: str) -> List[Tuple[str, int]]:
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
                raise RecordError(f"line {ln}: duplicate section [{name}]")
            current = RawSection(name, ln)
            sections[name] = current
            continue
        if "=" not in line:
            raise RecordError(f"line {ln}: expected `key = value`")
        if current is None:
            raise RecordError(f"line {ln}: entry outside any [section]")
        key, value = line.split("=", 1)
        current.entries.append((key.strip(), value.strip(), ln))
    return sections


@dataclass
class Rho0Data:
    trace_value: Fraction
    rule: object                  # PositiveRealRoot | NearestToHint
    rule_text: str


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
    trace_field_poly: Optional[UniPoly]
    trace_field_embedding: Optional[complex]
    rho0: Dict[str, Rho0Data]
    mu_note: str
    riley_seed: complex
    source_text: str
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

    def section(name: str) -> RawSection:
        if name not in sections:
            raise RecordError(f"missing section [{name}]")
        return sections[name]

    knot = section("knot")
    name = knot.require("name")

    pres_sec = section("presentation")
    try:
        gens = int(pres_sec.require("generators"))
        relators = [parse_word(v, gens) for v, _ in pres_sec.get_all("relator")]
        pres = Presentation.create(
            gens, relators,
            parse_word(pres_sec.require("meridian"), gens),
            parse_word(pres_sec.require("longitude"), gens))
    except (TorsionNumError, ValueError) as exc:
        raise RecordError(f"[presentation] line {pres_sec.line}: {exc}") from exc
    if not pres.abelianization_ok():
        raise RecordError(f"[presentation] line {pres_sec.line}: "
                          "abelianization is not infinite cyclic")

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
                triples.append((int(toks[0]), int(toks[1]), Fraction(toks[2])))
            except ValueError as exc:
                raise RecordError(f"[apoly] line {ln}: {exc}") from exc
        if not triples:
            raise RecordError(f"[apoly] line {sec.line}: no terms")
        apoly = apoly_normalize(triples)
        bh = sec.get("branch_hint")
        if bh is not None:
            toks = bh.split()
            if len(toks) != 2:
                raise RecordError(f"[apoly] line {sec.line}: branch_hint needs two numbers")
            branch_hint = (float(toks[0]), float(toks[1]))

    param = None
    trace_of = ""
    torsion_note = ""
    if "param_torsion" in sections:
        sec = sections["param_torsion"]
        trace_of = sec.require("trace_of")
        if trace_of not in ("lambda", "mu"):
            raise RecordError(f"[param_torsion] line {sec.line}: "
                              f"trace_of must be lambda or mu, got {trace_of!r}")
        aux = tuple(sec.require("aux_vars").split())
        trace_var = sec.require("trace_var")
        allvars = aux + (trace_var,)
        try:
            tau_expr = from_text(sec.require("tau_expr"), allvars)
            constraints = [from_text(v, allvars) for v, _ in sec.get_all("constraint")]
        except PolyError as exc:
            raise RecordError(f"[param_torsion] line {sec.line}: {exc}") from exc
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
        torsion_note = sec.get("note", "")

    if apoly is None and param is None:
        raise RecordError("record needs at least one of [apoly] / [param_torsion]")

    tf_poly = None
    tf_emb = None
    if "trace_field" in sections:
        sec = sections["trace_field"]
        try:
            tf_poly = UniPoly.from_multi(from_text(sec.require("poly"), ["x"]))
        except PolyError as exc:
            raise RecordError(f"[trace_field] line {sec.line}: {exc}") from exc
        tf_emb = _parse_complex(sec.require("embedding").split(),
                                f"[trace_field] line {sec.line}")

    rho0: Dict[str, Rho0Data] = {}
    mu_note = ""
    riley_seed = complex(0.5, 0.9)
    if "rho0" in sections:
        sec = sections["rho0"]
        mu_note = sec.get("mu_note", "")
        for curve in ("lambda", "mu"):
            tv = sec.get(f"{curve}_trace_value")
            rule = sec.get(f"{curve}_rule")
            if tv is None and rule is None:
                continue
            if tv is None or rule is None:
                raise RecordError(f"[rho0] line {sec.line}: {curve} needs both "
                                  "trace_value and rule")
            rho0[curve] = Rho0Data(Fraction(tv),
                                   _parse_rule(rule, f"[rho0] line {sec.line}"),
                                   rule)
        seed = sec.get("riley_seed")
        if seed is not None:
            riley_seed = _parse_complex(seed.split(), f"[rho0] line {sec.line}")

    return KnotRecord(
        name=name,
        presentation=pres,
        presentation_note=pres_sec.get("note", ""),
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
        source_text=text,
    )


def ingest_knot(path_or_name: str) -> KnotRecord:
    """Load a record from a path, or from the bundled corpus by knot name."""
    return parse_record(record_text(path_or_name))


def validate_parabolic(record: KnotRecord, dps: int = 40) -> dict:
    """Deep record validation: solve the parabolic representation and check
    the universal longitude trace tr_lambda(rho0) = -2."""
    from .torsion_num import riley_solve
    with mp.workdps(dps):
        rep = riley_solve(record.presentation, mp.mpf(2), record.riley_seed, dps=dps)
        L = rep.of_word(record.presentation.longitude)
        tr_l = L[0, 0] + L[1, 1]
        return {
            "relator_residual": rep.relator_residual(record.presentation),
            "tr_lambda": tr_l,
            "ok": bool(abs(tr_l + 2) < mp.mpf("1e-8")),
        }
