"""End-to-end flows composed from the core modules, shared by CLI and verify.

The numeric flows run at the caller's mpmath precision and set none of
their own; `cli` and `verify` set it."""

from __future__ import annotations

from typing import Tuple

import mpmath as mp

from .charvar import (
    ChangeFactor, NoGraphBranch, TraceRelation, change_curve_sq,
    geometric_branch, trace_relation,
)
from .numfield import NumberField, express_in_field, minimal_polynomial, \
    NotInField, roots_at
from .polys import MultiPoly, from_dense, to_text
from .records import KnotRecord
from .torsion_num import peripheral_torsions, riley_solve
from .torsion_sym import (
    Rho0Value, TPoly, eliminate_T, rho0_value, specialize, transport_T,
)


class PipelineError(ValueError):
    pass


def _artifact(record: KnotRecord, key, derive):
    """The record's artifact `key`, derived on first use.

    Two threads that race here both derive it and then read whichever copy
    was stored first; an error propagates and stores nothing.
    """
    try:
        return record.artifacts[key]
    except KeyError:
        return record.artifacts.setdefault(key, derive())


def eliminated_T(record: KnotRecord) -> TPoly:
    if record.param_torsion is None:
        raise PipelineError(f"record {record.name} has no parametrized torsion")
    return _artifact(record, "T", lambda: eliminate_T(record.param_torsion))


def trace_relation_of(record: KnotRecord) -> TraceRelation:
    if record.apoly is None:
        raise PipelineError(f"record {record.name} has no A-polynomial")
    return _artifact(record, "trace_relation",
                     lambda: trace_relation(record.apoly))


def branch_and_factor(record: KnotRecord) -> Tuple[MultiPoly, ChangeFactor]:
    if record.apoly is None:
        raise PipelineError(f"record {record.name} has no A-polynomial")
    if record.branch_hint is None:
        raise PipelineError(f"record {record.name} has no branch hint")

    def derive():
        branch = geometric_branch(trace_relation_of(record), record.branch_hint)
        if isinstance(branch, NoGraphBranch):
            raise PipelineError(
                f"geometric branch of {record.name}: {branch.reason}")
        return branch, change_curve_sq(branch)
    return _artifact(record, "branch_and_factor", derive)


def transported_T(record: KnotRecord) -> TPoly:
    if record.trace_of != "lambda":
        raise PipelineError(
            "transport needs a longitude-trace parametrization "
            f"(record {record.name} is parametrized by {record.trace_of})")
    T = eliminated_T(record)
    branch, factor = branch_and_factor(record)
    return _artifact(record, "transported_T",
                     lambda: transport_T(T, factor, branch, new_var="z"))


def derive_artifacts(record: KnotRecord) -> None:
    """Derive every artifact `torsion_at` reads, so that copies of the record
    sent to worker processes carry them. An artifact that fails is left
    underived, and `torsion_at` reports its error at each point."""
    try:
        if record.apoly is not None and record.branch_hint is not None:
            branch_and_factor(record)
        if record.param_torsion is not None:
            eliminated_T(record)
    except ValueError:
        pass


def torsion_polynomial(record: KnotRecord, curve: str) -> TPoly:
    """T for the requested peripheral curve, transporting when necessary."""
    if curve not in ("lambda", "mu"):
        raise PipelineError(f"unknown curve {curve!r}")
    if record.param_torsion is None:
        raise PipelineError(f"record {record.name} has no parametrized torsion")
    if curve == "lambda":
        return eliminated_T(record)
    if record.trace_of == "lambda":
        return transported_T(record)
    raise PipelineError(
        f"no mu-torsion pipeline for record {record.name}")


def rho0_for_curve(record: KnotRecord, curve: str,
                   digits: int = 64) -> Tuple[Rho0Value, MultiPoly, list]:
    if curve not in record.rho0:
        raise PipelineError(f"record {record.name} has no rho0 data for {curve}")
    spec = record.rho0[curve]
    T = torsion_polynomial(record, curve)
    poly = specialize(T, spec.trace_value)
    value = rho0_value(poly, spec.rule, digits)
    notes = [f"root selection: {value.branch_note}"]
    if curve == "mu" and record.mu_note:
        notes.append(record.mu_note)
    return value, poly, notes


def membership(record: KnotRecord, curve: str, digits: int = 64) -> dict:
    if record.trace_field_poly is None:
        raise PipelineError(f"record {record.name} has no trace field")
    value, poly, notes = rho0_for_curve(record, curve, digits)
    field = NumberField.create(record.trace_field_poly,
                               embedding_hint=record.trace_field_embedding,
                               digits=digits)
    out = express_in_field(value.value, field, digits)
    if isinstance(out, NotInField):
        return {
            "in_field": False,
            "outcome": out,
            "notes": notes,
        }
    elem, note = out
    return {
        "in_field": True,
        "element": elem,
        "element_minpoly": minimal_polynomial(elem, var=poly.vars[0]),
        "pairing_note": note,
        "value": value,
        "notes": notes + [f"embedding pairing: {note}"],
    }


def field_element_text(elem) -> str:
    return to_text(from_dense("x", elem.coords))


def torsion_at(record: KnotRecord, trace) -> dict:
    """Numeric torsion data at one meridian trace, with symbolic cross-checks."""
    rep = riley_solve(record.presentation, mp.mpmathify(trace),
                      record.riley_seed)
    out = peripheral_torsions(record.presentation, rep)
    result = {
        "trace": mp.mpmathify(trace),
        "tr_mu": out["tr_mu"],
        "tr_lambda": out["tr_lambda"],
        "tau_mu": out["tau_mu"],
        "tau_lambda": out["tau_lambda"],
        "ratio_sq": out["ratio_sq"],
    }
    if record.apoly is not None and record.branch_hint is not None:
        _, factor = branch_and_factor(record)
        expected = factor.eval_at(out["tr_mu"])
        result["change_factor"] = expected
        result["change_factor_rel_err"] = abs(out["ratio_sq"] - expected) / abs(expected)
    if record.param_torsion is not None:
        result["diag_scalar"] = _diagnostic_scalar(record, out)
    return result


def validate_parabolic(record: KnotRecord) -> dict:
    """Deep record validation: solve the parabolic representation and check
    the universal longitude trace tr_lambda(rho0) = -2."""
    rep = riley_solve(record.presentation, mp.mpf(2), record.riley_seed)
    L = rep.image(record.presentation.longitude)
    tr_l = L[0] + L[3]
    return {
        "relator_residual": rep.relator_residual(record.presentation),
        "tr_lambda": tr_l,
        "ok": bool(abs(tr_l + 2) < mp.mpf("1e-8")),
    }


def _diagnostic_scalar(record: KnotRecord, out) -> object:
    """tau_lambda(numeric)^2 over the nearest symbolic branch value squared.

    Reported as a diagnostic only; whether this scalar is constant along the
    geometric component is not asserted.
    """
    T = eliminated_T(record)
    tv = out["tr_lambda"] if record.trace_of == "lambda" else out["tr_mu"]
    try:
        roots = roots_at(T.poly, "tau", {T.trace_var: tv})
    except mp.libmp.NoConvergence as exc:
        raise PipelineError("diagnostic scalar at trace "
                            f"{mp.nstr(mp.re(out['tr_mu']), 12)}: {exc}") from exc
    tau_num = out["tau_lambda"]
    best = min(roots, key=lambda r: min(abs(r - tau_num), abs(r + tau_num)))
    if abs(best) < mp.mpf("1e-20"):
        return mp.mpc(0)
    return tau_num ** 2 / best ** 2
