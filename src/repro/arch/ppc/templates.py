"""Directed templates for the OpenPOWER co-sim and conformance suites.

:data:`COSIM_FIELDS` gives the co-sim generator one field-domain entry per
decode arm (format: :class:`~repro.cosim.generate.WordSampler`);
:data:`CONFORMANCE_TEMPLATES` lists near-constant encodings random word
sampling is unlikely to reach, in the grammar of :mod:`repro.arch.ppc.asm`.
"""

from __future__ import annotations

from .encode import BRANCH_CONDS

_SI = range(-(1 << 15), 1 << 15)
_UI = range(1 << 16)
_CR = range(8)

#: Byte displacements into their word-offset fields.
_LI, _BD, _DS = (("li", 25, 2),), (("bd", 15, 2),), (("ds", 15, 2),)

#: ``b<cond> crN``: the (BO, BI) of blt/bgt/beq/bge/ble/bne on every field.
_COND_BO_BI = tuple(
    (bo, 4 * cr + bit)
    for bo, bit in (BRANCH_CONDS[c] for c in ("lt", "gt", "eq", "ge", "le", "ne"))
    for cr in _CR
)

_RS_RA = {"rs": "reg", "ra": "reg"}
_RT_RA = {"rt": "reg", "ra": "reg"}


def _load_store(top: str, near: range, window: str, offset="d") -> tuple:
    """``near(rA)`` from a base register, or an absolute window address
    through ``(RA|0)`` with ``r0`` as the base."""
    return ({top: "reg", "ra": "base", offset: near},
            {top: "reg", "ra": 0, offset: window})


#: ``addi``/``addis`` and their ``rA = 0`` forms, ``li``/``lis``.
_ADD_IMM = ({**_RT_RA, "si": _SI}, {"rt": "reg", "ra": 0, "si": _SI})

COSIM_FIELDS = {
    "addi": _ADD_IMM,
    "addis": _ADD_IMM,
    "ori": ({**_RS_RA, "ui": _UI}, {"rs": 0, "ra": 0, "ui": 0}),  # or nop
    "oris": {**_RS_RA, "ui": _UI},
    "xori": {**_RS_RA, "ui": _UI},
    "xoris": {**_RS_RA, "ui": _UI},
    "andi": {**_RS_RA, "ui": _UI},
    "andis": {**_RS_RA, "ui": _UI},
    "cmpi": {"bf": _CR, "l": (0, 1), "ra": "reg", "si": _SI},
    "cmpli": {"bf": _CR, "l": (0, 1), "ra": "reg", "ui": _UI},
    "cmp": {"bf": _CR, "l": (0, 1), "ra": "reg", "rb": "reg"},
    "cmpl": {"bf": _CR, "l": (0, 1), "ra": "reg", "rb": "reg"},
    "add": {**_RT_RA, "rb": "reg"},
    "subf": {**_RT_RA, "rb": "reg"},
    "and": {**_RS_RA, "rb": "reg"},
    "or": ({**_RS_RA, "rb": "reg"},
           {"ra": "reg", ("rs", "rb"): tuple((r, r) for r in range(32))}),  # mr
    "xor": {**_RS_RA, "rb": "reg"},
    "mtspr": {"rs": "reg", "spr": (32, 256, 288)},  # XER, LR, CTR
    "mfspr": {"rt": "reg", "spr": (32, 256, 288)},
    "lwz": _load_store("rt", range(-16, 32, 4), "window_word"),
    "lbz": _load_store("rt", range(-16, 16), "window"),
    "stw": _load_store("rs", range(-16, 32, 4), "window_word"),
    "stb": _load_store("rs", range(-16, 16), "window"),
    "ld": _load_store("rt", range(-16, 32, 4), "window_word", _DS),
    "std": _load_store("rs", range(-16, 32, 4), "window_word", _DS),
    "b": {_LI: "branch", "lk": (0, 1)},
    "bc": ({("bo", "bi"): _COND_BO_BI, _BD: "branch", "lk": 0},
           {"bo": 16, "bi": 0, _BD: "branch", "lk": 0},  # bdnz
           {"bo": range(32), "bi": range(32), _BD: "branch", "lk": 0}),
    "bclr": ({"bo": 20, "bi": 0, "lk": 0}, {"bo": 20, "bi": 0, "lk": 1},
             {"bo": range(32), "bi": range(32), "lk": 0}),
    # BO[2] set: bcctr may not decrement CTR.
    "bcctr": ({"bo": 20, "bi": 0, "lk": 0}, {"bo": 20, "bi": 0, "lk": 1},
              {"bo": tuple(bo for bo in range(32) if bo & 4), "bi": range(32),
               "lk": 0}),
}

#: Words the decoder accepts but the model does not execute: none.
COSIM_UNMODELLED: dict = {}


#: Sparse-corner encodings for the conformance fuzzer; slots are filled with
#: {r}/{n}/{m} in 0..30, {t}/{u} in 0..6, {h} in 1..15.
CONFORMANCE_TEMPLATES = [
    "nop", "li r{r}, -{h}", "lis r{r}, {h}",
    "mr r{r}, r{n}", "andi. r{r}, r{n}, {h}", "andis. r{r}, r{n}, {h}",
    "cmpdi cr{t}, r{r}, -{h}", "cmpwi cr{t}, r{r}, {h}",
    "cmpldi cr{t}, r{r}, {h}", "cmplwi cr{t}, r{r}, {h}",
    "cmpd cr{t}, r{r}, r{n}", "cmplw cr{t}, r{r}, r{n}",
    "add r{r}, r{n}, r{m}", "subf r{r}, r{n}, r{m}",
    "and r{r}, r{n}, r{m}", "or r{r}, r{n}, r{m}", "xor r{r}, r{n}, r{m}",
    "lwz r{r}, 8(r{n})", "lbz r{r}, -{h}(r{n})",
    "stw r{r}, 4(r{n})", "stb r{r}, {h}(r{n})",
    "ld r{r}, 8(r{n})", "std r{r}, -8(r{n})",
    "ld r{r}, 0(r0)", "lwz r{r}, 16(r0)",
    "lbz r{r}, 20480(r0)", "lbz r{r}, 20512(r0)",
    "stb r{r}, 20496(r0)", "lwz r{r}, 20484(r0)",
    "std r{r}, 20488(r0)", "ld r{r}, 20520(r0)",
    "mtctr r{r}", "mtlr r{r}", "mtxer r{r}",
    "mfctr r{r}", "mflr r{r}", "mfxer r{r}",
    "blr", "blrl", "bctr", "bctrl",
    "bclr 0, {h}", "bclr 8, {h}", "bcctr 20, {h}",
    "bdnz -4", "bc 16, 0, 8", "bc 18, {h}, 4", "bc 2, {h}, -8",
    "beq cr{t}, 8", "bne cr{t}, -4", "blt cr{t}, 4", "bgel cr{t}, 8",
    "b 8", "bl -8", "b 0",
]
