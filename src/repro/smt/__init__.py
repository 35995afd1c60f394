"""A self-contained SMT solving layer (QF_LIA / QF_IDL / QF_UF).

The paper solves its generated problems with Yices; since this reproduction
must be dependency-free, the package provides the full stack from scratch:

* :mod:`repro.smt.terms` — the term language and smart constructors,
* :mod:`repro.smt.simplify` — preprocessing rewrites,
* :mod:`repro.smt.cnf` — Tseitin conversion to CNF,
* :mod:`repro.smt.sat` — a CDCL SAT solver on flat arena storage (with an
  optional compiled propagation kernel, :mod:`repro.smt.satkernel`),
* :mod:`repro.smt.dimacs` — DIMACS CNF import feeding the SAT core,
* :mod:`repro.smt.theory` — difference logic, linear integer arithmetic and
  congruence closure theory solvers,
* :mod:`repro.smt.dpllt` — the incremental DPLL(T) engine, with the theories
  integrated online into the SAT search,
* :mod:`repro.smt.backend` — the :class:`SolverBackend` protocol, registry
  and the in-tree / external-solver-pipe implementations; callers solve
  through a backend (``create_backend()`` builds the default
  :class:`DpllTBackend`),
* :mod:`repro.smt.smtlib` — SMT-LIB v2 export for cross-checking.
"""

from repro.smt.sorts import BOOL, INT, Sort, uninterpreted_sort
from repro.smt.terms import (
    Add,
    And,
    App,
    BoolVal,
    BoolVar,
    Distinct,
    Eq,
    FALSE,
    Function,
    Ge,
    Gt,
    Iff,
    Implies,
    IntVal,
    IntVar,
    Ite,
    Le,
    Lt,
    Mul,
    Ne,
    Neg,
    Not,
    Or,
    Sub,
    Term,
    TRUE,
    Var,
    Xor,
)
from repro.smt.dimacs import DimacsProblem, load_dimacs, parse_dimacs
from repro.smt.models import Model
from repro.smt.backend import (
    DpllTBackend,
    SmtLibPipeBackend,
    SolverBackend,
    available_backends,
    create_backend,
    register_backend,
)
from repro.smt.dpllt import CheckResult
from repro.smt.smtlib import to_smtlib

__all__ = [
    "BOOL",
    "INT",
    "Sort",
    "uninterpreted_sort",
    "Add",
    "And",
    "App",
    "BoolVal",
    "BoolVar",
    "Distinct",
    "Eq",
    "FALSE",
    "Function",
    "Ge",
    "Gt",
    "Iff",
    "Implies",
    "IntVal",
    "IntVar",
    "Ite",
    "Le",
    "Lt",
    "Mul",
    "Ne",
    "Neg",
    "Not",
    "Or",
    "Sub",
    "Term",
    "TRUE",
    "Var",
    "Xor",
    "Model",
    "DimacsProblem",
    "load_dimacs",
    "parse_dimacs",
    "CheckResult",
    "SolverBackend",
    "DpllTBackend",
    "SmtLibPipeBackend",
    "available_backends",
    "create_backend",
    "register_backend",
    "to_smtlib",
]
