"""matfor: a matrix query language with canonical-vector for loops.

The package provides the full workbench for the language: AST and type
checker (`ast`, `typecheck`), desugaring passes (`sugar`), concrete syntax
(`parser`, `printer`), semiring-generic evaluation (`semiring`, `matrix`,
`instance`, `evaluator`), a library of named programs (`stdlib`), syntactic
fragment classification (`fragments`), the bridge to positive relational
algebra over annotated relations (`relalg`, `bridge`), compilation to
arithmetic circuits with degree analysis (`circuits`, `circuit_compile`),
and a command-line driver (`cli`).
"""

from .ast import (Add, Apply, Const, Diag, Expr, For, Hadamard, MatMul,
                  MatrixType, Ones, OrderKind, OrderPrim, Prod, Schema,
                  ScalarMul, Sum, Transpose, UNIT, Var, free_vars)
from .evaluator import canonical_vector, evaluate, mat_equal
from .instance import Instance, LoadedInstance, load_instance, parse_instance
from .matrix import KMatrix, from_rows
from .parser import parse_expr, parse_schema
from .printer import pretty
from .semiring import (BOOL, NAT, RATIONAL, REAL, TROPICAL, Semiring,
                       by_name)
from .sugar import desugar, reduce_apply_to_scalars
from .typecheck import typecheck

__all__ = [
    "Add", "Apply", "Const", "Diag", "Expr", "For", "Hadamard", "MatMul",
    "MatrixType", "Ones", "OrderKind", "OrderPrim", "Prod", "Schema",
    "ScalarMul", "Sum", "Transpose", "UNIT", "Var", "free_vars",
    "canonical_vector", "evaluate", "mat_equal",
    "Instance", "LoadedInstance", "load_instance", "parse_instance",
    "KMatrix", "from_rows", "parse_expr", "parse_schema", "pretty",
    "BOOL", "NAT", "RATIONAL", "REAL", "TROPICAL", "Semiring", "by_name",
    "desugar", "reduce_apply_to_scalars", "typecheck",
]
