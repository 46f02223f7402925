"""Expression AST, size symbols, matrix types, and schemas.

The language manipulates matrices whose dimensions are *size symbols* rather
than concrete numbers; an instance later assigns each symbol a positive
integer.  The distinguished symbol ``"1"`` always denotes dimension one, so a
type ``(alpha, 1)`` is a column vector and ``(1, 1)`` a scalar.

Core expression forms: variables, transpose, matrix product, addition,
scalar product, pointwise function application, and the canonical-vector
``for`` loop (with an optional explicit initialiser).  On top of the core
there are sugar forms (``sum``/``prod``/``hprod`` quantifiers, ``ones``,
``diag``) that desugar to the core, plus four built-in order matrices over
canonical vectors (strict order, first/last basis vector, index shift).

An unannotated loop binder is resolved against the enclosing binders, then
the schema.  Passes that synthesise fresh binders (desugaring, translations)
annotate them inline via ``var_sym`` / ``acc_type`` instead of mutating the
schema; the type checker and evaluator prefer the annotation when present.
Annotations, like source spans, are internal metadata - but unlike spans
they affect typing, so they take part in structural identity (`Tree`).

Every pass defined by structural recursion (both parsers, typing,
desugaring, printing, substitution, the relational translations, the
evaluator's build) runs on `drive`: the pass is a generator that yields
each child where the recursive version would call itself and is sent back
the child's result, and `drive` keeps the pending nodes on a list.  So no
pass needs Python stack in proportion to the depth of its input; a deep
``V + ... + V`` costs heap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from typing import NamedTuple, Optional, Union

from .errors import DuplicateVariable, _echo

#: The unit size symbol: always assigned dimension 1.
UNIT = "1"


class SourceSpan(NamedTuple):
    start: int
    end: int
    line: int
    column: int

    def __str__(self):
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class MatrixType:
    """A pair of size symbols (rows, cols)."""

    rows: str
    cols: str

    def transposed(self):
        return MatrixType(self.cols, self.rows)

    @property
    def is_scalar(self):
        return self.rows == UNIT and self.cols == UNIT

    def __str__(self):
        return f"{_echo(self.rows, str)} x {_echo(self.cols, str)}"


SCALAR = MatrixType(UNIT, UNIT)


class Schema:
    """Mapping from variable names to matrix types.

    Loop variables (iterators and accumulators) may be declared here just
    like input matrices; the evaluator binds them during iteration and an
    instance never has to supply their contents.
    """

    def __init__(self, vars=None):
        self.vars: dict[str, MatrixType] = {}
        if vars:
            for name, t in vars.items():
                self.declare(name, t)

    def declare(self, name, t):
        if not name:
            raise DuplicateVariable("variable name must be nonempty")
        if name in self.vars:
            raise DuplicateVariable(f"variable {_echo(name)} declared twice")
        self.vars[name] = t

    def merged(self, other):
        out = Schema(self.vars)
        for name, t in other.vars.items():
            if name in out.vars:
                if out.vars[name] != t:
                    raise DuplicateVariable(f"variable {_echo(name)} declared "
                                            f"with conflicting types")
            else:
                out.vars[name] = t
        return out

    def __contains__(self, name):
        return name in self.vars

    def __getitem__(self, name):
        return self.vars[name]

    def __eq__(self, other):
        return isinstance(other, Schema) and self.vars == other.vars

    def __repr__(self):
        return f"Schema({self.vars!r})"


# ---------------------------------------------------------------------------
# Trees and expressions


class Tree:
    """The base of the frozen dataclass trees `Expr` and `relalg.RAExpr`:
    two trees are ``==`` exactly when the ``node_table`` of both gives them
    one value number.  ``==``, ``hash`` and ``repr`` keep pending nodes on
    a list."""

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        if self is other:
            return True
        table = node_table(self, other)
        return table[id(self)][0] == table[id(other)][0]

    def __hash__(self):
        hashes = {}
        for node in distinct(self):
            key, kids = parts(node)
            hashes[id(node)] = hash((key, *[hashes[id(c)] for c in kids]))
        return hashes[id(self)]

    def __repr__(self):
        return "".join(drive(self, [], _repr))


def treeclass(cls):
    """A frozen dataclass keeping `Tree`'s methods, which read `_compared`."""
    cls = dataclass(frozen=True, eq=False, repr=False)(cls)
    cls._compared = tuple(f.name for f in fields(cls) if f.compare)
    return cls


def parts(node: Tree) -> tuple[tuple, tuple]:
    """A tree node's key and `children`: every field that holds no tree
    enters the key, after the node's class, as ``(class, value)``, a float
    as ``(float, repr)``."""
    key = [node.__class__]
    for name in node._compared:
        v = getattr(node, name)
        if not (isinstance(v, Tree)
                or v.__class__ is tuple and v and isinstance(v[0], Tree)):
            key.append((v.__class__, repr(v) if v.__class__ is float else v))
    return tuple(key), children(node)


def _repr(node, out):
    """A `drive` rule: append a generated dataclass ``repr`` of `node`."""
    out.append(f"{node.__class__.__qualname__}(")
    for i, name in enumerate(node._compared):
        v = getattr(node, name)
        out.append(f"{', ' if i else ''}{name}=")
        if isinstance(v, Tree):
            yield v, out
        elif v.__class__ is tuple and v and isinstance(v[0], Tree):
            for j, c in enumerate(v):
                out.append(", " if j else "(")
                yield c, out
            out.append(",)" if len(v) == 1 else ")")
        else:
            out.append(repr(v))
    out.append(")")
    return out


@treeclass
class Expr(Tree):
    span: Optional[SourceSpan] = field(
        default=None, compare=False, repr=False, kw_only=True)


@treeclass
class Var(Expr):
    name: str


@treeclass
class Const(Expr):
    """Scalar literal; int for integral values, float otherwise (inf allowed)."""

    value: Union[int, float]


@treeclass
class Transpose(Expr):
    arg: Expr


@treeclass
class MatMul(Expr):
    left: Expr
    right: Expr


@treeclass
class Add(Expr):
    left: Expr
    right: Expr


@treeclass
class ScalarMul(Expr):
    """Scalar product: `scalar` must have type (1,1)."""

    scalar: Expr
    arg: Expr


@treeclass
class Apply(Expr):
    func: str
    args: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@treeclass
class For(Expr):
    """Canonical-vector loop: iterate `var` over b_1..b_n updating `acc`.

    The accumulator starts at the value of `init`, else at the zero matrix.
    `var_sym` / `acc_type` annotate the binders; an unannotated one takes the
    type of the enclosing binder of its name, else the schema's.
    """

    var: str
    acc: str
    body: Expr
    init: Optional[Expr] = None
    var_sym: Optional[str] = None
    acc_type: Optional[MatrixType] = None


@treeclass
class Sum(Expr):
    """Additive quantifier: fold the body over canonical vectors with +."""

    var: str
    body: Expr
    var_sym: Optional[str] = None


@treeclass
class Prod(Expr):
    """Multiplicative quantifier: fold with matrix product, identity start."""

    var: str
    body: Expr
    var_sym: Optional[str] = None


@treeclass
class Hadamard(Expr):
    """Pointwise-product quantifier: fold with entrywise product, ones start."""

    var: str
    body: Expr
    var_sym: Optional[str] = None


@treeclass
class Ones(Expr):
    """All-ones column vector whose height is the row dimension of `arg`."""

    arg: Expr


@treeclass
class Diag(Expr):
    """Diagonal matrix built from a column vector."""

    arg: Expr


class OrderKind(Enum):
    SLESS = "Sless"     # square matrix, (i,j) = one iff i < j
    EMIN = "Emin"       # first canonical vector b_1
    EMAX = "Emax"       # last canonical vector b_n
    NSHIFT = "Nshift"   # square matrix, (i,j) = one iff i = j + 1


@treeclass
class OrderPrim(Expr):
    kind: OrderKind
    sym: str


def children(e: Tree) -> tuple[Tree, ...]:
    """The trees a node's fields hold, in field order, a loop's body last."""
    kids = []
    for name in e._compared:
        v = getattr(e, name)
        if isinstance(v, Tree):
            kids.append(v)
        elif v.__class__ is tuple and v and isinstance(v[0], Tree):
            kids += v
    return tuple(kids[::-1]) if e.__class__ is For else tuple(kids)


def binders(e: Expr) -> tuple[str, ...]:
    """The names a node binds in its last child, its body: a ``for`` loop's
    iterator and accumulator, a quantifier's iterator, none elsewhere."""
    if e.__class__ is For:
        return (e.var, e.acc)
    if isinstance(e, (Sum, Prod, Hadamard)):
        return (e.var,)
    return ()


def paired(acc: str, operands, table) -> Optional[Expr]:
    """Of two `operands`, the one paired with the variable `acc` and free
    of it (the second where the first is `acc`, else the first where the
    second is), or None; `table` is a ``node_table`` that holds both."""
    a, b = operands
    for x, y in ((a, b), (b, a)):
        if x.__class__ is Var and x.name == acc and acc not in table[id(y)][1]:
            return y
    return None


def summand(e: Expr, table) -> Optional[Expr]:
    """The term t of the paper's ``Σv.t := for v, X . X + t`` where `e` is
    such a loop: a ``sum``'s body, or the side t of an initialiser-free
    ``for``'s body ``X + t`` or ``t + X`` with X not free in t; None for
    any other node.  `table` is a ``node_table`` that holds `e`."""
    if e.__class__ is Sum:
        return e.body
    if e.__class__ is For and e.init is None and e.body.__class__ is Add:
        return paired(e.acc, (e.body.left, e.body.right), table)
    return None


def distinct(*roots: Tree, key=id):
    """Yield the nodes under `roots`, children first, once per `key` (``id``:
    each node of the DAG; a value number: each structure), on a heap stack."""
    seen, stack = set(), [(root, False) for root in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
        elif (k := key(node)) not in seen:
            seen.add(k)
            stack.append((node, True))
            stack.extend((c, False) for c in children(node))


def node_table(*roots: Tree) -> dict[int, tuple[int, tuple[str, ...]]]:
    """Value number and sorted free variables of every node under `roots`.

    The table is keyed by ``id(node)``.  One `distinct` pass visits each
    node once, so shared subtrees cost nothing extra.  Two nodes get the
    same value number exactly when they are ``==``: the same `parts` key
    (class and non-child fields, spans aside) and children with the same
    numbers.
    """
    table: dict[int, tuple[int, tuple[str, ...]]] = {}
    numbers: dict[tuple, int] = {}
    for node in distinct(*roots):
        key, kids = parts(node)
        entries = [table[id(c)] for c in kids]
        signature = (*key, *[num for num, _ in entries])
        number = numbers.setdefault(signature, len(numbers))
        names = {node.name} if isinstance(node, Var) else set()
        for _, fv in entries[:-1]:
            names.update(fv)
        if entries:
            names.update(set(entries[-1][1]).difference(binders(node)))
        table[id(node)] = (number, tuple(sorted(names)))
    return table


def free_vars(e: Expr) -> frozenset[str]:
    """Free variable names of `e`; loop binders are excluded inside bodies."""
    return frozenset(node_table(e)[id(e)][1])


def bound_names(e: Expr) -> frozenset[str]:
    """Every name bound by some loop inside `e` (including sugar)."""
    return frozenset(name for node in distinct(e) for name in binders(node))


def drive(root, env, rule):
    """The result of the pass `rule` at `root`, computed without recursion.

    `rule(node, env)` is a generator.  Where a recursive pass would call
    itself on a child, it yields ``(child, child_env)`` and is sent the
    child's result; it returns its own node's result.  Pending nodes wait
    on a list, so the depth of the tree costs heap, not Python stack.
    """
    stack = [rule(root, env)]
    reply = None
    while True:
        try:
            child, child_env = stack[-1].send(reply)
        except StopIteration as stop:
            stack.pop()
            if not stack:
                return stop.value
            reply = stop.value
        else:
            stack.append(rule(child, child_env))
            reply = None


def rebuilt(e, env, body_env):
    """For a `drive` rule: `e` rebuilt, spans aside, from the results of its
    children, a loop's body visited under `body_env` and every other child
    under `env`.  A leaf is returned as it is."""
    kids = list(children(e))
    body = len(kids) - 1 if binders(e) else -1
    for i, c in enumerate(kids):
        kids[i] = yield c, body_env if i == body else env
    cls = e.__class__
    if cls is For:
        init = kids[0] if e.init is not None else None
        return For(e.var, e.acc, kids[-1], init, e.var_sym, e.acc_type)
    if cls is Sum or cls is Prod or cls is Hadamard:
        return cls(e.var, kids[0], e.var_sym)
    if cls is Apply:
        return Apply(e.func, tuple(kids))
    return cls(*kids) if kids else e


def substitute(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace free occurrences of variables by expressions.

    The caller must ensure no replacement gets captured by a binder in `e`
    (all internal binder-generating passes use globally fresh names).
    """
    return drive(e, mapping, _substitute)


def _substitute(e, mapping):
    if not mapping:
        return e
    if e.__class__ is Var:
        return mapping.get(e.name, e)
    bound = binders(e)
    inner = {k: v for k, v in mapping.items()
             if k not in bound} if bound else mapping
    return (yield from rebuilt(e, mapping, inner))


def walk(e: Expr):
    """Yield every node of the tree, preorder, without recursing."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))
