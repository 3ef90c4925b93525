"""A small imperative scenario language and its interpreter.

Scenario files declare synchronization objects and shared variables, then
give each thread a statement block.  Threads exchange data only through the
visible operations (`read`/`write` on declared variables, semaphore values);
plain assignments and control-flow conditions work on thread-local names, so
everything between two visible operations stays invisible to the scheduler.

An implicit main thread creates every declared thread in declaration order
and then joins them (unless `option nojoin`).

`instantiate` compiles each thread, main included, to a `ThreadCode`: a
flat instruction list run by an interpreter whose whole state is one
immutable value (program counter, locals, `repeat` counters).  The runtime
keeps that value in the model-state snapshots, so the search restores
scenario threads with the snapshots and never re-executes them.  A thread
that runs more than `MAX_LOCAL_STEPS` local instructions without a visible
operation ends with a livelock crash.

Grammar sketch::

    program   := (decl | option | thread)*
    decl      := KIND NAME attribute*
    option    := "option" NAME
    thread    := "thread" NAME "{" stmt* "}"
    stmt      := opStmt ";" | NAME "=" expr ";"
               | "assert" "(" expr ["," STRING] ")" ";"
               | "if" "(" expr ")" block ["else" block]
               | "while" "(" expr ")" block
               | "repeat" INT block
    opStmt    := WORD NAME | NAME "=" WORD NAME | WORD NAME expr | WORD NAME NAME

Each object kind takes the attributes, in their forms, that its row of
`primitives.DECLARATIONS` lists: `sem s = 1 policy fifo`, `barrier b (4)`.
Each operation word takes the form and object kinds that its row of
`primitives.OPERATIONS` names: `lock m;`, `v = read x;`, `write x v + 1;`,
`cond_wait c m;`.  `#` starts a comment.  Integers, signed 64-bit, are the
only value type; conditions treat nonzero as true.  A literal above
`INT_MAX` is an error, and a thread that stores a value out of range ends
with an "integer overflow" crash.  Blocks, parentheses and operators may
nest at most `MAX_NESTING` levels deep.
"""

from __future__ import annotations

import operator
from typing import Optional

from .core import Record
from .primitives import DECLARATIONS, OPERATIONS, VALUE, WITH_MUTEX, WRITE
from .runtime import ObjectDecl, OpRequest, Program, ops


class ScenarioError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


class ScenarioRuntimeError(Exception):
    """Raised by a running body, e.g. use of an unbound local."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Num(Record):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class Name(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Unary(Record):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand):
        self.op = op
        self.operand = operand


class Binary(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right):
        self.op = op
        self.left = left
        self.right = right


class OpStmt(Record):
    """An operation's statement; its form (`OPERATIONS`) sets `mutex`, the
    written `expr` or the `target` local."""

    __slots__ = ("kind", "obj", "mutex", "expr", "target")

    def __init__(self, kind: str, obj: str, mutex: Optional[str] = None, expr=None,
                 target: Optional[str] = None):
        self.kind = kind
        self.obj = obj
        self.mutex = mutex
        self.expr = expr
        self.target = target


class Assign(Record):
    __slots__ = ("target", "expr")

    def __init__(self, target: str, expr):
        self.target = target
        self.expr = expr


class AssertStmt(Record):
    __slots__ = ("expr", "message")

    def __init__(self, expr, message: Optional[str] = None):
        self.expr = expr
        self.message = message


class IfStmt(Record):
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond, then: list, orelse: Optional[list] = None):
        self.cond = cond
        self.then = then
        self.orelse = orelse


class WhileStmt(Record):
    __slots__ = ("cond", "body")

    def __init__(self, cond, body: list):
        self.cond = cond
        self.body = body


class RepeatStmt(Record):
    __slots__ = ("count", "body")

    def __init__(self, count: int, body: list):
        self.count = count
        self.body = body


class ThreadDef(Record):
    __slots__ = ("name", "body")

    def __init__(self, name: str, body: list):
        self.name = name
        self.body = body


class ScenarioProgram(Record):
    __slots__ = ("declarations", "threads", "options")

    def __init__(self, declarations: Optional[list] = None, threads: Optional[list] = None,
                 options: Optional[dict] = None):
        self.declarations = [] if declarations is None else declarations
        self.threads = [] if threads is None else threads
        self.options = {} if options is None else options


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS = {
    "thread", "option", "assert", "if", "else", "while", "repeat", *DECLARATIONS, *OPERATIONS,
}

# The range of scenario integers: signed 64-bit.
INT_MIN, INT_MAX = -2**63, 2**63 - 1

_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")
_PUNCT = ("&&", "||", "==", "!=", "<=", ">=",
          "{", "}", "(", ")", ";", ",", "=", "<", ">", "+", "-", "*", "!")


class Token:
    __slots__ = ("type", "value", "line", "col")

    def __init__(self, type: str, value, line: int, col: int):
        self.type = type   # NAME, INT, STRING, or the punctuation itself
        self.value = value
        self.line = line
        self.col = col


def tokenize(text: str) -> list:
    tokens = []
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            digits = text[start:i].lstrip("0") or "0"
            if len(digits) > len(str(INT_MAX)) or int(digits) > INT_MAX:
                raise ScenarioError(f"integer literal above {INT_MAX}", line, col)
            tokens.append(Token("INT", int(digits), line, col))
            col += i - start
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("NAME", text[start:i], line, col))
            col += i - start
            continue
        if c == '"':
            start = i + 1
            j = text.find('"', start)
            if j < 0:
                raise ScenarioError("unterminated string", line, col)
            if "\n" in text[start:j]:
                raise ScenarioError("unterminated string", line, col)
            tokens.append(Token("STRING", text[start:j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token(p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ScenarioError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("EOF", None, line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Parsing, validating, printing and compiling all recurse on nesting, so a
# scenario's blocks, parentheses and operators may nest this deep at most.
MAX_NESTING = 64


def _operator_depth(expr) -> int:
    """How deep operators nest in `expr`, counted level by level rather than
    by recursion (0 for a name or a number)."""
    depth, level = -1, [expr]
    while level:
        depth += 1
        level = [side for e in level if isinstance(e, (Unary, Binary))
                 for side in ((e.operand,) if isinstance(e, Unary) else (e.left, e.right))]
    return depth


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0    # enclosing blocks, parentheses and prefix operators

    # -- token helpers ---------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ScenarioError(message, tok.line, tok.col)

    def expect(self, type_: str) -> Token:
        tok = self.peek()
        if tok.type != type_:
            self.error(f"expected {type_!r}, found {tok.value!r}")
        return self.next()

    def eat(self, text: str) -> bool:
        """Take the next token if it is the word or punctuation `text`."""
        tok = self.peek()
        if tok.value == text and tok.type in ("NAME", text):
            self.next()
            return True
        return False

    def enter(self):
        """Count one more level of nesting before descending into it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels")

    def ident(self, what="name") -> str:
        tok = self.expect("NAME")
        if tok.value in KEYWORDS:
            self.error(f"{tok.value!r} is a keyword, not a valid {what}", tok)
        return tok.value

    def integer(self) -> int:
        neg = False
        if self.peek().type == "-":
            self.next()
            neg = True
        tok = self.expect("INT")
        return -tok.value if neg else tok.value

    # -- grammar -----------------------------------------------------------

    def parse(self) -> ScenarioProgram:
        prog = ScenarioProgram()
        while self.peek().type != "EOF":
            tok = self.peek()
            if tok.type != "NAME":
                self.error(f"expected a declaration or thread, found {tok.value!r}")
            word = tok.value
            if word == "thread":
                prog.threads.append(self.thread_def())
            elif word == "option":
                self.next()
                name = self.expect("NAME").value
                prog.options[name] = True
            elif word in DECLARATIONS:
                prog.declarations.append(self.decl())
            else:
                self.error(f"expected a declaration or thread, found {word!r}")
        _validate(prog)
        return prog

    def decl(self) -> ObjectDecl:
        """A declaration, its attributes in the forms its kind's row of
        `DECLARATIONS` gives them."""
        kind = self.next().value
        name = self.ident("object name")
        attrs: dict = {}
        for attr in DECLARATIONS[kind]:
            lead, trail = (part.split() for part in attr.form.split("{}"))
            if attr.optional and not self.eat(lead[0]):
                continue
            self.expect_all(lead[1:] if attr.optional else lead)
            tok = self.peek()
            if attr.choices:
                value = self.expect("NAME").value
                if value not in attr.choices:
                    self.error(f"expected a {attr.key} {attr.choices}, found {value!r}", tok)
            else:
                value = self.integer()
                if attr.least is not None and value < attr.least:
                    self.error(f"{attr.key} of {kind} {name!r} must be at least {attr.least}, "
                               f"found {value}", tok)
            attrs[attr.key] = value
            self.expect_all(trail)
        return ObjectDecl(name, kind, attrs)

    def expect_all(self, texts: list) -> None:
        """Take the words and punctuation `texts`, in order."""
        for text in texts:
            if not self.eat(text):
                self.error(f"expected {text!r}, found {self.peek().value!r}")

    def thread_def(self) -> ThreadDef:
        self.next()  # "thread"
        name = self.ident("thread name")
        self.expect("{")
        body = self.block_tail()
        return ThreadDef(name, body)

    def block(self) -> list:
        self.enter()
        self.expect("{")
        stmts = self.block_tail()
        self.depth -= 1
        return stmts

    def block_tail(self) -> list:
        stmts = []
        while not self.peek().type == "}":
            if self.peek().type == "EOF":
                self.error("unexpected end of file inside a block")
            stmts.append(self.statement())
        self.next()  # "}"
        return stmts

    def statement(self):
        tok = self.peek()
        if tok.type != "NAME":
            self.error(f"expected a statement, found {tok.value!r}")
        word = tok.value
        if word == "if":
            self.next()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            then = self.block()
            orelse = None
            if self.eat("else"):
                orelse = self.block()
            return IfStmt(cond, then, orelse)
        if word == "while":
            self.next()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            return WhileStmt(cond, self.block())
        if word == "repeat":
            self.next()
            count = self.expect("INT").value
            return RepeatStmt(count, self.block())
        if word == "assert":
            self.next()
            self.expect("(")
            cond = self.expr()
            message = None
            if self.peek().type == ",":
                self.next()
                message = self.expect("STRING").value
            self.expect(")")
            self.expect(";")
            return AssertStmt(cond, message)
        if word in OPERATIONS and OPERATIONS[word].form != VALUE:
            return self.operation()
        if word in KEYWORDS:
            self.error(f"unexpected keyword {word!r}")
        # NAME "=" ...
        target = self.ident()
        self.expect("=")
        tok = self.peek()
        if tok.type == "NAME" and tok.value in OPERATIONS and OPERATIONS[tok.value].form == VALUE:
            return self.operation(target)
        expr = self.expr()
        self.expect(";")
        return Assign(target, expr)

    def operation(self, target: Optional[str] = None) -> OpStmt:
        """The statement of the operation whose word is next, in its form;
        `target` is the local a `v = word obj` form assigns."""
        word = self.next().value
        op = OPERATIONS[word]
        obj = self.ident("variable name" if op.object_kinds == ("var",) else "object name")
        mutex = self.ident("object name") if op.form == WITH_MUTEX else None
        expr = self.expr() if op.form == WRITE else None
        self.expect(";")
        return OpStmt(word, obj, mutex, expr, target)

    # -- expressions -------------------------------------------------------

    def expr(self):
        """A statement's expression.  A chain like `1 + 1 + 1` parses in a
        loop but nests operators, so the tree's depth is checked too."""
        tok = self.peek()
        expr = self.or_expr()
        if self.depth + _operator_depth(expr) > MAX_NESTING:
            self.error(f"expression nested deeper than {MAX_NESTING} levels", tok)
        return expr

    def or_expr(self):
        left = self.and_expr()
        while self.peek().type == "||":
            self.next()
            left = Binary("||", left, self.and_expr())
        return left

    def and_expr(self):
        left = self.not_expr()
        while self.peek().type == "&&":
            self.next()
            left = Binary("&&", left, self.not_expr())
        return left

    def not_expr(self):
        if self.peek().type == "!":
            self.enter()
            self.next()
            operand = self.not_expr()
            self.depth -= 1
            return Unary("!", operand)
        return self.comparison()

    def comparison(self):
        left = self.additive()
        if self.peek().type in _COMPARISONS:
            op = self.next().type
            return Binary(op, left, self.additive())
        return left

    def additive(self):
        left = self.term()
        while self.peek().type in ("+", "-"):
            op = self.next().type
            left = Binary(op, left, self.term())
        return left

    def term(self):
        left = self.unary()
        while self.peek().type == "*":
            self.next()
            left = Binary("*", left, self.unary())
        return left

    def unary(self):
        if self.peek().type == "-":
            self.enter()
            self.next()
            operand = self.unary()
            self.depth -= 1
            return Unary("-", operand)
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok.type == "INT":
            self.next()
            return Num(tok.value)
        if tok.type == "(":
            self.enter()
            self.next()
            inner = self.or_expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if tok.type == "NAME":
            if tok.value in KEYWORDS:
                self.error(f"keyword {tok.value!r} cannot appear in an expression")
            self.next()
            return Name(tok.value)
        self.error(f"expected an expression, found {tok.value!r}")


def parse_scenario(text: str) -> ScenarioProgram:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _expr_names(expr, out: set) -> None:
    if isinstance(expr, Name):
        out.add(expr.name)
    elif isinstance(expr, Unary):
        _expr_names(expr.operand, out)
    elif isinstance(expr, Binary):
        _expr_names(expr.left, out)
        _expr_names(expr.right, out)


def _validate(prog: ScenarioProgram) -> None:
    kinds: dict = {}
    for decl in prog.declarations:
        if decl.name in kinds:
            raise ScenarioError(f"duplicate declaration of {decl.name!r}")
        kinds[decl.name] = decl.kind
    seen_threads = set()
    for thread in prog.threads:
        if thread.name == "main":
            raise ScenarioError("thread name 'main' is reserved for the implicit main")
        if thread.name in seen_threads or thread.name in kinds:
            raise ScenarioError(f"duplicate name {thread.name!r}")
        seen_threads.add(thread.name)
        _validate_block(thread.body, kinds, set(), thread.name)
    for name in prog.options:
        if name != "nojoin":
            raise ScenarioError(f"unknown option {name!r}")


def _require(kinds, name, expected, context):
    kind = kinds.get(name)
    if kind is None:
        raise ScenarioError(f"undeclared identifier {name!r} in {context}")
    if kind not in expected:
        raise ScenarioError(
            f"{context} needs a {' or '.join(expected)}, but {name!r} is a {kind}")


def _check_locals(expr, assigned, context):
    names: set = set()
    _expr_names(expr, names)
    for name in sorted(names):
        if name not in assigned:
            raise ScenarioError(f"undeclared identifier {name!r} in {context}")


def _validate_block(stmts, kinds, assigned, tname) -> None:
    for st in stmts:
        if isinstance(st, OpStmt):
            context = f"{st.kind} in thread {tname}"
            _require(kinds, st.obj, OPERATIONS[st.kind].object_kinds, context)
            if st.mutex is not None:
                _require(kinds, st.mutex, ("mutex",), context)
            if st.expr is not None:
                _check_locals(st.expr, assigned, context)
            if st.target is not None:
                assigned.add(st.target)
        elif isinstance(st, Assign):
            _check_locals(st.expr, assigned, f"assignment in thread {tname}")
            assigned.add(st.target)
        elif isinstance(st, AssertStmt):
            # Assertions evaluate atomically over the shared variables.
            names: set = set()
            _expr_names(st.expr, names)
            for name in sorted(names):
                _require(kinds, name, ("var",), f"assert in thread {tname}")
        elif isinstance(st, IfStmt):
            _check_locals(st.cond, assigned, f"if in thread {tname}")
            _validate_block(st.then, kinds, assigned, tname)
            if st.orelse is not None:
                _validate_block(st.orelse, kinds, assigned, tname)
        elif isinstance(st, WhileStmt):
            _check_locals(st.cond, assigned, f"while in thread {tname}")
            _validate_block(st.body, kinds, assigned, tname)
        elif isinstance(st, RepeatStmt):
            _validate_block(st.body, kinds, assigned, tname)


# ---------------------------------------------------------------------------
# Printing (canonical form; print . parse is the identity on trees)
# ---------------------------------------------------------------------------

# The parser's levels of the binary operators, loosest first.  Between them,
# `!` is at level 3, looser than the comparisons, and unary minus at 7.
_PRECEDENCE = {"||": 1, "&&": 2, "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4,
               ">=": 4, "+": 5, "-": 5, "*": 6}


def print_expr(expr, parent_prec: int = 0) -> str:
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Name):
        return expr.name
    if isinstance(expr, Unary):
        prec = 3 if expr.op == "!" else 7
        text = f"{expr.op}{print_expr(expr.operand, prec)}"
        return f"({text})" if parent_prec > prec else text
    prec = _PRECEDENCE[expr.op]
    # Comparisons do not chain, so a comparison on the left is bracketed too.
    left = print_expr(expr.left, prec + 1 if expr.op in _COMPARISONS else prec)
    right = print_expr(expr.right, prec + 1)
    text = f"{left} {expr.op} {right}"
    return f"({text})" if parent_prec > prec else text


def _print_stmt(st, indent: int, out: list) -> None:
    pad = "  " * indent
    if isinstance(st, OpStmt):
        text = f"{st.kind} {st.obj}"
        if st.mutex is not None:
            text += f" {st.mutex}"
        if st.expr is not None:
            text += f" {print_expr(st.expr)}"
        if st.target is not None:
            text = f"{st.target} = {text}"
        out.append(f"{pad}{text};")
    elif isinstance(st, Assign):
        out.append(f"{pad}{st.target} = {print_expr(st.expr)};")
    elif isinstance(st, AssertStmt):
        if st.message is None:
            out.append(f"{pad}assert({print_expr(st.expr)});")
        else:
            out.append(f'{pad}assert({print_expr(st.expr)}, "{st.message}");')
    elif isinstance(st, IfStmt):
        out.append(f"{pad}if ({print_expr(st.cond)}) {{")
        for sub in st.then:
            _print_stmt(sub, indent + 1, out)
        if st.orelse is None:
            out.append(f"{pad}}}")
        else:
            out.append(f"{pad}}} else {{")
            for sub in st.orelse:
                _print_stmt(sub, indent + 1, out)
            out.append(f"{pad}}}")
    elif isinstance(st, WhileStmt):
        out.append(f"{pad}while ({print_expr(st.cond)}) {{")
        for sub in st.body:
            _print_stmt(sub, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(st, RepeatStmt):
        out.append(f"{pad}repeat {st.count} {{")
        for sub in st.body:
            _print_stmt(sub, indent + 1, out)
        out.append(f"{pad}}}")
    else:
        raise TypeError(f"unknown statement {st!r}")


def print_scenario(prog: ScenarioProgram) -> str:
    out = []
    for decl in prog.declarations:
        out.append(" ".join([decl.kind, decl.name] + [
            attr.form.format(decl.attrs[attr.key])
            for attr in DECLARATIONS[decl.kind] if attr.key in decl.attrs]))
    for name in prog.options:
        out.append(f"option {name}")
    for thread in prog.threads:
        out.append(f"thread {thread.name} {{")
        for st in thread.body:
            _print_stmt(st, 1, out)
        out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Compilation and interpretation
# ---------------------------------------------------------------------------

# How many local instructions (assignments, condition tests, jumps) a thread
# may run between two visible operations.  One more ends the thread with a
# livelock crash, so a body that spins without a visible operation cannot
# hang a check.
MAX_LOCAL_STEPS = 100_000

_UNBOUND = object()   # the value of a local not assigned yet


def _stored(value, thread: str):
    """`value`, which `thread` stores, unless it is an integer out of range."""
    if type(value) is int and not INT_MIN <= value <= INT_MAX:
        raise ScenarioRuntimeError(
            f"integer overflow: thread {thread} computed a value outside the signed "
            "64-bit range")
    return value

_BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "==": lambda a, b: int(a == b), "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b), "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b), ">=": lambda a, b: int(a >= b),
}


def _compile_expr(expr, key):
    """A function of an environment that evaluates `expr`.  A name reads
    `env[key(name)]`, so an environment may be a dict of names or a
    thread's slot list."""
    if isinstance(expr, Num):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Name):
        name, k = expr.name, key(expr.name)

        def load(env):
            try:
                value = env[k]
            except KeyError:
                value = _UNBOUND
            if value is _UNBOUND:
                raise ScenarioRuntimeError(f"unbound name {name!r}")
            return value
        return load
    if isinstance(expr, Unary):
        operand = _compile_expr(expr.operand, key)
        if expr.op == "-":
            return lambda env: -operand(env)
        return lambda env: int(operand(env) == 0)
    left, right = _compile_expr(expr.left, key), _compile_expr(expr.right, key)
    if expr.op == "&&":
        return lambda env: int(left(env) != 0 and right(env) != 0)
    if expr.op == "||":
        return lambda env: int(left(env) != 0 or right(env) != 0)
    fn = _BINARY[expr.op]
    return lambda env: fn(left(env), right(env))


def eval_expr(expr, env: dict):
    """The value of `expr` over `env`, a dict of names."""
    return _compile_expr(expr, lambda name: name)(env)


# Instructions are (opcode, a, b) triples:
#   _YIELD   surface request a and, on resume, store its result in slot b
#            (0: drop it); a request of None ends the thread
#   _WRITE   surface a write to variable a of the value of expression b
#   _SET     slot a = the value of expression b
#   _BRANCH  go on if expression b is nonzero, else jump to a
#   _JUMP    jump to a
_YIELD, _WRITE, _SET, _BRANCH, _JUMP = range(5)
_END = (_YIELD, None, 0)


class ThreadCode:
    """One thread compiled to a flat instruction list.

    The interpreter's whole state is one immutable value: a tuple of the
    program counter, at the instruction that surfaced the pending request,
    and the thread's slots, its locals and `repeat` counters.  The runtime
    keeps that value in the thread's `ThreadInfo`, so a thread resumes from
    any snapshot without being replayed.
    """

    __slots__ = ("name", "code", "slots")

    def __init__(self, name: str, code: list, slots: int):
        self.name = name
        self.code = code
        self.slots = slots

    def start(self) -> tuple:
        """The thread's first request (None: it returned at once) and its
        state there."""
        return self._run([0] + [_UNBOUND] * self.slots, 0)

    def resume(self, state: tuple, result=None) -> tuple:
        """The next request after the one pending in `state`, which returned
        `result`, and the state there."""
        env = list(state)
        pc = env[0]
        op, _, target = self.code[pc]
        if op == _YIELD and target:
            env[target] = result
        return self._run(env, pc + 1)

    def body(self):
        """The thread as a generator body, for the host API."""
        request, state = self.start()
        while request is not None:
            request, state = self.resume(state, (yield request))

    def _run(self, env: list, pc: int) -> tuple:
        code, budget = self.code, MAX_LOCAL_STEPS
        while True:
            op, a, b = code[pc]
            if op == _YIELD:
                env[0] = pc
                return a, tuple(env)
            if op == _WRITE:
                env[0] = pc
                return ops.write(a, _stored(b(env), self.name)), tuple(env)
            if not budget:
                raise ScenarioRuntimeError(
                    f"livelock: thread {self.name} ran {MAX_LOCAL_STEPS} local "
                    "steps without a visible operation")
            budget -= 1
            if op == _SET:
                env[a] = _stored(b(env), self.name)
                pc += 1
            elif op == _BRANCH:
                pc = pc + 1 if b(env) else a
            else:
                pc = a


class _Compiler:
    """Compiles one thread's statements to `ThreadCode`.  Every request that
    does not depend on the thread's locals -- all but writes -- is built
    here, once, so each execution of a statement surfaces the very same
    request object."""

    def __init__(self, kind_of: dict):
        self.kind_of = kind_of
        self.code: list = []
        self.slot_of: dict = {}

    def thread(self, name: str, stmts: list) -> ThreadCode:
        self.code, self.slot_of = [], {}
        self.block(stmts)
        self.code.append(_END)
        return ThreadCode(name, self.code, len(self.slot_of))

    def slot(self, key) -> int:
        """The slot of local `key`; slot 0 holds the program counter."""
        return self.slot_of.setdefault(key, len(self.slot_of) + 1)

    def emit(self, op: int, a=None, b=0) -> int:
        self.code.append((op, a, b))
        return len(self.code) - 1

    def land(self, jump: int) -> None:
        """Point the jump at index `jump` to the next instruction emitted."""
        op, _, b = self.code[jump]
        self.code[jump] = (op, len(self.code), b)

    def block(self, stmts: list) -> None:
        for st in stmts:
            self.stmt(st)

    def stmt(self, st) -> None:
        if isinstance(st, OpStmt) and st.expr is not None:   # a write of a local value
            self.emit(_WRITE, st.obj, _compile_expr(st.expr, self.slot))
        elif isinstance(st, OpStmt):
            request = OpRequest(st.kind, st.obj, self.kind_of[st.obj], mutex_name=st.mutex)
            self.emit(_YIELD, request, 0 if st.target is None else self.slot(st.target))
        elif isinstance(st, AssertStmt):
            self.emit(_YIELD, self.assertion(st))
        elif isinstance(st, Assign):
            self.emit(_SET, self.slot(st.target), _compile_expr(st.expr, self.slot))
        elif isinstance(st, IfStmt):
            branch = self.emit(_BRANCH, None, _compile_expr(st.cond, self.slot))
            self.block(st.then)
            if st.orelse is None:
                self.land(branch)
            else:
                skip = self.emit(_JUMP)
                self.land(branch)
                self.block(st.orelse)
                self.land(skip)
        elif isinstance(st, WhileStmt):
            top = self.emit(_BRANCH, None, _compile_expr(st.cond, self.slot))
            self.block(st.body)
            self.emit(_JUMP, top)
            self.land(top)
        elif isinstance(st, RepeatStmt):
            counter, count = self.slot(object()), st.count
            self.emit(_SET, counter, lambda env: count)
            top = self.emit(_BRANCH, None, lambda env: env[counter])
            self.emit(_SET, counter, lambda env: env[counter] - 1)
            self.block(st.body)
            self.emit(_JUMP, top)
            self.land(top)

    def assertion(self, st: AssertStmt) -> OpRequest:
        holds = _compile_expr(st.expr, lambda name: name)
        text = print_expr(st.expr)
        message = st.message if st.message is not None else f"assert({text})"
        return ops.assert_check(lambda shared: holds(shared) != 0, message,
                                var_refs=_refs_of(st.expr), text=text)


def _refs_of(expr) -> tuple:
    names: set = set()
    _expr_names(expr, names)
    return tuple(sorted(names))


def instantiate(prog: ScenarioProgram) -> Program:
    """Produce the runnable program: each thread, and the implicit main that
    creates (and normally joins) all of them, compiled to `ThreadCode`.  A
    thread's body factory runs the same code as a generator."""
    workers = [t.name for t in prog.threads]
    main = [ops.create(name) for name in workers]
    if not prog.options.get("nojoin", False):
        main += [ops.join(name) for name in workers]
    compiler = _Compiler({d.name: d.kind for d in prog.declarations})
    codes = [ThreadCode("main", [(_YIELD, req, 0) for req in main] + [_END], 0)]
    codes += [compiler.thread(t.name, t.body) for t in prog.threads]
    return Program([(code.name, code.body) for code in codes], prog.declarations, codes)
