"""A small imperative scenario language and its interpreter.

Scenario files declare synchronization objects and shared variables, then
give each thread a statement block.  Threads exchange data only through the
visible operations (`read`/`write` on declared variables, semaphore values);
plain assignments and control-flow conditions work on thread-local names, so
everything between two visible operations stays invisible to the scheduler.

An implicit main thread creates every declared thread in declaration order
and then joins them (unless `option nojoin`).

Grammar sketch::

    program   := (decl | option | thread)*
    decl      := "mutex" NAME | "sem" NAME "=" INT [policy P]
               | "cond" NAME [policy P] ["spurious" INT]
               | "rwlock" NAME ("reader_pref"|"writer_pref"|"no_pref")
               | "rwwlock" NAME | "barrier" NAME "(" INT ")" | "var" NAME "=" INT
    option    := "option" NAME
    thread    := "thread" NAME "{" stmt* "}"
    stmt      := opStmt ";" | NAME "=" expr ";"
               | "assert" "(" expr ["," STRING] ")" ";"
               | "if" "(" expr ")" block ["else" block]
               | "while" "(" expr ")" block
               | "repeat" INT block
    opStmt    := "lock"|"unlock"|"sem_wait"|"sem_post" NAME
               | NAME "=" "sem_getvalue" NAME | "cond_wait" NAME NAME
               | "cond_signal"|"cond_broadcast" NAME
               | "rdlock"|"wrlock"|"wrlock1"|"wrlock2"|"rwunlock" NAME
               | "barrier_wait" NAME | NAME "=" "read" NAME | "write" NAME expr

`#` starts a comment.  Integers are the only value type; conditions treat
nonzero as true.  Blocks, parentheses and operators may nest at most
`MAX_NESTING` levels deep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .runtime import ObjectDecl, Program, ops


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


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Name:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: object


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object


@dataclass
class OpStmt:
    kind: str
    obj: str
    mutex: Optional[str] = None


@dataclass
class Assign:
    target: str
    expr: object


@dataclass
class ReadInto:
    target: str
    var: str


@dataclass
class GetValueInto:
    target: str
    sem: str


@dataclass
class WriteVar:
    var: str
    expr: object


@dataclass
class AssertStmt:
    expr: object
    message: Optional[str] = None


@dataclass
class IfStmt:
    cond: object
    then: list
    orelse: Optional[list] = None


@dataclass
class WhileStmt:
    cond: object
    body: list


@dataclass
class RepeatStmt:
    count: int
    body: list


@dataclass
class Decl:
    name: str
    kind: str
    attrs: dict = field(default_factory=dict)


@dataclass
class ThreadDef:
    name: str
    body: list


@dataclass
class ScenarioProgram:
    declarations: list = field(default_factory=list)
    threads: list = field(default_factory=list)
    options: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS = {
    "mutex", "sem", "cond", "rwlock", "rwwlock", "barrier", "var", "thread",
    "option", "assert", "if", "else", "while", "repeat", "lock", "unlock",
    "sem_wait", "sem_post", "sem_getvalue", "cond_wait", "cond_signal",
    "cond_broadcast", "rdlock", "wrlock", "wrlock1", "wrlock2", "rwunlock",
    "barrier_wait", "read", "write",
}

POLICY_WORDS = ("fifo", "lifo", "arb_indep", "arb_dep", "arb_fused")
PREF_WORDS = ("reader_pref", "writer_pref", "no_pref")

_PUNCT = ("&&", "||", "==", "!=", "<=", ">=",
          "{", "}", "(", ")", ";", ",", "=", "<", ">", "+", "-", "*", "!")


@dataclass
class Token:
    type: str   # NAME, INT, STRING, or the punctuation itself
    value: object
    line: int
    col: int


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
            tokens.append(Token("INT", int(text[start:i]), line, col))
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

_OP_OBJECT_KINDS = {
    "lock": ("mutex",), "unlock": ("mutex",),
    "sem_wait": ("sem",), "sem_post": ("sem",), "sem_getvalue": ("sem",),
    "cond_wait": ("cond",), "cond_signal": ("cond",), "cond_broadcast": ("cond",),
    "rdlock": ("rwlock", "rwwlock"), "wrlock": ("rwlock",),
    "wrlock1": ("rwwlock",), "wrlock2": ("rwwlock",),
    "rwunlock": ("rwlock", "rwwlock"), "barrier_wait": ("barrier",),
    "read": ("var",), "write": ("var",),
}

_SIMPLE_OPS = ("lock", "unlock", "sem_wait", "sem_post", "cond_signal",
               "cond_broadcast", "rdlock", "wrlock", "wrlock1", "wrlock2",
               "rwunlock", "barrier_wait")


# Parsing, validating, printing and evaluating all recurse on nesting, so a
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

    def at_word(self, word: str) -> bool:
        tok = self.peek()
        return tok.type == "NAME" and tok.value == word

    def eat_word(self, word: str) -> bool:
        if self.at_word(word):
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
            elif word in ("mutex", "sem", "cond", "rwlock", "rwwlock", "barrier", "var"):
                prog.declarations.append(self.decl())
            else:
                self.error(f"expected a declaration or thread, found {word!r}")
        _validate(prog)
        return prog

    def decl(self) -> Decl:
        kind = self.next().value
        name = self.ident("object name")
        attrs: dict = {}
        if kind == "sem":
            self.expect("=")
            attrs["init"] = self.integer()
            self._policy_attr(attrs)
        elif kind == "cond":
            self._policy_attr(attrs)
            if self.eat_word("spurious"):
                attrs["spurious"] = self.integer()
        elif kind == "rwlock":
            tok = self.expect("NAME")
            if tok.value not in PREF_WORDS:
                self.error(f"expected a preference {PREF_WORDS}, found {tok.value!r}", tok)
            attrs["preference"] = tok.value
        elif kind == "barrier":
            self.expect("(")
            attrs["parties"] = self.integer()
            self.expect(")")
        elif kind == "var":
            self.expect("=")
            attrs["init"] = self.integer()
        return Decl(name, kind, attrs)

    def _policy_attr(self, attrs: dict) -> None:
        if self.eat_word("policy"):
            tok = self.expect("NAME")
            if tok.value not in POLICY_WORDS:
                self.error(f"expected a policy {POLICY_WORDS}, found {tok.value!r}", tok)
            attrs["policy"] = tok.value

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
            if self.eat_word("else"):
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
        if word in _SIMPLE_OPS:
            self.next()
            obj = self.ident("object name")
            self.expect(";")
            return OpStmt(word, obj)
        if word == "cond_wait":
            self.next()
            cond = self.ident("object name")
            mutex = self.ident("object name")
            self.expect(";")
            return OpStmt(word, cond, mutex)
        if word == "write":
            self.next()
            var = self.ident("variable name")
            value = self.expr()
            self.expect(";")
            return WriteVar(var, value)
        if word in KEYWORDS:
            self.error(f"unexpected keyword {word!r}")
        # NAME "=" ...
        target = self.ident()
        self.expect("=")
        if self.at_word("read"):
            self.next()
            var = self.ident("variable name")
            self.expect(";")
            return ReadInto(target, var)
        if self.at_word("sem_getvalue"):
            self.next()
            sem = self.ident("object name")
            self.expect(";")
            return GetValueInto(target, sem)
        expr = self.expr()
        self.expect(";")
        return Assign(target, expr)

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
        if self.peek().type in ("==", "!=", "<", "<=", ">", ">="):
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
        if decl.kind == "sem" and decl.attrs.get("init", 0) < 0:
            raise ScenarioError(f"semaphore {decl.name!r} initialized below zero")
        if decl.kind == "barrier" and decl.attrs.get("parties", 1) < 1:
            raise ScenarioError(f"barrier {decl.name!r} needs at least one party")
        if decl.kind == "cond" and decl.attrs.get("spurious", 0) < 0:
            raise ScenarioError(f"condition {decl.name!r} has a negative spurious bound")
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
            _require(kinds, st.obj, _OP_OBJECT_KINDS[st.kind], f"{st.kind} in thread {tname}")
            if st.kind == "cond_wait":
                _require(kinds, st.mutex, ("mutex",), f"cond_wait in thread {tname}")
        elif isinstance(st, ReadInto):
            _require(kinds, st.var, ("var",), f"read in thread {tname}")
            assigned.add(st.target)
        elif isinstance(st, GetValueInto):
            _require(kinds, st.sem, ("sem",), f"sem_getvalue in thread {tname}")
            assigned.add(st.target)
        elif isinstance(st, WriteVar):
            _require(kinds, st.var, ("var",), f"write in thread {tname}")
            _check_locals(st.expr, assigned, f"write in thread {tname}")
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
            if st.count < 0:
                raise ScenarioError(f"repeat count must be nonnegative in thread {tname}")
            _validate_block(st.body, kinds, assigned, tname)


# ---------------------------------------------------------------------------
# Printing (canonical form; print . parse is the identity on trees)
# ---------------------------------------------------------------------------

_PRECEDENCE = {"||": 1, "&&": 2, "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4,
               ">=": 4, "+": 5, "-": 5, "*": 6}


def print_expr(expr, parent_prec: int = 0) -> str:
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Name):
        return expr.name
    if isinstance(expr, Unary):
        inner = print_expr(expr.operand, 7)
        text = f"{expr.op}{inner}"
        return f"({text})" if parent_prec > 7 else text
    prec = _PRECEDENCE[expr.op]
    left = print_expr(expr.left, prec)
    right = print_expr(expr.right, prec + 1)
    text = f"{left} {expr.op} {right}"
    return f"({text})" if parent_prec > prec else text


def _print_stmt(st, indent: int, out: list) -> None:
    pad = "  " * indent
    if isinstance(st, OpStmt):
        if st.kind == "cond_wait":
            out.append(f"{pad}cond_wait {st.obj} {st.mutex};")
        else:
            out.append(f"{pad}{st.kind} {st.obj};")
    elif isinstance(st, Assign):
        out.append(f"{pad}{st.target} = {print_expr(st.expr)};")
    elif isinstance(st, ReadInto):
        out.append(f"{pad}{st.target} = read {st.var};")
    elif isinstance(st, GetValueInto):
        out.append(f"{pad}{st.target} = sem_getvalue {st.sem};")
    elif isinstance(st, WriteVar):
        out.append(f"{pad}write {st.var} {print_expr(st.expr)};")
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
        if decl.kind == "mutex":
            out.append(f"mutex {decl.name}")
        elif decl.kind == "sem":
            line = f"sem {decl.name} = {decl.attrs['init']}"
            if "policy" in decl.attrs:
                line += f" policy {decl.attrs['policy']}"
            out.append(line)
        elif decl.kind == "cond":
            line = f"cond {decl.name}"
            if "policy" in decl.attrs:
                line += f" policy {decl.attrs['policy']}"
            if "spurious" in decl.attrs:
                line += f" spurious {decl.attrs['spurious']}"
            out.append(line)
        elif decl.kind == "rwlock":
            out.append(f"rwlock {decl.name} {decl.attrs['preference']}")
        elif decl.kind == "rwwlock":
            out.append(f"rwwlock {decl.name}")
        elif decl.kind == "barrier":
            out.append(f"barrier {decl.name} ({decl.attrs['parties']})")
        elif decl.kind == "var":
            out.append(f"var {decl.name} = {decl.attrs['init']}")
    for name in prog.options:
        out.append(f"option {name}")
    for thread in prog.threads:
        out.append(f"thread {thread.name} {{")
        for st in thread.body:
            _print_stmt(st, 1, out)
        out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Interpretation
# ---------------------------------------------------------------------------


def eval_expr(expr, env: dict):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Name):
        try:
            return env[expr.name]
        except KeyError:
            raise ScenarioRuntimeError(f"unbound name {expr.name!r}") from None
    if isinstance(expr, Unary):
        value = eval_expr(expr.operand, env)
        return -value if expr.op == "-" else int(value == 0)
    left = eval_expr(expr.left, env)
    if expr.op == "&&":
        return int(left != 0 and eval_expr(expr.right, env) != 0)
    if expr.op == "||":
        return int(left != 0 or eval_expr(expr.right, env) != 0)
    right = eval_expr(expr.right, env)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    if expr.op == "==":
        return int(left == right)
    if expr.op == "!=":
        return int(left != right)
    if expr.op == "<":
        return int(left < right)
    if expr.op == "<=":
        return int(left <= right)
    if expr.op == ">":
        return int(left > right)
    return int(left >= right)


def _run_block(stmts, env, requests):
    for st in stmts:
        yield from _run_stmt(st, env, requests)


def _run_stmt(st, env, requests):
    if isinstance(st, (OpStmt, AssertStmt)):
        yield requests.get(id(st)) or requests.build(st)
    elif isinstance(st, Assign):
        env[st.target] = eval_expr(st.expr, env)
    elif isinstance(st, (ReadInto, GetValueInto)):
        env[st.target] = yield requests.get(id(st)) or requests.build(st)
    elif isinstance(st, WriteVar):
        yield ops.write(st.var, eval_expr(st.expr, env))
    elif isinstance(st, IfStmt):
        if eval_expr(st.cond, env) != 0:
            yield from _run_block(st.then, env, requests)
        elif st.orelse is not None:
            yield from _run_block(st.orelse, env, requests)
    elif isinstance(st, WhileStmt):
        while eval_expr(st.cond, env) != 0:
            yield from _run_block(st.body, env, requests)
    elif isinstance(st, RepeatStmt):
        for _ in range(st.count):
            yield from _run_block(st.body, env, requests)


class _FixedRequests(dict):
    """By statement id, the request of each statement that yields the same
    one on every execution: all but writes, whose value comes from the
    thread's locals.  An assertion reads only the shared variables, so its
    predicate, text and `var_refs` are fixed too.  Each request is built on
    the statement's first execution and serves every later one, so a
    re-driven statement surfaces the very request it surfaced before.
    Building on first use rather than in `instantiate` keeps a one-trace
    replay from paying for statements it never reaches."""

    def __init__(self, kind_of: dict):
        super().__init__()
        self.kind_of = kind_of

    def build(self, st):
        """Build and keep the request of `st`, at its first execution."""
        if isinstance(st, OpStmt):
            if st.kind == "cond_wait":
                req = ops.cond_wait(st.obj, st.mutex)
            elif st.kind in ("rdlock", "rwunlock"):
                req = getattr(ops, st.kind)(st.obj, object_kind=self.kind_of[st.obj])
            else:
                req = getattr(ops, st.kind)(st.obj)
        elif isinstance(st, ReadInto):
            req = ops.read(st.var)
        elif isinstance(st, GetValueInto):
            req = ops.sem_getvalue(st.sem)
        else:
            expr = st.expr
            text = print_expr(expr)
            message = st.message if st.message is not None else f"assert({text})"
            req = ops.assert_check(lambda shared: eval_expr(expr, shared) != 0,
                                   message, var_refs=_refs_of(expr), text=text)
        self[id(st)] = req
        return req


def _refs_of(expr) -> tuple:
    names: set = set()
    _expr_names(expr, names)
    return tuple(sorted(names))


def instantiate(prog: ScenarioProgram) -> Program:
    """Produce the runnable program: interpreter bodies for each thread plus
    the implicit main that creates (and normally joins) all of them."""
    kind_of = {d.name: d.kind for d in prog.declarations}
    worker_names = [t.name for t in prog.threads]
    join_workers = not prog.options.get("nojoin", False)

    def main_body():
        for name in worker_names:
            yield ops.create(name)
        if join_workers:
            for name in worker_names:
                yield ops.join(name)

    requests = _FixedRequests(kind_of)

    def make_body(stmts):
        def body():
            env: dict = {}
            yield from _run_block(stmts, env, requests)
        return body

    threads = [("main", main_body)]
    threads.extend((t.name, make_body(t.body)) for t in prog.threads)
    declarations = [ObjectDecl(d.name, d.kind, dict(d.attrs)) for d in prog.declarations]
    return Program(threads, declarations)
