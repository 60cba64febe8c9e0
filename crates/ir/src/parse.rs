//! Lexer and recursive-descent parser for the mini-Fortran surface syntax.
//!
//! Grammar (EBNF):
//!
//! ```text
//! program  := proc*
//! proc     := 'proc' IDENT '(' [param (',' param)*] ')' block
//! param    := IDENT ':' ('int' | 'real'
//!            | 'array' '[' expr (',' expr)* ']' ['of' ('int'|'real')])
//! block    := '{' item* '}'
//! item     := decl | stmt
//! decl     := 'array' IDENT '[' expr (',' expr)* ']' ['of' sty] ';'
//!           | 'var' IDENT ':' sty ['=' expr] ';'
//! stmt     := lvalue '=' expr ';'
//!           | 'if' '(' bexpr ')' block ['else' (block | ifstmt)]
//!           | 'for' ['@' IDENT] IDENT '=' expr 'to' expr ['step' INT] block
//!           | 'call' IDENT '(' [arg (',' arg)*] ')' ';'
//!           | 'read' IDENT ';' | 'print' expr ';'
//!           | 'exit' 'when' '(' bexpr ')' ';'
//! bexpr    := bterm ('or' bterm)* ; bterm := bfact ('and' bfact)*
//! bfact    := 'not' bfact | 'true' | 'false'
//!           | '(' bexpr ')'          (resolved by backtracking)
//!           | expr cmpop expr
//! expr     := term (('+'|'-') term)*
//! term     := unary (('*'|'/'|'%') unary)*
//! unary    := '-' unary | atom
//! atom     := INT | REAL | '(' expr ')'
//!           | IDENT ['(' exprs ')' | '[' exprs ']']
//! ```

use crate::ast::*;
use padfa_omega::{Var, VarTable};
use std::fmt;

/// Parse error with line/column location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub msg: String,
    pub line: usize,
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// A token. An identifier borrows its text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    Real(f64),
    Punct(&'static str),
    Eof,
}

#[derive(Debug, Clone)]
struct SpannedTok<'a> {
    tok: Tok<'a>,
    line: usize,
    col: usize,
}

struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            text: src,
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn bump(&mut self) -> u8 {
        let c = self.src[self.pos];
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        c
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            msg: msg.into(),
            line: self.line,
            col: self.col,
        }
    }

    fn tokenize(mut self) -> Result<Vec<SpannedTok<'a>>, ParseError> {
        // About one token per four source bytes on the corpus.
        let mut out = Vec::with_capacity(self.src.len() / 4 + 1);
        loop {
            // Skip whitespace and // comments.
            loop {
                match self.peek() {
                    Some(c) if c.is_ascii_whitespace() => {
                        self.bump();
                    }
                    Some(b'/') if self.peek2() == Some(b'/') => {
                        while let Some(c) = self.peek() {
                            if c == b'\n' {
                                break;
                            }
                            self.bump();
                        }
                    }
                    _ => break,
                }
            }
            let (line, col) = (self.line, self.col);
            let Some(c) = self.peek() else {
                out.push(SpannedTok {
                    tok: Tok::Eof,
                    line,
                    col,
                });
                return Ok(out);
            };
            let tok = if c.is_ascii_alphabetic() || c == b'_' {
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == b'_' {
                        self.bump();
                    } else {
                        break;
                    }
                }
                // ASCII only, so the bounds are character boundaries.
                Tok::Ident(&self.text[start..self.pos])
            } else if c.is_ascii_digit() {
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() {
                        self.bump();
                    } else {
                        break;
                    }
                }
                let mut is_real = false;
                if self.peek() == Some(b'.') && self.peek2().is_some_and(|c| c.is_ascii_digit()) {
                    is_real = true;
                    self.bump();
                    while let Some(c) = self.peek() {
                        if c.is_ascii_digit() {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                if matches!(self.peek(), Some(b'e') | Some(b'E'))
                    && self
                        .peek2()
                        .is_some_and(|c| c.is_ascii_digit() || c == b'-' || c == b'+')
                {
                    is_real = true;
                    self.bump();
                    if matches!(self.peek(), Some(b'-') | Some(b'+')) {
                        self.bump();
                    }
                    while let Some(c) = self.peek() {
                        if c.is_ascii_digit() {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                let text = &self.text[start..self.pos];
                if is_real {
                    Tok::Real(text.parse().map_err(|_| self.error("bad real literal"))?)
                } else {
                    Tok::Int(text.parse().map_err(|_| self.error("bad int literal"))?)
                }
            } else {
                self.bump();
                match c {
                    b'(' => Tok::Punct("("),
                    b')' => Tok::Punct(")"),
                    b'[' => Tok::Punct("["),
                    b']' => Tok::Punct("]"),
                    b'{' => Tok::Punct("{"),
                    b'}' => Tok::Punct("}"),
                    b',' => Tok::Punct(","),
                    b';' => Tok::Punct(";"),
                    b':' => Tok::Punct(":"),
                    b'@' => Tok::Punct("@"),
                    b'+' => Tok::Punct("+"),
                    b'-' => Tok::Punct("-"),
                    b'*' => Tok::Punct("*"),
                    b'/' => Tok::Punct("/"),
                    b'%' => Tok::Punct("%"),
                    b'=' => {
                        if self.peek() == Some(b'=') {
                            self.bump();
                            Tok::Punct("==")
                        } else {
                            Tok::Punct("=")
                        }
                    }
                    b'!' => {
                        if self.peek() == Some(b'=') {
                            self.bump();
                            Tok::Punct("!=")
                        } else {
                            return Err(self.error("expected '!='"));
                        }
                    }
                    b'<' => {
                        if self.peek() == Some(b'=') {
                            self.bump();
                            Tok::Punct("<=")
                        } else {
                            Tok::Punct("<")
                        }
                    }
                    b'>' => {
                        if self.peek() == Some(b'=') {
                            self.bump();
                            Tok::Punct(">=")
                        } else {
                            Tok::Punct(">")
                        }
                    }
                    other => {
                        return Err(self.error(format!("unexpected character '{}'", other as char)))
                    }
                }
            };
            out.push(SpannedTok { tok, line, col });
        }
    }
}

struct Parser<'a> {
    toks: Vec<SpannedTok<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn cur(&self) -> &SpannedTok<'a> {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        let t = self.cur();
        ParseError {
            msg: msg.into(),
            line: t.line,
            col: t.col,
        }
    }

    fn bump(&mut self) -> Tok<'a> {
        let t = self.cur().tok;
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(&self.cur().tok, Tok::Punct(q) if *q == p)
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.cur().tok, Tok::Ident(s) if s == kw)
    }

    fn eat_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.at_punct(p) {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected '{p}', found {:?}", self.cur().tok)))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.at_kw(kw) {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected '{kw}', found {:?}", self.cur().tok)))
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut procs = Vec::new();
        while !matches!(self.cur().tok, Tok::Eof) {
            procs.push(self.procedure()?);
        }
        Ok(Program::new(procs))
    }

    fn scalar_ty(&mut self) -> Result<ScalarTy, ParseError> {
        if self.at_kw("int") {
            self.bump();
            Ok(ScalarTy::Int)
        } else if self.at_kw("real") {
            self.bump();
            Ok(ScalarTy::Real)
        } else {
            Err(self.error("expected 'int' or 'real'"))
        }
    }

    fn procedure(&mut self) -> Result<Procedure, ParseError> {
        self.eat_kw("proc")?;
        let name = self.ident()?.to_string();
        self.eat_punct("(")?;
        let mut params = Vec::new();
        if !self.at_punct(")") {
            loop {
                let pname = self.ident()?;
                self.eat_punct(":")?;
                let ty = if self.at_kw("array") {
                    self.bump();
                    self.eat_punct("[")?;
                    let mut dims = vec![self.expr()?];
                    while self.at_punct(",") {
                        self.bump();
                        dims.push(self.expr()?);
                    }
                    self.eat_punct("]")?;
                    let sty = if self.at_kw("of") {
                        self.bump();
                        self.scalar_ty()?
                    } else {
                        ScalarTy::Real
                    };
                    ParamTy::Array { dims, ty: sty }
                } else {
                    ParamTy::Scalar(self.scalar_ty()?)
                };
                params.push(Param {
                    name: Var::new(pname),
                    ty,
                });
                if self.at_punct(",") {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.eat_punct(")")?;
        self.eat_punct("{")?;
        let mut arrays = Vec::new();
        let mut scalars = Vec::new();
        let mut stmts = Vec::new();
        while !self.at_punct("}") {
            if self.at_kw("array") {
                self.bump();
                let aname = self.ident()?;
                self.eat_punct("[")?;
                let mut dims = vec![self.expr()?];
                while self.at_punct(",") {
                    self.bump();
                    dims.push(self.expr()?);
                }
                self.eat_punct("]")?;
                let ty = if self.at_kw("of") {
                    self.bump();
                    self.scalar_ty()?
                } else {
                    ScalarTy::Real
                };
                self.eat_punct(";")?;
                arrays.push(ArrayDecl {
                    name: Var::new(aname),
                    dims,
                    ty,
                });
            } else if self.at_kw("var") {
                self.bump();
                let vname = self.ident()?;
                self.eat_punct(":")?;
                let ty = self.scalar_ty()?;
                let init = if self.at_punct("=") {
                    self.bump();
                    Some(self.expr()?)
                } else {
                    None
                };
                self.eat_punct(";")?;
                scalars.push(ScalarDecl {
                    name: Var::new(vname),
                    ty,
                    init,
                });
            } else {
                stmts.push(self.stmt()?);
            }
        }
        self.eat_punct("}")?;
        Ok(Procedure {
            name,
            params,
            arrays,
            scalars,
            body: Block::new(stmts),
        })
    }

    fn block(&mut self) -> Result<Block, ParseError> {
        self.eat_punct("{")?;
        let mut stmts = Vec::new();
        while !self.at_punct("}") {
            stmts.push(self.stmt()?);
        }
        self.eat_punct("}")?;
        Ok(Block::new(stmts))
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        if self.at_kw("if") {
            return self.if_stmt();
        }
        if self.at_kw("for") {
            self.bump();
            let label = if self.at_punct("@") {
                self.bump();
                Some(self.ident()?.to_string())
            } else {
                None
            };
            let var = self.ident()?;
            self.eat_punct("=")?;
            let lo = self.expr()?;
            self.eat_kw("to")?;
            let hi = self.expr()?;
            let step = if self.at_kw("step") {
                self.bump();
                let neg = if self.at_punct("-") {
                    self.bump();
                    true
                } else {
                    false
                };
                match self.bump() {
                    Tok::Int(s) if s > 0 => {
                        if neg {
                            -s
                        } else {
                            s
                        }
                    }
                    _ => return Err(self.error("loop step must be a non-zero integer constant")),
                }
            } else {
                1
            };
            let body = self.block()?;
            return Ok(Stmt::For(Loop {
                id: LoopId(u32::MAX),
                label,
                var: Var::new(var),
                lo,
                hi,
                step,
                body,
            }));
        }
        if self.at_kw("call") {
            self.bump();
            let callee = self.ident()?.to_string();
            self.eat_punct("(")?;
            let mut args = Vec::new();
            if !self.at_punct(")") {
                loop {
                    // A bare identifier not followed by an operator or
                    // subscript is ambiguous between a scalar expression
                    // and a whole-array argument; resolve to Array form
                    // (the resolver fixes up scalars).
                    let save = self.pos;
                    if let Tok::Ident(name) = self.cur().tok {
                        self.bump();
                        if self.at_punct(",") || self.at_punct(")") {
                            args.push(Arg::Array(Var::new(name)));
                        } else {
                            self.pos = save;
                            args.push(Arg::Scalar(self.expr()?));
                        }
                    } else {
                        args.push(Arg::Scalar(self.expr()?));
                    }
                    if self.at_punct(",") {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.eat_punct(")")?;
            self.eat_punct(";")?;
            return Ok(Stmt::Call { callee, args });
        }
        if self.at_kw("read") {
            self.bump();
            let v = self.ident()?;
            self.eat_punct(";")?;
            return Ok(Stmt::Read(Var::new(v)));
        }
        if self.at_kw("print") {
            self.bump();
            let e = self.expr()?;
            self.eat_punct(";")?;
            return Ok(Stmt::Print(e));
        }
        if self.at_kw("exit") {
            self.bump();
            self.eat_kw("when")?;
            self.eat_punct("(")?;
            let c = self.bool_expr()?;
            self.eat_punct(")")?;
            self.eat_punct(";")?;
            return Ok(Stmt::ExitWhen(c));
        }
        // Assignment.
        let name = self.ident()?;
        let lhs = if self.at_punct("[") {
            self.bump();
            let mut idxs = vec![self.expr()?];
            while self.at_punct(",") {
                self.bump();
                idxs.push(self.expr()?);
            }
            self.eat_punct("]")?;
            LValue::Elem(Var::new(name), idxs)
        } else {
            LValue::Scalar(Var::new(name))
        };
        self.eat_punct("=")?;
        let rhs = self.expr()?;
        self.eat_punct(";")?;
        Ok(Stmt::Assign { lhs, rhs })
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.eat_kw("if")?;
        self.eat_punct("(")?;
        let cond = self.bool_expr()?;
        self.eat_punct(")")?;
        let then_blk = self.block()?;
        let else_blk = if self.at_kw("else") {
            self.bump();
            if self.at_kw("if") {
                Block::new(vec![self.if_stmt()?])
            } else {
                self.block()?
            }
        } else {
            Block::default()
        };
        Ok(Stmt::If {
            cond,
            then_blk,
            else_blk,
        })
    }

    fn bool_expr(&mut self) -> Result<BoolExpr, ParseError> {
        let mut lhs = self.bool_term()?;
        while self.at_kw("or") {
            self.bump();
            let rhs = self.bool_term()?;
            lhs = BoolExpr::or(lhs, rhs);
        }
        Ok(lhs)
    }

    fn bool_term(&mut self) -> Result<BoolExpr, ParseError> {
        let mut lhs = self.bool_factor()?;
        while self.at_kw("and") {
            self.bump();
            let rhs = self.bool_factor()?;
            lhs = BoolExpr::and(lhs, rhs);
        }
        Ok(lhs)
    }

    fn bool_factor(&mut self) -> Result<BoolExpr, ParseError> {
        if self.at_kw("not") {
            self.bump();
            return Ok(BoolExpr::not(self.bool_factor()?));
        }
        if self.at_kw("true") {
            self.bump();
            return Ok(BoolExpr::Lit(true));
        }
        if self.at_kw("false") {
            self.bump();
            return Ok(BoolExpr::Lit(false));
        }
        if self.at_punct("(") {
            // Could be a parenthesized boolean or the left operand of a
            // comparison; try boolean first and backtrack.
            let save = self.pos;
            self.bump();
            if let Ok(b) = self.bool_expr() {
                if self.at_punct(")") {
                    let after_save = self.pos;
                    self.bump();
                    // If a comparison operator follows, the parenthesized
                    // text was really an arithmetic operand.
                    if !self.at_cmp_op() && !self.at_arith_continuation() {
                        return Ok(b);
                    }
                    self.pos = after_save;
                }
            }
            self.pos = save;
        }
        let a = self.expr()?;
        let op = self.cmp_op()?;
        let b = self.expr()?;
        Ok(BoolExpr::Cmp(op, a, b))
    }

    fn at_cmp_op(&self) -> bool {
        ["==", "!=", "<", "<=", ">", ">="]
            .iter()
            .any(|p| self.at_punct(p))
    }

    fn at_arith_continuation(&self) -> bool {
        ["+", "-", "*", "/", "%"].iter().any(|p| self.at_punct(p))
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        let op = match &self.cur().tok {
            Tok::Punct("==") => CmpOp::Eq,
            Tok::Punct("!=") => CmpOp::Ne,
            Tok::Punct("<") => CmpOp::Lt,
            Tok::Punct("<=") => CmpOp::Le,
            Tok::Punct(">") => CmpOp::Gt,
            Tok::Punct(">=") => CmpOp::Ge,
            other => {
                return Err(self.error(format!("expected comparison operator, found {other:?}")))
            }
        };
        self.bump();
        Ok(op)
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.term()?;
        loop {
            if self.at_punct("+") {
                self.bump();
                lhs = Expr::Add(Box::new(lhs), Box::new(self.term()?));
            } else if self.at_punct("-") {
                self.bump();
                lhs = Expr::Sub(Box::new(lhs), Box::new(self.term()?));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            if self.at_punct("*") {
                self.bump();
                lhs = Expr::Mul(Box::new(lhs), Box::new(self.unary()?));
            } else if self.at_punct("/") {
                self.bump();
                lhs = Expr::Div(Box::new(lhs), Box::new(self.unary()?));
            } else if self.at_punct("%") {
                self.bump();
                lhs = Expr::Mod(Box::new(lhs), Box::new(self.unary()?));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.at_punct("-") {
            self.bump();
            // `-literal` (the literal token directly, not a parenthesized
            // expression) folds into a negative literal so printed
            // negative constants round-trip structurally; anything else
            // stays an explicit negation.
            match self.cur().tok {
                Tok::Int(v) => {
                    self.bump();
                    return Ok(Expr::IntLit(-v));
                }
                Tok::Real(v) => {
                    self.bump();
                    return Ok(Expr::RealLit(-v));
                }
                _ => return Ok(Expr::Neg(Box::new(self.unary()?))),
            }
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Tok::Int(v) => Ok(Expr::IntLit(v)),
            Tok::Real(v) => Ok(Expr::RealLit(v)),
            Tok::Punct("(") => {
                let e = self.expr()?;
                self.eat_punct(")")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if self.at_punct("(") {
                    let intr = Intrinsic::from_name(name)
                        .ok_or_else(|| self.error(format!("unknown intrinsic '{name}'")))?;
                    self.bump();
                    let mut args = vec![self.expr()?];
                    while self.at_punct(",") {
                        self.bump();
                        args.push(self.expr()?);
                    }
                    self.eat_punct(")")?;
                    if args.len() != intr.arity() {
                        return Err(self.error(format!(
                            "intrinsic '{name}' takes {} argument(s), got {}",
                            intr.arity(),
                            args.len()
                        )));
                    }
                    Ok(Expr::Call(intr, args))
                } else if self.at_punct("[") {
                    self.bump();
                    let mut idxs = vec![self.expr()?];
                    while self.at_punct(",") {
                        self.bump();
                        idxs.push(self.expr()?);
                    }
                    self.eat_punct("]")?;
                    Ok(Expr::Elem(Var::new(name), idxs))
                } else {
                    Ok(Expr::Scalar(Var::new(name)))
                }
            }
            other => Err(self.error(format!("expected expression, found {other:?}"))),
        }
    }
}

/// Parse a complete program from source text.
///
/// Parsing starts the calling thread on an empty [`VarTable`], so the
/// program's names are numbered in the order the parser meets them, and
/// the same text always gives the same `Var`s. A `Var` the thread made
/// before the call means nothing against the new numbering.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    VarTable::start();
    let toks = Lexer::new(src).tokenize()?;
    let mut p = Parser { toks, pos: 0 };
    let prog = p.program()?;
    crate::visit::resolve(&prog).map_err(|msg| ParseError {
        msg,
        line: 0,
        col: 0,
    })?;
    Ok(prog)
}

/// Parse a single arithmetic expression (used in tests and tools).
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let toks = Lexer::new(src).tokenize()?;
    let mut p = Parser { toks, pos: 0 };
    let e = p.expr()?;
    if !matches!(p.cur().tok, Tok::Eof) {
        return Err(p.error("trailing tokens after expression"));
    }
    Ok(e)
}

/// Parse a single boolean expression.
pub fn parse_bool_expr(src: &str) -> Result<BoolExpr, ParseError> {
    let toks = Lexer::new(src).tokenize()?;
    let mut p = Parser { toks, pos: 0 };
    let e = p.bool_expr()?;
    if !matches!(p.cur().tok, Tok::Eof) {
        return Err(p.error("trailing tokens after expression"));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_proc() {
        let p = parse_program("proc main() { }").unwrap();
        assert_eq!(p.procedures.len(), 1);
        assert_eq!(p.procedures[0].name, "main");
    }

    #[test]
    fn parses_params_and_decls() {
        let src = "proc f(n: int, x: real, a: array[10, n] of int) {
            array b[n];
            var t: real = 1.5;
            var k: int;
        }";
        let p = parse_program(src).unwrap();
        let f = p.proc("f").unwrap();
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.arrays.len(), 1);
        assert_eq!(f.scalars.len(), 2);
        assert_eq!(f.array_ty(Var::new("a")), Some(ScalarTy::Int));
        assert_eq!(f.array_ty(Var::new("b")), Some(ScalarTy::Real));
    }

    #[test]
    fn parses_loop_with_label_and_step() {
        let src = "proc main(n: int) { array a[100];
            for@L1 i = 1 to n step 2 { a[i] = 0.0; } }";
        let p = parse_program(src).unwrap();
        match &p.procedures[0].body.stmts[0] {
            Stmt::For(l) => {
                assert_eq!(l.label.as_deref(), Some("L1"));
                assert_eq!(l.step, 2);
                assert_eq!(l.var, Var::new("i"));
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_chain() {
        let src = "proc main(x: int) { var y: int;
            if (x > 0) { y = 1; } else if (x < 0) { y = -1; } else { y = 0; } }";
        let p = parse_program(src).unwrap();
        match &p.procedures[0].body.stmts[0] {
            Stmt::If { else_blk, .. } => {
                assert!(matches!(else_blk.stmts[0], Stmt::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_boolean_operators_and_parens() {
        let b = parse_bool_expr("not (x > 1 or y < 2) and z == 3").unwrap();
        assert!(matches!(b, BoolExpr::And(..)));
        // Parenthesized arithmetic operand of a comparison.
        let c = parse_bool_expr("(x + 1) * 2 > y").unwrap();
        assert!(matches!(c, BoolExpr::Cmp(CmpOp::Gt, ..)));
    }

    #[test]
    fn parses_call_args() {
        let src = "proc sub(a: array[10], n: int) { }
                   proc main(n: int) { array a[10]; call sub(a, n); }";
        let p = parse_program(src).unwrap();
        match &p.proc("main").unwrap().body.stmts[0] {
            Stmt::Call { callee, args } => {
                assert_eq!(callee, "sub");
                assert!(matches!(args[0], Arg::Array(_)));
                // `n` parses as Array form but the resolver accepts it as
                // a scalar actual bound to a scalar formal.
                assert_eq!(args.len(), 2);
            }
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn parses_io_and_exit() {
        let src = "proc main(n: int) { var x: int;
            for i = 1 to n { read x; exit when (x > 0); print x; } }";
        let p = parse_program(src).unwrap();
        match &p.procedures[0].body.stmts[0] {
            Stmt::For(l) => {
                assert!(matches!(l.body.stmts[0], Stmt::Read(_)));
                assert!(matches!(l.body.stmts[1], Stmt::ExitWhen(_)));
                assert!(matches!(l.body.stmts[2], Stmt::Print(_)));
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn parses_intrinsics_with_arity_check() {
        assert!(parse_expr("sqrt(x) + min(a, b)").is_ok());
        assert!(parse_expr("sqrt(x, y)").is_err());
        assert!(parse_expr("mystery(x)").is_err());
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e {
            Expr::Add(_, rhs) => assert!(matches!(*rhs, Expr::Mul(..))),
            other => panic!("expected add, got {other:?}"),
        }
        let e2 = parse_expr("(1 + 2) * 3").unwrap();
        assert!(matches!(e2, Expr::Mul(..)));
    }

    #[test]
    fn pretty_print_round_trip() {
        let src = "proc sub(b: array[50], m: int) {
            for j = 1 to m { b[j] = b[j] + 1.0; }
        }
        proc main(n: int) {
            array a[100, 100];
            array c[50];
            var x: int = 3;
            for@outer i = 2 to n - 1 {
                if (x > 5 and i < n) {
                    a[i, 1] = sqrt(a[i - 1, 1]);
                } else {
                    a[i, 1] = 0.5;
                }
                call sub(c, 50);
            }
        }";
        let p1 = parse_program(src).unwrap();
        let text = crate::pretty::program_to_string(&p1);
        let p2 = parse_program(&text).unwrap();
        assert_eq!(
            p1, p2,
            "pretty output must re-parse to the same AST:\n{text}"
        );
    }

    #[test]
    fn reports_error_position() {
        let err = parse_program("proc main() { x = ; }").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.col > 1);
    }

    #[test]
    fn rejects_bad_step() {
        assert!(parse_program("proc m(n: int) { for i = 1 to n step 0 { } }").is_err());
        assert!(parse_program("proc m(n: int) { for i = 1 to n step x { } }").is_err());
    }

    #[test]
    fn parses_negative_step() {
        let p =
            parse_program("proc m(n: int) { array a[10]; for i = n to 1 step -1 { a[i] = 0.0; } }")
                .unwrap();
        match &p.procedures[0].body.stmts[0] {
            Stmt::For(l) => assert_eq!(l.step, -1),
            other => panic!("expected loop, got {other:?}"),
        }
        // Pretty output re-parses to the same AST.
        let text = crate::pretty::program_to_string(&p);
        assert_eq!(parse_program(&text).unwrap(), p);
    }

    #[test]
    fn comments_are_skipped() {
        let p = parse_program("// header\nproc main() { // body\n }").unwrap();
        assert_eq!(p.procedures.len(), 1);
    }
}
