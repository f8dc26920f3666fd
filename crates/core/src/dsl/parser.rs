//! Recursive-descent parser for the DSL.

use crate::error::CoreError;

use super::ast::*;
use super::lexer::{Spanned, Tok};

/// How deep an expression may nest. Every operator and every pair of
/// parentheses between the root and a leaf is one level, and a
/// program's `init` clauses, which are conjoined, count as one `&&`
/// chain. The parser and every pass after it recurse once per level,
/// so deeper input is refused with an error instead of overflowing the
/// stack. The deepest shipped or generated check nests about 16 levels.
pub const MAX_DEPTH: usize = 256;

/// A parsed expression and how many levels it nests.
type Nested = (SExpr, usize);

/// Parser over a token stream.
pub struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// How many operators and parentheses enclose the current token.
    depth: usize,
}

impl Parser {
    /// Creates a parser over `toks`.
    pub fn new(toks: Vec<Spanned>) -> Self {
        Parser {
            toks,
            pos: 0,
            depth: 0,
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|s| &s.tok)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, CoreError> {
        self.err_at(self.pos, msg)
    }

    /// An error at token `at` (the last token past the end).
    fn err_at<T>(&self, at: usize, msg: impl Into<String>) -> Result<T, CoreError> {
        let (line, col) = match self.toks.get(at.min(self.toks.len().saturating_sub(1))) {
            Some(s) => (s.line, s.col),
            None => (1, 1),
        };
        Err(CoreError::Parse {
            line,
            col,
            msg: msg.into(),
        })
    }

    /// The level above `inner`, for the operator or parenthesis at
    /// token `at`; an error past [`MAX_DEPTH`].
    fn nest(&self, at: usize, inner: usize) -> Result<usize, CoreError> {
        if inner >= MAX_DEPTH {
            return self.err_at(
                at,
                format!("expression nested deeper than {MAX_DEPTH} levels"),
            );
        }
        Ok(inner + 1)
    }

    /// Runs `f` on the operands of the operator or parenthesis at token
    /// `at`. Entering past [`MAX_DEPTH`] enclosing levels is an error
    /// before any recursion, since the result would nest deeper still.
    fn descend<T>(
        &mut self,
        at: usize,
        f: impl FnOnce(&mut Self) -> Result<T, CoreError>,
    ) -> Result<T, CoreError> {
        self.depth = self.nest(at, self.depth)?;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// `lhs op rhs` for the operator at token `at`.
    fn binary(
        &self,
        at: usize,
        op: SBinOp,
        (l, dl): Nested,
        (r, dr): Nested,
    ) -> Result<Nested, CoreError> {
        let depth = self.nest(at, dl.max(dr))?;
        Ok((SExpr::Binary(op, Box::new(l), Box::new(r)), depth))
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), CoreError> {
        match self.peek() {
            Some(t) if t == want => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => self.err(format!("expected {what}, found {t:?}")),
            None => self.err(format!("expected {what}, found end of input")),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, CoreError> {
        match self.peek().cloned() {
            Some(Tok::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            Some(t) => self.err(format!("expected {what}, found {t:?}")),
            None => self.err(format!("expected {what}, found end of input")),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s == kw {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), CoreError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            self.err(format!("expected keyword `{kw}`"))
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    // ----- programs -----

    /// Parses all `program ... end` blocks to end of input.
    pub fn parse_programs(&mut self) -> Result<Vec<SProgram>, CoreError> {
        let mut out = Vec::new();
        while self.peek().is_some() {
            out.push(self.parse_program_block()?);
        }
        if out.is_empty() {
            return self.err("expected at least one `program` block");
        }
        Ok(out)
    }

    fn parse_program_block(&mut self) -> Result<SProgram, CoreError> {
        self.expect_keyword("program")?;
        let name = self.expect_ident("program name")?;
        let mut vars = Vec::new();
        let mut inits = Vec::new();
        let mut init_depth = None;
        let mut commands = Vec::new();
        loop {
            if self.eat_keyword("end") {
                break;
            }
            if self.eat_keyword("var") {
                vars.push(self.parse_var_decl()?);
            } else if self.eat_keyword("init") {
                let at = self.pos - 1;
                let (init, depth) = self.parse_iff()?;
                init_depth = Some(match init_depth {
                    None => depth,
                    Some(prev) => self.nest(at, depth.max(prev))?,
                });
                inits.push(init);
            } else if self.peek_keyword("fair") || self.peek_keyword("cmd") {
                let fair = self.eat_keyword("fair");
                self.expect_keyword("cmd")?;
                commands.push(self.parse_command(fair)?);
            } else if self.peek().is_none() {
                return self.err("unexpected end of input inside program (missing `end`?)");
            } else {
                return self.err("expected `var`, `init`, `cmd`, `fair cmd` or `end`");
            }
        }
        Ok(SProgram {
            name,
            vars,
            inits,
            commands,
        })
    }

    fn parse_var_decl(&mut self) -> Result<SVarDecl, CoreError> {
        let name = self.expect_ident("variable name")?;
        self.expect(&Tok::Colon, "`:`")?;
        let ty = if self.eat_keyword("bool") {
            SType::Bool
        } else if self.eat_keyword("int") {
            let lo = self.parse_signed_int()?;
            self.expect(&Tok::DotDot, "`..`")?;
            let hi = self.parse_signed_int()?;
            SType::IntRange(lo, hi)
        } else {
            return self.err("expected `bool` or `int lo..hi`");
        };
        let local = self.eat_keyword("local");
        Ok(SVarDecl { name, ty, local })
    }

    fn parse_signed_int(&mut self) -> Result<i64, CoreError> {
        let negative = matches!(self.peek(), Some(Tok::Minus));
        if negative {
            self.pos += 1;
        }
        match self.bump() {
            Some(Tok::Int(n)) => Ok(if negative { -n } else { n }),
            _ => self.err("expected integer literal"),
        }
    }

    fn parse_command(&mut self, fair: bool) -> Result<SCommand, CoreError> {
        let name = self.expect_ident("command name")?;
        self.expect(&Tok::Colon, "`:`")?;
        let guard = self.parse_expr()?;
        self.expect(&Tok::Arrow, "`->`")?;
        let mut updates = Vec::new();
        if self.eat_keyword("skip") {
            // no updates
        } else {
            loop {
                let target = self.expect_ident("assignment target")?;
                self.expect(&Tok::Assign, "`:=`")?;
                let rhs = self.parse_expr()?;
                updates.push((target, rhs));
                if matches!(self.peek(), Some(Tok::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        Ok(SCommand {
            name,
            fair,
            guard,
            updates,
        })
    }

    // ----- properties -----

    /// Parses a property and requires end of input.
    pub fn parse_property_eof(&mut self) -> Result<SProperty, CoreError> {
        let p = self.parse_property()?;
        if self.peek().is_some() {
            return self.err("unexpected trailing tokens after property");
        }
        Ok(p)
    }

    fn parse_property(&mut self) -> Result<SProperty, CoreError> {
        for (kw, mk) in [
            ("init", SProperty::Init as fn(SExpr) -> SProperty),
            ("transient", SProperty::Transient as fn(SExpr) -> SProperty),
            ("stable", SProperty::Stable as fn(SExpr) -> SProperty),
            ("invariant", SProperty::Invariant as fn(SExpr) -> SProperty),
            ("unchanged", SProperty::Unchanged as fn(SExpr) -> SProperty),
        ] {
            if self.eat_keyword(kw) {
                return Ok(mk(self.parse_expr()?));
            }
        }
        let lhs = self.parse_expr()?;
        if self.eat_keyword("next") {
            let rhs = self.parse_expr()?;
            return Ok(SProperty::Next(lhs, rhs));
        }
        if self.eat_keyword("leadsto") {
            let rhs = self.parse_expr()?;
            return Ok(SProperty::LeadsTo(lhs, rhs));
        }
        self.err("expected a property keyword, `next` or `leadsto`")
    }

    // ----- expressions (precedence climbing) -----

    /// Parses an expression and requires end of input.
    pub fn parse_expr_eof(&mut self) -> Result<SExpr, CoreError> {
        let e = self.parse_expr()?;
        if self.peek().is_some() {
            return self.err("unexpected trailing tokens after expression");
        }
        Ok(e)
    }

    /// Parses an expression (lowest precedence: `<=>`).
    pub fn parse_expr(&mut self) -> Result<SExpr, CoreError> {
        Ok(self.parse_iff()?.0)
    }

    fn parse_iff(&mut self) -> Result<Nested, CoreError> {
        let mut lhs = self.parse_implies()?;
        while matches!(self.peek(), Some(Tok::Iff)) {
            let at = self.pos;
            self.pos += 1;
            let rhs = self.parse_implies()?;
            lhs = self.binary(at, SBinOp::Iff, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_implies(&mut self) -> Result<Nested, CoreError> {
        let lhs = self.parse_or()?;
        if !matches!(self.peek(), Some(Tok::Implies)) {
            return Ok(lhs);
        }
        let at = self.pos;
        self.pos += 1;
        // Right-associative.
        let rhs = self.descend(at, Self::parse_implies)?;
        self.binary(at, SBinOp::Implies, lhs, rhs)
    }

    fn parse_or(&mut self) -> Result<Nested, CoreError> {
        let mut lhs = self.parse_and()?;
        while matches!(self.peek(), Some(Tok::OrOr)) {
            let at = self.pos;
            self.pos += 1;
            let rhs = self.parse_and()?;
            lhs = self.binary(at, SBinOp::Or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Nested, CoreError> {
        let mut lhs = self.parse_cmp()?;
        while matches!(self.peek(), Some(Tok::AndAnd)) {
            let at = self.pos;
            self.pos += 1;
            let rhs = self.parse_cmp()?;
            lhs = self.binary(at, SBinOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Nested, CoreError> {
        let lhs = self.parse_addsub()?;
        let op = match self.peek() {
            Some(Tok::EqEq) => Some(SBinOp::Eq),
            Some(Tok::NotEq) => Some(SBinOp::Ne),
            Some(Tok::Lt) => Some(SBinOp::Lt),
            Some(Tok::Le) => Some(SBinOp::Le),
            Some(Tok::Gt) => Some(SBinOp::Gt),
            Some(Tok::Ge) => Some(SBinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            let at = self.pos;
            self.pos += 1;
            let rhs = self.parse_addsub()?;
            return self.binary(at, op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_addsub(&mut self) -> Result<Nested, CoreError> {
        let mut lhs = self.parse_muldiv()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => SBinOp::Add,
                Some(Tok::Minus) => SBinOp::Sub,
                _ => break,
            };
            let at = self.pos;
            self.pos += 1;
            let rhs = self.parse_muldiv()?;
            lhs = self.binary(at, op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_muldiv(&mut self) -> Result<Nested, CoreError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => SBinOp::Mul,
                Some(Tok::Slash) => SBinOp::Div,
                Some(Tok::Percent) => SBinOp::Mod,
                _ => break,
            };
            let at = self.pos;
            self.pos += 1;
            let rhs = self.parse_unary()?;
            lhs = self.binary(at, op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Nested, CoreError> {
        let op = match self.peek() {
            Some(Tok::Bang) => SUnOp::Not,
            Some(Tok::Minus) => SUnOp::Neg,
            _ => return self.parse_primary(),
        };
        let at = self.pos;
        self.pos += 1;
        let (e, depth) = self.descend(at, Self::parse_unary)?;
        Ok((SExpr::Unary(op, Box::new(e)), self.nest(at, depth)?))
    }

    fn parse_primary(&mut self) -> Result<Nested, CoreError> {
        let at = self.pos;
        match self.peek().cloned() {
            Some(Tok::Int(n)) => {
                self.pos += 1;
                Ok((SExpr::Int(n), 0))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let (e, depth) = self.descend(at, |p| {
                    let e = p.parse_iff()?;
                    p.expect(&Tok::RParen, "`)`")?;
                    Ok(e)
                })?;
                Ok((e, self.nest(at, depth)?))
            }
            Some(Tok::Ident(name)) => match name.as_str() {
                "true" => {
                    self.pos += 1;
                    Ok((SExpr::Bool(true), 0))
                }
                "false" => {
                    self.pos += 1;
                    Ok((SExpr::Bool(false), 0))
                }
                "if" => {
                    self.pos += 1;
                    let ((c, dc), (t, dt), (e, de)) = self.descend(at, |p| {
                        let c = p.parse_iff()?;
                        p.expect_keyword("then")?;
                        let t = p.parse_iff()?;
                        p.expect_keyword("else")?;
                        Ok((c, t, p.parse_iff()?))
                    })?;
                    let depth = self.nest(at, dc.max(dt).max(de))?;
                    Ok((SExpr::Ite(Box::new(c), Box::new(t), Box::new(e)), depth))
                }
                "all" | "any" | "sum" | "min" | "max"
                    if matches!(self.peek2(), Some(Tok::LParen)) =>
                {
                    let call = match name.as_str() {
                        "all" => SCall::All,
                        "any" => SCall::Any,
                        "sum" => SCall::Sum,
                        "min" => SCall::Min,
                        _ => SCall::Max,
                    };
                    self.pos += 2; // ident + lparen
                    let (args, depth) = self.descend(at, |p| {
                        let (mut args, mut depth) = (Vec::new(), 0);
                        if !matches!(p.peek(), Some(Tok::RParen)) {
                            loop {
                                let (arg, d) = p.parse_iff()?;
                                args.push(arg);
                                depth = depth.max(d);
                                if matches!(p.peek(), Some(Tok::Comma)) {
                                    p.pos += 1;
                                } else {
                                    break;
                                }
                            }
                        }
                        p.expect(&Tok::RParen, "`)`")?;
                        Ok((args, depth))
                    })?;
                    Ok((SExpr::Call(call, args), self.nest(at, depth)?))
                }
                _ => {
                    self.pos += 1;
                    Ok((SExpr::Name(name), 0))
                }
            },
            Some(t) => self.err(format!("expected expression, found {t:?}")),
            None => self.err("expected expression, found end of input"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::lexer::lex;
    use super::*;

    fn expr(src: &str) -> SExpr {
        Parser::new(lex(src).unwrap()).parse_expr_eof().unwrap()
    }

    #[test]
    fn precedence() {
        // a + b * c parses as a + (b * c)
        let e = expr("a + b * c");
        match e {
            SExpr::Binary(SBinOp::Add, _, rhs) => {
                assert!(matches!(*rhs, SExpr::Binary(SBinOp::Mul, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
        // p => q => r is right-associative
        let e = expr("p => q => r");
        match e {
            SExpr::Binary(SBinOp::Implies, _, rhs) => {
                assert!(matches!(*rhs, SExpr::Binary(SBinOp::Implies, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unary_and_calls() {
        assert_eq!(
            expr("!p"),
            SExpr::Unary(SUnOp::Not, Box::new(SExpr::Name("p".into())))
        );
        assert_eq!(
            expr("sum(a, b, 1)"),
            SExpr::Call(
                SCall::Sum,
                vec![
                    SExpr::Name("a".into()),
                    SExpr::Name("b".into()),
                    SExpr::Int(1)
                ]
            )
        );
        // `min` as plain identifier when not followed by `(`.
        assert_eq!(expr("min"), SExpr::Name("min".into()));
    }

    #[test]
    fn ite() {
        let e = expr("if p then 1 else 2");
        assert!(matches!(e, SExpr::Ite(..)));
    }

    #[test]
    fn comparison_is_non_associative() {
        // a < b < c is a parse error (comparison doesn't chain).
        let r = Parser::new(lex("a < b < c").unwrap()).parse_expr_eof();
        assert!(r.is_err());
    }

    /// `Ok` when `src` parses, the error's column when it nests too deep.
    fn nesting(src: &str) -> Result<(), u32> {
        match Parser::new(lex(src).unwrap()).parse_expr_eof() {
            Ok(_) => Ok(()),
            Err(CoreError::Parse { line: 1, col, msg }) if msg.contains("nested deeper") => {
                Err(col)
            }
            Err(other) => panic!("unexpected {other}"),
        }
    }

    /// A form that nests, and the form written `n` levels deep.
    type Form = (&'static str, fn(usize) -> String);

    const FORMS: [Form; 9] = [
        ("parentheses", |n| {
            format!("{}p{}", "(".repeat(n), ")".repeat(n))
        }),
        ("!", |n| format!("{}p", "!".repeat(n))),
        ("unary -", |n| format!("{}x", "-".repeat(n))),
        ("=>", |n| vec!["p"; n + 1].join(" => ")),
        ("if", |n| format!("{}x", "if p then x else ".repeat(n))),
        ("calls", |n| {
            format!("{}x{}", "sum(".repeat(n), ")".repeat(n))
        }),
        ("&&", |n| vec!["p"; n + 1].join(" && ")),
        ("+", |n| vec!["x"; n + 1].join(" + ")),
        // Levels add up across forms.
        ("mixed", |n| format!("!({})", vec!["p"; n - 1].join(" || "))),
    ];

    /// Runs `f` on a main thread's 8 MiB stack, which `unity-check` and
    /// the daemon's workers parse on: unoptimized, the parser spends
    /// about 16 KiB per level of parentheses, more than a 2 MiB test
    /// thread holds at the limit.
    fn on_main_stack(f: impl FnOnce() + Send + 'static) {
        let worker = std::thread::Builder::new().stack_size(8 << 20).spawn(f);
        if let Err(panic) = worker.unwrap().join() {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn nesting_is_refused_one_level_past_the_limit() {
        on_main_stack(|| {
            for (form, nest) in FORMS {
                assert_eq!(nesting(&nest(MAX_DEPTH)), Ok(()), "{form} at the limit");
                assert!(nesting(&nest(MAX_DEPTH + 1)).is_err(), "{form} past it");
            }
            // The error names the operator or parenthesis one level too deep.
            let col = |k: usize| Err(k as u32);
            assert_eq!(nesting(&FORMS[0].1(MAX_DEPTH + 1)), col(MAX_DEPTH + 1));
            let and_col = 3 + 5 * MAX_DEPTH; // `p && ` per level
            assert_eq!(nesting(&FORMS[6].1(MAX_DEPTH + 1)), col(and_col));
        });
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        on_main_stack(|| {
            for (form, nest) in FORMS {
                assert!(nesting(&nest(100_000)).is_err(), "{form}");
            }
        });
    }

    #[test]
    fn init_clauses_nest_as_one_conjunction() {
        let program = |clauses: usize| {
            let src = format!(
                "program P\n var p : bool\n{}end",
                "init p\n".repeat(clauses)
            );
            Parser::new(lex(&src).unwrap()).parse_programs()
        };
        // `k` clauses conjoin to `k - 1` levels of `&&`.
        assert!(program(MAX_DEPTH + 1).is_ok());
        let err = program(MAX_DEPTH + 2).unwrap_err().to_string();
        assert!(err.contains("nested deeper"), "{err}");
    }

    #[test]
    fn property_forms() {
        let p = Parser::new(lex("invariant x == 0").unwrap())
            .parse_property_eof()
            .unwrap();
        assert!(matches!(p, SProperty::Invariant(_)));
        let p = Parser::new(lex("x == 0 next x <= 1").unwrap())
            .parse_property_eof()
            .unwrap();
        assert!(matches!(p, SProperty::Next(..)));
        let p = Parser::new(lex("true leadsto done").unwrap())
            .parse_property_eof()
            .unwrap();
        assert!(matches!(p, SProperty::LeadsTo(..)));
    }
}
