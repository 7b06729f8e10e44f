//! Recursive-descent parser for the ProtoGen DSL.

use crate::ast::*;
use crate::lexer::{tokenize, Token, TokenKind};

/// Parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.toks[self.pos].kind
    }

    fn here(&self) -> String {
        let t = &self.toks[self.pos];
        format!("{}:{}", t.line, t.col)
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        k
    }

    fn expect(&mut self, k: &TokenKind) -> Result<(), ParseError> {
        if self.peek() == k {
            self.bump();
            Ok(())
        } else {
            Err(ParseError(format!("expected {k}, found {} at {}", self.peek(), self.here())))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            other => {
                Err(ParseError(format!("expected identifier, found {other} at {}", self.here())))
            }
        }
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if matches!(self.peek(), TokenKind::Ident(s) if s == word) {
            self.bump();
            true
        } else {
            false
        }
    }
}

/// Parses DSL source into an AST.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntactic problem.
pub fn parse(src: &str) -> Result<Spec, ParseError> {
    let toks = tokenize(src).map_err(ParseError)?;
    let mut p = Parser { toks, pos: 0 };

    // protocol NAME; where NAME may be hyphenated (`MSI-Upgrade`)
    if !p.eat_ident("protocol") {
        return Err(ParseError(format!("expected `protocol` header at {}", p.here())));
    }
    let mut name = p.ident()?;
    while *p.peek() == TokenKind::Dash {
        p.bump();
        name.push('-');
        name.push_str(&p.ident()?);
    }
    p.expect(&TokenKind::Semi)?;

    let mut spec = Spec {
        name,
        ordered: true,
        consistency: "sc".to_string(),
        si_epoch: false,
        messages: vec![],
        cache_states: vec![],
        dir_states: vec![],
        cache_procs: vec![],
        dir_procs: vec![],
        compose: vec![],
    };

    loop {
        match p.peek().clone() {
            TokenKind::Eof => break,
            TokenKind::Ident(word) => match word.as_str() {
                "network" => {
                    p.bump();
                    let mode = p.ident()?;
                    spec.ordered = match mode.as_str() {
                        "ordered" => true,
                        "unordered" => false,
                        other => {
                            return Err(ParseError(format!(
                                "network must be ordered|unordered, found `{other}`"
                            )))
                        }
                    };
                    p.expect(&TokenKind::Semi)?;
                }
                "consistency" => {
                    p.bump();
                    let model = p.ident()?;
                    match model.as_str() {
                        "sc" | "tso" | "weak" => spec.consistency = model,
                        other => {
                            return Err(ParseError(format!(
                                "consistency must be sc|tso|weak, found `{other}`"
                            )))
                        }
                    }
                    p.expect(&TokenKind::Semi)?;
                }
                "si" => {
                    p.bump();
                    let mode = p.ident()?;
                    spec.si_epoch = match mode.as_str() {
                        "epoch" => true,
                        "line" => false,
                        other => {
                            return Err(ParseError(format!(
                                "si must be epoch|line, found `{other}`"
                            )))
                        }
                    };
                    p.expect(&TokenKind::Semi)?;
                }
                "message" => {
                    p.bump();
                    spec.messages.push(parse_message(&mut p)?);
                }
                "cache" => {
                    p.bump();
                    spec.cache_states = parse_states(&mut p)?;
                }
                "directory" => {
                    p.bump();
                    spec.dir_states = parse_states(&mut p)?;
                }
                "compose" => {
                    p.bump();
                    parse_compose(&mut p, &mut spec.compose)?;
                }
                "architecture" => {
                    p.bump();
                    let which = p.ident()?;
                    let procs = parse_arch(&mut p)?;
                    match which.as_str() {
                        "cache" => spec.cache_procs = procs,
                        "directory" => spec.dir_procs = procs,
                        other => {
                            return Err(ParseError(format!(
                                "architecture must be cache|directory, found `{other}`"
                            )))
                        }
                    }
                }
                other => {
                    return Err(ParseError(format!(
                        "unexpected top-level `{other}` at {}",
                        p.here()
                    )))
                }
            },
            other => return Err(ParseError(format!("unexpected {other} at {}", p.here()))),
        }
    }
    Ok(spec)
}

/// `compose { l1: msi(2); llc: mesi; }` — levels leaf-first, each a
/// label, a protocol name, and an optional parenthesized fanout. All
/// words are contextual identifiers, so labels or protocols named
/// `compose` (or any other keyword) parse fine.
fn parse_compose(p: &mut Parser, out: &mut Vec<ComposeLevel>) -> Result<(), ParseError> {
    p.expect(&TokenKind::LBrace)?;
    while *p.peek() != TokenKind::RBrace {
        let label = p.ident()?;
        p.expect(&TokenKind::Colon)?;
        let protocol = p.ident()?;
        let fanout = if *p.peek() == TokenKind::LParen {
            p.bump();
            let v = match p.bump() {
                TokenKind::Int(v) => v,
                other => {
                    return Err(ParseError(format!(
                        "expected fanout integer, found {other} at {}",
                        p.here()
                    )))
                }
            };
            p.expect(&TokenKind::RParen)?;
            Some(v)
        } else {
            None
        };
        p.expect(&TokenKind::Semi)?;
        out.push(ComposeLevel { label, protocol, fanout });
    }
    p.expect(&TokenKind::RBrace)?;
    Ok(())
}

fn parse_message(p: &mut Parser) -> Result<MessageDecl, ParseError> {
    let name = p.ident()?;
    p.expect(&TokenKind::Colon)?;
    let class = p.ident()?;
    let mut fields = vec![];
    if *p.peek() == TokenKind::LBrace {
        p.bump();
        loop {
            fields.push(p.ident()?);
            if *p.peek() == TokenKind::Comma {
                p.bump();
            } else {
                break;
            }
        }
        p.expect(&TokenKind::RBrace)?;
    }
    let vnet = if p.eat_ident("on") { Some(p.ident()?) } else { None };
    p.expect(&TokenKind::Semi)?;
    Ok(MessageDecl { name, class, fields, vnet })
}

fn parse_states(p: &mut Parser) -> Result<Vec<StateDecl>, ParseError> {
    p.expect(&TokenKind::LBrace)?;
    let mut out = vec![];
    while *p.peek() != TokenKind::RBrace {
        if !p.eat_ident("state") {
            return Err(ParseError(format!("expected `state` at {}", p.here())));
        }
        let name = p.ident()?;
        let mut perm = "none".to_string();
        let mut data = false;
        while *p.peek() != TokenKind::Semi {
            let w = p.ident()?;
            match w.as_str() {
                "read" | "readwrite" | "none" => perm = w,
                "data" => data = true,
                other => return Err(ParseError(format!("unknown state flag `{other}`"))),
            }
        }
        p.expect(&TokenKind::Semi)?;
        out.push(StateDecl { name, perm, data });
    }
    p.expect(&TokenKind::RBrace)?;
    Ok(out)
}

fn parse_arch(p: &mut Parser) -> Result<Vec<Process>, ParseError> {
    p.expect(&TokenKind::LBrace)?;
    let mut out = vec![];
    while *p.peek() != TokenKind::RBrace {
        if !p.eat_ident("process") {
            return Err(ParseError(format!("expected `process` at {}", p.here())));
        }
        p.expect(&TokenKind::LParen)?;
        let state = p.ident()?;
        p.expect(&TokenKind::Comma)?;
        let trigger = p.ident()?;
        p.expect(&TokenKind::RParen)?;
        let guards = parse_guards(p)?;
        p.expect(&TokenKind::LBrace)?;
        let mut body = vec![];
        let mut next = None;
        let mut awaits = vec![];
        loop {
            match p.peek().clone() {
                TokenKind::RBrace => {
                    p.bump();
                    break;
                }
                TokenKind::Arrow => {
                    p.bump();
                    next = Some(p.ident()?);
                    p.expect(&TokenKind::Semi)?;
                }
                TokenKind::Ident(w) if w == "await" => {
                    p.bump();
                    awaits.push(parse_await(p)?);
                }
                _ => body.push(parse_stmt(p)?),
            }
        }
        out.push(Process { state, trigger, guards, body, next, awaits });
    }
    p.expect(&TokenKind::RBrace)?;
    Ok(out)
}

fn parse_guards(p: &mut Parser) -> Result<Vec<String>, ParseError> {
    let mut out = vec![];
    if p.eat_ident("if") {
        loop {
            out.push(p.ident()?);
            if *p.peek() == TokenKind::AndAnd {
                p.bump();
            } else {
                break;
            }
        }
    }
    Ok(out)
}

fn parse_await(p: &mut Parser) -> Result<AwaitBlock, ParseError> {
    let tag = p.ident()?;
    p.expect(&TokenKind::LBrace)?;
    let mut whens = vec![];
    while *p.peek() != TokenKind::RBrace {
        if !p.eat_ident("when") {
            return Err(ParseError(format!("expected `when` at {}", p.here())));
        }
        let msg = p.ident()?;
        let guards = parse_guards(p)?;
        p.expect(&TokenKind::Colon)?;
        let mut stmts = vec![];
        let target;
        loop {
            match p.peek().clone() {
                TokenKind::Arrow => {
                    p.bump();
                    let s = p.ident()?;
                    p.expect(&TokenKind::Semi)?;
                    target = WhenTarget::Done(s);
                    break;
                }
                TokenKind::FatArrow => {
                    p.bump();
                    let s = p.ident()?;
                    p.expect(&TokenKind::Semi)?;
                    target = WhenTarget::Wait(s);
                    break;
                }
                _ => stmts.push(parse_stmt(p)?),
            }
        }
        whens.push(WhenArm { msg, guards, stmts, target });
    }
    p.expect(&TokenKind::RBrace)?;
    Ok(AwaitBlock { tag, whens })
}

fn parse_stmt(p: &mut Parser) -> Result<Stmt, ParseError> {
    let word = p.ident()?;
    if word == "send" {
        let msg = p.ident()?;
        let mut args = vec![];
        if *p.peek() == TokenKind::LParen {
            p.bump();
            while *p.peek() != TokenKind::RParen {
                let mut a = p.ident()?;
                if *p.peek() == TokenKind::Eq {
                    p.bump();
                    match p.bump() {
                        TokenKind::Ident(v) => a = format!("{a}={v}"),
                        TokenKind::Int(v) => a = format!("{a}={v}"),
                        other => return Err(ParseError(format!("bad send argument {other}"))),
                    }
                }
                args.push(a);
                if *p.peek() == TokenKind::Comma {
                    p.bump();
                }
            }
            p.expect(&TokenKind::RParen)?;
        }
        if !p.eat_ident("to") {
            return Err(ParseError(format!("expected `to` in send at {}", p.here())));
        }
        let dst = p.ident()?;
        p.expect(&TokenKind::Semi)?;
        Ok(Stmt::Send { msg, args, dst })
    } else {
        p.expect(&TokenKind::Semi)?;
        Ok(Stmt::Word(word))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: &str = r#"
        protocol Toy;
        network ordered;
        message Get : request;
        message Data : response { data };
        cache { state I; state V read; }
        directory { state I; state V; }
        architecture cache {
            process(V, load) { perform; }
            process(I, load) {
                send Get to dir;
                await D { when Data: copy_data; perform; -> V; }
            }
        }
        architecture directory {
            process(I, Get) { send Data(data) to req; -> V; }
        }
    "#;

    #[test]
    fn parses_toy_protocol() {
        let spec = parse(TOY).unwrap();
        assert_eq!(spec.name, "Toy");
        assert!(spec.ordered);
        assert_eq!(spec.messages.len(), 2);
        assert_eq!(spec.cache_states.len(), 2);
        assert_eq!(spec.cache_procs.len(), 2);
        let issue = &spec.cache_procs[1];
        assert_eq!(issue.awaits.len(), 1);
        assert_eq!(issue.awaits[0].tag, "D");
        assert_eq!(issue.awaits[0].whens[0].target, WhenTarget::Done("V".into()));
    }

    #[test]
    fn parses_guards_and_wait_targets() {
        let src = r#"
            protocol G;
            message M : response { acks };
            message A : response;
            cache { state I; state V readwrite; }
            directory { state I; }
            architecture cache {
                process(I, store) {
                    send M to dir;
                    await AD {
                        when M if acks_complete: perform; -> V;
                        when M if acks_incomplete: set_expected; => A;
                        when A: inc_acks; => AD;
                    }
                    await A {
                        when A if acks_complete: inc_acks; perform; -> V;
                        when A if acks_incomplete: inc_acks; => A;
                    }
                }
            }
            architecture directory { }
        "#;
        let spec = parse(src).unwrap();
        let proc_ = &spec.cache_procs[0];
        assert_eq!(proc_.awaits.len(), 2);
        assert_eq!(proc_.awaits[0].whens[1].target, WhenTarget::Wait("A".into()));
        assert_eq!(proc_.awaits[0].whens[1].guards, vec!["acks_incomplete"]);
    }

    #[test]
    fn protocol_names_may_be_hyphenated() {
        let spec = parse("protocol MSI-Upgrade;").unwrap();
        assert_eq!(spec.name, "MSI-Upgrade");
        assert_eq!(parse("protocol SI-SD-v;").unwrap().name, "SI-SD-v");
        // A dash must join two name parts, and only the header takes one.
        assert!(parse("protocol MSI-;").is_err());
        assert!(parse("protocol MSI; cache { state I-X; }").is_err());
    }

    #[test]
    fn reports_position_on_error() {
        let err = parse("protocol X;\nbogus").unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn parses_compose_block() {
        let spec = parse("protocol H; compose { l1: msi(2); llc: mesi; }").unwrap();
        assert_eq!(
            spec.compose,
            vec![
                ComposeLevel { label: "l1".into(), protocol: "msi".into(), fanout: Some(2) },
                ComposeLevel { label: "llc".into(), protocol: "mesi".into(), fanout: None },
            ]
        );
    }

    #[test]
    fn compose_stays_contextual_as_an_identifier() {
        // `compose` is only a keyword at the top level: states, messages,
        // triggers, labels, and protocol names may all use the word.
        let src = r#"
            protocol compose;
            message compose : request;
            cache { state compose readwrite; }
            directory { state I; }
            compose { compose: compose(3); state: compose; }
        "#;
        let spec = parse(src).unwrap();
        assert_eq!(spec.name, "compose");
        assert_eq!(spec.cache_states[0].name, "compose");
        assert_eq!(spec.compose.len(), 2);
        assert_eq!(spec.compose[0].label, "compose");
        assert_eq!(spec.compose[1].label, "state");
    }

    #[test]
    fn rejects_malformed_compose_levels() {
        assert!(parse("protocol H; compose { l1 msi; }").is_err());
        assert!(parse("protocol H; compose { l1: msi(x); }").is_err());
        assert!(parse("protocol H; compose { l1: msi(2) }").is_err());
    }
}
