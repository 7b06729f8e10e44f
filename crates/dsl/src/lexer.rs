//! Tokenizer for the ProtoGen DSL.

use std::fmt;

/// A token with its source position (for diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token itself.
    pub kind: TokenKind,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(u64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `-` (inside hyphenated protocol names)
    Dash,
    /// `->` (done target)
    Arrow,
    /// `=>` (wait target)
    FatArrow,
    /// `&&`
    AndAnd,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Int(n) => write!(f, "`{n}`"),
            TokenKind::LBrace => f.write_str("`{`"),
            TokenKind::RBrace => f.write_str("`}`"),
            TokenKind::LParen => f.write_str("`(`"),
            TokenKind::RParen => f.write_str("`)`"),
            TokenKind::Semi => f.write_str("`;`"),
            TokenKind::Colon => f.write_str("`:`"),
            TokenKind::Comma => f.write_str("`,`"),
            TokenKind::Eq => f.write_str("`=`"),
            TokenKind::Dash => f.write_str("`-`"),
            TokenKind::Arrow => f.write_str("`->`"),
            TokenKind::FatArrow => f.write_str("`=>`"),
            TokenKind::AndAnd => f.write_str("`&&`"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

/// Tokenizes `src`. Line (`//`) and block (`/* */`) comments are skipped.
///
/// # Errors
///
/// Returns a message with position on an unexpected character or an
/// unterminated block comment.
pub fn tokenize(src: &str) -> Result<Vec<Token>, String> {
    let mut out = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;
    let n = bytes.len();

    macro_rules! push {
        ($kind:expr) => {
            out.push(Token { kind: $kind, line, col })
        };
    }

    while i < n {
        let c = bytes[i];
        let advance = |i: &mut usize, col: &mut usize| {
            *i += 1;
            *col += 1;
        };
        match c {
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            c if c.is_whitespace() => advance(&mut i, &mut col),
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                while i < n && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && bytes[i + 1] == '*' => {
                let (sl, sc) = (line, col);
                i += 2;
                col += 2;
                loop {
                    if i + 1 >= n {
                        return Err(format!("unterminated block comment at {sl}:{sc}"));
                    }
                    if bytes[i] == '*' && bytes[i + 1] == '/' {
                        i += 2;
                        col += 2;
                        break;
                    }
                    if bytes[i] == '\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
            '{' => {
                push!(TokenKind::LBrace);
                advance(&mut i, &mut col);
            }
            '}' => {
                push!(TokenKind::RBrace);
                advance(&mut i, &mut col);
            }
            '(' => {
                push!(TokenKind::LParen);
                advance(&mut i, &mut col);
            }
            ')' => {
                push!(TokenKind::RParen);
                advance(&mut i, &mut col);
            }
            ';' => {
                push!(TokenKind::Semi);
                advance(&mut i, &mut col);
            }
            ':' => {
                push!(TokenKind::Colon);
                advance(&mut i, &mut col);
            }
            ',' => {
                push!(TokenKind::Comma);
                advance(&mut i, &mut col);
            }
            '-' if i + 1 < n && bytes[i + 1] == '>' => {
                push!(TokenKind::Arrow);
                i += 2;
                col += 2;
            }
            '-' => {
                push!(TokenKind::Dash);
                advance(&mut i, &mut col);
            }
            '=' if i + 1 < n && bytes[i + 1] == '>' => {
                push!(TokenKind::FatArrow);
                i += 2;
                col += 2;
            }
            '=' => {
                push!(TokenKind::Eq);
                advance(&mut i, &mut col);
            }
            '&' if i + 1 < n && bytes[i + 1] == '&' => {
                push!(TokenKind::AndAnd);
                i += 2;
                col += 2;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < n && bytes[i].is_ascii_digit() {
                    i += 1;
                    col += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                let v = text.parse::<u64>().map_err(|_| format!("bad integer at {line}"))?;
                out.push(Token { kind: TokenKind::Int(v), line, col });
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                let startcol = col;
                while i < n && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                    col += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                out.push(Token { kind: TokenKind::Ident(text), line, col: startcol });
            }
            other => return Err(format!("unexpected character `{other}` at {line}:{col}")),
        }
    }
    out.push(Token { kind: TokenKind::Eof, line, col });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_symbols_and_idents() {
        let toks = tokenize("process(I, load) { send GetS to dir; -> S; }").unwrap();
        let kinds: Vec<_> = toks.iter().map(|t| &t.kind).collect();
        assert!(matches!(kinds[0], TokenKind::Ident(s) if s == "process"));
        assert!(kinds.contains(&&TokenKind::Arrow));
        assert_eq!(*kinds.last().unwrap(), &TokenKind::Eof);
    }

    #[test]
    fn skips_comments() {
        let toks = tokenize("a // line\n/* block\nstill */ b").unwrap();
        let idents: Vec<_> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(idents, vec!["a", "b"]);
    }

    #[test]
    fn tracks_line_numbers() {
        let toks = tokenize("a\nb").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn rejects_stray_characters() {
        assert!(tokenize("a $ b").is_err());
        assert!(tokenize("/* unterminated").is_err());
    }
}
