//! miniC tokenizer.

use std::fmt;

/// A miniC token.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal; `true` when suffixed `L`.
    Int(i64, bool),
    /// Float literal; `true` when suffixed `f`.
    Float(f64, bool),
    /// String literal (unescaped bytes).
    Str(Vec<u8>),
    /// Character literal.
    Char(u8),
    /// Punctuation / operator, e.g. `"+"`, `"=="`, `"->"`.
    P(&'static str),
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(v, _) => write!(f, "{v}"),
            Tok::Float(v, _) => write!(f, "{v}"),
            Tok::Str(_) => write!(f, "\"...\""),
            Tok::Char(c) => write!(f, "'{}'", *c as char),
            Tok::P(p) => write!(f, "{p}"),
        }
    }
}

/// Token plus line number.
#[derive(Clone, Debug, PartialEq)]
pub struct Spanned {
    /// Token.
    pub tok: Tok,
    /// 1-based line.
    pub line: u32,
}

/// A lexical error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// 1-based line.
    pub line: u32,
    /// Message.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// The punctuator `rest` starts with, the longest that matches.
fn punct(rest: &[u8]) -> Option<&'static str> {
    let two = match rest {
        [b'<', b'<', ..] => "<<",
        [b'>', b'>', ..] => ">>",
        [b'<', b'=', ..] => "<=",
        [b'>', b'=', ..] => ">=",
        [b'=', b'=', ..] => "==",
        [b'!', b'=', ..] => "!=",
        [b'&', b'&', ..] => "&&",
        [b'|', b'|', ..] => "||",
        [b'-', b'>', ..] => "->",
        _ => "",
    };
    if !two.is_empty() {
        return Some(two);
    }
    Some(match rest.first()? {
        b'(' => "(",
        b')' => ")",
        b'{' => "{",
        b'}' => "}",
        b'[' => "[",
        b']' => "]",
        b';' => ";",
        b',' => ",",
        b'+' => "+",
        b'-' => "-",
        b'*' => "*",
        b'/' => "/",
        b'%' => "%",
        b'&' => "&",
        b'|' => "|",
        b'^' => "^",
        b'!' => "!",
        b'<' => "<",
        b'>' => ">",
        b'=' => "=",
        b'.' => ".",
        b'?' => "?",
        b':' => ":",
        _ => return None,
    })
}

/// Tokenize miniC source. `//` and `/* */` comments are skipped.
///
/// # Errors
///
/// Returns the first lexical error.
pub fn lex(src: &str) -> Result<Vec<Spanned>, LexError> {
    let b = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut out = Vec::new();
    let err = |line: u32, m: &str| LexError {
        line,
        message: m.to_string(),
    };
    while i < b.len() {
        let c = b[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                loop {
                    if i + 1 >= b.len() {
                        return Err(err(line, "unterminated comment"));
                    }
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    if b[i] == b'*' && b[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Spanned {
                    tok: Tok::Ident(src[start..i].to_string()),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let is_float =
                    i < b.len() && b[i] == b'.' && b.get(i + 1).is_some_and(|d| d.is_ascii_digit());
                if is_float {
                    i += 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                    let f32suffix = i < b.len() && (b[i] == b'f' || b[i] == b'F');
                    let v: f64 = src[start..i]
                        .parse()
                        .map_err(|_| err(line, "bad float literal"))?;
                    if f32suffix {
                        i += 1;
                    }
                    out.push(Spanned {
                        tok: Tok::Float(v, f32suffix),
                        line,
                    });
                } else {
                    let long = i < b.len() && (b[i] == b'L' || b[i] == b'l');
                    let v: i64 = src[start..i]
                        .parse()
                        .map_err(|_| err(line, "integer literal out of range"))?;
                    if long {
                        i += 1;
                    }
                    out.push(Spanned {
                        tok: Tok::Int(v, long),
                        line,
                    });
                }
            }
            '"' => {
                i += 1;
                let mut bytes = Vec::new();
                loop {
                    if i >= b.len() {
                        return Err(err(line, "unterminated string"));
                    }
                    match b[i] {
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\\' => {
                            i += 1;
                            let e = *b.get(i).ok_or_else(|| err(line, "bad escape"))?;
                            bytes.push(match e {
                                b'n' => b'\n',
                                b't' => b'\t',
                                b'0' => 0,
                                b'\\' => b'\\',
                                b'"' => b'"',
                                other => other,
                            });
                            i += 1;
                        }
                        b'\n' => return Err(err(line, "newline in string")),
                        other => {
                            bytes.push(other);
                            i += 1;
                        }
                    }
                }
                out.push(Spanned {
                    tok: Tok::Str(bytes),
                    line,
                });
            }
            '\'' => {
                i += 1;
                let ch = match b.get(i) {
                    Some(b'\\') => {
                        i += 1;
                        let e = *b.get(i).ok_or_else(|| err(line, "bad escape"))?;
                        match e {
                            b'n' => b'\n',
                            b't' => b'\t',
                            b'0' => 0,
                            b'\\' => b'\\',
                            b'\'' => b'\'',
                            other => other,
                        }
                    }
                    Some(&c) => c,
                    None => return Err(err(line, "unterminated char literal")),
                };
                i += 1;
                if b.get(i) != Some(&b'\'') {
                    return Err(err(line, "unterminated char literal"));
                }
                i += 1;
                out.push(Spanned {
                    tok: Tok::Char(ch),
                    line,
                });
            }
            _ => match punct(&b[i..]) {
                Some(p) => {
                    out.push(Spanned {
                        tok: Tok::P(p),
                        line,
                    });
                    i += p.len();
                }
                None => return Err(err(line, &format!("unexpected character {c:?}"))),
            },
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_declaration() {
        let t = lex("int x = 42; // c\n").unwrap();
        let kinds: Vec<Tok> = t.into_iter().map(|s| s.tok).collect();
        assert_eq!(
            kinds,
            vec![
                Tok::Ident("int".into()),
                Tok::Ident("x".into()),
                Tok::P("="),
                Tok::Int(42, false),
                Tok::P(";"),
            ]
        );
    }

    #[test]
    fn lexes_operators_longest_first() {
        let t = lex("a <= b << c->d").unwrap();
        let ops: Vec<Tok> = t
            .into_iter()
            .filter(|s| matches!(s.tok, Tok::P(_)))
            .map(|s| s.tok)
            .collect();
        assert_eq!(ops, vec![Tok::P("<="), Tok::P("<<"), Tok::P("->")]);
    }

    #[test]
    fn lexes_literals() {
        let t = lex("1.5 2.0f 7L 'a' \"hi\\n\"").unwrap();
        assert_eq!(t[0].tok, Tok::Float(1.5, false));
        assert_eq!(t[1].tok, Tok::Float(2.0, true));
        assert_eq!(t[2].tok, Tok::Int(7, true));
        assert_eq!(t[3].tok, Tok::Char(b'a'));
        assert_eq!(t[4].tok, Tok::Str(vec![b'h', b'i', b'\n']));
    }

    #[test]
    fn block_comments_track_lines() {
        let t = lex("/* a\nb */ x").unwrap();
        assert_eq!(t[0].line, 2);
    }
}
