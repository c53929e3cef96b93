//! A concrete text syntax for schemas and their constraints, in the spirit
//! of the paper's Fig. 1, so scenarios can live in plain files:
//!
//! ```text
//! schema CompDB
//!   Companies: set of {
//!     cid: int
//!     cname: string
//!     location: string
//!   }
//!   Projects: set of {
//!     pid: string
//!     pname: string
//!     cid: int
//!     manager: string
//!   }
//!
//! keys
//!   Companies(cid)
//!   Projects(pid)
//!
//! fds
//!   Companies: location -> cname
//!
//! refs
//!   Projects(cid) -> Companies(cid)
//! ```
//!
//! Nested sets are written inline: `Authors: set of { name: string }` may
//! appear among a record's fields; constraint sections address them by
//! dotted path (`article.Authors(name)`). Comments run from `#` to end of
//! line. [`print_schema`] renders the same syntax back;
//! `parse_schema(print_schema(..)) ` round-trips.

use std::fmt::Write as _;

use crate::constraints::{Constraints, Fd, ForeignKey, Key};
use crate::error::NrError;
use crate::schema::{Schema, SetPath};
use crate::types::{Field, Ty};

/// Parse a schema file: the `schema` section plus optional `keys`, `fds`
/// and `refs` sections.
///
/// ```
/// let (schema, constraints) = muse_nr::text::parse_schema(
///     "schema S
///        Companies: set of {
///          cid: int
///          cname: string
///        }
///      keys
///        Companies(cid)",
/// )
/// .unwrap();
/// assert_eq!(schema.name, "S");
/// assert_eq!(constraints.keys.len(), 1);
/// ```
pub fn parse_schema(text: &str) -> Result<(Schema, Constraints), NrError> {
    let mut p = Parser::new(text);
    p.expect_word("schema")?;
    let name = p.word()?;
    let mut root_fields = Vec::new();
    while !p.at_end() && !p.peek_section() {
        root_fields.push(p.field()?);
    }
    let schema = Schema::new(name, root_fields)?;

    let mut cons = Constraints::none();
    while !p.at_end() {
        let section = p.word()?;
        match section.as_str() {
            "keys" => {
                while !p.at_end() && !p.peek_section() {
                    let (set, attrs) = p.path_attrs()?;
                    cons.keys.push(Key { set, attrs });
                }
            }
            "fds" => {
                while !p.at_end() && !p.peek_section() {
                    // `Set: a b -> c d`
                    let set = SetPath::parse(&p.word()?);
                    p.expect_punct(':')?;
                    let mut lhs = Vec::new();
                    loop {
                        let w = p.word()?;
                        if w == "->" {
                            break;
                        }
                        lhs.push(w);
                    }
                    let mut rhs = Vec::new();
                    while !p.at_end()
                        && !p.peek_section()
                        && !p.peek_path_attrs()
                        // A plain word followed by `:` starts the next FD's
                        // set path, not another rhs attribute.
                        && (rhs.is_empty() || !p.peek_fd_start())
                    {
                        match p.try_plain_word() {
                            Some(w) => rhs.push(w),
                            None => break,
                        }
                    }
                    cons.fds.push(Fd { set, lhs, rhs });
                }
            }
            "refs" => {
                while !p.at_end() && !p.peek_section() {
                    let (from, from_attrs) = p.path_attrs()?;
                    p.expect_word("->")?;
                    let (to, to_attrs) = p.path_attrs()?;
                    if from_attrs.len() != to_attrs.len() {
                        return Err(NrError::BadConstraint {
                            set: from,
                            attr: "referential attribute lists differ in length".into(),
                        });
                    }
                    cons.fks.push(ForeignKey {
                        from,
                        from_attrs,
                        to,
                        to_attrs,
                    });
                }
            }
            other => {
                return Err(NrError::UnknownPath(format!("unknown section `{other}`")));
            }
        }
    }
    cons.validate_against_schema(&schema)?;
    Ok((schema, cons))
}

/// Render a schema (and constraints) in the same syntax.
pub fn print_schema(schema: &Schema, cons: &Constraints) -> String {
    let mut out = String::new();
    writeln!(out, "schema {}", schema.name).unwrap();
    if let Ty::Rcd(fields) = schema.root() {
        for f in fields {
            print_field(&mut out, f, 1);
        }
    }
    if !cons.keys.is_empty() {
        writeln!(out, "\nkeys").unwrap();
        for k in &cons.keys {
            writeln!(out, "  {}({})", k.set, k.attrs.join(" ")).unwrap();
        }
    }
    if !cons.fds.is_empty() {
        writeln!(out, "\nfds").unwrap();
        for f in &cons.fds {
            writeln!(
                out,
                "  {}: {} -> {}",
                f.set,
                f.lhs.join(" "),
                f.rhs.join(" ")
            )
            .unwrap();
        }
    }
    if !cons.fks.is_empty() {
        writeln!(out, "\nrefs").unwrap();
        for f in &cons.fks {
            writeln!(
                out,
                "  {}({}) -> {}({})",
                f.from,
                f.from_attrs.join(" "),
                f.to,
                f.to_attrs.join(" ")
            )
            .unwrap();
        }
    }
    out
}

fn print_field(out: &mut String, f: &Field, depth: usize) {
    let pad = "  ".repeat(depth);
    match &f.ty {
        Ty::Str => writeln!(out, "{pad}{}: string", f.label).unwrap(),
        Ty::Int => writeln!(out, "{pad}{}: int", f.label).unwrap(),
        Ty::Set(el) => {
            writeln!(out, "{pad}{}: set of {{", f.label).unwrap();
            if let Ty::Rcd(fields) = el.as_ref() {
                for inner in fields {
                    print_field(out, inner, depth + 1);
                }
            }
            writeln!(out, "{pad}}}").unwrap();
        }
        Ty::Rcd(fields) => {
            writeln!(out, "{pad}{}: {{", f.label).unwrap();
            for inner in fields {
                print_field(out, inner, depth + 1);
            }
            writeln!(out, "{pad}}}").unwrap();
        }
        Ty::Choice(fields) => {
            writeln!(out, "{pad}{}: choice {{", f.label).unwrap();
            for inner in fields {
                print_field(out, inner, depth + 1);
            }
            writeln!(out, "{pad}}}").unwrap();
        }
    }
}

/// The deepest nesting of `set of { … }` / `choice { … }` types that
/// [`parse_schema`] accepts. The parser recurses once per level, and schema
/// files come from disk, so a hostile file could otherwise overflow the
/// stack (100,000 levels overflow an 8 MiB thread stack). Real schemas
/// nest a few levels; 64 leaves a wide margin.
pub const MAX_DEPTH: usize = 64;

/// Tiny whitespace tokenizer with `#` comments.
struct Parser {
    tokens: Vec<String>,
    pos: usize,
    /// Set and choice types currently open.
    depth: usize,
}

impl Parser {
    fn new(text: &str) -> Self {
        let mut tokens = Vec::new();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("");
            let mut cur = String::new();
            for ch in line.chars() {
                match ch {
                    '{' | '}' | ':' | '(' | ')' => {
                        if !cur.is_empty() {
                            tokens.push(std::mem::take(&mut cur));
                        }
                        tokens.push(ch.to_string());
                    }
                    c if c.is_whitespace() => {
                        if !cur.is_empty() {
                            tokens.push(std::mem::take(&mut cur));
                        }
                    }
                    c => cur.push(c),
                }
            }
            if !cur.is_empty() {
                tokens.push(cur);
            }
        }
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&str> {
        self.tokens.get(self.pos).map(String::as_str)
    }

    fn peek_section(&self) -> bool {
        matches!(self.peek(), Some("keys") | Some("fds") | Some("refs"))
    }

    /// Lookahead: `word (`, the start of a `Set(attrs)` item.
    fn peek_path_attrs(&self) -> bool {
        self.tokens.get(self.pos + 1).map(String::as_str) == Some("(")
    }

    /// Lookahead: `word :`, the start of the next `Set: lhs -> rhs` FD.
    fn peek_fd_start(&self) -> bool {
        self.tokens.get(self.pos + 1).map(String::as_str) == Some(":")
    }

    fn word(&mut self) -> Result<String, NrError> {
        let t = self
            .tokens
            .get(self.pos)
            .ok_or_else(|| NrError::UnknownPath("unexpected end of schema text".into()))?
            .clone();
        self.pos += 1;
        Ok(t)
    }

    fn try_plain_word(&mut self) -> Option<String> {
        match self.peek() {
            Some(w) if !matches!(w, "{" | "}" | ":" | "(" | ")") => {
                let w = w.to_owned();
                self.pos += 1;
                Some(w)
            }
            _ => None,
        }
    }

    fn expect_word(&mut self, w: &str) -> Result<(), NrError> {
        let got = self.word()?;
        if got == w {
            Ok(())
        } else {
            Err(NrError::UnknownPath(format!(
                "expected `{w}`, found `{got}`"
            )))
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<(), NrError> {
        self.expect_word(&c.to_string())
    }

    /// `label : type` where type is `int`, `string`, or `set of { … }`.
    fn field(&mut self) -> Result<Field, NrError> {
        let label = self.word()?;
        self.expect_punct(':')?;
        let ty = self.ty()?;
        Ok(Field::new(label, ty))
    }

    fn ty(&mut self) -> Result<Ty, NrError> {
        match self.word()?.as_str() {
            "int" => Ok(Ty::Int),
            "string" => Ok(Ty::Str),
            "set" => {
                self.expect_word("of")?;
                Ok(Ty::set_of(self.fields()?))
            }
            "choice" => Ok(Ty::Choice(self.fields()?)),
            other => Err(NrError::UnknownPath(format!("unknown type `{other}`"))),
        }
    }

    /// `{ field … }`, at most [`MAX_DEPTH`] levels deep.
    fn fields(&mut self) -> Result<Vec<Field>, NrError> {
        if self.depth == MAX_DEPTH {
            return Err(NrError::NestingTooDeep { limit: MAX_DEPTH });
        }
        self.depth += 1;
        self.expect_punct('{')?;
        let mut fields = Vec::new();
        while self.peek() != Some("}") {
            fields.push(self.field()?);
        }
        self.expect_punct('}')?;
        self.depth -= 1;
        Ok(fields)
    }

    /// `Path(attr attr …)`.
    fn path_attrs(&mut self) -> Result<(SetPath, Vec<String>), NrError> {
        let path = SetPath::parse(&self.word()?);
        self.expect_punct('(')?;
        let mut attrs = Vec::new();
        while self.peek() != Some(")") {
            attrs.push(self.word()?);
        }
        self.expect_punct(')')?;
        Ok((path, attrs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMPDB: &str = "
        # The paper's Fig. 1 source schema.
        schema CompDB
          Companies: set of {
            cid: int
            cname: string
            location: string
          }
          Projects: set of {
            pid: string
            pname: string
            cid: int
            manager: string
          }
          Employees: set of {
            eid: string
            ename: string
            contact: string
          }

        keys
          Companies(cid)
          Projects(pid)
          Employees(eid)

        refs
          Projects(cid) -> Companies(cid)
          Projects(manager) -> Employees(eid)
    ";

    #[test]
    fn parses_fig1_schema() {
        let (schema, cons) = parse_schema(COMPDB).unwrap();
        assert_eq!(schema.name, "CompDB");
        assert_eq!(schema.top_level_sets().len(), 3);
        assert_eq!(
            schema.attributes(&SetPath::parse("Projects")).unwrap(),
            vec!["pid", "pname", "cid", "manager"]
        );
        assert_eq!(cons.keys.len(), 3);
        assert_eq!(cons.fks.len(), 2);
    }

    #[test]
    fn nested_sets_parse() {
        let text = "
            schema Dblp
              article: set of {
                key: string
                title: string
                Authors: set of {
                  name: string
                }
              }
            keys
              article(key)
        ";
        let (schema, cons) = parse_schema(text).unwrap();
        assert!(schema.has_set(&SetPath::parse("article.Authors")));
        assert_eq!(cons.keys.len(), 1);
    }

    #[test]
    fn round_trips() {
        let (schema, cons) = parse_schema(COMPDB).unwrap();
        let text = print_schema(&schema, &cons);
        let (schema2, cons2) = parse_schema(&text).unwrap();
        assert_eq!(schema, schema2);
        assert_eq!(cons, cons2);
    }

    #[test]
    fn fds_parse_and_round_trip() {
        let text = "
            schema S
              R: set of {
                a: string
                b: string
                c: string
              }
            fds
              R: a b -> c
        ";
        let (schema, cons) = parse_schema(text).unwrap();
        assert_eq!(cons.fds.len(), 1);
        assert_eq!(cons.fds[0].lhs, vec!["a", "b"]);
        assert_eq!(cons.fds[0].rhs, vec!["c"]);
        let (s2, c2) = parse_schema(&print_schema(&schema, &cons)).unwrap();
        assert_eq!(schema, s2);
        assert_eq!(cons, c2);
    }

    #[test]
    fn consecutive_fds_parse_and_round_trip() {
        let text = "
            schema S
              R: set of {
                a: string
                b: string
                c: string
              }
              T: set of {
                x: string
                y: string
              }
            fds
              R: a -> b c
              T: x -> y
        ";
        let (schema, cons) = parse_schema(text).unwrap();
        assert_eq!(cons.fds.len(), 2);
        assert_eq!(cons.fds[0].rhs, vec!["b", "c"]);
        assert_eq!(cons.fds[1].set.to_string(), "T");
        assert_eq!(cons.fds[1].rhs, vec!["y"]);
        let (s2, c2) = parse_schema(&print_schema(&schema, &cons)).unwrap();
        assert_eq!(schema, s2);
        assert_eq!(cons, c2);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_schema("nope").is_err());
        assert!(parse_schema("schema S\n  A: set of { x: float }").is_err());
        // Constraint on unknown attribute.
        let bad = "
            schema S
              A: set of { x: int }
            keys
              A(nope)
        ";
        assert!(matches!(
            parse_schema(bad),
            Err(NrError::BadConstraint { .. })
        ));
        // Mismatched ref arity.
        let bad_ref = "
            schema S
              A: set of { x: int }
              B: set of { y: int }
            refs
              A(x) -> B()
        ";
        assert!(parse_schema(bad_ref).is_err());
    }

    /// `levels` nested sets, the innermost holding one attribute.
    fn nested(levels: usize) -> String {
        let mut text = String::from("schema S\n");
        for i in 0..levels {
            text.push_str(&format!("s{i}: set of {{\n"));
        }
        text.push_str("x: int\n");
        text.push_str(&"}\n".repeat(levels));
        text
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let (schema, _) = parse_schema(&nested(MAX_DEPTH)).unwrap();
        let mut inner = SetPath::parse("s0");
        for i in 1..MAX_DEPTH {
            inner = inner.child(format!("s{i}"));
        }
        assert!(schema.has_set(&inner));
        assert_eq!(
            parse_schema(&nested(MAX_DEPTH + 1)).unwrap_err(),
            NrError::NestingTooDeep { limit: MAX_DEPTH }
        );
        let choices = format!(
            "schema S\nc: {}x: int {}",
            "choice { c: ".repeat(MAX_DEPTH + 1),
            "} ".repeat(MAX_DEPTH + 1)
        );
        assert!(parse_schema(&choices).is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // A hostile schema file on a thread with the default spawned-thread
        // stack size: unbounded, 100,000 levels overflow even 8 MiB.
        let text = format!("schema S\n{}", "s: set of {\n".repeat(100_000));
        let result = std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn(move || parse_schema(&text).map(|_| ()))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(result, Err(NrError::NestingTooDeep { limit: MAX_DEPTH }));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "
            # header comment
            schema S

              A: set of {  # trailing
                x: int
              }
        ";
        let (schema, _) = parse_schema(text).unwrap();
        assert_eq!(schema.top_level_sets().len(), 1);
    }
}
