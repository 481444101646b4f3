//! Attribute + motion query language with a shard-pruning progressive
//! planner.
//!
//! The paper only supports query-by-example with relevance feedback,
//! but real operators ask *"pickup, sudden stop, camera 4, 2–3 pm"*.
//! Following the attribute-retrieval line of work (Castañón et al.;
//! PVSS's coarse-to-fine vehicle search), this module compiles such a
//! description into progressively cheaper filters so serving cost
//! scales with query *selectivity*, not archive size:
//!
//! 1. **Shard pruning** — camera and absolute-time predicates eliminate
//!    whole `(camera, bucket)` shards using only the
//!    [`tsvr_viddb::ShardedDb`] manifest routes (plus per-clip metadata
//!    stubs already in memory), before any stored index or bundle
//!    record is read. Clips straddling a bucket boundary are handled
//!    exactly: a clip routes by its *start* bucket but is kept for any
//!    query window its real `[start, end]` span overlaps.
//! 2. **Window pre-filtering** — α-feature, class, event and time
//!    predicates are evaluated per window against the clip's
//!    [`ClipView`]: its raw-α window rows (from the fresh TSIX index,
//!    else the archived bundle) and, for event clauses only, its stored
//!    incident rows. Zero vision work in either case.
//! 3. **MIL ranking over survivors only** — the surviving windows'
//!    bags, taken from their views by position, are grouped per shard
//!    and ranked through the same
//!    [`crate::multiclip::rank_topk`] scatter-gather as an unplanned
//!    scan, so the planned ranking is *byte-identical* to a full scan
//!    post-filtered by the same predicates, at any thread count.
//!
//! A single-file archive plans the same way: its
//! [`tsvr_viddb::ShardedDb`] view derives one route per `(camera,
//! bucket)` from clip metadata, all naming its one file.
//!
//! The grammar is a conjunction of clauses joined by `and` (or the
//! single keyword `all` for the unfiltered query):
//!
//! ```text
//! query   := "all" | clause ( "and" clause )*
//! clause  := "event"  "=" name                  // incident composite
//!          | "class"  "=" name                  // PCA vehicle class
//!          | "camera" "=" name
//!          | "camera" "in" "(" name, ... ")"
//!          | "time"   "in" "[" int "," int "]"  // epoch seconds
//!          | "time"   cmp int
//!          | field    cmp number                // raw α predicates
//!          | field    "in" "[" number "," number "]"
//! field   := "vdiff" | "theta" | "inv_mdist"    // + aliases
//! cmp     := "<" | "<=" | ">" | ">="
//! ```
//!
//! Parsing never panics: every failure is a typed [`QueryError`], and
//! unknown event/class/clause names carry "did-you-mean" suggestions.

use crate::ingest::incidents_overlap;
use crate::multiclip::{rank_topk, ClipWindows, Scorer, ShardWindows};
use crate::query::{EventQuery, RankedWindow, UnknownEventName};
use crate::view::{ClipView, ClipViews};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use tsvr_sim::VehicleClass;
use tsvr_trajectory::VideoSequence;
use tsvr_viddb::{ClipStub, DbError, IncidentRow, RouteStatus, ShardRoute, ShardedDb};
use tsvr_vision::pca::PcaClassifier;
use tsvr_vision::tracker::{BlobStats, Track};

/// Nominal capture rate used *only* to convert frame offsets to
/// seconds for absolute-time predicates (`ClipMeta.start_time` is in
/// seconds; frames carry no wall-clock of their own anywhere in the
/// pipeline). 25 fps is the PAL surveillance default. The conversion
/// rounds clip/window *ends* up, so a time filter can only keep more
/// than the true span, never drop a window it should have kept.
pub const NOMINAL_FPS: u64 = 25;

/// End of a clip or window span in epoch seconds: `start_time` plus
/// `frames` at [`NOMINAL_FPS`], rounded up.
pub fn frames_end_time(start_time: u64, frames: u64) -> u64 {
    start_time.saturating_add(frames.div_ceil(NOMINAL_FPS))
}

// ---------------------------------------------------------------------
// Did-you-mean machinery (shared with `EventQuery::from_name`).
// ---------------------------------------------------------------------

/// Levenshtein edit distance, O(|a|·|b|) with one rolling row.
pub(crate) fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The candidates nearest to `given` by edit distance — at most three,
/// closest first, and only those within a distance that plausibly means
/// a typo (≤ 2, or a third of the name's length for long names).
pub fn nearest_names(given: &str, candidates: &[&'static str]) -> Vec<&'static str> {
    let cutoff = 2.max(given.chars().count() / 3);
    let mut scored: Vec<(usize, &'static str)> = candidates
        .iter()
        .map(|&c| (edit_distance(given, c), c))
        .filter(|&(d, _)| d <= cutoff)
        .collect();
    scored.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)));
    scored.into_iter().take(3).map(|(_, c)| c).collect()
}

// ---------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------

/// A raw-α feature referenced by a range predicate. Values are the
/// *stored* (unnormalized) α components, exactly as TSIX rows hold
/// them — so the same literal thresholds apply to index-served and
/// bundle-served clips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureField {
    /// `inv_mdist` (alias `proximity`): inverse distance to the nearest
    /// neighboring vehicle, 1/px.
    InvMdist,
    /// `vdiff` (aliases `speed_change`, `speed`): absolute speed change
    /// at a checkpoint, px/frame.
    Vdiff,
    /// `theta` (alias `heading`): absolute heading change, radians.
    Theta,
}

impl FeatureField {
    /// Canonical (display) name.
    pub fn name(self) -> &'static str {
        match self {
            FeatureField::InvMdist => "inv_mdist",
            FeatureField::Vdiff => "vdiff",
            FeatureField::Theta => "theta",
        }
    }

    /// Index of the field within an α triple `[inv_mdist, vdiff, theta]`.
    fn lane(self) -> usize {
        match self {
            FeatureField::InvMdist => 0,
            FeatureField::Vdiff => 1,
            FeatureField::Theta => 2,
        }
    }

    fn from_name(name: &str) -> Option<FeatureField> {
        match name {
            "inv_mdist" | "proximity" => Some(FeatureField::InvMdist),
            "vdiff" | "speed_change" | "speed" => Some(FeatureField::Vdiff),
            "theta" | "heading" => Some(FeatureField::Theta),
            _ => None,
        }
    }
}

/// A comparison operator in a range predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Cmp {
    fn as_str(self) -> &'static str {
        match self {
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
        }
    }

    fn eval(self, v: f64, x: f64) -> bool {
        match self {
            Cmp::Lt => v < x,
            Cmp::Le => v <= x,
            Cmp::Gt => v > x,
            Cmp::Ge => v >= x,
        }
    }
}

/// One conjunct of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// `event = accident` — windows overlapping a stored incident of a
    /// matching kind.
    Event(EventQuery),
    /// `class = pickup` — windows containing a track of this vehicle
    /// class (resolved through a [`ClassRoster`]).
    Class(VehicleClass),
    /// `camera = cam-1` / `camera in (cam-1, cam-2)` — clips from these
    /// cameras only.
    Cameras(Vec<String>),
    /// `time in [a, b]` / `time >= a` / `time <= b` — absolute capture
    /// time (epoch seconds), inclusive. `None` means unbounded on that
    /// side; `time < / >` parse as the equivalent inclusive bound.
    Time {
        /// Earliest admitted second, if bounded.
        from: Option<u64>,
        /// Latest admitted second, if bounded.
        to: Option<u64>,
    },
    /// `vdiff >= 3.5` — some α row of the window satisfies the
    /// comparison on this field.
    Feature {
        /// Which α component.
        field: FeatureField,
        /// The comparison.
        op: Cmp,
        /// The literal threshold.
        value: f64,
    },
    /// `theta in [0.5, 1.5]` — some α row falls inside the inclusive
    /// interval on this field.
    FeatureIn {
        /// Which α component.
        field: FeatureField,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Clause::Event(q) => write!(f, "event = {}", q.name),
            Clause::Class(c) => write!(f, "class = {}", c.name()),
            Clause::Cameras(cams) => {
                if cams.len() == 1 {
                    write!(f, "camera = {}", cams[0])
                } else {
                    write!(f, "camera in ({})", cams.join(", "))
                }
            }
            Clause::Time {
                from: Some(a),
                to: Some(b),
            } => write!(f, "time in [{a}, {b}]"),
            Clause::Time {
                from: Some(a),
                to: None,
            } => write!(f, "time >= {a}"),
            Clause::Time {
                from: None,
                to: Some(b),
            } => write!(f, "time <= {b}"),
            Clause::Time {
                from: None,
                to: None,
            } => write!(f, "time >= 0"),
            Clause::Feature { field, op, value } => {
                write!(f, "{} {} {}", field.name(), op.as_str(), value)
            }
            Clause::FeatureIn { field, lo, hi } => {
                write!(f, "{} in [{}, {}]", field.name(), lo, hi)
            }
        }
    }
}

/// A parsed query: the conjunction of its clauses (an empty clause list
/// — the `all` query — matches every window).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// The conjuncts, in source order.
    pub clauses: Vec<Clause>,
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clauses.is_empty() {
            return write!(f, "all");
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Typed parse/plan failure. Never a panic: the fuzz property test
/// feeds the parser arbitrary byte soup and demands one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The expression was empty or all whitespace.
    Empty,
    /// A character no token starts with.
    Lex {
        /// Byte offset of the offending character.
        at: usize,
        /// The character.
        found: char,
    },
    /// The token at `at` was not what the grammar expects here.
    Unexpected {
        /// Byte offset of the token.
        at: usize,
        /// What was found (rendered token or `"end of input"`).
        found: String,
        /// What the parser needed.
        expected: &'static str,
    },
    /// An unknown event name (with nearest valid names).
    UnknownEvent(UnknownEventName),
    /// An unknown clause keyword / class / field name.
    UnknownName {
        /// What kind of name was expected (`"clause"`, `"class"`, ...).
        what: &'static str,
        /// The name as given.
        given: String,
        /// Nearest valid names, best first.
        suggestions: Vec<&'static str>,
    },
    /// A numeric literal that does not parse as the needed type.
    BadNumber {
        /// Byte offset of the literal.
        at: usize,
        /// The literal text.
        text: String,
    },
    /// An `in [lo, hi]` range with `lo > hi`.
    EmptyRange {
        /// The clause, rendered.
        clause: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Empty => write!(f, "empty query"),
            QueryError::Lex { at, found } => {
                write!(f, "unexpected character {found:?} at byte {at}")
            }
            QueryError::Unexpected {
                at,
                found,
                expected,
            } => write!(f, "expected {expected} at byte {at}, found {found}"),
            QueryError::UnknownEvent(e) => write!(f, "{e}"),
            QueryError::UnknownName {
                what,
                given,
                suggestions,
            } => {
                write!(f, "unknown {what} {given:?}")?;
                if !suggestions.is_empty() {
                    write!(f, " (did you mean {}?)", suggestions.join(" or "))?;
                }
                Ok(())
            }
            QueryError::BadNumber { at, text } => {
                write!(f, "bad number {text:?} at byte {at}")
            }
            QueryError::EmptyRange { clause } => {
                write!(f, "empty range in {clause:?} (lo > hi)")
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl From<UnknownEventName> for QueryError {
    fn from(e: UnknownEventName) -> QueryError {
        QueryError::UnknownEvent(e)
    }
}

// ---------------------------------------------------------------------
// Lexer + parser
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(String),
    Lp,
    Rp,
    Lb,
    Rb,
    Comma,
    Eq,
    Cmp(Cmp),
}

impl Tok {
    fn render(&self) -> String {
        match self {
            Tok::Ident(s) => format!("{s:?}"),
            Tok::Num(s) => s.clone(),
            Tok::Lp => "(".into(),
            Tok::Rp => ")".into(),
            Tok::Lb => "[".into(),
            Tok::Rb => "]".into(),
            Tok::Comma => ",".into(),
            Tok::Eq => "=".into(),
            Tok::Cmp(c) => c.as_str().into(),
        }
    }
}

fn lex(src: &str) -> Result<Vec<(usize, Tok)>, QueryError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'(' => {
                toks.push((i, Tok::Lp));
                i += 1;
            }
            b')' => {
                toks.push((i, Tok::Rp));
                i += 1;
            }
            b'[' => {
                toks.push((i, Tok::Lb));
                i += 1;
            }
            b']' => {
                toks.push((i, Tok::Rb));
                i += 1;
            }
            b',' => {
                toks.push((i, Tok::Comma));
                i += 1;
            }
            b'=' => {
                toks.push((i, Tok::Eq));
                i += 1;
            }
            b'<' | b'>' => {
                let strict = i + 1 >= bytes.len() || bytes[i + 1] != b'=';
                let cmp = match (b, strict) {
                    (b'<', true) => Cmp::Lt,
                    (b'<', false) => Cmp::Le,
                    (b'>', true) => Cmp::Gt,
                    _ => Cmp::Ge,
                };
                toks.push((i, Tok::Cmp(cmp)));
                i += if strict { 1 } else { 2 };
            }
            b'0'..=b'9' | b'-' | b'+' | b'.' => {
                let start = i;
                i += 1;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || matches!(bytes[i], b'.' | b'e' | b'E')
                        || (matches!(bytes[i], b'+' | b'-') && matches!(bytes[i - 1], b'e' | b'E')))
                {
                    i += 1;
                }
                toks.push((start, Tok::Num(src[start..i].to_string())));
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || matches!(bytes[i], b'_' | b'-' | b'.'))
                {
                    i += 1;
                }
                toks.push((start, Tok::Ident(src[start..i].to_string())));
            }
            b'"' => {
                // Quoted name: for camera names with unusual characters.
                let start = i;
                i += 1;
                let from = i;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(QueryError::Unexpected {
                        at: start,
                        found: "unterminated string".into(),
                        expected: "closing '\"'",
                    });
                }
                toks.push((start, Tok::Ident(src[from..i].to_string())));
                i += 1;
            }
            other => {
                // Find the char at this byte offset for the message.
                let found = src[i..].chars().next().unwrap_or(other as char);
                return Err(QueryError::Lex { at: i, found });
            }
        }
    }
    Ok(toks)
}

/// The clause keywords (for did-you-mean on an unknown clause head).
const CLAUSE_NAMES: &[&str] = &[
    "event",
    "class",
    "camera",
    "time",
    "vdiff",
    "theta",
    "inv_mdist",
    "speed_change",
    "heading",
    "proximity",
    "all",
];

struct Parser {
    toks: Vec<(usize, Tok)>,
    i: usize,
}

impl Parser {
    fn peek(&self) -> Option<&(usize, Tok)> {
        self.toks.get(self.i)
    }

    fn next(&mut self) -> Option<(usize, Tok)> {
        let t = self.toks.get(self.i).cloned();
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn unexpected(&self, expected: &'static str) -> QueryError {
        match self.peek() {
            Some((at, tok)) => QueryError::Unexpected {
                at: *at,
                found: tok.render(),
                expected,
            },
            None => QueryError::Unexpected {
                at: self.toks.last().map(|(a, _)| *a + 1).unwrap_or(0),
                found: "end of input".into(),
                expected,
            },
        }
    }

    fn expect_eq(&mut self) -> Result<(), QueryError> {
        match self.peek() {
            Some((_, Tok::Eq)) => {
                self.i += 1;
                Ok(())
            }
            _ => Err(self.unexpected("'='")),
        }
    }

    fn expect(&mut self, tok: Tok, expected: &'static str) -> Result<(), QueryError> {
        match self.peek() {
            Some((_, t)) if *t == tok => {
                self.i += 1;
                Ok(())
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    fn ident(&mut self, expected: &'static str) -> Result<(usize, String), QueryError> {
        match self.peek() {
            Some((at, Tok::Ident(s))) => {
                let out = (*at, s.clone());
                self.i += 1;
                Ok(out)
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    fn number(&mut self) -> Result<f64, QueryError> {
        match self.peek() {
            Some((at, Tok::Num(s))) => {
                let (at, s) = (*at, s.clone());
                self.i += 1;
                s.parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite())
                    .ok_or(QueryError::BadNumber { at, text: s })
            }
            _ => Err(self.unexpected("a number")),
        }
    }

    fn integer(&mut self) -> Result<u64, QueryError> {
        match self.peek() {
            Some((at, Tok::Num(s))) => {
                let (at, s) = (*at, s.clone());
                self.i += 1;
                s.parse::<u64>()
                    .map_err(|_| QueryError::BadNumber { at, text: s })
            }
            _ => Err(self.unexpected("an integer (epoch seconds)")),
        }
    }

    fn clause(&mut self) -> Result<Clause, QueryError> {
        let (_, head) = self.ident("a clause (event / class / camera / time / α field)")?;
        let key = head.to_ascii_lowercase();
        match key.as_str() {
            "event" => {
                self.expect_eq()?;
                let (_, name) = self.ident("an event name")?;
                Ok(Clause::Event(EventQuery::from_name(&name)?))
            }
            "class" => {
                self.expect_eq()?;
                let (_, name) = self.ident("a vehicle class")?;
                let lowered = name.to_ascii_lowercase();
                VehicleClass::from_name(&lowered).map(Clause::Class).ok_or(
                    QueryError::UnknownName {
                        what: "vehicle class",
                        given: name,
                        suggestions: nearest_names(&lowered, &VehicleClass::ALL.map(|c| c.name())),
                    },
                )
            }
            "camera" => match self.peek() {
                Some((_, Tok::Eq)) => {
                    self.i += 1;
                    let (_, name) = self.ident("a camera name")?;
                    Ok(Clause::Cameras(vec![name]))
                }
                Some((_, Tok::Ident(kw))) if kw.eq_ignore_ascii_case("in") => {
                    self.i += 1;
                    self.expect(Tok::Lp, "'('")?;
                    let mut cams = Vec::new();
                    loop {
                        let (_, name) = self.ident("a camera name")?;
                        cams.push(name);
                        match self.peek() {
                            Some((_, Tok::Comma)) => {
                                self.i += 1;
                            }
                            Some((_, Tok::Rp)) => {
                                self.i += 1;
                                break;
                            }
                            _ => return Err(self.unexpected("',' or ')'")),
                        }
                    }
                    Ok(Clause::Cameras(cams))
                }
                _ => Err(self.unexpected("'=' or 'in'")),
            },
            "time" => match self.next() {
                Some((_, Tok::Eq)) => Err(QueryError::Unexpected {
                    at: 0,
                    found: "=".into(),
                    expected: "'in [a, b]', '<=', '>=', '<' or '>' after 'time'",
                }),
                Some((_, Tok::Ident(kw))) if kw.eq_ignore_ascii_case("in") => {
                    self.expect(Tok::Lb, "'['")?;
                    let a = self.integer()?;
                    self.expect(Tok::Comma, "','")?;
                    let b = self.integer()?;
                    self.expect(Tok::Rb, "']'")?;
                    if a > b {
                        return Err(QueryError::EmptyRange {
                            clause: format!("time in [{a}, {b}]"),
                        });
                    }
                    Ok(Clause::Time {
                        from: Some(a),
                        to: Some(b),
                    })
                }
                Some((_, Tok::Cmp(op))) => {
                    let v = self.integer()?;
                    // Normalize strict bounds to the inclusive form the
                    // AST stores (time is integral seconds).
                    Ok(match op {
                        Cmp::Ge => Clause::Time {
                            from: Some(v),
                            to: None,
                        },
                        Cmp::Gt => Clause::Time {
                            from: Some(v.saturating_add(1)),
                            to: None,
                        },
                        Cmp::Le => Clause::Time {
                            from: None,
                            to: Some(v),
                        },
                        Cmp::Lt => Clause::Time {
                            from: None,
                            to: Some(v.saturating_sub(1)),
                        },
                    })
                }
                _ => {
                    self.i = self.i.saturating_sub(1);
                    Err(self.unexpected("'in', '<=', '>=', '<' or '>' after 'time'"))
                }
            },
            _ => {
                let Some(field) = FeatureField::from_name(&key) else {
                    return Err(QueryError::UnknownName {
                        what: "clause",
                        given: head,
                        suggestions: nearest_names(&key, CLAUSE_NAMES),
                    });
                };
                match self.peek() {
                    Some((_, Tok::Cmp(op))) => {
                        let op = *op;
                        self.i += 1;
                        let value = self.number()?;
                        Ok(Clause::Feature { field, op, value })
                    }
                    Some((_, Tok::Ident(kw))) if kw.eq_ignore_ascii_case("in") => {
                        self.i += 1;
                        self.expect(Tok::Lb, "'['")?;
                        let lo = self.number()?;
                        self.expect(Tok::Comma, "','")?;
                        let hi = self.number()?;
                        self.expect(Tok::Rb, "']'")?;
                        if lo > hi {
                            return Err(QueryError::EmptyRange {
                                clause: format!("{} in [{lo}, {hi}]", field.name()),
                            });
                        }
                        Ok(Clause::FeatureIn { field, lo, hi })
                    }
                    _ => Err(self.unexpected("a comparison or 'in [lo, hi]'")),
                }
            }
        }
    }
}

/// Parses a query expression. See the module docs for the grammar.
pub fn parse(src: &str) -> Result<Query, QueryError> {
    let toks = lex(src)?;
    if toks.is_empty() {
        return Err(QueryError::Empty);
    }
    // The `all` query: no filters.
    if toks.len() == 1 {
        if let Tok::Ident(s) = &toks[0].1 {
            if s.eq_ignore_ascii_case("all") {
                return Ok(Query::default());
            }
        }
    }
    let mut p = Parser { toks, i: 0 };
    let mut clauses = vec![p.clause()?];
    while let Some((_, tok)) = p.peek() {
        match tok {
            Tok::Ident(s) if s.eq_ignore_ascii_case("and") => {
                p.i += 1;
                clauses.push(p.clause()?);
            }
            _ => return Err(p.unexpected("'and' or end of query")),
        }
    }
    Ok(Query { clauses })
}

// ---------------------------------------------------------------------
// Vehicle-class roster
// ---------------------------------------------------------------------

/// Per-clip `track id → vehicle class` assignments, the evaluation
/// source for `class = …` predicates. Classes are a *vision* product
/// (PCA over tracked blob shape, §3.1) that the archive records do not
/// persist, so the roster travels in memory: build it at ingest time
/// with [`classify_tracks`] and hand it to the [`Planner`]. A class
/// predicate over a clip the roster does not cover is a typed
/// [`PlanError::ClassesUnavailable`] — never a silently empty match.
#[derive(Debug, Clone, Default)]
pub struct ClassRoster {
    by_clip: BTreeMap<u64, BTreeMap<u64, VehicleClass>>,
}

impl ClassRoster {
    /// Empty roster.
    pub fn new() -> ClassRoster {
        ClassRoster::default()
    }

    /// Records one clip's track classes.
    pub fn add_clip(
        &mut self,
        clip_id: u64,
        classes: impl IntoIterator<Item = (u64, VehicleClass)>,
    ) {
        self.by_clip.entry(clip_id).or_default().extend(classes);
    }

    /// The class of `track_id` in `clip_id`, if known.
    pub fn class_of(&self, clip_id: u64, track_id: u64) -> Option<VehicleClass> {
        self.by_clip.get(&clip_id)?.get(&track_id).copied()
    }

    /// Whether the roster covers `clip_id` at all.
    pub fn covers(&self, clip_id: u64) -> bool {
        self.by_clip.contains_key(&clip_id)
    }
}

/// Classifies every track with the PCA nearest-centroid classifier
/// (paper §3.1), trained on the renderer's known class geometry —
/// the same blob widths/heights/intensities the vision pipeline
/// produces — with deterministic jitter. Returns `(track_id, class)`
/// pairs ready for [`ClassRoster::add_clip`].
pub fn classify_tracks(tracks: &[Track]) -> Vec<(u64, VehicleClass)> {
    let mut training = Vec::with_capacity(60);
    for i in 0..20usize {
        for class in VehicleClass::ALL {
            let (hl, hw) = class.half_extents();
            // Rendered blob intensity per class (see vision::render).
            let intensity = match class {
                VehicleClass::Car => 168.0,
                VehicleClass::Suv => 188.0,
                VehicleClass::Pickup => 148.0,
            };
            let j = ((i * 37) % 10) as f64 / 10.0 - 0.5;
            let w = 2.0 * hl + j * 2.0;
            let h = 2.0 * hw + j;
            training.push((
                BlobStats {
                    width: w,
                    height: h,
                    area: w * h * 0.95,
                    fill: 0.95 + j * 0.02,
                    intensity: intensity + j * 6.0,
                },
                class,
            ));
        }
    }
    let clf = PcaClassifier::train(&training, 3).expect("non-empty synthetic training set");
    tracks
        .iter()
        .map(|t| (t.id, clf.classify(&t.stats)))
        .collect()
}

// ---------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------

/// Typed planner failure.
#[derive(Debug)]
pub enum PlanError {
    /// The database failed mid-plan.
    Db(DbError),
    /// A `class = …` predicate over a clip with no roster coverage.
    ClassesUnavailable {
        /// The uncovered clip.
        clip_id: u64,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Db(e) => write!(f, "database error: {e}"),
            PlanError::ClassesUnavailable { clip_id } => write!(
                f,
                "class predicate cannot be evaluated: no vehicle-class roster \
                 covers clip {clip_id} (classes are assigned at ingest by the \
                 PCA classifier and are not persisted in the archive)"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<DbError> for PlanError {
    fn from(e: DbError) -> PlanError {
        PlanError::Db(e)
    }
}

/// What each progressive stage did — the planner's receipt, surfaced
/// through the serve response and the CLI so an operator can see *why*
/// a query was cheap (or was not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Routes examined, one per `(camera, bucket)` key (derived from
    /// clip metadata for a single-file archive).
    pub shards_total: usize,
    /// Routes eliminated by camera/time predicates alone.
    pub shards_pruned: usize,
    /// Clips in surviving routes.
    pub clips_considered: usize,
    /// Clips eliminated by exact metadata checks (camera, time span).
    pub clips_pruned: usize,
    /// Windows examined against stored rows in stage 2.
    pub windows_scanned: usize,
    /// Windows eliminated by stage-2 predicates.
    pub windows_prefiltered: usize,
    /// Windows that reached MIL ranking.
    pub windows_ranked: usize,
}

/// A shard the query *needed* but could not be served from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedShard {
    /// Shard file name.
    pub file: String,
    /// Camera the route covers.
    pub camera: String,
    /// Time bucket the route covers.
    pub bucket: u64,
    /// Why it is unavailable.
    pub reason: String,
}

/// A planned query's result: the ranking over every *servable* window,
/// the per-stage statistics, and a typed partial-result report naming
/// any relevant-but-unserveable shards. An empty `ranking` with a
/// non-empty `degraded` list means "the healthy part of the archive had
/// nothing, and these shards could not be consulted" — which is a very
/// different answer from a clean miss.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// Top-k ranking over surviving windows, best first.
    pub ranking: Vec<RankedWindow>,
    /// Per-stage counters.
    pub stats: PlanStats,
    /// Relevant routes that could not be served, in route order.
    pub degraded: Vec<DegradedShard>,
}

/// The progressive query planner. See the module docs for the three
/// stages and the determinism contract. Clips are read as
/// [`ClipView`]s, under the default window/feature configuration.
pub struct Planner<'a> {
    /// Ranking depth (top-k).
    pub top_k: usize,
    /// Vehicle-class roster for `class = …` predicates.
    pub classes: Option<&'a ClassRoster>,
}

impl<'a> Planner<'a> {
    /// A planner with no class roster.
    pub fn new(top_k: usize) -> Planner<'a> {
        Planner {
            top_k,
            classes: None,
        }
    }

    /// Executes `query` over `db` progressively and returns the ranked
    /// survivors plus the plan receipt. Every candidate clip is read
    /// afresh; [`Planner::run_with`] reads through views kept across
    /// plans.
    pub fn run(
        &self,
        db: &mut ShardedDb,
        query: &Query,
        scorer: Scorer<'_>,
    ) -> Result<PlanOutcome, PlanError> {
        self.run_with(db, &mut ClipViews::new(), query, scorer)
    }

    /// [`Planner::run`], reading each candidate clip's view from
    /// `views`, or loading it with [`ClipView::load`] and adding it
    /// there. The views must be of `db` as it is now: the caller drops
    /// a view whose clip changes.
    pub fn run_with(
        &self,
        db: &mut ShardedDb,
        views: &mut ClipViews,
        query: &Query,
        scorer: Scorer<'_>,
    ) -> Result<PlanOutcome, PlanError> {
        let _span = tsvr_obs::span!("query.plan");
        let compiled = Compiled::from_query(query);
        let mut stats = PlanStats::default();
        let mut degraded = Vec::new();

        // Stage 1: shard pruning from the routes.
        let mut candidates: Vec<ClipStub> = Vec::new();
        let routes = db.shard_routes();
        stats.shards_total = routes.len();
        for route in routes {
            match route_decision(&route, db.bucket_secs(), &compiled) {
                RouteDecision::Pruned => stats.shards_pruned += 1,
                RouteDecision::Degraded(reason) => degraded.push(DegradedShard {
                    file: route.file,
                    camera: route.camera,
                    bucket: route.bucket,
                    reason,
                }),
                RouteDecision::Clips(stubs) => {
                    stats.clips_considered += stubs.len();
                    for stub in stubs {
                        if compiled.clip_admits(&stub) {
                            candidates.push(stub);
                        } else {
                            stats.clips_pruned += 1;
                        }
                    }
                }
            }
        }
        candidates.sort_unstable_by_key(|s| s.clip_id);
        tsvr_obs::counter!("query.plan.shards_pruned").add(stats.shards_pruned as u64);
        tsvr_obs::counter!("query.plan.clips_pruned").add(stats.clips_pruned as u64);

        // Stage 2: per-window pre-filtering against each candidate's
        // view.
        let mut admitted: Vec<(Arc<ClipView>, Vec<usize>)> = Vec::new();
        for stub in &candidates {
            let view = Arc::clone(match views.entry(stub.clip_id) {
                Entry::Occupied(kept) => kept.into_mut(),
                Entry::Vacant(slot) => slot.insert(Arc::new(ClipView::load(db, stub.clip_id)?)),
            });
            let incidents = if compiled.events.is_empty() {
                &[]
            } else {
                view.incidents(db)?
            };
            let mut windows = Vec::new();
            for (i, window) in view.dataset().windows.iter().enumerate() {
                if compiled.window_admits(stub, window, incidents, self.classes)? {
                    windows.push(i);
                }
            }
            let scanned = view.dataset().windows.len();
            stats.windows_scanned += scanned;
            stats.windows_ranked += windows.len();
            stats.windows_prefiltered += scanned - windows.len();
            if !windows.is_empty() {
                admitted.push((view, windows));
            }
        }
        tsvr_obs::counter!("query.plan.windows_prefiltered").add(stats.windows_prefiltered as u64);
        tsvr_obs::counter!("query.plan.windows_ranked").add(stats.windows_ranked as u64);

        // Stage 3: MIL ranking over survivors, their bags borrowed from
        // the views, grouped per shard and merged through the
        // deterministic scatter-gather.
        let survivors = admitted
            .iter()
            .map(|(view, windows)| ClipWindows {
                clip_id: view.clip_id(),
                bags: windows.iter().map(|&i| &view.bags()[i]).collect(),
            })
            .collect();
        let shards = ShardWindows::group(db, survivors)?;
        let ranking = rank_topk(&shards, scorer, self.top_k);
        if !degraded.is_empty() {
            tsvr_obs::counter!("query.plan.degraded_routes").add(degraded.len() as u64);
        }
        Ok(PlanOutcome {
            ranking,
            stats,
            degraded,
        })
    }
}

/// Stage-1 verdict for one route.
enum RouteDecision {
    /// Eliminated by camera/time predicates — nothing behind it can
    /// match.
    Pruned,
    /// Relevant to the query but unserveable; the reason travels to the
    /// partial-result report.
    Degraded(String),
    /// Relevant and healthy: these clips proceed to clip-level checks.
    Clips(Vec<ClipStub>),
}

/// Decides a route's fate from the manifest key (camera, bucket) and —
/// for healthy routes — the in-memory clip stubs. Straddle safety: a
/// healthy route is pruned on time only if *no clip's real span*
/// `[start_time, end_time]` overlaps the query window, so a clip that
/// starts in bucket `b` and runs into `b+1` is kept for a query over
/// `b+1` even though its route key says `b`. A quarantined route's clip
/// spans are unknowable, so it is pruned only when even a clip starting
/// at the very end of its bucket and lasting a full extra bucket could
/// not reach the query window (one-bucket slack, conservative by
/// construction for any clip shorter than `bucket_secs`).
fn route_decision(route: &ShardRoute, bucket_secs: u64, compiled: &Compiled<'_>) -> RouteDecision {
    if let Some(cams) = &compiled.cameras {
        if !cams.contains(route.camera.as_str()) {
            return RouteDecision::Pruned;
        }
    }
    let (from, to) = compiled.time_bounds();
    let bucket_start = route.bucket.saturating_mul(bucket_secs);
    match &route.status {
        RouteStatus::Quarantined { reason } => {
            // All clips in this route start inside the bucket, so a
            // query ending before the bucket starts cannot need it.
            if bucket_start > to {
                return RouteDecision::Pruned;
            }
            // One-bucket slack on the tail (unknown clip durations).
            let latest_possible_end = bucket_start
                .saturating_add(bucket_secs)
                .saturating_add(bucket_secs);
            if latest_possible_end < from {
                return RouteDecision::Pruned;
            }
            RouteDecision::Degraded(reason.clone())
        }
        RouteStatus::Healthy { clips } => {
            if bucket_start > to {
                return RouteDecision::Pruned;
            }
            if clips
                .iter()
                .any(|c| clip_overlaps(c.start_time, c.frame_count, from, to))
            {
                RouteDecision::Clips(clips.clone())
            } else {
                RouteDecision::Pruned
            }
        }
    }
}

/// Whether a clip `[start_time, end_time]` (frames converted at
/// [`NOMINAL_FPS`], end rounded up) overlaps `[from, to]`.
fn clip_overlaps(start_time: u64, frame_count: u32, from: u64, to: u64) -> bool {
    let end = frames_end_time(start_time, u64::from(frame_count));
    start_time <= to && end >= from
}

/// The query lowered to evaluation form: predicate sets the planner
/// checks at each stage.
struct Compiled<'q> {
    cameras: Option<BTreeSet<&'q str>>,
    /// Intersection of all time clauses, as inclusive `[from, to]`
    /// (defaults `[0, u64::MAX]`). An empty intersection stays empty —
    /// it admits nothing, pruning everything.
    time: (u64, u64),
    events: Vec<&'q EventQuery>,
    classes: Vec<VehicleClass>,
    features: Vec<&'q Clause>,
}

impl<'q> Compiled<'q> {
    fn from_query(q: &'q Query) -> Compiled<'q> {
        let mut cameras: Option<BTreeSet<&str>> = None;
        let mut time = (0u64, u64::MAX);
        let mut events = Vec::new();
        let mut classes = Vec::new();
        let mut features = Vec::new();
        for clause in &q.clauses {
            match clause {
                Clause::Cameras(cams) => {
                    let set: BTreeSet<&str> = cams.iter().map(|s| s.as_str()).collect();
                    cameras = Some(match cameras.take() {
                        // Two camera clauses intersect.
                        Some(prev) => prev.intersection(&set).copied().collect(),
                        None => set,
                    });
                }
                Clause::Time { from, to } => {
                    if let Some(f) = from {
                        time.0 = time.0.max(*f);
                    }
                    if let Some(t) = to {
                        time.1 = time.1.min(*t);
                    }
                }
                Clause::Event(q) => events.push(q),
                Clause::Class(c) => classes.push(*c),
                f @ (Clause::Feature { .. } | Clause::FeatureIn { .. }) => features.push(f),
            }
        }
        Compiled {
            cameras,
            time,
            events,
            classes,
            features,
        }
    }

    fn time_bounds(&self) -> (u64, u64) {
        self.time
    }

    /// Exact clip-level admission: camera and full-span time overlap.
    fn clip_admits(&self, stub: &ClipStub) -> bool {
        if let Some(cams) = &self.cameras {
            if !cams.contains(stub.camera.as_str()) {
                return false;
            }
        }
        let (from, to) = self.time;
        if from > to {
            return false;
        }
        clip_overlaps(stub.start_time, stub.frame_count, from, to)
    }

    /// Window-level admission against stored rows. Feature clauses are
    /// MIL-existential: a window matches when *some* α row (any track,
    /// any checkpoint) satisfies the clause; different clauses may be
    /// satisfied by different rows. Class clauses likewise: some track
    /// of the window carries the class. Event clauses: some stored
    /// incident of a matching kind overlaps the window's frame span.
    fn window_admits(
        &self,
        stub: &ClipStub,
        window: &VideoSequence,
        incidents: &[IncidentRow],
        roster: Option<&ClassRoster>,
    ) -> Result<bool, PlanError> {
        let (start_frame, end_frame) = (window.start_frame, window.end_frame);
        // Window-level absolute time: tighter than the clip-level span.
        let (from, to) = self.time;
        if from > to {
            return Ok(false);
        }
        let w_start = stub.start_time.saturating_add(start_frame / NOMINAL_FPS);
        let w_end = frames_end_time(stub.start_time, end_frame);
        if !(w_start <= to && w_end >= from) {
            return Ok(false);
        }
        // Class clauses.
        for class in &self.classes {
            let roster =
                roster
                    .filter(|r| r.covers(stub.clip_id))
                    .ok_or(PlanError::ClassesUnavailable {
                        clip_id: stub.clip_id,
                    })?;
            let any = window
                .sequences
                .iter()
                .any(|ts| roster.class_of(stub.clip_id, ts.track_id) == Some(*class));
            if !any {
                return Ok(false);
            }
        }
        // Event clauses against stored incident rows.
        for event in &self.events {
            if !incidents_overlap(incidents, event, start_frame, end_frame) {
                return Ok(false);
            }
        }
        // Feature clauses on raw α rows.
        let alphas = window
            .sequences
            .iter()
            .flat_map(|ts| ts.alphas.iter().map(|a| a.as_array()));
        for clause in &self.features {
            let any = match clause {
                Clause::Feature { field, op, value } => {
                    alphas.clone().any(|a| op.eval(a[field.lane()], *value))
                }
                Clause::FeatureIn { field, lo, hi } => alphas
                    .clone()
                    .any(|a| a[field.lane()] >= *lo && a[field.lane()] <= *hi),
                _ => unreachable!("only feature clauses collected"),
            };
            if !any {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvr_sim::IncidentKind;

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("acident", "accident"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn nearest_names_ranks_by_distance() {
        let names = ["accident", "speeding", "u_turn", "wrong_way"];
        assert_eq!(nearest_names("acident", &names), vec!["accident"]);
        assert_eq!(nearest_names("speedin", &names), vec!["speeding"]);
        assert!(nearest_names("zzzzzz", &names).is_empty());
    }

    #[test]
    fn parses_every_clause_form() {
        let q = parse(
            "event = accident and class = pickup and camera in (cam-1, cam-2) \
             and time in [100, 200] and vdiff >= 3.5 and theta in [0.5, 1.5] \
             and inv_mdist < 0.25",
        )
        .unwrap();
        assert_eq!(q.clauses.len(), 7);
        assert_eq!(q.clauses[0], Clause::Event(EventQuery::accidents()));
        assert_eq!(q.clauses[1], Clause::Class(VehicleClass::Pickup));
        assert_eq!(
            q.clauses[2],
            Clause::Cameras(vec!["cam-1".into(), "cam-2".into()])
        );
        assert_eq!(
            q.clauses[3],
            Clause::Time {
                from: Some(100),
                to: Some(200)
            }
        );
        assert_eq!(
            q.clauses[4],
            Clause::Feature {
                field: FeatureField::Vdiff,
                op: Cmp::Ge,
                value: 3.5
            }
        );
    }

    #[test]
    fn aliases_and_case_fold() {
        let q = parse("SPEED_CHANGE > 2 and Heading <= 1.0 and proximity >= 0.1").unwrap();
        assert!(matches!(
            q.clauses[0],
            Clause::Feature {
                field: FeatureField::Vdiff,
                ..
            }
        ));
        assert!(matches!(
            q.clauses[1],
            Clause::Feature {
                field: FeatureField::Theta,
                ..
            }
        ));
        assert!(matches!(
            q.clauses[2],
            Clause::Feature {
                field: FeatureField::InvMdist,
                ..
            }
        ));
    }

    #[test]
    fn all_query_is_empty_conjunction() {
        assert_eq!(parse("all").unwrap(), Query::default());
        assert_eq!(parse("  ALL ").unwrap(), Query::default());
        assert_eq!(Query::default().to_string(), "all");
    }

    #[test]
    fn strict_time_bounds_normalize_to_inclusive() {
        assert_eq!(
            parse("time > 100").unwrap().clauses[0],
            Clause::Time {
                from: Some(101),
                to: None
            }
        );
        assert_eq!(
            parse("time < 100").unwrap().clauses[0],
            Clause::Time {
                from: None,
                to: Some(99)
            }
        );
    }

    #[test]
    fn display_round_trips() {
        for src in [
            "all",
            "event = accident",
            "event = wrong_way and camera = cam-1",
            "camera in (a, b, c)",
            "time in [1167609600, 1167613200]",
            "time >= 5",
            "time <= 9",
            "vdiff >= 3.5",
            "theta < 0.75",
            "inv_mdist in [0.1, 0.2]",
            "class = suv and speed_change > 2.25",
        ] {
            let q = parse(src).unwrap();
            let rendered = q.to_string();
            let back = parse(&rendered).unwrap();
            assert_eq!(
                q, back,
                "display round trip failed for {src:?} → {rendered:?}"
            );
        }
    }

    #[test]
    fn unknown_names_carry_suggestions() {
        match parse("event = acident") {
            Err(QueryError::UnknownEvent(e)) => {
                assert_eq!(e.suggestions.first().copied(), Some("accident"))
            }
            other => panic!("expected UnknownEvent, got {other:?}"),
        }
        match parse("class = pikup") {
            Err(QueryError::UnknownName { suggestions, .. }) => {
                assert_eq!(suggestions.first().copied(), Some("pickup"))
            }
            other => panic!("expected UnknownName, got {other:?}"),
        }
        match parse("vdif >= 1") {
            Err(QueryError::UnknownName {
                what, suggestions, ..
            }) => {
                assert_eq!(what, "clause");
                assert_eq!(suggestions.first().copied(), Some("vdiff"));
            }
            other => panic!("expected UnknownName, got {other:?}"),
        }
    }

    #[test]
    fn malformed_queries_are_typed_errors() {
        for src in [
            "",
            "   ",
            "and",
            "event =",
            "event",
            "camera in (",
            "camera in ()",
            "time in [5, 3]",
            "vdiff in [2, 1]",
            "time in [a, b]",
            "vdiff >= ",
            "vdiff >= banana",
            "event = accident and",
            "event = accident or speeding",
            "time = 100",
            "\"unterminated",
            "camera = cam-1 extra",
            "§",
        ] {
            assert!(parse(src).is_err(), "{src:?} should not parse");
        }
    }

    #[test]
    fn seeded_fuzz_never_panics() {
        // xorshift64* — deterministic byte soup, printable-biased.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789_-.,<>=[]() \"\u{1F695}éand"
            .chars()
            .collect();
        for _ in 0..2000 {
            let len = (next() % 40) as usize;
            let s: String = (0..len)
                .map(|_| alphabet[(next() % alphabet.len() as u64) as usize])
                .collect();
            // Must return (Ok or Err) — any panic fails the test.
            let _ = parse(&s);
        }
        // And mutations of a valid query.
        let valid = "event = accident and camera in (cam-1) and vdiff >= 3.5";
        for i in 0..valid.len() {
            let mut s = valid.to_string();
            s.remove(i);
            let _ = parse(&s);
            let mut s = valid.to_string();
            s.insert(i, '[');
            let _ = parse(&s);
        }
    }

    #[test]
    fn compiled_intersects_time_and_cameras() {
        let q = parse("time >= 100 and time <= 200 and camera in (a, b) and camera = b").unwrap();
        let c = Compiled::from_query(&q);
        assert_eq!(c.time_bounds(), (100, 200));
        assert_eq!(
            c.cameras
                .as_ref()
                .unwrap()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec!["b"]
        );
        // Disjoint camera sets admit nothing.
        let q = parse("camera = a and camera = b").unwrap();
        let c = Compiled::from_query(&q);
        assert!(c.cameras.as_ref().unwrap().is_empty());
    }

    fn stub(clip_id: u64, camera: &str, start_time: u64, frame_count: u32) -> ClipStub {
        ClipStub {
            clip_id,
            camera: camera.into(),
            start_time,
            frame_count,
        }
    }

    #[test]
    fn route_pruning_is_straddle_safe() {
        let bucket_secs = 3600;
        // A clip starting 5s before the bucket boundary, lasting 16s
        // (400 frames at 25fps): it straddles into the next bucket.
        let straddler = stub(7, "cam-1", 2 * bucket_secs - 5, 400);
        let route = ShardRoute {
            camera: "cam-1".into(),
            bucket: 1,
            file: "shard-x".into(),
            status: RouteStatus::Healthy {
                clips: vec![straddler.clone()],
            },
        };
        // Query entirely inside bucket 2 — the route key says bucket 1,
        // but the clip's real span reaches in, so it must be kept.
        let q = parse(&format!(
            "time in [{}, {}]",
            2 * bucket_secs,
            2 * bucket_secs + 100
        ))
        .unwrap();
        let c = Compiled::from_query(&q);
        match route_decision(&route, bucket_secs, &c) {
            RouteDecision::Clips(clips) => assert_eq!(clips[0].clip_id, 7),
            _ => panic!("straddling clip's route was pruned"),
        }
        assert!(c.clip_admits(&straddler));
        // A query before the bucket starts prunes the route.
        let q = parse("time <= 10").unwrap();
        assert!(matches!(
            route_decision(&route, bucket_secs, &Compiled::from_query(&q)),
            RouteDecision::Pruned
        ));
        // Camera mismatch prunes outright.
        let q = parse("camera = cam-2").unwrap();
        assert!(matches!(
            route_decision(&route, bucket_secs, &Compiled::from_query(&q)),
            RouteDecision::Pruned
        ));
    }

    #[test]
    fn quarantined_routes_degrade_only_when_relevant() {
        let bucket_secs = 3600;
        let route = ShardRoute {
            camera: "cam-9".into(),
            bucket: 5,
            file: "shard-q".into(),
            status: RouteStatus::Quarantined {
                reason: "bad magic".into(),
            },
        };
        // Relevant window → degraded with the reason.
        let q = parse(&format!(
            "time in [{}, {}]",
            5 * bucket_secs,
            6 * bucket_secs
        ))
        .unwrap();
        match route_decision(&route, bucket_secs, &Compiled::from_query(&q)) {
            RouteDecision::Degraded(reason) => assert_eq!(reason, "bad magic"),
            _ => panic!("relevant quarantined route not degraded"),
        }
        // Way-later query window → pruned despite quarantine (slack is
        // one bucket past the bucket end).
        let q = parse(&format!("time >= {}", 9 * bucket_secs)).unwrap();
        assert!(matches!(
            route_decision(&route, bucket_secs, &Compiled::from_query(&q)),
            RouteDecision::Pruned
        ));
        // Other camera → pruned silently (not degraded).
        let q = parse("camera = cam-1").unwrap();
        assert!(matches!(
            route_decision(&route, bucket_secs, &Compiled::from_query(&q)),
            RouteDecision::Pruned
        ));
    }

    #[test]
    fn event_clause_round_trips_incident_kinds() {
        for kind in IncidentKind::ALL {
            let q = parse(&format!("event = {}", kind.name())).unwrap();
            assert_eq!(q.clauses[0], Clause::Event(EventQuery::for_kind(kind)));
        }
    }

    #[test]
    fn classify_tracks_assigns_renderer_geometry() {
        // Tracks whose average blob stats sit exactly on the renderer's
        // class geometry must classify to that class.
        let mk = |id: u64, class: VehicleClass| {
            let (hl, hw) = class.half_extents();
            let intensity = match class {
                VehicleClass::Car => 168.0,
                VehicleClass::Suv => 188.0,
                VehicleClass::Pickup => 148.0,
            };
            Track {
                id,
                points: Vec::new(),
                stats: BlobStats {
                    width: 2.0 * hl,
                    height: 2.0 * hw,
                    area: 4.0 * hl * hw * 0.95,
                    fill: 0.95,
                    intensity,
                },
            }
        };
        let tracks = vec![
            mk(1, VehicleClass::Car),
            mk(2, VehicleClass::Suv),
            mk(3, VehicleClass::Pickup),
        ];
        let classes = classify_tracks(&tracks);
        assert_eq!(
            classes,
            vec![
                (1, VehicleClass::Car),
                (2, VehicleClass::Suv),
                (3, VehicleClass::Pickup)
            ]
        );
        let mut roster = ClassRoster::new();
        roster.add_clip(42, classes);
        assert_eq!(roster.class_of(42, 2), Some(VehicleClass::Suv));
        assert_eq!(roster.class_of(42, 9), None);
        assert!(roster.covers(42) && !roster.covers(43));
    }
}
