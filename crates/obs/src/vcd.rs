//! Value Change Dump (VCD) documents: an in-memory model, a writer that
//! renders gtkwave-loadable text, and a parser for round-trip checks.
//!
//! The checker emits one scalar wire per interned atom plus a `verdict`
//! wire per property, grouped under a `$scope module <property>` block.
//! Three-valued verdicts map onto VCD scalars as `0` (False), `1`
//! (True) and `x` (Pending / not yet sampled).  Channel names are the
//! *formula-level* proposition names, which are stable across the
//! microprocessor and derived-model flows (interned atom keys embed
//! model-handle pointer identity and would not be).

use std::collections::BTreeMap;
use std::fmt;

/// A scalar VCD sample value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum VcdValue {
    /// Logic low / property False.
    V0,
    /// Logic high / property True.
    V1,
    /// Unknown / property Pending.
    X,
}

impl VcdValue {
    /// The single character used in the dump body.
    fn glyph(self) -> char {
        match self {
            VcdValue::V0 => '0',
            VcdValue::V1 => '1',
            VcdValue::X => 'x',
        }
    }

    /// Parses a dump-body value character.
    fn from_glyph(c: char) -> Option<VcdValue> {
        match c {
            '0' => Some(VcdValue::V0),
            '1' => Some(VcdValue::V1),
            'x' | 'X' | 'z' | 'Z' => Some(VcdValue::X),
            _ => None,
        }
    }

    /// Maps a boolean sample.
    pub fn from_bool(b: bool) -> VcdValue {
        if b {
            VcdValue::V1
        } else {
            VcdValue::V0
        }
    }
}

/// Error produced by [`VcdDoc::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VcdParseError {
    /// Human-readable description of the malformed construct.
    pub message: String,
}

impl fmt::Display for VcdParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VCD parse error: {}", self.message)
    }
}

impl std::error::Error for VcdParseError {}

fn parse_err(message: impl Into<String>) -> VcdParseError {
    VcdParseError {
        message: message.into(),
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct VcdVar {
    scope: String,
    name: String,
}

/// An in-memory VCD document: declared scalar wires plus a list of
/// timestamped value changes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VcdDoc {
    vars: Vec<VcdVar>,
    changes: Vec<(u64, usize, VcdValue)>,
}

/// Identifier codes use the printable ASCII range VCD allows.
fn id_code(index: usize) -> String {
    const BASE: usize = 94; // '!'..='~'
    let mut n = index;
    let mut out = String::new();
    loop {
        out.push((b'!' + (n % BASE) as u8) as char);
        n /= BASE;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    out
}

#[cfg(test)]
fn id_index(code: &str) -> Option<usize> {
    let mut index = 0usize;
    for (pos, c) in code.chars().enumerate() {
        let digit = (c as usize).checked_sub('!' as usize)?;
        if digit >= 94 {
            return None;
        }
        let place = 94usize.checked_pow(pos as u32)?;
        index = index.checked_add((digit + usize::from(pos > 0)) * place)?;
    }
    Some(index)
}

/// VCD identifiers cannot contain whitespace; everything else passes
/// through so channel names stay greppable.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
}

impl VcdDoc {
    /// Creates an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a scalar wire under `scope` and returns its handle for
    /// [`VcdDoc::change`].  Whitespace in names is replaced by `_`.
    pub fn add_wire(&mut self, scope: &str, name: &str) -> usize {
        self.vars.push(VcdVar {
            scope: sanitize(scope),
            name: sanitize(name),
        });
        self.vars.len() - 1
    }

    /// Records a value change at `time` (in trigger-sample units).
    pub fn change(&mut self, time: u64, wire: usize, value: VcdValue) {
        debug_assert!(wire < self.vars.len());
        self.changes.push((time, wire, value));
    }

    /// All declared `(scope, name)` pairs in declaration order.
    pub fn wires(&self) -> impl Iterator<Item = (&str, &str)> {
        self.vars
            .iter()
            .map(|v| (v.scope.as_str(), v.name.as_str()))
    }

    /// The timestamped change list for one wire, in time order.
    pub fn changes_for(&self, scope: &str, name: &str) -> Vec<(u64, VcdValue)> {
        let scope = sanitize(scope);
        let name = sanitize(name);
        let Some(wire) = self
            .vars
            .iter()
            .position(|v| v.scope == scope && v.name == name)
        else {
            return Vec::new();
        };
        let mut out: Vec<(u64, VcdValue)> = self
            .changes
            .iter()
            .filter(|(_, w, _)| *w == wire)
            .map(|&(t, _, v)| (t, v))
            .collect();
        out.sort_by_key(|&(t, _)| t);
        out
    }

    /// The value sequence for one wire with timestamps stripped —
    /// the flow-independent shape used by the differential test.
    pub fn value_sequence(&self, scope: &str, name: &str) -> Vec<VcdValue> {
        self.changes_for(scope, name)
            .into_iter()
            .map(|(_, v)| v)
            .collect()
    }

    /// Renders the document as VCD text.  Changes are emitted in stable
    /// time order (late-surfacing verdict decisions land at their true
    /// sample index even though they were recorded after later atom
    /// changes); every wire starts `x` in `$dumpvars`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("$date esw-verify diagnosis layer $end\n");
        out.push_str("$timescale 1 ns $end\n");
        let mut by_scope: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, var) in self.vars.iter().enumerate() {
            by_scope.entry(var.scope.as_str()).or_default().push(i);
        }
        for (scope, wires) in &by_scope {
            out.push_str(&format!("$scope module {scope} $end\n"));
            for &wire in wires {
                out.push_str(&format!(
                    "$var wire 1 {} {} $end\n",
                    id_code(wire),
                    self.vars[wire].name
                ));
            }
            out.push_str("$upscope $end\n");
        }
        out.push_str("$enddefinitions $end\n");
        out.push_str("$dumpvars\n");
        for wire in 0..self.vars.len() {
            out.push_str(&format!("x{}\n", id_code(wire)));
        }
        out.push_str("$end\n");
        let mut ordered = self.changes.clone();
        ordered.sort_by_key(|&(t, _, _)| t);
        let mut current: Option<u64> = None;
        for (time, wire, value) in ordered {
            if current != Some(time) {
                out.push_str(&format!("#{time}\n"));
                current = Some(time);
            }
            out.push_str(&format!("{}{}\n", value.glyph(), id_code(wire)));
        }
        out
    }

    /// Parses VCD text produced by [`VcdDoc::render`] (and the common
    /// subset of the format: scalar wires, `$dumpvars`, `#time` change
    /// blocks).  Initial `x` dump values are not recorded as changes,
    /// matching what `render` emits.
    pub fn parse(text: &str) -> Result<VcdDoc, VcdParseError> {
        let mut doc = VcdDoc::new();
        let mut ids: BTreeMap<String, usize> = BTreeMap::new();
        let mut scopes: Vec<String> = Vec::new();
        let mut tokens = text.split_whitespace().peekable();
        let mut time: Option<u64> = None;
        let mut in_dumpvars = false;
        let mut in_definitions = true;
        while let Some(token) = tokens.next() {
            match token {
                "$date" | "$timescale" | "$comment" | "$version" => {
                    for skipped in tokens.by_ref() {
                        if skipped == "$end" {
                            break;
                        }
                    }
                }
                "$scope" => {
                    let _kind = tokens.next().ok_or_else(|| parse_err("$scope kind"))?;
                    let name = tokens.next().ok_or_else(|| parse_err("$scope name"))?;
                    scopes.push(name.to_owned());
                    if tokens.next() != Some("$end") {
                        return Err(parse_err("$scope missing $end"));
                    }
                }
                "$upscope" => {
                    scopes.pop();
                    if tokens.next() != Some("$end") {
                        return Err(parse_err("$upscope missing $end"));
                    }
                }
                "$var" => {
                    let kind = tokens.next().ok_or_else(|| parse_err("$var kind"))?;
                    let width = tokens.next().ok_or_else(|| parse_err("$var width"))?;
                    if kind != "wire" || width != "1" {
                        return Err(parse_err(format!(
                            "only scalar wires supported, got `{kind}` width `{width}`"
                        )));
                    }
                    let code = tokens.next().ok_or_else(|| parse_err("$var id"))?;
                    let name = tokens.next().ok_or_else(|| parse_err("$var name"))?;
                    if tokens.next() != Some("$end") {
                        return Err(parse_err("$var missing $end"));
                    }
                    let scope = scopes.last().cloned().unwrap_or_default();
                    let wire = doc.add_wire(&scope, name);
                    ids.insert(code.to_owned(), wire);
                }
                "$enddefinitions" => {
                    in_definitions = false;
                    if tokens.next() != Some("$end") {
                        return Err(parse_err("$enddefinitions missing $end"));
                    }
                }
                "$dumpvars" => in_dumpvars = true,
                "$end" => in_dumpvars = false,
                _ if token.starts_with('#') => {
                    let t = token[1..]
                        .parse::<u64>()
                        .map_err(|_| parse_err(format!("bad timestamp `{token}`")))?;
                    time = Some(t);
                }
                _ => {
                    if in_definitions {
                        return Err(parse_err(format!(
                            "unexpected token `{token}` in definitions"
                        )));
                    }
                    let mut chars = token.chars();
                    let glyph = chars.next().ok_or_else(|| parse_err("empty change"))?;
                    let value = VcdValue::from_glyph(glyph)
                        .ok_or_else(|| parse_err(format!("bad value `{token}`")))?;
                    let code: String = chars.collect();
                    let &wire = ids
                        .get(&code)
                        .ok_or_else(|| parse_err(format!("unknown id `{code}`")))?;
                    if in_dumpvars {
                        // Initial snapshot, not a change.
                        continue;
                    }
                    let t = time.ok_or_else(|| parse_err("change before any #timestamp"))?;
                    doc.change(t, wire, value);
                }
            }
        }
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_codes_round_trip() {
        for index in [0usize, 1, 93, 94, 95, 94 * 94, 12345] {
            assert_eq!(id_index(&id_code(index)), Some(index), "index {index}");
        }
        assert_eq!(id_code(0), "!");
        assert_eq!(id_code(93), "~");
        assert_eq!(id_code(94), "!!");
    }

    #[test]
    fn render_parse_round_trip_preserves_the_document() {
        let mut doc = VcdDoc::new();
        let verdict = doc.add_wire("G intact", "verdict");
        let atom = doc.add_wire("G intact", "intact");
        doc.change(1, atom, VcdValue::V1);
        doc.change(7, atom, VcdValue::V0);
        doc.change(7, verdict, VcdValue::V0);
        let text = doc.render();
        let parsed = VcdDoc::parse(&text).expect("round trip");
        assert_eq!(parsed.wires().count(), 2);
        assert_eq!(
            parsed.changes_for("G intact", "verdict"),
            vec![(7, VcdValue::V0)]
        );
        assert_eq!(
            parsed.changes_for("G intact", "intact"),
            vec![(1, VcdValue::V1), (7, VcdValue::V0)]
        );
        // Renders are textually stable once parsed back.
        assert_eq!(
            parsed.render(),
            VcdDoc::parse(&parsed.render()).unwrap().render()
        );
    }

    #[test]
    fn late_recorded_changes_render_in_time_order() {
        let mut doc = VcdDoc::new();
        let a = doc.add_wire("p", "a");
        let v = doc.add_wire("p", "verdict");
        doc.change(9, a, VcdValue::V1);
        // Decision surfaced late (stutter flush) but belongs at time 4.
        doc.change(4, v, VcdValue::V0);
        let text = doc.render();
        let four = text.find("#4").expect("#4 present");
        let nine = text.find("#9").expect("#9 present");
        assert!(four < nine, "timestamps must be sorted:\n{text}");
    }

    #[test]
    fn whitespace_in_names_is_sanitized() {
        let mut doc = VcdDoc::new();
        doc.add_wire("G (reset -> F init)", "my atom");
        let text = doc.render();
        assert!(text.contains("$scope module G_(reset_->_F_init) $end"));
        assert!(text.contains("my_atom"));
        // Lookup works with either spelling.
        assert!(doc
            .value_sequence("G (reset -> F init)", "my atom")
            .is_empty());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(VcdDoc::parse("$var wire 8 ! bus $end").is_err());
        assert!(VcdDoc::parse("$enddefinitions $end 1!").is_err());
        assert!(VcdDoc::parse("$enddefinitions $end #3 1?").is_err());
    }

    #[test]
    fn value_sequence_strips_timestamps() {
        let mut doc = VcdDoc::new();
        let w = doc.add_wire("s", "w");
        doc.change(3, w, VcdValue::V0);
        doc.change(10, w, VcdValue::V1);
        assert_eq!(
            doc.value_sequence("s", "w"),
            vec![VcdValue::V0, VcdValue::V1]
        );
    }
}
