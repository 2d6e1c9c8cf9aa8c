//! Canonical JSON serialization, parsing, and fingerprinting of certificates.
//!
//! The serialized form is the certificate's *canonical* representation: field
//! order is fixed, no whitespace is emitted, and integers wider than the JSON
//! number range (`i128` totals, `u64` hashes) are written as quoted decimal
//! strings. [`fingerprint`] hashes these canonical bytes, so two certificates
//! are chain-linkable iff they serialize identically.
//!
//! The parser is a minimal recursive-descent JSON reader (objects, arrays,
//! strings, integer numbers, booleans, null) — deliberately hand-rolled so
//! the checker carries no dependencies beyond `lmfao-data`. Unknown fields
//! are rejected, not ignored: a certificate is a closed witness, and silent
//! field loss would let a tampered producer smuggle state past the checker.

use crate::check::CertError;
use crate::schema::{
    Certificate, ExecuteCertificate, GroupProvenance, MaintenanceCertificate, QueryTotals,
    RelationDeltaAccount, ViewDeltaAccount, ViewProvenance,
};

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// Serializes a certificate to its canonical JSON form.
pub fn to_json(cert: &Certificate) -> String {
    let mut out = String::with_capacity(512);
    match cert {
        Certificate::Execute(c) => write_execute(&mut out, c),
        Certificate::Maintenance(c) => write_maintenance(&mut out, c),
    }
    out
}

/// FNV-1a 64-bit fingerprint of a certificate's canonical JSON bytes.
///
/// Used as the `parent_hash` chaining maintenance certificates to their
/// predecessor. FNV-1a is not cryptographic — the threat model is accounting
/// bugs and accidental corruption, not an adversary forging preimages.
pub fn fingerprint(cert: &Certificate) -> u64 {
    fnv1a64(to_json(cert).as_bytes())
}

/// FNV-1a 64-bit hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn write_execute(out: &mut String, c: &ExecuteCertificate) {
    out.push_str("{\"kind\":\"execute\",\"version\":");
    out.push_str(&c.version.to_string());
    out.push_str(",\"generation\":");
    out.push_str(&c.generation.to_string());
    out.push_str(",\"groups\":[");
    for (i, g) in c.groups.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_group(out, g);
    }
    out.push_str("],\"queries\":[");
    write_queries(out, &c.queries);
    out.push_str("]}");
}

fn write_maintenance(out: &mut String, c: &MaintenanceCertificate) {
    out.push_str("{\"kind\":\"maintenance\",\"version\":");
    out.push_str(&c.version.to_string());
    out.push_str(",\"generation\":");
    out.push_str(&c.generation.to_string());
    out.push_str(",\"txn\":");
    out.push_str(&c.txn.to_string());
    out.push_str(",\"parent_generation\":");
    out.push_str(&c.parent_generation.to_string());
    out.push_str(",\"parent_hash\":\"");
    out.push_str(&c.parent_hash.to_string());
    out.push_str("\",\"relations\":[");
    for (i, r) in c.relations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_relation_account(out, r);
    }
    out.push_str("],\"views\":[");
    for (i, v) in c.views.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_account(out, v);
    }
    out.push_str("],\"queries\":[");
    write_queries(out, &c.queries);
    out.push_str("]}");
}

fn write_group(out: &mut String, g: &GroupProvenance) {
    out.push_str("{\"group\":");
    out.push_str(&g.group.to_string());
    out.push_str(",\"relation\":");
    write_str(out, &g.relation);
    out.push_str(",\"rows_scanned\":");
    out.push_str(&g.rows_scanned.to_string());
    out.push_str(",\"incoming\":[");
    for (i, v) in g.incoming.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push_str("],\"outputs\":[");
    for (i, o) in g.outputs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"view\":");
        out.push_str(&o.view.to_string());
        out.push_str(",\"rows\":");
        out.push_str(&o.rows.to_string());
        out.push_str(",\"totals\":");
        write_i128s(out, &o.totals);
        out.push('}');
    }
    out.push_str("]}");
}

fn write_relation_account(out: &mut String, r: &RelationDeltaAccount) {
    out.push_str("{\"relation\":");
    write_str(out, &r.relation);
    out.push_str(",\"rows_inserted\":");
    out.push_str(&r.rows_inserted.to_string());
    out.push_str(",\"rows_deleted\":");
    out.push_str(&r.rows_deleted.to_string());
    out.push_str(",\"rows_before\":");
    out.push_str(&r.rows_before.to_string());
    out.push_str(",\"rows_after\":");
    out.push_str(&r.rows_after.to_string());
    out.push('}');
}

fn write_account(out: &mut String, v: &ViewDeltaAccount) {
    out.push_str("{\"view\":");
    out.push_str(&v.view.to_string());
    out.push_str(",\"rows_before\":");
    out.push_str(&v.rows_before.to_string());
    out.push_str(",\"rows_after\":");
    out.push_str(&v.rows_after.to_string());
    out.push_str(",\"inserted\":");
    write_opt_i128s(out, &v.inserted);
    out.push_str(",\"deleted\":");
    write_opt_i128s(out, &v.deleted);
    out.push_str(",\"propagated\":");
    write_opt_i128s(out, &v.propagated);
    out.push_str(",\"net\":");
    write_i128s(out, &v.net);
    out.push_str(",\"totals_before\":");
    write_i128s(out, &v.totals_before);
    out.push_str(",\"totals_after\":");
    write_i128s(out, &v.totals_after);
    out.push('}');
}

fn write_queries(out: &mut String, queries: &[QueryTotals]) {
    for (i, q) in queries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_str(out, &q.name);
        out.push_str(",\"view\":");
        out.push_str(&q.view.to_string());
        out.push_str(",\"rows\":");
        out.push_str(&q.rows.to_string());
        out.push_str(",\"aggregate_indices\":[");
        for (j, a) in q.aggregate_indices.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&a.to_string());
        }
        out.push_str("],\"totals\":");
        write_i128s(out, &q.totals);
        out.push('}');
    }
}

fn write_opt_i128s(out: &mut String, values: &Option<Vec<i128>>) {
    match values {
        Some(v) => write_i128s(out, v),
        None => out.push_str("null"),
    }
}

fn write_i128s(out: &mut String, values: &[i128]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&v.to_string());
        out.push('"');
    }
    out.push(']');
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parses a certificate from its JSON form.
///
/// Accepts exactly the canonical schema: unknown or missing fields, non-
/// integer numbers, and type mismatches are all rejected as
/// [`CertError::Malformed`].
pub fn parse_certificate(input: &str) -> Result<Certificate, CertError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(malformed("trailing data after certificate"));
    }
    certificate_from_json(&value)
}

fn malformed(msg: impl Into<String>) -> CertError {
    CertError::Malformed(msg.into())
}

/// Parsed JSON value. Numbers are integers and booleans are absent — the
/// certificate schema has neither floats nor booleans by construction, so
/// the parser rejects them outright.
enum Json {
    Null,
    Num(i128),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// How deep arrays and objects may nest, so that hostile input cannot run the
/// recursive descent off the stack. [`to_json`] nests six deep at most (root,
/// `groups`, a group, `outputs`, an output, `totals`).
const MAX_DEPTH: usize = 16;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, CertError> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| malformed("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), CertError> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(malformed(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Json, CertError> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(malformed(format!(
                        "nested deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                value
            }
            b'"' => Ok(Json::Str(self.parse_string()?)),
            b't' | b'f' => Err(malformed("booleans do not occur in certificates")),
            b'n' => self.parse_keyword("null", Json::Null),
            b'-' | b'0'..=b'9' => self.parse_number(),
            other => Err(malformed(format!(
                "unexpected byte '{}' at {}",
                other as char, self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Json) -> Result<Json, CertError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(malformed(format!("invalid keyword at byte {}", self.pos)))
        }
    }

    fn parse_object(&mut self) -> Result<Json, CertError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(malformed(format!("expected ',' or '}}' at {}", self.pos))),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, CertError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(malformed(format!("expected ',' or ']' at {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, CertError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| malformed("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| malformed("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| malformed("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| malformed("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| malformed("invalid \\u escape"))?;
                            self.pos += 4;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| malformed("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(malformed("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at this byte.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| malformed("invalid UTF-8"))?;
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| malformed("truncated UTF-8"))?;
                    let chunk =
                        std::str::from_utf8(chunk).map_err(|_| malformed("invalid UTF-8"))?;
                    s.push_str(chunk);
                    self.pos = start + len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, CertError> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.bytes.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err(malformed("non-integer number in certificate"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<i128>()
            .map(Json::Num)
            .map_err(|_| malformed(format!("invalid number '{text}'")))
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Json -> schema conversion
// ---------------------------------------------------------------------------

/// Closed-object accessor: every field must be consumed exactly once.
struct Fields<'a> {
    fields: &'a [(String, Json)],
    used: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(value: &'a Json) -> Result<Self, CertError> {
        match value {
            Json::Obj(fields) => Ok(Fields {
                used: vec![false; fields.len()],
                fields,
            }),
            _ => Err(malformed("expected object")),
        }
    }

    fn take(&mut self, name: &str) -> Result<&'a Json, CertError> {
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if key == name && !self.used[i] {
                self.used[i] = true;
                return Ok(value);
            }
        }
        Err(malformed(format!("missing field '{name}'")))
    }

    fn finish(self) -> Result<(), CertError> {
        for (i, used) in self.used.iter().enumerate() {
            if !used {
                return Err(malformed(format!("unknown field '{}'", self.fields[i].0)));
            }
        }
        Ok(())
    }
}

fn as_u32(value: &Json, name: &str) -> Result<u32, CertError> {
    match value {
        Json::Num(n) => u32::try_from(*n).map_err(|_| malformed(format!("'{name}' out of range"))),
        _ => Err(malformed(format!("'{name}' must be an integer"))),
    }
}

fn as_u64(value: &Json, name: &str) -> Result<u64, CertError> {
    match value {
        Json::Num(n) => u64::try_from(*n).map_err(|_| malformed(format!("'{name}' out of range"))),
        _ => Err(malformed(format!("'{name}' must be an integer"))),
    }
}

fn as_str(value: &Json, name: &str) -> Result<String, CertError> {
    match value {
        Json::Str(s) => Ok(s.clone()),
        _ => Err(malformed(format!("'{name}' must be a string"))),
    }
}

/// Wide integers (`i128` totals, `u64` hashes) travel as quoted decimals.
fn as_quoted_i128(value: &Json, name: &str) -> Result<i128, CertError> {
    match value {
        Json::Str(s) => s
            .parse::<i128>()
            .map_err(|_| malformed(format!("'{name}' is not a decimal integer"))),
        _ => Err(malformed(format!("'{name}' must be a quoted integer"))),
    }
}

fn as_quoted_u64(value: &Json, name: &str) -> Result<u64, CertError> {
    match value {
        Json::Str(s) => s
            .parse::<u64>()
            .map_err(|_| malformed(format!("'{name}' is not a decimal integer"))),
        _ => Err(malformed(format!("'{name}' must be a quoted integer"))),
    }
}

fn as_arr<'a>(value: &'a Json, name: &str) -> Result<&'a [Json], CertError> {
    match value {
        Json::Arr(items) => Ok(items),
        _ => Err(malformed(format!("'{name}' must be an array"))),
    }
}

fn i128_vec(value: &Json, name: &str) -> Result<Vec<i128>, CertError> {
    as_arr(value, name)?
        .iter()
        .map(|v| as_quoted_i128(v, name))
        .collect()
}

fn opt_i128_vec(value: &Json, name: &str) -> Result<Option<Vec<i128>>, CertError> {
    match value {
        Json::Null => Ok(None),
        other => i128_vec(other, name).map(Some),
    }
}

fn u32_vec(value: &Json, name: &str) -> Result<Vec<u32>, CertError> {
    as_arr(value, name)?
        .iter()
        .map(|v| as_u32(v, name))
        .collect()
}

fn certificate_from_json(value: &Json) -> Result<Certificate, CertError> {
    let mut f = Fields::new(value)?;
    let kind = as_str(f.take("kind")?, "kind")?;
    match kind.as_str() {
        "execute" => {
            let cert = ExecuteCertificate {
                version: as_u32(f.take("version")?, "version")?,
                generation: as_u64(f.take("generation")?, "generation")?,
                groups: as_arr(f.take("groups")?, "groups")?
                    .iter()
                    .map(group_from_json)
                    .collect::<Result<_, _>>()?,
                queries: as_arr(f.take("queries")?, "queries")?
                    .iter()
                    .map(query_from_json)
                    .collect::<Result<_, _>>()?,
            };
            f.finish()?;
            Ok(Certificate::Execute(cert))
        }
        "maintenance" => {
            let cert = MaintenanceCertificate {
                version: as_u32(f.take("version")?, "version")?,
                generation: as_u64(f.take("generation")?, "generation")?,
                txn: as_u64(f.take("txn")?, "txn")?,
                parent_generation: as_u64(f.take("parent_generation")?, "parent_generation")?,
                parent_hash: as_quoted_u64(f.take("parent_hash")?, "parent_hash")?,
                relations: as_arr(f.take("relations")?, "relations")?
                    .iter()
                    .map(relation_account_from_json)
                    .collect::<Result<_, _>>()?,
                views: as_arr(f.take("views")?, "views")?
                    .iter()
                    .map(account_from_json)
                    .collect::<Result<_, _>>()?,
                queries: as_arr(f.take("queries")?, "queries")?
                    .iter()
                    .map(query_from_json)
                    .collect::<Result<_, _>>()?,
            };
            f.finish()?;
            Ok(Certificate::Maintenance(cert))
        }
        other => Err(malformed(format!("unknown certificate kind '{other}'"))),
    }
}

fn group_from_json(value: &Json) -> Result<GroupProvenance, CertError> {
    let mut f = Fields::new(value)?;
    let group = GroupProvenance {
        group: as_u32(f.take("group")?, "group")?,
        relation: as_str(f.take("relation")?, "relation")?,
        rows_scanned: as_u64(f.take("rows_scanned")?, "rows_scanned")?,
        incoming: u32_vec(f.take("incoming")?, "incoming")?,
        outputs: as_arr(f.take("outputs")?, "outputs")?
            .iter()
            .map(output_from_json)
            .collect::<Result<_, _>>()?,
    };
    f.finish()?;
    Ok(group)
}

fn output_from_json(value: &Json) -> Result<ViewProvenance, CertError> {
    let mut f = Fields::new(value)?;
    let out = ViewProvenance {
        view: as_u32(f.take("view")?, "view")?,
        rows: as_u64(f.take("rows")?, "rows")?,
        totals: i128_vec(f.take("totals")?, "totals")?,
    };
    f.finish()?;
    Ok(out)
}

fn relation_account_from_json(value: &Json) -> Result<RelationDeltaAccount, CertError> {
    let mut f = Fields::new(value)?;
    let account = RelationDeltaAccount {
        relation: as_str(f.take("relation")?, "relation")?,
        rows_inserted: as_u64(f.take("rows_inserted")?, "rows_inserted")?,
        rows_deleted: as_u64(f.take("rows_deleted")?, "rows_deleted")?,
        rows_before: as_u64(f.take("rows_before")?, "rows_before")?,
        rows_after: as_u64(f.take("rows_after")?, "rows_after")?,
    };
    f.finish()?;
    Ok(account)
}

fn account_from_json(value: &Json) -> Result<ViewDeltaAccount, CertError> {
    let mut f = Fields::new(value)?;
    let account = ViewDeltaAccount {
        view: as_u32(f.take("view")?, "view")?,
        rows_before: as_u64(f.take("rows_before")?, "rows_before")?,
        rows_after: as_u64(f.take("rows_after")?, "rows_after")?,
        inserted: opt_i128_vec(f.take("inserted")?, "inserted")?,
        deleted: opt_i128_vec(f.take("deleted")?, "deleted")?,
        propagated: opt_i128_vec(f.take("propagated")?, "propagated")?,
        net: i128_vec(f.take("net")?, "net")?,
        totals_before: i128_vec(f.take("totals_before")?, "totals_before")?,
        totals_after: i128_vec(f.take("totals_after")?, "totals_after")?,
    };
    f.finish()?;
    Ok(account)
}

fn query_from_json(value: &Json) -> Result<QueryTotals, CertError> {
    let mut f = Fields::new(value)?;
    let query = QueryTotals {
        name: as_str(f.take("name")?, "name")?,
        view: as_u32(f.take("view")?, "view")?,
        rows: as_u64(f.take("rows")?, "rows")?,
        aggregate_indices: u32_vec(f.take("aggregate_indices")?, "aggregate_indices")?,
        totals: i128_vec(f.take("totals")?, "totals")?,
    };
    f.finish()?;
    Ok(query)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    fn is_too_deep(result: Result<Certificate, CertError>) -> bool {
        matches!(result, Err(CertError::Malformed(msg)) if msg.starts_with("nested deeper"))
    }

    #[test]
    fn unbounded_nesting_is_malformed_not_a_stack_overflow() {
        assert!(is_too_deep(parse_certificate(&"[".repeat(200_000))));
        assert!(is_too_deep(parse_certificate(&"{\"a\":".repeat(200_000))));
    }

    #[test]
    fn nesting_is_bounded_one_past_the_limit() {
        // At the limit the parser reads the whole input; the schema then
        // rejects an array where a certificate object belongs.
        let at_limit = parse_certificate(&nested(MAX_DEPTH));
        assert!(matches!(at_limit, Err(CertError::Malformed(_))));
        assert!(!is_too_deep(at_limit));
        assert!(is_too_deep(parse_certificate(&nested(MAX_DEPTH + 1))));
    }
}
