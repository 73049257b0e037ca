//! A JSON well-formedness check (RFC 8259 grammar, no value tree): the
//! benchmark has to confirm that trace exports parse, and the workspace
//! has no JSON parser to ask.

/// Nesting depth beyond which a document is refused rather than
/// recursed into.
const MAX_DEPTH: usize = 64;

/// Whether `text` is exactly one well-formed JSON value.
pub fn is_valid(text: &str) -> bool {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    p.ws();
    p.value(0) && {
        p.ws();
        p.i == p.s.len()
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.i += hit as usize;
        hit
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn literal(&mut self, word: &[u8]) -> bool {
        let hit = self.s[self.i..].starts_with(word);
        self.i += if hit { word.len() } else { 0 };
        hit
    }

    fn value(&mut self, depth: usize) -> bool {
        if depth > MAX_DEPTH {
            return false;
        }
        match self.peek() {
            Some(b'{') => self.sequence(b'}', depth, |p, d| {
                p.string()
                    && {
                        p.ws();
                        p.eat(b':')
                    }
                    && {
                        p.ws();
                        p.value(d)
                    }
            }),
            Some(b'[') => self.sequence(b']', depth, Parser::value),
            Some(b'"') => self.string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => false,
        }
    }

    /// `open item (, item)* close` with the opener at the cursor.
    fn sequence(
        &mut self,
        close: u8,
        depth: usize,
        item: impl Fn(&mut Self, usize) -> bool,
    ) -> bool {
        self.i += 1;
        self.ws();
        if self.eat(close) {
            return true;
        }
        loop {
            if !item(self, depth + 1) {
                return false;
            }
            self.ws();
            if self.eat(close) {
                return true;
            }
            if !self.eat(b',') {
                return false;
            }
            self.ws();
        }
    }

    fn string(&mut self) -> bool {
        if !self.eat(b'"') {
            return false;
        }
        while let Some(b) = self.peek() {
            self.i += 1;
            match b {
                b'"' => return true,
                b'\\' => match self.peek() {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => self.i += 1,
                    Some(b'u') => {
                        let hex = self.s.get(self.i + 1..self.i + 5);
                        if !hex.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) {
                            return false;
                        }
                        self.i += 5;
                    }
                    _ => return false,
                },
                0..=0x1f => return false,
                _ => {}
            }
        }
        false
    }

    fn digits(&mut self) -> bool {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i > start
    }

    fn number(&mut self) -> bool {
        self.eat(b'-');
        if !self.eat(b'0') && !self.digits() {
            return false;
        }
        if self.eat(b'.') && !self.digits() {
            return false;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            return self.digits();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::is_valid;

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            " {\"a\": [1, -2.5e+3, true, false, null, \"x\\n\\u00e9\"], \"b\": {\"c\": 0}} ",
            "\"s\"",
            "0",
            "-0.0",
            "1E9",
        ] {
            assert!(is_valid(ok), "{ok}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a:1}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad\\q\"",
            "\"\\u12g4\"",
            "nul",
            "[1] 2",
            "\"tab\there\"",
        ] {
            assert!(!is_valid(bad), "{bad}");
        }
        assert!(!is_valid(&"[".repeat(100_000)));
    }
}
