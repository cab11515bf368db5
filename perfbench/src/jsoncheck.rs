//! A strict JSON syntax check (RFC 8259) for the telemetry exports. The
//! workspace's JSON crate only serializes, so the benchmark carries its
//! own validator; it accepts exactly one value with optional whitespace.

/// Returns `Err` with the byte offset of the first syntax error.
pub fn validate(text: &str) -> Result<(), usize> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    p.ws();
    p.value(0)?;
    p.ws();
    if p.i == p.b.len() {
        Ok(())
    } else {
        Err(p.i)
    }
}

const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), usize> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.i)
        }
    }

    fn literal(&mut self, word: &[u8]) -> Result<(), usize> {
        if self.b[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(())
        } else {
            Err(self.i)
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), usize> {
        if depth > MAX_DEPTH {
            return Err(self.i);
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.i),
        }
    }

    fn object(&mut self, depth: usize) -> Result<(), usize> {
        self.eat(b'{')?;
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            self.value(depth + 1)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.i),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<(), usize> {
        self.eat(b'[')?;
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.value(depth + 1)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.i),
            }
        }
    }

    fn string(&mut self) -> Result<(), usize> {
        self.eat(b'"')?;
        loop {
            match self.peek() {
                None => return Err(self.i),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => self.i += 1,
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                if !self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                                    return Err(self.i);
                                }
                                self.i += 1;
                            }
                        }
                        _ => return Err(self.i),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.i),
                Some(_) => self.i += 1,
            }
        }
    }

    fn digits(&mut self) -> Result<(), usize> {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            Err(self.i)
        } else {
            Ok(())
        }
    }

    fn number(&mut self) -> Result<(), usize> {
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        if self.peek() == Some(b'0') {
            self.i += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::validate;

    #[test]
    fn accepts_valid_documents() {
        for ok in [
            "{}",
            "[]",
            " {\"a\": [1, -2.5e3, 0.0, true, false, null, \"x\\n\\u00e9\"]} ",
            "\"plain\"",
            "-0",
            "{\"nested\":{\"deep\":[[[]]]}}",
        ] {
            assert_eq!(validate(ok), Ok(()), "{ok}");
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\" 1}",
            "01",
            "1.",
            "NaN",
            "\"unterminated",
            "\"bad \\x escape\"",
            "{} {}",
            "[1 2]",
            "\"tab\there\"",
        ] {
            assert!(validate(bad).is_err(), "{bad:?}");
        }
    }
}
