//! Unpadded base64 (RFC 4648 standard alphabet): how a binary payload
//! rides inside a JSON string on a protocol line.
//!
//! One text per byte string: the encoder never pads, and the decoder
//! accepts exactly what the encoder writes — no `=`, no whitespace, no
//! URL-safe alphabet, no dangling single sextet, and no stray bits in a
//! final partial group — so a payload pinned byte for byte cannot be
//! spelled two ways. Both directions run whole groups through
//! bounds-check-free `chunks_exact` loops.

use std::fmt;

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks a byte outside the alphabet in [`SEXTET`]. Real sextets are below
/// 64, so OR-ing a group's lookups together exposes one bad byte in it.
const INVALID: u8 = 0xFF;

/// Byte → sextet, [`INVALID`] for everything outside the alphabet.
const SEXTET: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Why a string is not this module's encoding of any byte string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Base64Error {
    /// A byte outside the alphabet (padding and whitespace included), at
    /// this offset.
    BadByte(usize),
    /// A length of 1 mod 4: the last character carries six bits of a byte
    /// and nothing carries the rest.
    DanglingSextet,
    /// The final partial group has bits set that belong to no byte.
    TrailingBits,
}

impl fmt::Display for Base64Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Base64Error::BadByte(at) => write!(f, "byte outside the base64 alphabet at {at}"),
            Base64Error::DanglingSextet => f.write_str("dangling base64 sextet"),
            Base64Error::TrailingBits => f.write_str("stray bits after the last base64 byte"),
        }
    }
}

impl std::error::Error for Base64Error {}

/// Characters [`encode`] writes for `n_bytes` bytes; `None` when that
/// count overflows `usize`. Strictly increasing in `n_bytes`, so a text's
/// length names the one byte count it can decode to.
pub fn encoded_len(n_bytes: usize) -> Option<usize> {
    let tail = [0, 2, 3][n_bytes % 3];
    (n_bytes / 3).checked_mul(4)?.checked_add(tail)
}

/// Encodes `bytes`, unpadded.
pub fn encode(bytes: &[u8]) -> String {
    let len = encoded_len(bytes.len()).expect("a slice's base64 length fits the address space");
    let mut out = vec![0u8; len];
    let groups = bytes.chunks_exact(3);
    let tail = groups.remainder();
    for (dst, src) in out.chunks_exact_mut(4).zip(groups) {
        let v = (src[0] as u32) << 16 | (src[1] as u32) << 8 | src[2] as u32;
        dst[0] = ALPHABET[(v >> 18) as usize];
        dst[1] = ALPHABET[(v >> 12 & 63) as usize];
        dst[2] = ALPHABET[(v >> 6 & 63) as usize];
        dst[3] = ALPHABET[(v & 63) as usize];
    }
    let at = len - [0, 2, 3][tail.len()];
    match *tail {
        [a] => {
            out[at] = ALPHABET[(a >> 2) as usize];
            out[at + 1] = ALPHABET[(a << 4 & 63) as usize];
        }
        [a, b] => {
            out[at] = ALPHABET[(a >> 2) as usize];
            out[at + 1] = ALPHABET[((a << 4 | b >> 4) & 63) as usize];
            out[at + 2] = ALPHABET[(b << 2 & 63) as usize];
        }
        _ => {}
    }
    String::from_utf8(out).expect("the base64 alphabet is ascii")
}

/// Decodes what [`encode`] wrote: `encoded_len(n) == Some(text.len())`
/// bytes come back as exactly `n`. The output buffer is sized from the
/// text in hand, never from a count the peer claimed.
pub fn decode(text: &str) -> Result<Vec<u8>, Base64Error> {
    let src = text.as_bytes();
    let tail_len = src.len() % 4;
    if tail_len == 1 {
        return Err(Base64Error::DanglingSextet);
    }
    let (body, tail) = src.split_at(src.len() - tail_len);
    let n_body = body.len() / 4 * 3;
    let mut out = vec![0u8; n_body + [0, 0, 1, 2][tail_len]];
    let mut seen = 0u8;
    for (dst, q) in out.chunks_exact_mut(3).zip(body.chunks_exact(4)) {
        let s = [q[0], q[1], q[2], q[3]].map(|b| SEXTET[b as usize]);
        seen |= s[0] | s[1] | s[2] | s[3];
        let v = (s[0] as u32) << 18 | (s[1] as u32) << 12 | (s[2] as u32) << 6 | s[3] as u32;
        dst[0] = (v >> 16) as u8;
        dst[1] = (v >> 8) as u8;
        dst[2] = v as u8;
    }
    let mut last = [0u8; 3];
    for (slot, &b) in last.iter_mut().zip(tail) {
        *slot = SEXTET[b as usize];
        seen |= *slot;
    }
    if seen >= 64 {
        let at = src.iter().position(|&b| SEXTET[b as usize] == INVALID);
        return Err(Base64Error::BadByte(at.expect("an invalid sextet came from some byte")));
    }
    let [a, b, c] = last;
    let stray = match tail_len {
        2 => {
            out[n_body] = a << 2 | b >> 4;
            b & 0x0F
        }
        3 => {
            out[n_body] = a << 2 | b >> 4;
            out[n_body + 1] = b << 4 | c >> 2;
            c & 0x03
        }
        _ => 0,
    };
    if stray != 0 {
        return Err(Base64Error::TrailingBits);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4648_vectors_without_padding() {
        for (plain, text) in [
            ("", ""),
            ("f", "Zg"),
            ("fo", "Zm8"),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg"),
            ("fooba", "Zm9vYmE"),
            ("foobar", "Zm9vYmFy"),
        ] {
            assert_eq!(encode(plain.as_bytes()), text);
            assert_eq!(decode(text).unwrap(), plain.as_bytes());
            assert_eq!(encoded_len(plain.len()), Some(text.len()));
        }
        assert_eq!(encode(&[0xFB, 0xFF, 0xFE]), "+//+", "the standard alphabet, not the URL one");
    }

    #[test]
    fn every_byte_value_round_trips_at_every_tail_length() {
        let all: Vec<u8> = (0..=255u8).chain((0..=255u8).rev()).collect();
        for len in [0, 1, 2, 3, 4, 5, 255, 256, 257, 512] {
            let text = encode(&all[..len]);
            assert_eq!(text.len(), encoded_len(len).unwrap());
            assert_eq!(decode(&text).unwrap(), &all[..len], "{len} bytes");
        }
    }

    #[test]
    fn only_the_encoders_own_spelling_decodes() {
        assert_eq!(decode("Zm9vY"), Err(Base64Error::DanglingSextet));
        assert_eq!(decode("Z"), Err(Base64Error::DanglingSextet));
        // Padding, whitespace, the URL alphabet, non-ascii: all outside.
        assert_eq!(decode("Zg=="), Err(Base64Error::BadByte(2)));
        assert_eq!(decode("Zm8="), Err(Base64Error::BadByte(3)));
        assert_eq!(decode("Zm9v Zm8"), Err(Base64Error::BadByte(4)));
        assert_eq!(decode("-__-"), Err(Base64Error::BadByte(0)));
        assert_eq!(decode("Zm9vZmé"), Err(Base64Error::BadByte(6)));
        assert_eq!(decode("Zm9vZm\n"), Err(Base64Error::BadByte(6)));
        // "Zh" and "Zm9" spell "f" and "fo" with stray low bits set.
        assert_eq!(decode("Zh"), Err(Base64Error::TrailingBits));
        assert_eq!(decode("Zm9"), Err(Base64Error::TrailingBits));
    }

    #[test]
    fn encoded_len_is_checked() {
        assert_eq!(encoded_len(usize::MAX), None);
        assert_eq!(encoded_len(usize::MAX / 4 * 3), Some(usize::MAX / 4 * 4));
    }
}
