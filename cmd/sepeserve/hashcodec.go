package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/bits"
	"strconv"
)

// Data-plane codec for POST /v1/hash/{name}. The route's requests come
// in two shapes, {"key": s} and {"keys": [s, ...]}, so a small scanner
// decodes them without reflection, and responses are appended into
// one buffer as compact JSON. decodeJSON stays the reference: every
// body the scanner does not take goes to it unchanged, and
// FuzzHashRequest holds the two to the same results.

// decodeHashRequest decodes a hash-route body, scanning the two common
// shapes and handing everything else to decodeJSON. A scanned batch's
// keys are appended to keys[:0] when it has room for them.
func decodeHashRequest(body []byte, keys []string) (hashRequest, error) {
	scanned, ok := scanHashRequest(body, keys)
	if ok {
		return scanned, nil
	}
	// A declined batch may have scanned some keys into keys' backing
	// array; drop them so a pooled slice does not pin the body.
	clear(scanned.Keys)
	var req hashRequest
	err := decodeJSON(body, &req)
	return req, err
}

// scanHashRequest parses exactly {"key": s} or {"keys": [s, ...]}
// with JSON whitespace anywhere between tokens. It reports false for
// anything else — other spellings of the field names, extra or
// duplicate fields, null, non-string values, trailing bytes or
// malformed input — leaving the verdict to decodeJSON. A batch's keys
// go into keys[:0] if its capacity bounds them, else into a new slice.
func scanHashRequest(body []byte, keys []string) (hashRequest, bool) {
	var req hashRequest
	p := reqScanner{b: body, s: string(body)}
	if !p.lit('{') {
		return req, false
	}
	name, ok := p.str()
	if !ok || !p.lit(':') {
		return req, false
	}
	switch name {
	case "key":
		k, ok := p.str()
		if !ok {
			return req, false
		}
		req.Key = &k
	case "keys":
		if !p.lit('[') {
			return req, false
		}
		// Every key costs two quotes, so the quotes left in the body
		// bound the key count and the slice is allocated at most once.
		// An empty batch still gets a non-nil slice, as decodeJSON's.
		if n := bytes.Count(body[p.i:], []byte{'"'}) / 2; keys == nil || cap(keys) < n {
			keys = make([]string, 0, n)
		}
		req.Keys = keys[:0]
		if !p.lit(']') {
			for {
				k, ok := p.str()
				if !ok {
					return req, false
				}
				req.Keys = append(req.Keys, k)
				if p.lit(']') {
					break
				}
				if !p.lit(',') {
					return req, false
				}
			}
		}
	default:
		return req, false
	}
	if !p.lit('}') {
		return req, false
	}
	p.ws()
	return req, p.i == len(p.b)
}

// reqScanner walks a request body. s is string(b), made once, so a key
// without escapes is a substring of it rather than its own copy.
type reqScanner struct {
	b []byte
	s string
	i int
}

// ws skips JSON whitespace.
func (p *reqScanner) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// lit consumes the byte c after optional whitespace.
func (p *reqScanner) lit(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str consumes one string token after optional whitespace. A token of
// printable ASCII without escapes is sliced from s: its closing quote
// is found with bytes.IndexByte and its span checked by plainSpan
// eight bytes at a time. Any other token — escaped, non-ASCII, holding
// a control byte or unterminated — is delimited byte by byte and
// decoded by json.Unmarshal, which keeps encoding/json's handling of
// surrogates and invalid UTF-8.
func (p *reqScanner) str() (string, bool) {
	p.ws()
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return "", false
	}
	start := p.i
	if n := bytes.IndexByte(p.b[start+1:], '"'); n >= 0 && plainSpan(p.b[start+1:start+1+n]) {
		p.i = start + n + 2
		return p.s[start+1 : start+1+n], true
	}
	for j := start + 1; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			p.i = j + 1
			var v string
			if json.Unmarshal(p.b[start:p.i], &v) != nil {
				return "", false
			}
			return v, true
		case c == '\\':
			j++ // the escaped byte cannot close the token
		case c < 0x20:
			return "", false // control bytes must be escaped
		}
	}
	return "", false
}

// Word masks for plainSpan: one bit or value per byte lane.
const (
	laneOnes = 0x0101010101010101
	laneHigh = 0x8080808080808080
)

// plainSpan reports whether b holds no byte below 0x20, at or above
// 0x80, or equal to '\\' — the bytes a JSON string token may hold
// verbatim and that decode to themselves. It tests eight bytes per
// step: once no lane has its high bit set, subtracting 0x20 from every
// lane borrows into a high bit exactly when some lane is below 0x20,
// and subtracting 1 after XOR with '\\' does so exactly when some lane
// is a backslash. A borrow may also mark a higher lane, but only after
// a lower one was a true hit, so the any-lane answer is exact.
//
//sepe:noalloc
func plainSpan(b []byte) bool {
	for len(b) >= 8 {
		w := binary.LittleEndian.Uint64(b)
		if (w|(w-laneOnes*0x20)|((w^laneOnes*'\\')-laneOnes))&laneHigh != 0 {
			return false
		}
		b = b[8:]
	}
	for _, c := range b {
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return false
		}
	}
	return true
}

// hexPairs holds the two lowercase hex digits of every byte value,
// byte i at hexPairs[2*i:2*i+2].
var hexPairs = func() (t [512]byte) {
	const digits = "0123456789abcdef"
	for i := range 256 {
		t[2*i], t[2*i+1] = digits[i>>4], digits[i&15]
	}
	return t
}()

// appendHex appends h as minimal-width lowercase hex, byte-identical to
// strconv.AppendUint(dst, h, 16), one table lookup per byte.
func appendHex(dst []byte, h uint64) []byte {
	digits := max(1, (bits.Len64(h)+3)/4)
	var buf [16]byte
	for i := 14; i >= 0; i -= 2 {
		p := 2 * (h & 0xff)
		buf[i], buf[i+1] = hexPairs[p], hexPairs[p+1]
		h >>= 8
	}
	return append(dst, buf[16-digits:]...)
}

// appendHashResponse appends the hash route's response body:
// {"hash":"…","generation":n} for a single key, or
// {"hashes":[…],"generation":n} for a batch, then a newline. Hashes
// are minimal-width lowercase hex; neither they nor the generation
// need escaping.
func appendHashResponse(dst []byte, hs []uint64, batch bool, gen uint64) []byte {
	if batch {
		dst = append(dst, `{"hashes":[`...)
		for i, h := range hs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '"')
			dst = appendHex(dst, h)
			dst = append(dst, '"')
		}
		dst = append(dst, ']')
	} else {
		dst = append(dst, `{"hash":"`...)
		dst = appendHex(dst, hs[0])
		dst = append(dst, '"')
	}
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, gen, 10)
	return append(dst, "}\n"...)
}
