package main

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// Data-plane codec for POST /v1/hash/{name}. The route's requests come
// in two shapes, {"key": s} and {"keys": [s, ...]}, so a small scanner
// decodes them without reflection, and responses are appended into
// one buffer as compact JSON. decodeJSON stays the reference: every
// body the scanner does not take goes to it unchanged, and
// FuzzHashRequest holds the two to the same results.

// decodeHashRequest decodes a hash-route body, scanning the two common
// shapes and handing everything else to decodeJSON.
func decodeHashRequest(body []byte) (hashRequest, error) {
	if req, ok := scanHashRequest(body); ok {
		return req, nil
	}
	var req hashRequest
	err := decodeJSON(body, &req)
	return req, err
}

// scanHashRequest parses exactly {"key": s} or {"keys": [s, ...]}
// with JSON whitespace anywhere between tokens. It reports false for
// anything else — other spellings of the field names, extra or
// duplicate fields, null, non-string values, trailing bytes or
// malformed input — leaving the verdict to decodeJSON.
func scanHashRequest(body []byte) (hashRequest, bool) {
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
		// Every key costs two quotes, so this bounds the key count and
		// the slice is allocated once.
		req.Keys = make([]string, 0, bytes.Count(body, []byte{'"'})/2)
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
// printable ASCII without escapes is sliced from s; one holding escapes
// or non-ASCII bytes is decoded by json.Unmarshal, which keeps
// encoding/json's handling of surrogates and invalid UTF-8.
func (p *reqScanner) str() (string, bool) {
	p.ws()
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return "", false
	}
	start, plain := p.i, true
	for j := start + 1; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			p.i = j + 1
			if plain {
				return p.s[start+1 : j], true
			}
			var v string
			if json.Unmarshal(p.b[start:p.i], &v) != nil {
				return "", false
			}
			return v, true
		case c == '\\':
			plain = false
			j++ // the escaped byte cannot close the token
		case c < 0x20:
			return "", false // control bytes must be escaped
		case c >= 0x80:
			plain = false
		}
	}
	return "", false
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
			dst = strconv.AppendUint(dst, h, 16)
			dst = append(dst, '"')
		}
		dst = append(dst, ']')
	} else {
		dst = append(dst, `{"hash":"`...)
		dst = strconv.AppendUint(dst, hs[0], 16)
		dst = append(dst, '"')
	}
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, gen, 10)
	return append(dst, "}\n"...)
}
